"""Device model: coupling topologies, calibration profiles and error vectors.

A profile is the per-device calibration snapshot a cloud provider publishes:
CNOT error per coupling edge, single-qubit gate error and readout error per
qubit.  Profiles are value objects; nothing in here mutates them after
construction, so they are safe to share freely.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Topology",
    "DeviceProfile",
    "ErrorVector",
    "ProfileError",
    "TopologyError",
    "load_profile",
    "dump_profile",
    "error_vector",
    "fabricate",
    "topology_compatible",
]


class ProfileError(ValueError):
    """A profile document or profile field failed validation."""


class TopologyError(ValueError):
    """A circuit does not fit a device topology (see ``topology_compatible``)."""


def _norm_edge(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True, init=False)
class Topology:
    """Undirected coupling graph of a device.

    Edges are stored with endpoints in ascending order, duplicates merged;
    self-loops are rejected.  Equality and hashing ignore the adjacency cache.
    """

    num_qubits: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]]):
        if num_qubits < 1:
            raise ProfileError("num_qubits must be positive")
        normed = set()
        for a, b in edges:
            if a == b:
                raise ProfileError(f"self-loop edge ({a}, {b})")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise ProfileError(f"edge ({a}, {b}) out of range for {num_qubits} qubits")
            normed.add(_norm_edge(a, b))
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "edges", frozenset(normed))
        adjacency: dict[int, list[int]] = {}
        for a, b in sorted(normed):  # edge order leaves each neighbour list sorted
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        object.__setattr__(self, "_adjacency", adjacency)

    def adjacent(self, a: int, b: int) -> bool:
        return _norm_edge(a, b) in self.edges

    def neighbors(self, q: int) -> list[int]:
        return list(self._adjacency.get(q, ()))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def distances_from(self, start: int, blocked: frozenset[int] | set[int] = frozenset()) -> dict[int, int]:
        """BFS hop counts from ``start``, never entering ``blocked`` registers."""
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.neighbors(u):
                    if v not in dist and v not in blocked:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def set_distance(self, group_a: Iterable[int], group_b: Iterable[int]) -> int | None:
        """Minimum hop count between two qubit groups, or None if disconnected."""
        targets = set(group_b)
        best: int | None = None
        for a in set(group_a):
            dist = self.distances_from(a)
            for t in targets:
                if t in dist and (best is None or dist[t] < best):
                    best = dist[t]
        return best


@dataclass(frozen=True)
class DeviceProfile:
    """Published calibration data for one device.

    ``cnot_error`` is keyed by normalized edge and applies to the edge in both
    directions; ``single_qubit_error`` and ``measurement_error`` carry exactly
    one rate per qubit.  All rates live in [0, 1).
    """

    device_id: str
    topology: Topology
    cnot_error: Mapping[tuple[int, int], float]
    single_qubit_error: Mapping[int, float]
    measurement_error: Mapping[int, float]
    calibration_time: str

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ProfileError("device_id must be non-empty")
        cnot = {_norm_edge(a, b): float(r) for (a, b), r in self.cnot_error.items()}
        for edge in cnot:
            if edge not in self.topology.edges:
                raise ProfileError(f"cnot_error.{edge[0]}-{edge[1]}: edge not in topology")
        for edge in self.topology.sorted_edges():
            if edge not in cnot:
                raise ProfileError(f"cnot_error.{edge[0]}-{edge[1]}: missing rate for edge")
        for name, rates in (("single_qubit_error", self.single_qubit_error),
                            ("measurement_error", self.measurement_error)):
            for q in range(self.topology.num_qubits):
                if q not in rates:
                    raise ProfileError(f"{name}.{q}: missing rate for qubit")
            for q in rates:
                if not (0 <= q < self.topology.num_qubits):
                    raise ProfileError(f"{name}.{q}: qubit out of range")
        for path, rate in self._iter_rates():
            if not (0.0 <= rate < 1.0):
                raise ProfileError(f"{path}: rate {rate} outside [0, 1)")
        object.__setattr__(self, "cnot_error", cnot)
        object.__setattr__(self, "single_qubit_error", dict(self.single_qubit_error))
        object.__setattr__(self, "measurement_error", dict(self.measurement_error))

    def _iter_rates(self):
        for (a, b), r in self.cnot_error.items():
            yield f"cnot_error.{a}-{b}", r
        for q, r in self.single_qubit_error.items():
            yield f"single_qubit_error.{q}", r
        for q, r in self.measurement_error.items():
            yield f"measurement_error.{q}", r

    def rate_for(self, key: tuple) -> float:
        """Resolve an op error key: ("cnot", edge), ("single", q) or ("meas", q)."""
        kind, where = key
        try:
            if kind == "cnot":
                return self.cnot_error[_norm_edge(*where)]
            if kind == "single":
                return self.single_qubit_error[where]
            if kind == "meas":
                return self.measurement_error[where]
        except KeyError:
            raise KeyError(f"profile {self.device_id!r} has no rate for {kind} at {where}") from None
        raise KeyError(f"unknown error key kind {kind!r}")


@dataclass(frozen=True)
class ErrorVector:
    """Static fingerprint: labelled CNOT and readout rates in canonical order.

    CNOT entries come first, sorted by edge, then measurement entries sorted
    by qubit; labels look like ``CNOT_(0,1)`` and ``Meas_3``.
    """

    entries: tuple[tuple[str, float], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def rates(self) -> tuple[float, ...]:
        return tuple(rate for _, rate in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def error_vector(profile: DeviceProfile, region: Iterable[int] | None = None) -> ErrorVector:
    """Error vector of a profile, optionally restricted to a qubit region.

    An edge is inside the region only when both endpoints are.
    """
    qubits = set(range(profile.topology.num_qubits)) if region is None else set(region)
    entries: list[tuple[str, float]] = []
    for a, b in profile.topology.sorted_edges():
        if a in qubits and b in qubits:
            entries.append((f"CNOT_({a},{b})", profile.cnot_error[(a, b)]))
    for q in sorted(qubits):
        entries.append((f"Meas_{q}", profile.measurement_error[q]))
    return ErrorVector(tuple(entries))


def _parse_override_label(label: str) -> tuple:
    try:
        if label.startswith("CNOT_(") and label.endswith(")"):
            a, _, b = label[len("CNOT_("):-1].partition(",")
            return ("cnot", _norm_edge(int(a), int(b)))
        if label.startswith("Meas_"):
            return ("meas", int(label[len("Meas_"):]))
        if label.startswith("SQ_"):
            return ("single", int(label[len("SQ_"):]))
    except ValueError:
        pass
    raise ProfileError(f"override label {label!r} is not CNOT_(a,b), Meas_q or SQ_q")


def fabricate(profile: DeviceProfile, *, scale: float | None = None,
              overrides: Mapping[str, float] | None = None) -> DeviceProfile:
    """Forge a profile by scaling every rate or pinning specific entries.

    Exactly one of ``scale`` (a factor in (0, 1]) and ``overrides`` (a map
    from error-vector style labels to absolute rates) must be given.  The
    result keeps the device id, topology and calibration time of the input.
    """
    if (scale is None) == (overrides is None):
        raise ProfileError("fabricate needs exactly one of scale / overrides")
    cnot = dict(profile.cnot_error)
    single = dict(profile.single_qubit_error)
    meas = dict(profile.measurement_error)
    if scale is not None:
        if not _is_real(scale) or not (0.0 < scale <= 1.0):
            raise ProfileError(f"scale_factor {scale!r} outside (0, 1]")
        cnot = {e: r * scale for e, r in cnot.items()}
        single = {q: r * scale for q, r in single.items()}
        meas = {q: r * scale for q, r in meas.items()}
    else:
        if not isinstance(overrides, Mapping):
            raise ProfileError("overrides must map labels to rates")
        for label, rate in overrides.items():
            kind, where = _parse_override_label(label)
            table = {"cnot": cnot, "single": single, "meas": meas}[kind]
            if where not in table:
                raise ProfileError(f"override {label!r} does not name a profile entry")
            table[where] = _as_rate(f"override {label!r}", rate)
    return DeviceProfile(
        device_id=profile.device_id,
        topology=profile.topology,
        cnot_error=cnot,
        single_qubit_error=single,
        measurement_error=meas,
        calibration_time=profile.calibration_time,
    )


def topology_compatible(circuit, topology: Topology) -> bool:
    """True when every op register exists and every 2-qubit op sits on an edge.

    Total over anything with an ``ops`` sequence of (gate, registers) pairs;
    never raises for mismatched circuits.
    """
    for op in circuit.ops:
        regs = op.registers
        if any(not (0 <= r < topology.num_qubits) for r in regs):
            return False
        if len(regs) == 2 and not topology.adjacent(*regs):
            return False
    return True


# --- JSON document handling -------------------------------------------------

_REQUIRED_FIELDS = ("device_id", "num_qubits", "edges", "cnot_error",
                    "single_qubit_error", "measurement_error", "calibration_time")


def load_profile(document: str) -> DeviceProfile:
    """Parse a profile JSON document.

    Schema errors are reported with the offending field path, e.g.
    ``cnot_error.0-2``.
    """
    try:
        raw = json.loads(document, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProfileError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProfileError("profile document must be a JSON object")
    for name in _REQUIRED_FIELDS:
        if name not in raw:
            raise ProfileError(f"{name}: missing field")

    if not _is_int(raw["num_qubits"]):
        raise ProfileError("num_qubits: must be an integer")
    if not isinstance(raw["edges"], list):
        raise ProfileError("edges: must be a list of two-int pairs")
    for name in ("cnot_error", "single_qubit_error", "measurement_error"):
        if not isinstance(raw[name], dict):
            raise ProfileError(f"{name}: must be a JSON object")
    edges = []
    for i, pair in enumerate(raw["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
            raise ProfileError(f"edges[{i}]: must be a two-int pair")
        edges.append((pair[0], pair[1]))
    topology = Topology(raw["num_qubits"], edges)

    cnot = {}
    for key, rate in raw["cnot_error"].items():
        a, _, b = key.partition("-")
        ia, ib = _index(a), _index(b)
        if ia is None or ib is None:
            raise ProfileError(f"cnot_error.{key}: key must look like 'a-b'")
        if ia >= ib:
            raise ProfileError(f"cnot_error.{key}: key must be 'a-b' with a < b")
        cnot[(ia, ib)] = _as_rate(f"cnot_error.{key}", rate)
    single = _qubit_rates("single_qubit_error", raw["single_qubit_error"])
    meas = _qubit_rates("measurement_error", raw["measurement_error"])
    if not isinstance(raw["device_id"], str):
        raise ProfileError("device_id: must be a string")
    if not isinstance(raw["calibration_time"], str):
        raise ProfileError("calibration_time: must be an ISO-8601 string")
    return DeviceProfile(
        device_id=raw["device_id"],
        topology=topology,
        cnot_error=cnot,
        single_qubit_error=single,
        measurement_error=meas,
        calibration_time=raw["calibration_time"],
    )


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook that rejects a key given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ProfileError(f"repeated key {key!r} in a JSON object")
        out[key] = value
    return out


_DECIMAL = re.compile("0|[1-9][0-9]*")


def _index(text: str) -> int | None:
    """Value of a canonical decimal such as "0" or "12", else None.

    Rate-table keys have one spelling each, so no second spelling (" 0",
    "01", "0_0") can silently overwrite an entry.
    """
    if _DECIMAL.fullmatch(text) is None:
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_rate(path: str, value) -> float:
    if not _is_real(value):
        raise ProfileError(f"{path}: rate must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ProfileError(f"{path}: rate outside [0, 1)") from None


def _qubit_rates(field_name: str, raw: Mapping[str, object]) -> dict[int, float]:
    out = {}
    for key, rate in raw.items():
        q = _index(key)
        if q is None:
            raise ProfileError(f"{field_name}.{key}: key must be a qubit index")
        out[q] = _as_rate(f"{field_name}.{key}", rate)
    return out


def dump_profile(profile: DeviceProfile) -> str:
    """Serialize a profile so that load_profile round-trips it exactly."""
    doc = {
        "device_id": profile.device_id,
        "num_qubits": profile.topology.num_qubits,
        "edges": [list(e) for e in profile.topology.sorted_edges()],
        "cnot_error": {f"{a}-{b}": r for (a, b), r in sorted(profile.cnot_error.items())},
        "single_qubit_error": {str(q): r for q, r in sorted(profile.single_qubit_error.items())},
        "measurement_error": {str(q): r for q, r in sorted(profile.measurement_error.items())},
        "calibration_time": profile.calibration_time,
    }
    return json.dumps(doc, indent=2)
