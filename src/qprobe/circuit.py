"""Probe circuits: logical construction, routing onto hardware, op walks.

Bitstring convention used throughout: measured qubit 0 is the *rightmost*
character of a rendered outcome string, matching the usual little-endian
rendering of counts dictionaries.

One op walk, ``_walk``, is the single source of truth for which error
opportunities touch which qubit; it yields each op's events as plain
(sub-op, logical, register) tuples.  A circuit is walked once, when it is
built, and reads those tuples straight into one flip table of read-only
arrays: ``flip_sites``, ``flip_bits``, ``flip_slots`` (indices into
``error_keys``) and ``flip_salts`` (the seed-free halves of the rows' stream
keys).  The estimator, the parity oracle and the sampler all read those
arrays, so they agree; fit checks and prices read ``error_keys``.
``walk_ops`` wraps the same walk into ``WalkStep``/``FlipEvent`` objects for
tracing and tests.

A built circuit is read-only (frozen fields, read-only arrays and mapping
views), so ``compose_probe`` keeps the circuits it composed and hands the
same object to every caller that asks for the same probe.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._flipcore import stream_salts
from .device import Topology

__all__ = [
    "Gate",
    "LogicalCircuit",
    "TranspiledOp",
    "TranspiledCircuit",
    "FlipEvent",
    "WalkStep",
    "CircuitError",
    "RoutingError",
    "build_bv",
    "transpile",
    "compose_probe",
    "walk_ops",
    "bit_at",
]


class CircuitError(ValueError):
    """A circuit failed structural validation."""


class RoutingError(CircuitError):
    """Routing could not place a 2-qubit op on the target topology."""


class Gate(Enum):
    H = "H"
    X = "X"
    CNOT = "CNOT"
    SWAP = "SWAP"
    MEASURE = "MEASURE"

    def __init__(self, value: str) -> None:
        # a plain attribute, set once per member: routing and the build read
        # it for every op, and a property on an enum member is slow to read
        self.n_registers = 2 if value in ("CNOT", "SWAP") else 1


def bit_at(bits: str, index: int) -> str:
    """Character of measured qubit ``index`` in a rendered bitstring."""
    return bits[len(bits) - 1 - index]


@dataclass(frozen=True)
class LogicalCircuit:
    """Topology-agnostic circuit over logical qubits.

    ``measured`` lists logical qubits in measurement order; ``ideal_output``
    is the noise-free outcome over those qubits.  Builders guarantee the
    circuit lands in a single basis state before measurement; the constructor
    checks only structure (arity, integer qubits, ranges,
    measure-once-and-last).  Qubits are kept as ``int``: a numpy integer is
    converted, and a bool, a float or any other non-integer raises.
    """

    num_qubits: int
    ops: tuple[tuple[Gate, tuple[int, ...]], ...]
    measured: tuple[int, ...]
    ideal_output: str

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        measured_at: dict[int, int] = {}
        ops = []
        for idx, (gate, qubits) in enumerate(self.ops):
            if len(qubits) != gate.n_registers:
                raise CircuitError(f"op {idx}: {gate.value} takes {gate.n_registers} qubits")
            if type(qubits[0]) is not int or type(qubits[-1]) is not int:  # one or two
                qubits = tuple(_register(q, f"op {idx}: qubit") for q in qubits)
            ops.append((gate, qubits))
            if len(set(qubits)) != len(qubits):
                raise CircuitError(f"op {idx}: repeated qubit operand")
            for q in qubits:
                if not (0 <= q < self.num_qubits):
                    raise CircuitError(f"op {idx}: qubit {q} out of range")
                if q in measured_at:
                    raise CircuitError(f"op {idx}: qubit {q} used after measurement")
            if gate is Gate.MEASURE:
                measured_at[qubits[0]] = idx
        measured = tuple(_register(q, "measured qubit") for q in self.measured)
        if sorted(measured_at) != sorted(measured):
            raise CircuitError("measured qubit list does not match MEASURE ops")
        if len(set(measured)) != len(measured):
            raise CircuitError("measured qubit listed twice")
        if len(self.ideal_output) != len(measured):
            raise CircuitError("ideal_output length must equal number of measured qubits")
        if any(c not in "01" for c in self.ideal_output):
            raise CircuitError("ideal_output must be a bitstring")
        object.__setattr__(self, "ops", tuple(ops))
        object.__setattr__(self, "measured", measured)


@dataclass(frozen=True)
class TranspiledOp:
    """One hardware op: gate, physical registers and its computed error key.

    Registers are kept as ``int`` by ``_register``'s rule: a numpy integer is
    converted, and a bool, a float or any other non-integer raises
    ``CircuitError``.  The key is ("cnot", sorted register pair) for a CNOT or
    SWAP, ("meas", r) for a MEASURE and ("single", r) for any other gate.
    """

    gate: Gate
    registers: tuple[int, ...]
    error_key: tuple = field(init=False, compare=False)

    def __post_init__(self) -> None:
        registers = self.registers
        if len(registers) != self.gate.n_registers:
            raise CircuitError(f"{self.gate.value} takes {self.gate.n_registers} registers")
        # one or two registers, so the first and the last are all of them
        if type(registers[0]) is not int or type(registers[-1]) is not int:
            registers = tuple(_register(r, f"{self.gate.value} register") for r in registers)
            object.__setattr__(self, "registers", registers)
        if len(registers) == 2:
            a, b = registers
            if a == b:
                raise CircuitError("repeated register operand")
            key = ("cnot", (a, b) if a < b else (b, a))
        else:
            key = ("meas" if self.gate is Gate.MEASURE else "single", registers[0])
        object.__setattr__(self, "error_key", key)


@dataclass(frozen=True)
class FlipEvent:
    """One error opportunity for one tracked qubit.

    ``sub`` indexes the constituent CNOTs of a SWAP (0..2) and is 0 for every
    other gate; ``register`` is the physical location of the qubit when the
    op fires.
    """

    op_index: int
    sub: int
    logical: int
    register: int
    error_key: tuple


@dataclass(frozen=True)
class WalkStep:
    op_index: int
    op: TranspiledOp
    events: tuple[FlipEvent, ...]
    locations: dict[int, int]


def _swap(loc: dict[int, int], owner: dict[int, int], a: int, b: int) -> tuple:
    """SWAP registers a and b in both placement maps; return their old qubits."""
    qa, qb = owner.pop(a, None), owner.pop(b, None)
    if qa is not None:
        loc[qa] = b
        owner[b] = qa
    if qb is not None:
        loc[qb] = a
        owner[a] = qb
    return qa, qb


def _walk(ops: Sequence[TranspiledOp], initial_mapping: Mapping[int, int]
          ) -> Iterator[tuple[int, TranspiledOp, list[tuple[int, int, int]], dict[int, int]]]:
    """Replay ``ops``: per op (index, op, events, locations).

    Each event is a (sub, logical, register) tuple.  ``locations`` is the
    live logical -> register map after the op; the next step updates it in
    place, so a caller that keeps it copies it.
    """
    loc = dict(initial_mapping)
    owner = {p: q for q, p in loc.items()}
    if len(owner) != len(loc):
        raise CircuitError("initial mapping is not injective")
    done: set[int] = set()
    swap, measure = Gate.SWAP, Gate.MEASURE
    for idx, op in enumerate(ops):
        held = [(q, r) for r in op.registers if (q := owner.get(r)) is not None]
        for q, r in held:
            if q in done:
                raise CircuitError(f"op {idx}: register {r} holds already-measured qubit {q}")
        if op.gate is swap:
            _swap(loc, owner, *op.registers)
            events = [(sub, q, r) for sub in range(3) for q, r in held]
        else:
            events = [(0, q, r) for q, r in held]
            if op.gate is measure:
                done.update(q for q, _ in held)
        yield idx, op, events, loc


@dataclass(frozen=True)
class TranspiledCircuit:
    """Hardware-level circuit plus the logical bookkeeping around it.

    ``initial_mapping`` maps logical qubit to physical register before any
    op; ``measured`` lists logical qubits in fingerprint order.  The
    constructor walks the ops once and checks that each measured qubit is
    measured exactly once, by the last op touching its register.  Read off
    that walk are ``final_mapping`` (registers after all routing SWAPs),
    ``error_keys`` (the ops' distinct keys, first use first) and the flip
    table, one row per measured-qubit event in walk order.  The table is one
    n x 6 int64 array whose read-only column views are ``flip_sites`` (n x 3:
    op index, sub-op, register), ``flip_bits`` (fingerprint indices),
    ``flip_slots`` (indices into ``error_keys``) and ``flip_places`` (each
    row's place among its bit's rows, from 0); ``flip_salts`` (2 x n
    uint64) comes from ``_flipcore.stream_salts``.  ``initial_mapping`` and
    ``final_mapping`` are read-only ``MappingProxyType`` views, and logical
    qubits and registers are ints by ``_register``'s rule.
    """

    num_qubits: int
    ops: tuple[TranspiledOp, ...]
    initial_mapping: Mapping[int, int]
    measured: tuple[int, ...]
    ideal_output: str
    final_mapping: Mapping[int, int] = field(init=False, compare=False)
    error_keys: tuple[tuple, ...] = field(init=False, compare=False)
    flip_sites: np.ndarray = field(init=False, compare=False, repr=False)
    flip_bits: np.ndarray = field(init=False, compare=False, repr=False)
    flip_slots: np.ndarray = field(init=False, compare=False, repr=False)
    flip_places: np.ndarray = field(init=False, compare=False, repr=False)
    flip_salts: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        initial = {}
        for q, p in self.initial_mapping.items():
            if type(q) is not int or type(p) is not int:
                q, p = _register(q, "logical qubit"), _register(p, "initial mapping register")
            if not (0 <= p < self.num_qubits):
                raise CircuitError(f"initial mapping sends {q} to bad register {p}")
            initial[q] = p
        measured = tuple(_register(q, "measured qubit") for q in self.measured)
        object.__setattr__(self, "initial_mapping", MappingProxyType(initial))
        object.__setattr__(self, "measured", measured)
        for op in self.ops:
            for r in op.registers:
                if not (0 <= r < self.num_qubits):
                    raise CircuitError(f"register {r} out of range")
        bit_of = {q: i for i, q in enumerate(measured)}
        slot_of: dict[tuple, int] = {}  # error key -> slot, first use first
        seen_measures: list[int] = []
        rows: list[int] = []  # flip table rows (op, sub, register, bit, slot, place), flattened
        places = [0] * len(measured)  # rows so far per bit
        loc: Mapping[int, int] = initial
        measure = Gate.MEASURE
        for idx, op, events, loc in _walk(self.ops, initial):
            slot = slot_of.setdefault(op.error_key, len(slot_of))
            if op.gate is measure:
                seen_measures += (q for _, q, _ in events)
            for sub, q, r in events:
                bit = bit_of.get(q)
                if bit is not None:
                    rows += (idx, sub, r, bit, slot, places[bit])
                    places[bit] += 1
        if sorted(seen_measures) != sorted(measured):
            raise CircuitError("MEASURE ops do not cover the measured qubit list")
        if len(self.ideal_output) != len(measured):
            raise CircuitError("ideal_output length must equal number of measured qubits")
        if any(c not in "01" for c in self.ideal_output):
            raise CircuitError("ideal_output must be a bitstring")
        object.__setattr__(self, "final_mapping", MappingProxyType(dict(loc)))
        object.__setattr__(self, "error_keys", tuple(slot_of))
        table = np.array(rows, dtype=np.int64).reshape(-1, 6)
        for name, array in (
                ("flip_sites", table[:, :3]),
                ("flip_bits", table[:, 3]),
                ("flip_slots", table[:, 4]),
                ("flip_places", table[:, 5]),
                ("flip_salts", stream_salts(table[:, :3]))):
            array.flags.writeable = False
            object.__setattr__(self, name, array)


def walk_ops(circuit: TranspiledCircuit) -> Iterator[WalkStep]:
    """Per-op flip events and locations of a transpiled circuit.

    Walks ``circuit.ops`` anew on each call; jobs never do.  A SWAP contributes
    three events (its constituent CNOTs) to each tracked qubit it touches and
    then exchanges their locations; a MEASURE contributes one event at the
    qubit's final register.  This is the circuit's own build walk, with each
    step held as objects and its locations copied.
    """
    for idx, op, events, loc in _walk(circuit.ops, circuit.initial_mapping):
        yield WalkStep(idx, op, tuple(FlipEvent(idx, sub, q, r, op.error_key)
                                      for sub, q, r in events), dict(loc))


def build_bv(secret: str) -> LogicalCircuit:
    """Bernstein-Vazirani probe for a secret bitstring.

    Inputs are logical 0..n-2, the ancilla is logical n-1 and is prepared in
    the |-> state via X then H.  Oracle CNOTs run from each input whose
    secret bit is 1 into the ancilla, in ascending input order.  The ideal
    outcome equals the secret.
    """
    if not secret or any(c not in "01" for c in secret):
        raise CircuitError("secret must be a non-empty bitstring")
    n_inputs = len(secret)
    ancilla = n_inputs
    ops: list[tuple[Gate, tuple[int, ...]]] = [(Gate.X, (ancilla,)), (Gate.H, (ancilla,))]
    ops += [(Gate.H, (i,)) for i in range(n_inputs)]
    ops += [(Gate.CNOT, (i, ancilla)) for i in range(n_inputs) if bit_at(secret, i) == "1"]
    ops += [(Gate.H, (i,)) for i in range(n_inputs)]
    ops += [(Gate.MEASURE, (i,)) for i in range(n_inputs)]
    return LogicalCircuit(
        num_qubits=n_inputs + 1,
        ops=tuple(ops),
        measured=tuple(range(n_inputs)),
        ideal_output=secret,
    )


def _route_path(topology: Topology, start: int, goal: int, blocked: set[int]) -> list[int]:
    """Shortest register path start -> goal avoiding blocked interior nodes.

    Ties are broken toward the lowest physical index at each hop.  The path
    reads only hop counts below ``start``'s, so the search from ``goal``
    stops once it reaches ``start``.
    """
    dist = topology.distances_from(goal, blocked - {start, goal}, until=start)
    if start not in dist:
        raise RoutingError(f"no route from register {start} to {goal}")
    path = [start]
    cur = start
    while cur != goal:
        steps = [v for v in topology.neighbors(cur)
                 if v not in blocked and v in dist and dist[v] == dist[cur] - 1]
        cur = min(steps)
        path.append(cur)
    return path


def _register(p, what: str = "mapping register") -> int:
    """A register or qubit as an int; bools, floats and other non-integers
    raise ``CircuitError`` naming ``what``."""
    if not isinstance(p, (bool, np.bool_)):
        try:
            return operator.index(p)
        except TypeError:
            pass
    raise CircuitError(f"{what} {p!r} is not an integer")


def _route(circuit: LogicalCircuit, topology: Topology,
           initial_mapping: Sequence[int] | Mapping[int, int]
           ) -> tuple[tuple[TranspiledOp, ...], dict[int, int]]:
    """Checked mapping and routing of one part: (ops, initial map)."""
    if isinstance(initial_mapping, Mapping):
        try:
            initial_mapping = [initial_mapping[q] for q in range(len(initial_mapping))]
        except KeyError:
            raise CircuitError("mapping must place logical qubits 0..n-1") from None
    if len(initial_mapping) != circuit.num_qubits:
        raise CircuitError("initial mapping must place every logical qubit")
    initial_mapping = [_register(p) for p in initial_mapping]
    if len(set(initial_mapping)) != len(initial_mapping):
        raise CircuitError("initial mapping is not injective")
    for p in initial_mapping:
        if not (0 <= p < topology.num_qubits):
            raise CircuitError(f"mapping register {p} out of range")

    l2p = dict(enumerate(initial_mapping))
    p2l = {p: q for q, p in l2p.items()}
    frozen: set[int] = set()
    out: list[TranspiledOp] = []

    for gate, qubits in circuit.ops:
        if gate.n_registers == 1:
            p = l2p[qubits[0]]
            out.append(TranspiledOp(gate, (p,)))
            if gate is Gate.MEASURE:
                frozen.add(p)
            continue
        pa, pb = l2p[qubits[0]], l2p[qubits[1]]
        if not topology.adjacent(pa, pb):
            path = _route_path(topology, pa, pb, frozen)
            for nxt in path[1:-1]:
                out.append(TranspiledOp(Gate.SWAP, (pa, nxt)))
                _swap(l2p, p2l, pa, nxt)
                pa = nxt
        out.append(TranspiledOp(gate, (pa, pb)))
    return tuple(out), dict(enumerate(initial_mapping))


def _assemble(parts: Sequence[tuple[LogicalCircuit, Sequence[int] | Mapping[int, int]]],
              topology: Topology) -> TranspiledCircuit:
    """Route each (circuit, mapping) part, at graph distance >= 2 from each
    other, and build one circuit; part 0 holds the rightmost output bits."""
    routed = [_route(circ, topology, mapping) for circ, mapping in parts]
    used = [set(initial.values()).union(*(op.registers for op in ops))
            for ops, initial in routed]
    for i in range(len(used)):
        for j in range(i + 1, len(used)):
            gap = topology.set_distance(used[i], used[j])
            if gap is not None and gap < 2:
                raise CircuitError(
                    f"subprobes {i} and {j} are at graph distance {gap}; need >= 2")

    ops: list[TranspiledOp] = []
    initial: dict[int, int] = {}
    measured: list[int] = []
    offset = 0
    for (circ, _), (part_ops, part_initial) in zip(parts, routed):
        ops.extend(part_ops)
        initial.update((q + offset, p) for q, p in part_initial.items())
        measured.extend(q + offset for q in circ.measured)
        offset += circ.num_qubits
    return TranspiledCircuit(
        num_qubits=topology.num_qubits,
        ops=tuple(ops),
        initial_mapping=initial,
        measured=tuple(measured),
        ideal_output="".join(circ.ideal_output for circ, _ in reversed(parts)),
    )


def transpile(circuit: LogicalCircuit, topology: Topology,
              initial_mapping: Sequence[int] | Mapping[int, int]) -> TranspiledCircuit:
    """Route a logical circuit onto a topology under a fixed initial mapping.

    The mapping is a register per logical qubit, either as a sequence indexed
    by logical id or as an explicit {logical: register} mapping.  Non-adjacent
    2-qubit ops move their first operand along a shortest path with SWAPs
    placed immediately before the blocked op; nothing is swapped back
    afterwards.  Registers holding already-measured qubits are never routed
    through.
    """
    return _assemble([(circuit, initial_mapping)], topology)


_PROBE_CACHE = 128  # composed probes kept, least recently used dropped first


def compose_probe(subprobes: Sequence[tuple[str, Sequence[int]]],
                  topology: Topology) -> TranspiledCircuit:
    """Union of BV subprobes running on disjoint regions of one device.

    Each subprobe is a (secret, initial_mapping) pair.  Regions must be
    pairwise at graph distance >= 2 so the subprobes cannot interact even
    through a shared coupler.  Subprobes are transpiled by the same routine
    as `transpile`, so a single subprobe composes to exactly its own
    transpilation.  The parts are only routed; the probe is built, and so
    walked, once as a whole.

    Composing is memoized by value: str secrets with list or tuple mappings
    of exact ints, on a topology equal to one seen before, return the same
    read-only circuit.  A probe that fails is never kept and raises on every
    call; any other input (a bool, numpy integer or float register, a
    ``Mapping`` mapping) is composed uncached, with the same checks.
    """
    if not subprobes:
        raise CircuitError("compose_probe needs at least one subprobe")
    key = _probe_key(subprobes, topology)
    if key is None:
        return _compose(subprobes, topology)
    return _composed(*key)


def _compose(subprobes, topology: Topology) -> TranspiledCircuit:
    """``compose_probe`` without the cache."""
    return _assemble([(build_bv(secret), mapping) for secret, mapping in subprobes], topology)


_composed = functools.lru_cache(maxsize=_PROBE_CACHE)(_compose)


def _probe_key(subprobes, topology) -> tuple | None:
    """(parts, topology) to cache a probe on, each part a (secret, tuple of
    registers); None unless every secret is a str, every mapping a list or
    tuple of exact ints and the topology a ``Topology``."""
    if type(topology) is not Topology or type(subprobes) not in (list, tuple):
        return None
    parts = []
    for part in subprobes:
        if type(part) not in (list, tuple) or len(part) != 2:
            return None
        secret, mapping = part
        if (type(secret) is not str or type(mapping) not in (list, tuple)
                or not all(type(p) is int for p in mapping)):
            return None
        parts.append((secret, tuple(mapping)))
    return tuple(parts), topology
