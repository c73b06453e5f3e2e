"""Command line front end.

Subcommands: identify, detect-sub, detect-fab, sweep, trace.  Experiments
are driven by a fleet config file and probe specs; reports are emitted as
JSON or CSV and contain no timestamps or environment state, so two runs
with identical flags produce byte-identical output.

Two loops run the experiments.  ``detect-sub`` (one probe) and
``detect-fab`` (k probes) share the paper's check: build and estimate every
probe, then run one lone job per probe and score it through
``estimate_fingerprint``, ``survival_from_counts`` and ``detect``.
``identify`` and ``sweep`` share a fleet loop: per probe, in one
``QuantumCloud.batch``, price every device the probe fits once
(``QuantumCloud.price``, whose row the device's job reuses) and submit one
job to each, so the probe's jobs are sampled in one kernel call per round;
the (candidates × qubits) estimate array and (jobs × qubits) survival array
are compared as one distance array, whose every float equals the one-row
functions' for that pair.  The sweep summary masks the distances.

Reports are written by ``ExperimentReport``, whose rows every command
builds as columns: a ``Table`` of equal-length lists keyed by field, so the
rows share one key set by construction, and no row dict is built unless
``trials`` is read.  JSON is the output of
``json.dumps(doc, indent=2, sort_keys=True)`` to the byte, but only
``kind``, ``params`` and ``summary`` go through that call: with an indent,
``json`` falls back to its pure-Python encoder, which dominated the cost
of a scan.  The ``trials`` rows, the bulk of ``identify`` and ``sweep``
reports, are written column by column, each column typed once: in a
column of only strings, only ints or only bools each distinct cell is
encoded once, with the encoder ``json`` itself uses for that type; a
column of only finite floats goes through ``float.__repr__``; a nested
table (identify's ``distances``) is written the same way one level down,
with ``null`` for its null cells; and any other column value by value
with ``json.dumps``.  The keys' fixed text and the cells fill one flat
list of pieces, a column at a time, which is joined once.  CSV goes
through ``csv.writer`` with minimal quoting, so a probe label such as
``bv:11@0,1,3`` stays one cell.

Exit codes: 0 for honest / fully identified, 2 when fraud (or an identity
mismatch) is detected, 1 for configuration and I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from ._flipcore import offset_seed
from .circuit import CircuitError, TranspiledCircuit, compose_probe
from .cloud import AttackConfig, QuantumCloud, load_fleet
from .detector import DEFAULT_THRESHOLD, check_threshold, detect, distance_array, match_devices
from .device import TopologyError, _index, load_profile
from .devicesim import survival_array, survival_from_counts
from .estimator import estimate_array, estimate_fingerprint, trace_survival

__all__ = [
    "ProbeSpec",
    "ExperimentReport",
    "Table",
    "parse_probe_args",
    "parse_strategy",
    "run_identify",
    "run_detect_substitution",
    "run_detect_fabrication",
    "run_threshold_sweep",
    "main",
]

# Rows whose best and runner-up distances are closer than this are flagged
# as ambiguous identifications.
AMBIGUITY_MARGIN = 0.005


class CommandError(ValueError):
    """Bad experiment configuration; maps to exit code 1."""


@dataclass(frozen=True)
class ProbeSpec:
    """One probe: a list of (secret, mapping) subprobes composed on a device."""

    subprobes: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def label(self) -> str:
        return "+".join(f"bv:{secret}@{','.join(map(str, mapping))}"
                        for secret, mapping in self.subprobes)

    @property
    def size(self) -> int:
        return sum(len(secret) + 1 for secret, _ in self.subprobes)

    def build(self, cloud: QuantumCloud) -> tuple[TranspiledCircuit, str]:
        """Transpile against the first catalog device that accepts the probe."""
        failures = []
        for device_id in cloud.device_ids():
            topology = cloud.get_profile(device_id).topology
            try:
                return compose_probe(self.subprobes, topology), device_id
            except CircuitError as exc:
                failures.append(f"{device_id}: {exc}")
        raise CommandError("probe fits no fleet device; " + "; ".join(failures))


def parse_probe_args(probes: tuple[str, ...], mappings: tuple[str, ...]) -> list[ProbeSpec]:
    """Pair up repeated --probe/--mapping flags into probe specs."""
    if not probes:
        raise CommandError("at least one --probe is required")
    if len(probes) != len(mappings):
        raise CommandError("--probe and --mapping must be given the same number of times")
    specs = []
    for probe, mapping in zip(probes, mappings):
        secrets = []
        for part in probe.split("+"):
            if not part.startswith("bv:"):
                raise CommandError(f"probe part {part!r} must look like bv:<secret>")
            secret = part[len("bv:"):]
            if not secret or any(c not in "01" for c in secret):
                raise CommandError(f"probe secret {secret!r} must be a bitstring")
            secrets.append(secret)
        groups = []
        for group in mapping.split(";"):
            # one spelling per register, as for rate-table keys: no "", " 1", "+1", "01"
            registers = tuple(_index(x) for x in group.split(","))
            if None in registers:
                raise CommandError(f"mapping group {group!r} must be comma-separated ints")
            groups.append(registers)
        if len(groups) != len(secrets):
            raise CommandError(f"probe {probe!r} has {len(secrets)} subprobes "
                               f"but mapping {mapping!r} has {len(groups)} groups")
        for secret, group in zip(secrets, groups):
            if len(group) != len(secret) + 1:
                raise CommandError(
                    f"secret {secret!r} needs {len(secret) + 1} mapped qubits, got {len(group)}")
        placed = [r for group in groups for r in group]
        twice = next((r for i, r in enumerate(placed) if r in placed[:i]), None)
        if twice is not None:
            raise CommandError(f"mapping {mapping!r} places register {twice} twice")
        specs.append(ProbeSpec(tuple(zip(secrets, groups))))
    return specs


def _split_overrides(text: str) -> list[str]:
    """Split on commas, except inside parentheses (CNOT labels contain one)."""
    pieces: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in text:
        if ch == "," and depth == 0:
            pieces.append("".join(current))
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        current.append(ch)
    pieces.append("".join(current))
    return pieces


def parse_strategy(text: str) -> dict:
    """Parse a fabrication strategy flag: scale:<f> or set:<Label=rate,...>."""
    if text.startswith("scale:"):
        try:
            return {"scale": float(text[len("scale:"):])}
        except ValueError:
            raise CommandError(f"bad scale factor in {text!r}") from None
    if text.startswith("set:"):
        body = text[len("set:"):]
        if not body:
            raise CommandError("set: strategy needs at least one override")
        overrides = {}
        for piece in _split_overrides(body):
            label, sep, value = piece.partition("=")
            if not sep:
                raise CommandError(f"override {piece!r} must look like Label=rate")
            if label in overrides:
                raise CommandError(f"override label {label!r} given twice")
            try:
                overrides[label] = float(value)
            except ValueError:
                raise CommandError(f"bad rate in override {piece!r}") from None
        return {"overrides": overrides}
    raise CommandError(f"strategy {text!r} must start with scale: or set:")


@dataclass(frozen=True)
class Table:
    """Report rows held as columns.

    ``columns`` maps each string key to a list of ``rows`` cells, or to a
    nested Table whose rows are that column's dict cells.  A nested table's
    ``nulls`` are the positions of the column's null cells; its own rows
    fill the other positions, in order.  Every row of a table has the same
    keys by construction.
    """

    rows: int
    columns: dict
    nulls: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if any(not 0 <= i < self.rows + len(self.nulls) for i in self.nulls):
            raise ValueError("null position outside the column")
        for key, column in self.columns.items():
            if type(key) is not str:
                raise ValueError(f"report key {key!r} is not a string")
            cells = column.rows + len(column.nulls) if isinstance(column, Table) else len(column)
            if cells != self.rows:
                raise ValueError(f"column {key!r} has {cells} cells for {self.rows} rows")

    @classmethod
    def from_rows(cls, rows: list[dict]) -> Table:
        """The table of row dicts that share one key set; a dict cell stays a cell."""
        keys = rows[0].keys() if rows else {}
        if any(row.keys() != keys for row in rows):
            raise ValueError("report rows must share one key set")
        return cls(len(rows), {key: [row[key] for row in rows] for key in keys})

    def dicts(self) -> list:
        """The rows as dicts, with None at the null positions."""
        keys = list(self.columns)
        cells = [_cells(column) for column in self.columns.values()]
        rows = ([dict(zip(keys, row)) for row in zip(*cells)] if keys
                else [{} for _ in range(self.rows)])
        return _with_nulls(rows, self.nulls, None)


def _cells(column) -> list:
    """A column's cells as Python values."""
    return column.dicts() if isinstance(column, Table) else column


def _with_nulls(cells: list, nulls: frozenset[int], null) -> list:
    """``cells`` with ``null`` inserted at the positions ``nulls``."""
    if not nulls:
        return cells
    rest = iter(cells)
    return [null if i in nulls else next(rest) for i in range(len(cells) + len(nulls))]


@dataclass
class ExperimentReport:
    """One command's report; its ``trials`` rows are held as a ``Table``."""

    kind: str
    params: dict
    table: Table
    summary: dict

    def __post_init__(self) -> None:
        if self.table.nulls:
            raise ValueError("report rows cannot be null")

    @property
    def trials(self) -> list[dict]:
        """The rows as dicts, built on each access."""
        return self.table.dicts()

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
        head = json.dumps({"kind": self.kind, "params": self.params, "summary": self.summary},
                          indent=2, sort_keys=True)
        # "trials" sorts after "summary", so it closes the document
        return f'{head[:-2]},\n  "trials": {_json_list(self.table, 2)}\n}}\n'

    def to_csv(self) -> str:
        table = self.table
        if self.kind == "identify":
            candidates = self.params["candidates"]
            rows = [["device", *candidates]]
            for device, distances in zip(table.columns["device"],
                                         _cells(table.columns["distances"])):
                distances = distances or {}
                rows.append([device, *(_csv_cell(distances.get(c)) for c in candidates)])
        elif not table.rows:
            return "\n"
        else:
            keys = sorted(table.columns)
            cells = [list(map(_csv_cell, _cells(table.columns[key]))) for key in keys]
            rows = [keys, *(zip(*cells) if keys else [()] * table.rows)]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()


def _json_pieces(table: Table, indent: int) -> tuple[list[str], int]:
    """The rows as the indented encoder writes dicts whose opening braces
    sit ``indent`` spaces in, as one flat list of pieces, and the number of
    pieces a row takes: each key's fixed text then its cell, and last the
    closing brace.  A key's text and its cells are filled in as whole
    columns, by slice."""
    keys = sorted(table.columns)
    n, stride = table.rows, 2 * len(keys) + 1
    pieces = [""] * (n * stride)
    pad = "\n" + " " * (indent + 2)
    for i, key in enumerate(keys):
        head = ("," if i else "{") + pad + encode_basestring_ascii(key) + ": "
        pieces[2 * i::stride] = [head] * n
        pieces[2 * i + 1::stride] = _json_cells(table.columns[key], indent + 2)
    pieces[stride - 1::stride] = ["\n" + " " * indent + "}" if keys else "{}"] * n
    return pieces, stride


def _json_rows(table: Table, indent: int) -> list[str]:
    """Each row's text, as ``_json_pieces`` writes it."""
    pieces, stride = _json_pieces(table, indent)
    return ["".join(pieces[at:at + stride]) for at in range(0, len(pieces), stride)]


def _json_list(table: Table, indent: int) -> str:
    """The rows as the indented encoder writes a list of them whose opening
    bracket sits ``indent`` spaces in, joined in one pass."""
    if not table.rows:
        return "[]"
    pieces, stride = _json_pieces(table, indent + 2)
    between = ",\n" + " " * (indent + 2)
    pieces[stride - 1:-1:stride] = [piece + between for piece in pieces[stride - 1:-1:stride]]
    return "[" + between[1:] + "".join(pieces) + "\n" + " " * indent + "]"


# the encoders of a column of one type; each distinct cell is encoded once
_JSON_SCALAR = {str: encode_basestring_ascii, int: int.__repr__,
                bool: {False: "false", True: "true"}.__getitem__}


def _json_cells(column, indent: int) -> list[str]:
    """Each cell as the indented encoder writes it ``indent`` spaces in."""
    if isinstance(column, Table):
        return _with_nulls(_json_rows(column, indent), column.nulls, "null")
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _JSON_SCALAR:
        distinct = dict.fromkeys(column)
        text = dict(zip(distinct, map(_JSON_SCALAR[kind], distinct)))
        return list(map(text.__getitem__, column))
    if kind is float and all(map(math.isfinite, column)):
        return list(map(float.__repr__, column))
    # ASCII JSON has no raw newline inside a string, so this only re-indents
    pad = "\n" + " " * indent
    return [json.dumps(v, indent=2, sort_keys=True).replace("\n", pad) for v in column]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(report: ExperimentReport, args: argparse.Namespace, summary: str) -> None:
    """Write the report to stdout or into ``--out``, then the filled-in summary line."""
    text = report.to_json() if args.format == "json" else report.to_csv()
    if args.out is None:
        print(text, end="")
    else:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{report.kind}.{args.format}"
        target.write_text(text)
        print(f"wrote {target}")
    print(summary.format_map(report.summary))


# --- experiment drivers -------------------------------------------------------


def _detect_jobs(cloud: QuantumCloud, device_id: str, attack: AttackConfig,
                 probes: list[ProbeSpec], shots: int, rounds: int, seed: int,
                 threshold: float, misfit: str) -> tuple[list[int], list, list[str]]:
    """The paper's check on one device, one lone job per probe: each job's
    seed, distance and classification.  Every probe is built and estimated
    before any job runs; one that does not fit the device raises
    CommandError, ``misfit`` filled in from ``label`` and ``device``.  A job
    the platform cannot run where it routes it has no distance: fraudulent.
    """
    # checked up front: a topology error below yields a verdict without detect()
    check_threshold(threshold)
    cloud.set_attack(attack)
    built = []
    for probe in probes:
        circuit, _ = probe.build(cloud)
        try:
            built.append((circuit, estimate_fingerprint(circuit, cloud.get_profile(device_id))))
        except TopologyError:
            raise CommandError(misfit.format(label=probe.label, device=device_id)) from None
    seeds = [offset_seed(seed, i * rounds) for i in range(len(probes))]
    distances, classifications = [], []
    for (circuit, expected), job_seed in zip(built, seeds):
        try:
            job = cloud.submit(device_id, circuit, shots, rounds, job_seed)
        except TopologyError:
            distances.append(None)
            classifications.append("fraudulent")
            continue
        verdict = detect(expected, survival_from_counts(job.counts, circuit.ideal_output),
                         threshold)
        distances.append(verdict.distance)
        classifications.append(verdict.classification)
    return seeds, distances, classifications


def _fleet_jobs(cloud: QuantumCloud, circuit: TranspiledCircuit, shots: int, rounds: int,
                seed_of: Callable[[str], int]) -> tuple[list, list, np.ndarray, np.ndarray]:
    """One batch that prices every catalog device the circuit fits and runs
    one job on each, seeded by ``seed_of(device id)``: the fitting ids in id
    order, the jobs' seeds, the (devices × measured qubits) estimate array
    and the (jobs × measured qubits) survival array.
    """
    fitting, rates = [], []
    with cloud.batch():
        for device_id in cloud.device_ids():
            try:
                rates.append(cloud.price(circuit, cloud.get_profile(device_id)))
            except TopologyError:
                continue
            fitting.append(device_id)
        expected = estimate_array(circuit, np.array(rates))
        seeds = [seed_of(device_id) for device_id in fitting]
        jobs = [cloud.submit(device_id, circuit, shots, rounds, job_seed)
                for device_id, job_seed in zip(fitting, seeds)]
    return fitting, seeds, expected, survival_array([job.counts for job in jobs],
                                                    circuit.ideal_output)


def run_identify(cloud: QuantumCloud, probe: ProbeSpec, shots: int, rounds: int,
                 seed: int) -> tuple[ExperimentReport, int]:
    """Blind identification: probe every device, match against every candidate.

    The candidates are the devices the probe fits, each priced once, and
    exactly those devices run a job; the jobs are then scored together, as
    one survival row per job against the candidates' estimate array.  A
    device's advertised and true profiles share a topology, so a device the
    probe does not fit could not have run it either; its row is null.
    """
    circuit, reference = probe.build(cloud)
    device_ids = cloud.device_ids()
    seeds = [offset_seed(seed, i * rounds) for i in range(len(device_ids))]
    candidates, _, expected, observed = _fleet_jobs(cloud, circuit, shots, rounds,
                                                    dict(zip(device_ids, seeds)).__getitem__)
    best, distances = match_devices(candidates, expected, observed)
    if len(candidates) > 1:
        ranked = np.sort(distances, axis=1)
        margins = (ranked[:, 1] - ranked[:, 0]).tolist()
    else:
        margins = [None] * len(candidates)

    # a device the probe does not fit runs no job and has null cells
    nulls = frozenset(i for i, device_id in enumerate(device_ids) if device_id not in candidates)
    matched = _with_nulls(best, nulls, None)
    correct = [best_id == device_id for best_id, device_id in zip(matched, device_ids)]
    table = Table(len(device_ids), {
        "device": device_ids, "seed": seeds, "matched": matched, "correct": correct,
        "margin": _with_nulls(margins, nulls, None),
        "distances": Table(len(candidates), dict(zip(candidates, distances.T.tolist())), nulls)})
    rows, n_correct = len(device_ids), sum(correct)
    ambiguous = [device_id for device_id, margin in zip(candidates, margins)
                 if margin is not None and margin < AMBIGUITY_MARGIN]
    return ExperimentReport(
        kind="identify",
        params={"probe": probe.label, "shots": shots, "rounds": rounds, "seed": seed,
                "reference_device": reference, "candidates": candidates},
        table=table,
        summary={"rows": rows, "correct": n_correct,
                 "accuracy": n_correct / rows if rows else None,
                 "ambiguous": ambiguous},
    ), 0 if n_correct == rows else 2


def run_detect_substitution(cloud: QuantumCloud, victim: str, actual: str,
                            probe: ProbeSpec, shots: int, rounds: int, seed: int,
                            threshold: float) -> tuple[ExperimentReport, int]:
    """Mount a substitution attack and test whether probing catches it."""
    _, (distance,), (classification,) = _detect_jobs(
        cloud, victim, AttackConfig.substitution(victim, actual), [probe], shots, rounds,
        seed, threshold, "probe does not fit victim device {device!r}")
    return ExperimentReport(
        kind="detect-sub",
        params={"probe": probe.label, "victim": victim, "actual": actual,
                "shots": shots, "rounds": rounds, "seed": seed, "threshold": threshold},
        table=Table(1, {"probe": [probe.label], "victim": [victim], "actual": [actual],
                        "seed": [seed], "threshold": [threshold],
                        "topology_error": [distance is None], "distance": [distance],
                        "classification": [classification]}),
        summary={"classification": classification, "distance": distance},
    ), 2 if classification == "fraudulent" else 0


def run_detect_fabrication(cloud: QuantumCloud, device_id: str, strategy: dict,
                           probes: list[ProbeSpec], shots: int, rounds: int,
                           seed: int, threshold: float) -> tuple[ExperimentReport, int]:
    """Advertise a doctored profile and probe the device against it."""
    attack = AttackConfig.fabrication(device_id, scale=strategy.get("scale"),
                                      overrides=strategy.get("overrides"))
    seeds, distances, classifications = _detect_jobs(
        cloud, device_id, attack, probes, shots, rounds, seed, threshold,
        "probe {label!r} does not fit device {device!r}")
    labels = [p.label for p in probes]
    n, n_fraud = len(probes), classifications.count("fraudulent")
    return ExperimentReport(
        kind="detect-fab",
        params={"device": device_id, "strategy": strategy, "shots": shots,
                "rounds": rounds, "seed": seed, "threshold": threshold, "probes": labels},
        table=Table(n, {"probe": labels, "device": [device_id] * n, "seed": seeds,
                        "distance": distances, "threshold": [threshold] * n,
                        "classification": classifications}),
        summary={"trials": n, "fraudulent": n_fraud},
    ), 2 if n_fraud else 0


def _stats(values: np.ndarray) -> dict | None:
    """Count, mean, min and max of a sweep's distances, None when there are none."""
    if not values.size:
        return None
    # a left-to-right fold, as reduce(add, values, 0.0) gives it for distances
    # (never -0.0): sum() of floats is compensated from Python 3.12
    total = np.add.accumulate(values)[-1].item()
    return {"n": values.size, "mean": total / values.size,
            "min": values.min().item(), "max": values.max().item()}


def run_threshold_sweep(cloud: QuantumCloud, probes: list[ProbeSpec], shots: int,
                        rounds: int, seed: int) -> tuple[ExperimentReport, int]:
    """Honest and cross-device distance distributions over a set of probes.

    The summary reports, per probe size and overall, the honest mean/max and
    the cross-pair minimum, plus the separating gap they leave around a
    usable decision threshold.
    """
    columns: dict[str, list] = {key: [] for key in (
        "probe", "size", "device", "candidate", "seed", "pair", "distance")}
    # per row: its distance, whether its pair is honest, and its probe's size
    distance, honest, size = [], [], []
    job_seeds = (offset_seed(seed, j * rounds) for j in itertools.count())
    for probe in probes:
        circuit, _ = probe.build(cloud)
        fitting, seeds, expected, observed = _fleet_jobs(
            cloud, circuit, shots, rounds, lambda _: next(job_seeds))
        # one row per (job, candidate) pair, job-major; the honest pairs are the diagonal
        m = len(fitting)
        pairs = ["cross"] * (m * m)
        pairs[::m + 1] = ["honest"] * m
        columns["probe"] += [probe.label] * (m * m)
        columns["device"] += [device_id for device_id in fitting for _ in fitting]
        columns["candidate"] += fitting * m
        columns["seed"] += [job_seed for job_seed in seeds for _ in fitting]
        columns["pair"] += pairs
        distance.append(distance_array(expected, observed).ravel())
        honest.append(np.eye(m, dtype=bool).ravel())
        size.append(np.full(m * m, probe.size))
    distance, honest, size = map(np.concatenate, (distance, honest, size))
    columns["size"], columns["distance"] = size.tolist(), distance.tolist()

    kinds = {"honest": honest, "cross": ~honest}
    summary: dict = {pair: _stats(distance[mask]) for pair, mask in kinds.items()}
    summary["by_size"] = {str(k): {pair: _stats(distance[mask & (size == k)])
                                   for pair, mask in kinds.items()}
                          for k in sorted(set(columns["size"]))}
    if summary["honest"] and summary["cross"]:
        gap = [summary["honest"]["max"], summary["cross"]["min"]]
        summary.update(gap=gap, gap_valid=gap[0] < gap[1],
                       threshold_in_gap=gap[0] <= DEFAULT_THRESHOLD < gap[1])
    else:
        summary.update(gap=None, note="no cross pairs; gap not computable")
    return ExperimentReport(
        kind="sweep",
        params={"probes": [p.label for p in probes], "shots": shots,
                "rounds": rounds, "seed": seed},
        table=Table(len(columns["probe"]), columns),
        summary=summary,
    ), 0


# --- command line ------------------------------------------------------------
# Each command takes the parsed arguments and returns its exit code.


def _single_probe(args: argparse.Namespace) -> ProbeSpec:
    specs = parse_probe_args(args.probe, args.mapping)
    if len(specs) != 1:
        raise CommandError("this command takes exactly one --probe/--mapping pair")
    return specs[0]


def identify(args: argparse.Namespace) -> int:
    """Match every fleet device against all advertised profiles."""
    report, code = run_identify(load_fleet(args.fleet, hidden_rate=args.hidden_rate),
                                _single_probe(args), args.shots, args.rounds, args.seed)
    _emit(report, args, "identify: {correct}/{rows} correct")
    return code


def detect_sub(args: argparse.Namespace) -> int:
    """Mount a machine-substitution attack and probe the victim device."""
    report, code = run_detect_substitution(
        load_fleet(args.fleet, hidden_rate=args.hidden_rate), args.victim, args.actual,
        _single_probe(args), args.shots, args.rounds, args.seed, args.threshold)
    _emit(report, args, "detect-sub: {classification}")
    return code


def detect_fab(args: argparse.Namespace) -> int:
    """Advertise a forged calibration profile and probe against it."""
    report, code = run_detect_fabrication(
        load_fleet(args.fleet, hidden_rate=args.hidden_rate), args.device,
        parse_strategy(args.fab), parse_probe_args(args.probe, args.mapping),
        args.shots, args.rounds, args.seed, args.threshold)
    _emit(report, args, "detect-fab: {fraudulent}/{trials} fraudulent")
    return code


def sweep(args: argparse.Namespace) -> int:
    """Measure honest and cross-device distance distributions."""
    report, code = run_threshold_sweep(
        load_fleet(args.fleet, hidden_rate=args.hidden_rate),
        parse_probe_args(args.probe, args.mapping), args.shots, args.rounds, args.seed)
    _emit(report, args, "sweep: gap={gap}")
    return code


def trace(args: argparse.Namespace) -> int:
    """Print the survival walk of a probe under a published profile."""
    profile = load_profile(Path(args.profile).read_text())
    circuit = compose_probe(_single_probe(args).subprobes, profile.topology)
    for op_index, tracks in trace_survival(circuit, profile):
        if op_index < 0:
            head = "init"
        else:
            op = circuit.ops[op_index]
            head = f"op{op_index:<3} {op.gate.value:<8}({','.join(map(str, op.registers))})"
        body = "  ".join(f"q{q}@{r} {s:.6f}" for q, r, s in tracks)
        print(f"{head:<18} {body}")
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise CommandError, so they exit 1.

    argparse checks required options before it reports leftover arguments,
    so a misspelt required option (``--fle``) would read as a missing one.
    A failed parse is therefore tried again with every option optional, and
    leftovers that parse finds are reported instead.
    """

    def error(self, message):
        raise CommandError(message)

    def parse_known_args(self, args=None, namespace=None):
        try:
            return super().parse_known_args(args, namespace)
        except CommandError:
            required = [action for action in self._actions
                        if action.required and action.option_strings]
            if not required:
                raise
            for action in required:
                action.required = False
            try:
                _, extras = super().parse_known_args(args, namespace)
            finally:
                for action in required:
                    action.required = True
            if extras:
                raise CommandError(f"unrecognized arguments: {' '.join(extras)}") from None
            raise


def _out_dir(path: str) -> str:
    """``--out`` names a directory, made if missing; a file, or a path under
    a file, is refused before any job runs."""
    nearest = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not nearest.is_dir():
        raise argparse.ArgumentTypeError(f"{str(nearest)!r} is not a directory")
    return path


_probe_opts = _Parser(add_help=False, allow_abbrev=False)
_probe_opts.add_argument("--probe", action="append", required=True,
                         help="Probe spec bv:<secret>, '+'-joined for composites; repeatable.")
_probe_opts.add_argument("--mapping", action="append", required=True,
                         help="Initial mapping a,b,c (';'-separated per subprobe); repeatable.")
_fleet_opts = _Parser(add_help=False, allow_abbrev=False, parents=[_probe_opts])
_fleet_opts.add_argument("--fleet", required=True, help="Fleet config JSON.")
_fleet_opts.add_argument("--shots", type=int, default=4000, help="Shots per round (4000).")
_fleet_opts.add_argument("--rounds", type=int, default=3, help="Rounds to pool (3).")
_fleet_opts.add_argument("--seed", type=int, default=0, help="Base RNG seed (0).")
_fleet_opts.add_argument("--hidden-rate", type=float,
                         help="Override every device's hidden per-op flip rate.")
_fleet_opts.add_argument("--out", type=_out_dir, help="Report directory (default: stdout).")
_fleet_opts.add_argument("--format", choices=["json", "csv"], default="json",
                         help="Report encoding (json).")
_threshold_opts = _Parser(add_help=False, allow_abbrev=False)
_threshold_opts.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                             help=f"Fraud threshold on the distance ({DEFAULT_THRESHOLD}).")

_PARSER = _Parser(prog="qprobe", allow_abbrev=False,
                  description="Fingerprint quantum cloud devices and catch dishonest providers.")
_commands = _PARSER.add_subparsers(title="commands", dest="command", metavar="COMMAND",
                                   required=True)


def _command(run, *parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = _commands.add_parser(run.__name__.replace("_", "-"), parents=parents,
                                  allow_abbrev=False, help=run.__doc__, description=run.__doc__)
    parser.set_defaults(run=run)
    return parser


_command(identify, _fleet_opts)
_sub = _command(detect_sub, _fleet_opts, _threshold_opts)
_sub.add_argument("--victim", required=True, help="Device the user thinks they are renting.")
_sub.add_argument("--actual", required=True, help="Device the provider really uses.")
_fab = _command(detect_fab, _fleet_opts, _threshold_opts)
_fab.add_argument("--device", required=True, help="Device whose profile is forged.")
_fab.add_argument("--fab", required=True,
                  help="Fabrication strategy: scale:<f> or set:<Label=rate,...>.")
_command(sweep, _fleet_opts)
_command(trace, _probe_opts).add_argument("--profile", required=True, help="Device profile JSON.")


def main(argv: list[str] | None = None) -> int:
    """Entry point with experiment-grade exit codes (0 clean, 2 fraud, 1 error)."""
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse's --help, after printing the help
        return exc.code
    # every input error the package raises (CommandError, ProfileError,
    # CircuitError, TopologyError, JSON decoding, usage) is a ValueError
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
