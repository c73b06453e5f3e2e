"""Command line front end.

Subcommands: identify, detect-sub, detect-fab, sweep, trace.  Experiments
are driven by a fleet config file and probe specs; reports are emitted as
JSON or CSV and contain no timestamps or environment state, so two runs
with identical flags produce byte-identical output.

Reports are written by ``ExperimentReport``.  JSON is the output of
``json.dumps(doc, indent=2, sort_keys=True)`` to the byte, but only
``kind``, ``params`` and ``summary`` go through that call: with an indent,
``json`` falls back to its pure-Python encoder, which dominated the cost
of a scan.  The ``trials`` rows, the bulk of ``identify`` and ``sweep``
reports, are written column by column: a column of only strings, only
ints or only finite floats goes through the encoder ``json`` itself uses
for that type, a column of dicts sharing one key set (identify's
``distances``) is written the same way one level down, and any other
column value by value with ``json.dumps``.  A row's text is then its keys'
fixed prefixes interleaved with its cells.  CSV goes through
``csv.writer`` with minimal quoting, so a probe label such as
``bv:11@0,1,3`` stays one cell.

Exit codes: 0 for honest / fully identified, 2 when fraud (or an identity
mismatch) is detected, 1 for configuration and I/O errors.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import add, itemgetter
from pathlib import Path

import click

from ._flipcore import offset_seed
from .circuit import CircuitError, TranspiledCircuit, compose_probe
from .cloud import AttackConfig, QuantumCloud, load_fleet
from .detector import DEFAULT_THRESHOLD, check_threshold, detect, manhattan_avg, match_device
from .device import TopologyError, _index, load_profile
from .devicesim import survival_from_counts
from .estimator import Fingerprint, estimate_fingerprint, trace_survival

__all__ = [
    "ProbeSpec",
    "ExperimentReport",
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
            except (CircuitError, KeyError) as exc:
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


@dataclass
class ExperimentReport:
    """One command's report.

    Every row of ``trials`` has the same set of string keys (each ``run_*``
    function builds its rows from one literal), which lets ``to_json``
    write the rows column by column; rows with different key sets raise
    ValueError.
    """

    kind: str
    params: dict
    trials: list[dict]
    summary: dict

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
        head = json.dumps({"kind": self.kind, "params": self.params, "summary": self.summary},
                          indent=2, sort_keys=True)
        # "trials" sorts after "summary", so it closes the document
        return f'{head[:-2]},\n  "trials": {_json_rows(self.trials)}\n}}\n'

    def to_csv(self) -> str:
        if self.kind == "identify":
            candidates = self.params["candidates"]
            rows = [["device", *candidates]]
            for trial in self.trials:
                distances = trial.get("distances") or {}
                rows.append([trial["device"], *(_csv_cell(distances.get(c)) for c in candidates)])
        elif not self.trials:
            return "\n"
        else:
            columns = sorted(self.trials[0])
            rows = [columns, *([_csv_cell(trial.get(c)) for c in columns]
                               for trial in self.trials)]
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()


def _json_rows(trials: list[dict]) -> str:
    """The ``trials`` list as the indented encoder writes it at depth 1."""
    if not trials:
        return "[]"
    if not _one_key_set(trials):
        raise ValueError("report rows must share one key set")
    return "[\n    " + ",\n    ".join(_json_dicts(trials, 4)) + "\n  ]"


def _one_key_set(dicts: list[dict]) -> bool:
    return all(map(dicts[0].keys().__eq__, map(dict.keys, dicts)))


def _json_dicts(dicts: list[dict], indent: int) -> list[str]:
    """Dicts with one set of string keys, each as the indented encoder
    writes it when its opening brace sits ``indent`` spaces in."""
    keys = sorted(dicts[0])
    if not keys:
        return ["{}"] * len(dicts)
    pad = "\n" + " " * (indent + 2)
    # a dict's text is its keys' fixed prefixes interleaved with its column cells
    parts = []
    for i, key in enumerate(keys):
        prefix = ("," if i else "{") + pad + encode_basestring_ascii(key) + ": "
        parts += [repeat(prefix, len(dicts)),
                  _json_column(list(map(itemgetter(key), dicts)), indent + 2)]
    parts.append(repeat("\n" + " " * indent + "}", len(dicts)))
    return list(map("".join, zip(*parts)))


def _json_column(values: list, indent: int):
    """Each value as the indented encoder writes it ``indent`` spaces in."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {float} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if (kinds == {dict} and _one_key_set(values)
            and all(type(k) is str for k in values[0])):
        return _json_dicts(values, indent)
    # ASCII JSON has no raw newline inside a string, so this only re-indents
    pad = "\n" + " " * indent
    return [json.dumps(v, indent=2, sort_keys=True).replace("\n", pad) for v in values]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(report: ExperimentReport, out: str | None, fmt: str) -> None:
    text = report.to_json() if fmt == "json" else report.to_csv()
    if out is None:
        click.echo(text, nl=False)
    else:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        target = out_dir / f"{report.kind}.{'json' if fmt == 'json' else 'csv'}"
        target.write_text(text)
        click.echo(f"wrote {target}")


# --- experiment drivers -------------------------------------------------------


def _fitting_estimates(cloud: QuantumCloud, circuit: TranspiledCircuit) -> dict[str, Fingerprint]:
    """Expected fingerprint of every catalog device the circuit fits, in id order."""
    expected = {}
    for device_id in cloud.device_ids():
        try:
            expected[device_id] = estimate_fingerprint(circuit, cloud.get_profile(device_id))
        except TopologyError:
            continue
    return expected


def run_identify(cloud: QuantumCloud, probe: ProbeSpec, shots: int, rounds: int,
                 seed: int) -> tuple[ExperimentReport, int]:
    """Blind identification: probe every device, match against every candidate."""
    circuit, reference = probe.build(cloud)
    expected = _fitting_estimates(cloud, circuit)
    candidates = list(expected)

    trials = []
    correct = 0
    ambiguous = []
    for i, device_id in enumerate(cloud.device_ids()):
        row_seed = offset_seed(seed, i * rounds)
        try:
            job = cloud.submit(device_id, circuit, shots, rounds, row_seed)
        except TopologyError:
            trials.append({"device": device_id, "seed": row_seed, "matched": None,
                           "correct": False, "margin": None, "distances": None})
            continue
        observed = survival_from_counts(job.counts, circuit.ideal_output)
        best, distances = match_device(expected, observed)
        ranked = sorted(distances.values())
        margin = ranked[1] - ranked[0] if len(ranked) > 1 else None
        if margin is not None and margin < AMBIGUITY_MARGIN:
            ambiguous.append(device_id)
        if best == device_id:
            correct += 1
        trials.append({"device": device_id, "seed": row_seed, "matched": best,
                       "correct": best == device_id, "margin": margin,
                       "distances": distances})

    rows = len(trials)
    report = ExperimentReport(
        kind="identify",
        params={"probe": probe.label, "shots": shots, "rounds": rounds, "seed": seed,
                "reference_device": reference, "candidates": candidates},
        trials=trials,
        summary={"rows": rows, "correct": correct,
                 "accuracy": correct / rows if rows else None,
                 "ambiguous": ambiguous},
    )
    return report, 0 if correct == rows else 2


def run_detect_substitution(cloud: QuantumCloud, victim: str, actual: str,
                            probe: ProbeSpec, shots: int, rounds: int, seed: int,
                            threshold: float) -> tuple[ExperimentReport, int]:
    """Mount a substitution attack and test whether probing catches it."""
    # checked up front: a topology error below yields a verdict without detect()
    check_threshold(threshold)
    cloud.set_attack(AttackConfig.substitution(victim, actual))
    circuit, _ = probe.build(cloud)
    try:
        expected = estimate_fingerprint(circuit, cloud.get_profile(victim))
    except TopologyError:
        raise CommandError(f"probe does not fit victim device {victim!r}") from None
    trial: dict = {"probe": probe.label, "victim": victim, "actual": actual,
                   "seed": seed, "threshold": threshold}
    try:
        job = cloud.submit(victim, circuit, shots, rounds, seed)
    except TopologyError:
        # The platform could not even run the probe on the stand-in machine;
        # that is caught immediately.
        trial.update({"topology_error": True, "distance": None,
                      "classification": "fraudulent"})
        code = 2
    else:
        observed = survival_from_counts(job.counts, circuit.ideal_output)
        verdict = detect(expected, observed, threshold)
        trial.update({"topology_error": False, "distance": verdict.distance,
                      "classification": verdict.classification})
        code = 2 if verdict.is_fraud else 0
    report = ExperimentReport(
        kind="detect-sub",
        params={"probe": probe.label, "victim": victim, "actual": actual,
                "shots": shots, "rounds": rounds, "seed": seed, "threshold": threshold},
        trials=[trial],
        summary={"classification": trial["classification"],
                 "distance": trial["distance"]},
    )
    return report, code


def run_detect_fabrication(cloud: QuantumCloud, device_id: str, strategy: dict,
                           probes: list[ProbeSpec], shots: int, rounds: int,
                           seed: int, threshold: float) -> tuple[ExperimentReport, int]:
    """Advertise a doctored profile and probe the device against it."""
    cloud.set_attack(AttackConfig.fabrication(device_id, scale=strategy.get("scale"),
                                              overrides=strategy.get("overrides")))
    trials = []
    n_fraud = 0
    for i, probe in enumerate(probes):
        circuit, _ = probe.build(cloud)
        try:
            expected = estimate_fingerprint(circuit, cloud.get_profile(device_id))
        except TopologyError:
            raise CommandError(
                f"probe {probe.label!r} does not fit device {device_id!r}") from None
        combo_seed = offset_seed(seed, i * rounds)
        job = cloud.submit(device_id, circuit, shots, rounds, combo_seed)
        observed = survival_from_counts(job.counts, circuit.ideal_output)
        verdict = detect(expected, observed, threshold)
        n_fraud += verdict.is_fraud
        trials.append({"probe": probe.label, "device": device_id, "seed": combo_seed,
                       "distance": verdict.distance, "threshold": threshold,
                       "classification": verdict.classification})
    report = ExperimentReport(
        kind="detect-fab",
        params={"device": device_id, "strategy": strategy, "shots": shots,
                "rounds": rounds, "seed": seed, "threshold": threshold,
                "probes": [p.label for p in probes]},
        trials=trials,
        summary={"trials": len(trials), "fraudulent": n_fraud},
    )
    return report, 2 if n_fraud else 0


def run_threshold_sweep(cloud: QuantumCloud, probes: list[ProbeSpec], shots: int,
                        rounds: int, seed: int) -> tuple[ExperimentReport, int]:
    """Honest and cross-device distance distributions over a set of probes.

    The summary reports, per probe size and overall, the honest mean/max and
    the cross-pair minimum, plus the separating gap they leave around a
    usable decision threshold.
    """
    trials = []
    pooled: dict[str, list[float]] = {"honest": [], "cross": []}
    sized: dict[int, dict[str, list[float]]] = {}
    job_index = 0
    for probe in probes:
        label, size = probe.label, probe.size
        circuit, _ = probe.build(cloud)
        expected = _fitting_estimates(cloud, circuit)
        for device_id in expected:
            job_seed = offset_seed(seed, job_index * rounds)
            job_index += 1
            job = cloud.submit(device_id, circuit, shots, rounds, job_seed)
            observed = survival_from_counts(job.counts, circuit.ideal_output)
            for candidate in expected:
                pair = "honest" if candidate == device_id else "cross"
                distance = manhattan_avg(expected[candidate], observed)
                trials.append({
                    "probe": label, "size": size, "device": device_id,
                    "candidate": candidate, "seed": job_seed,
                    "pair": pair, "distance": distance,
                })
                pooled[pair].append(distance)
                sized.setdefault(size, {"honest": [], "cross": []})[pair].append(distance)

    def stats(values: list[float]) -> dict | None:
        if not values:
            return None
        # a left-to-right fold: sum() of floats is compensated from Python 3.12
        return {"n": len(values), "mean": reduce(add, values, 0.0) / len(values),
                "min": min(values), "max": max(values)}

    honest, cross = pooled["honest"], pooled["cross"]
    by_size = {str(size): {pair: stats(values) for pair, values in sized[size].items()}
               for size in sorted(sized)}
    summary: dict = {"honest": stats(honest), "cross": stats(cross), "by_size": by_size}
    if honest and cross:
        gap = [summary["honest"]["max"], summary["cross"]["min"]]
        summary["gap"] = gap
        summary["gap_valid"] = gap[0] < gap[1]
        summary["threshold_in_gap"] = gap[0] <= DEFAULT_THRESHOLD < gap[1]
    else:
        summary["gap"] = None
        summary["note"] = "no cross pairs; gap not computable"
    report = ExperimentReport(
        kind="sweep",
        params={"probes": [p.label for p in probes], "shots": shots,
                "rounds": rounds, "seed": seed},
        trials=trials,
        summary=summary,
    )
    return report, 0


# --- click wiring ---------------------------------------------------------


@click.group()
def cli() -> None:
    """Fingerprint quantum cloud devices and catch dishonest providers."""


def _fleet_options(fn):
    fn = click.option("--fleet", "fleet_path", required=True,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Fleet config JSON.")(fn)
    fn = click.option("--probe", "probes", multiple=True, required=True,
                      help="Probe spec bv:<secret>, '+'-joined for composites.")(fn)
    fn = click.option("--mapping", "mappings", multiple=True, required=True,
                      help="Initial mapping a,b,c (';'-separated per subprobe).")(fn)
    fn = click.option("--shots", default=4000, show_default=True, help="Shots per round.")(fn)
    fn = click.option("--rounds", default=3, show_default=True, help="Rounds to pool.")(fn)
    fn = click.option("--seed", default=0, show_default=True, help="Base RNG seed.")(fn)
    fn = click.option("--hidden-rate", default=None, type=float,
                      help="Override every device's hidden per-op flip rate.")(fn)
    fn = click.option("--out", default=None, type=click.Path(file_okay=False),
                      help="Directory for the report file (default: stdout).")(fn)
    fn = click.option("--format", "fmt", default="json", show_default=True,
                      type=click.Choice(["json", "csv"]), help="Report encoding.")(fn)
    return fn


def _single_probe(probes, mappings) -> ProbeSpec:
    specs = parse_probe_args(probes, mappings)
    if len(specs) != 1:
        raise CommandError("this command takes exactly one --probe/--mapping pair")
    return specs[0]


@cli.command()
@_fleet_options
def identify(fleet_path, probes, mappings, shots, rounds, seed, hidden_rate, out, fmt):
    """Match every fleet device against all advertised profiles."""
    cloud = load_fleet(fleet_path, hidden_rate=hidden_rate)
    report, code = run_identify(cloud, _single_probe(probes, mappings), shots, rounds, seed)
    _emit(report, out, fmt)
    click.echo(f"identify: {report.summary['correct']}/{report.summary['rows']} correct")
    sys.exit(code)


@cli.command("detect-sub")
@_fleet_options
@click.option("--victim", required=True, help="Device the user thinks they are renting.")
@click.option("--actual", required=True, help="Device the provider really uses.")
@click.option("--threshold", default=DEFAULT_THRESHOLD, show_default=True,
              help="Fraud decision threshold on fingerprint distance.")
def detect_sub(fleet_path, probes, mappings, shots, rounds, seed, hidden_rate, out, fmt,
               victim, actual, threshold):
    """Mount a machine-substitution attack and probe the victim device."""
    cloud = load_fleet(fleet_path, hidden_rate=hidden_rate)
    report, code = run_detect_substitution(
        cloud, victim, actual, _single_probe(probes, mappings), shots, rounds, seed, threshold)
    _emit(report, out, fmt)
    click.echo(f"detect-sub: {report.summary['classification']}")
    sys.exit(code)


@cli.command("detect-fab")
@_fleet_options
@click.option("--device", "device_id", required=True, help="Device whose profile is forged.")
@click.option("--fab", "strategy_text", required=True,
              help="Fabrication strategy: scale:<f> or set:<Label=rate,...>.")
@click.option("--threshold", default=DEFAULT_THRESHOLD, show_default=True,
              help="Fraud decision threshold on fingerprint distance.")
def detect_fab(fleet_path, probes, mappings, shots, rounds, seed, hidden_rate, out, fmt,
               device_id, strategy_text, threshold):
    """Advertise a forged calibration profile and probe against it."""
    cloud = load_fleet(fleet_path, hidden_rate=hidden_rate)
    report, code = run_detect_fabrication(
        cloud, device_id, parse_strategy(strategy_text),
        parse_probe_args(probes, mappings), shots, rounds, seed, threshold)
    _emit(report, out, fmt)
    click.echo(f"detect-fab: {report.summary['fraudulent']}/{report.summary['trials']} fraudulent")
    sys.exit(code)


@cli.command()
@_fleet_options
def sweep(fleet_path, probes, mappings, shots, rounds, seed, hidden_rate, out, fmt):
    """Measure honest and cross-device distance distributions."""
    cloud = load_fleet(fleet_path, hidden_rate=hidden_rate)
    report, code = run_threshold_sweep(
        cloud, parse_probe_args(probes, mappings), shots, rounds, seed)
    _emit(report, out, fmt)
    gap = report.summary.get("gap")
    click.echo(f"sweep: gap={gap}")
    sys.exit(code)


@cli.command()
@click.option("--profile", "profile_path", required=True,
              type=click.Path(exists=True, dir_okay=False), help="Device profile JSON.")
@click.option("--probe", "probes", multiple=True, required=True)
@click.option("--mapping", "mappings", multiple=True, required=True)
def trace(profile_path, probes, mappings):
    """Print the survival walk of a probe under a published profile."""
    profile = load_profile(Path(profile_path).read_text())
    spec = _single_probe(probes, mappings)
    circuit = compose_probe(spec.subprobes, profile.topology)
    steps = trace_survival(circuit, profile)
    ops = circuit.ops
    for op_index, tracks in steps:
        if op_index < 0:
            head = f"{'init':<18}"
        else:
            op = ops[op_index]
            regs = ",".join(map(str, op.registers))
            head = f"op{op_index:<3} {op.gate.value:<8}({regs})"
            head = f"{head:<18}"
        body = "  ".join(f"q{t.logical}@{t.register} {t.survival:.6f}" for t in tracks)
        click.echo(f"{head} {body}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with experiment-grade exit codes (0 clean, 2 fraud, 1 error)."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:  # raised by commands to signal the verdict
        return int(exc.code or 0)
    except click.ClickException as exc:
        exc.show()
        return 1
    # every input error the package raises (CommandError, ProfileError,
    # CircuitError, TopologyError, JSON decoding) is a ValueError
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        click.echo(f"error: {message}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
