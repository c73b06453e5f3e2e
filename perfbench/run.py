"""Pipeline benchmark for qprobe: end-to-end verdict cost, split by layer.

Run from the repository root:

    python3 perfbench/run.py --workload drift --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

``--trace 0`` times whole passes with tracing off and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer split.  Nothing is timed until the active sampler agrees with the
numpy reference and a golden-seed canary reproduces ``expected.json``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("drift", "scan", "demo-cold")

MIN_OPS = 100       # so at least ten samples sit beyond p90
MIN_PASSES = 2      # so every run checks that two passes agree
SETUP_REPEATS = 5
IMPORT_REPEATS = 5

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "jobs_per_s": "1/s",
             "shots_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB", "error_rate": "ratio"}

# Per-layer metrics: (name, unit, what, span names).  ``what`` is "self"
# (self time), "total", "calls" or "count:<counter>".  A metric whose spans
# saw no call is reported as missing, never as 0.
DETECTOR = ("detector.detect", "detector.manhattan_avg", "detector.match_device")
DEVICE = ("device.topology_compatible", "device.load_profile", "device.fabricate")
LAYER_METRICS = (
    ("flipcore.sample_s", "s", "self", ("_flipcore.sample",)),
    ("flipcore.calls", "count", "calls", ("_flipcore.sample",)),
    ("flipcore.flip_evals", "count", "count:_flipcore.flip_evals", ("_flipcore.sample",)),
    ("circuit.compose_s", "s", "self", ("circuit.compose_probe",)),
    ("circuit.compose_calls", "count", "calls", ("circuit.compose_probe",)),
    ("circuit.ops", "count", "count:circuit.ops", ("circuit.compose_probe",)),
    ("circuit.swaps", "count", "count:circuit.swaps", ("circuit.compose_probe",)),
    ("devicesim.run_self_s", "s", "self", ("devicesim.run_rounds",)),
    ("devicesim.marginals_s", "s", "self", ("devicesim.survival_from_counts",)),
    ("devicesim.outcomes", "count", "count:devicesim.outcomes", ("devicesim.run_rounds",)),
    ("estimator.estimate_s", "s", "self", ("estimator.estimate_fingerprint",)),
    ("estimator.calls", "count", "calls", ("estimator.estimate_fingerprint",)),
    ("detector.distance_s", "s", "self", DETECTOR),
    ("detector.calls", "count", "calls", DETECTOR),
    ("cloud.submit_self_s", "s", "self", ("cloud.submit",)),
    ("cloud.jobs", "count", "calls", ("cloud.submit",)),
    ("cloud.load_fleet_s", "s", "self", ("cloud.load_fleet",)),
    ("device.self_s", "s", "self", DEVICE),
    ("device.topology_checks", "count", "calls", ("device.topology_compatible",)),
    ("cli.self_s", "s", "self", ("cli.main",)),
    ("cli.report_bytes", "B", "count:cli.report_bytes", ("cli.main",)),
    ("op.unattributed_s", "s", "self", ("op",)),
    ("op.total_s", "s", "total", ("op",)),
)


@dataclass
class Pass:
    wall: float
    cpu: float
    results: list            # per op: (latency_s, verdict, extra) or None
    summary: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def machine() -> str:
    import numpy
    u = platform.uname()
    return (f"{u.system} {u.release} {u.machine}, {os.cpu_count()} cpus, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def run_pass(workload, tracer=None) -> Pass:
    results = []
    cpu0, start = time.process_time(), time.perf_counter()
    for op in workload.plan:
        try:
            results.append(workload.run_op(op, tracer))
        except Exception:  # an op that raises counts as failed; the run goes on
            traceback.print_exc()
            results.append(None)
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu0
    child_cpu = [r[2]["cpu_s"] for r in results if r and "cpu_s" in r[2]]
    return Pass(wall, sum(child_cpu) if child_cpu else cpu, results)


def failures(workload, passes: list[Pass]) -> int:
    """Ops that raised, broke an invariant, or differ from the first pass."""
    first = passes[0].results
    failed = 0
    for p in passes:
        for op, got, ref in zip(workload.plan, p.results, first):
            if (got is None or ref is None or not workload.valid(op, got[1])
                    or got[1] != ref[1] or got[2].get("digest") != ref[2].get("digest")):
                failed += 1
    return failed


def setup_seconds(workload, work: Path) -> float:
    """Wall time of a fresh interpreter that sets the workload up, spawn to exit."""
    import workloads
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload.name,
                    str(workload.seed), str(work / "setup")], check=True,
                   stdout=subprocess.DEVNULL, env=workloads.child_env())
    return time.perf_counter() - start


def import_seconds() -> list[float]:
    import workloads
    out = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, str(HERE / "child.py"), "import"], check=True,
                              capture_output=True, text=True, env=workloads.child_env())
        out.append(float(done.stdout))
    return out


def time_left(start: float, seconds: float, per_pass: float) -> bool:
    """True while one more pass ends nearer to ``seconds`` than stopping now."""
    return time.perf_counter() - start + per_pass / 2 < seconds


def timed_run(workload, seconds: float, work: Path):
    # One set-up sample before each pass, so set-up and passes see the same
    # stretch of machine load.
    setup: list[float] = []
    passes: list[Pass] = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES or len(passes) * len(workload.plan) < MIN_OPS
           or time_left(start, seconds, stats.median([p.wall for p in passes]))):
        setup.append(setup_seconds(workload, work))
        passes.append(run_pass(workload))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_seconds(workload, work))
    attempted = len(passes) * len(workload.plan)
    failed = failures(workload, passes)
    if failed:
        return {}, E2E_UNITS, attempted, failed, []
    latencies = [r[0] for p in passes for r in p.results]
    wall = stats.median([p.wall for p in passes])
    rss = [r[2]["rss_mb"] for p in passes for r in p.results if "rss_mb" in r[2]]
    metrics = {
        "setup_s": stats.median(setup),
        "wall_s": wall,
        "cpu_s": stats.median([p.cpu for p in passes]),
        "jobs_per_s": workload.jobs / wall,
        "shots_per_s": workload.shots / wall,
        "op_p50_ms": stats.percentile(latencies, 50) * 1e3,
        "op_p90_ms": stats.percentile(latencies, 90) * 1e3,
        "peak_rss_mb": max(rss) if rss else
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
    }
    tail = stats.tail_percentile(len(latencies))
    notes = [f"ops: {len(latencies)} in {len(passes)} passes of {len(workload.plan)} "
             f"({workload.jobs} jobs, {workload.shots} shots each); "
             f"{stats.beyond(len(latencies), 90)} samples beyond p90; "
             f"p{tail:g} = {stats.percentile(latencies, tail) * 1e3:.3f} ms",
             f"pass walls (s): {' '.join(f'{p.wall:.4f}' for p in passes)}",
             f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}"]
    return metrics, E2E_UNITS, attempted, failed, notes


def traced_summary(p: Pass, tracer) -> None:
    """Fill a traced pass's span summary and counts (children's for demo-cold)."""
    import spans
    results = [r for r in p.results if r]
    children = [r[2]["child"] for r in results if "child" in r[2]]
    if not children:
        p.summary, p.counts = spans.summarize(tracer.spans), dict(tracer.counts)
    else:
        p.summary, p.counts = {}, {}
        for child in children:
            for name, row in child["spans"].items():
                into = p.summary.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
                for key in into:
                    into[key] += row[key]
            for name, n in child["counts"].items():
                p.counts[name] = p.counts.get(name, 0) + n
        # Each process is an op; what its spans do not cover is interpreter
        # start, imports and exit.
        total = sum(int(r[0] * 1e9) for r in results)
        p.summary["op"] = {"calls": len(results), "total_ns": total,
                           "self_ns": total - p.summary.get("cli.main", {}).get("total_ns", 0)}
    p.counts["cli.report_bytes"] = sum(r[2].get("report_bytes", 0) for r in results)


def layer_values(p: Pass) -> dict:
    out = {}
    for name, _unit, what, names in LAYER_METRICS:
        rows = [p.summary[n] for n in names if n in p.summary]
        if sum(r["calls"] for r in rows) == 0:
            out[name] = None
        elif what == "calls":
            out[name] = sum(r["calls"] for r in rows)
        elif what.startswith("count:"):
            out[name] = p.counts.get(what[len("count:"):], 0)
        else:
            out[name] = sum(r[f"{what}_ns"] for r in rows) / 1e9
    return out


def traced_run(workload, seconds: float, work: Path):
    import spans
    import workloads
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time_left(
            start, seconds, stats.median([u.wall + t.wall for u, t in zip(untraced, traced)])):
        # Alternate which side of a pair runs first, so warm-up and drift in
        # machine load do not all land on one side of trace.overhead_s.
        traced_first = len(traced) % 2 == 1
        if not traced_first:
            untraced.append(run_pass(workload))
        tracer = spans.Tracer()
        with spans.install(tracer, workloads):
            traced.append(run_pass(workload, tracer))
        traced_summary(traced[-1], tracer)
        if traced_first:
            untraced.append(run_pass(workload))
    per_pass = [layer_values(p) for p in traced]
    attempted = (len(untraced) + len(traced)) * len(workload.plan)
    failed = failures(workload, untraced + traced)
    notes = []
    units, metrics = {}, {}
    for name, unit, what, _ in LAYER_METRICS:
        values = [v[name] for v in per_pass]
        units[name] = unit
        if what in ("self", "total"):
            metrics[name] = None if None in values else sum(values) / len(values)
            continue
        if len(set(values)) != 1:  # counts must repeat exactly
            notes.append(f"{name} differs between traced passes: {values}")
            failed += 1
        metrics[name] = values[0]
    if metrics["cloud.jobs"] != workload.jobs:
        notes.append(f"cloud.jobs {metrics['cloud.jobs']} differs from the "
                     f"{workload.jobs} jobs the plan submits")
        failed += 1
    sample_s, evals = metrics["flipcore.sample_s"], metrics["flipcore.flip_evals"]
    metrics["flipcore.ns_per_flip_eval"] = sample_s * 1e9 / evals if evals else None
    units["flipcore.ns_per_flip_eval"] = "ns"
    metrics["cli.import_s"] = stats.median(import_seconds())
    units["cli.import_s"] = "s"
    metrics["trace.overhead_s"] = (stats.median([p.wall for p in traced])
                                   - stats.median([p.wall for p in untraced]))
    units["trace.overhead_s"] = "s"
    notes.append(f"{len(traced)} traced and {len(untraced)} untraced passes of "
                 f"{len(workload.plan)} ops; times are per traced pass, self time unless "
                 f"named total; shares are of op.total_s")
    return metrics, units, attempted, failed, notes


def print_table(metrics: dict, units: dict, share_of: float | None) -> None:
    for name, value in metrics.items():
        if value is None:
            print(f"{name:<28} {'missing':>16}")
            continue
        share = ""
        if share_of and units[name] == "s" and name not in ("cli.import_s",
                                                            "trace.overhead_s"):
            share = f"  {100.0 * value / share_of:5.1f}%"
        print(f"{name:<28} {value:>16.6g} {units[name]:<6}{share}")


def measure(args, work: Path) -> int:
    import checks
    import qprobe
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"# machine: {machine()}")
    print(f"# kernel: {qprobe.active_kernel()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        agreement = checks.check_kernel_agreement()
        workload.setup()
        checks.compare_verdicts(checks.load_expected()[workload.name], workload.canary(),
                                f"{workload.name} canary")
    except checks.GateError as exc:
        print(f"perfbench: refusing to time anything: {exc}", file=sys.stderr)
        return 1
    print(f"# gate: kernel agreement ok ({agreement}); golden-seed canary matches "
          f"expected.json")

    run = traced_run if args.trace else timed_run
    metrics, units, attempted, failed, notes = run(workload, args.seconds, work)
    for note in notes:
        print(f"# {note}")
    if failed:
        print(f"perfbench: {failed} of {attempted} ops failed or gave wrong output; "
              f"no timings reported", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1
    print_table(metrics, units, metrics.get("op.total_s"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if metrics[n] is None]
    if missing:
        print(f"perfbench: layers missing (a wrapped boundary saw no call): "
              f"{', '.join(missing)}; no per-layer result reported", file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": {n: {"value": metrics[n], "unit": units[n]}
                                  for n in names}}))
    return 0


def run_all(args) -> int:
    code = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)])
        code = code or done.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qprobe" / "__init__.py").is_file():
        print(f"perfbench: no qprobe package under {ROOT / 'src'}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    bootstrap()
    with work_dir(args.workload) as work:
        return measure(args, work)


def bootstrap() -> None:
    """Run from the repository root with the package from src, as tier-1 does."""
    os.chdir(ROOT)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


@contextlib.contextmanager
def work_dir(label: str):
    """Scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".perfbench_work" / f"{label}-{os.getpid()}"
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
