"""The three workloads: how each prepares, runs one op and reads its verdict.

An op returns (latency in seconds, verdict, extra).  The verdict holds the
values a user acts on (distances as ``repr`` floats, classifications,
matched ids, exit codes) and never whole report bytes, so reports may gain
fields without the benchmark changing.  ``extra`` carries what the pass
runner needs besides: a digest of the full output for the pass-to-pass
identity check, report size, and for child processes their CPU time, peak
RSS and span summary.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from qprobe import (compose_probe, detect, estimate_fingerprint, load_fleet,
                    survival_from_counts)

import gen

GOLDEN_SEED = 0
DEMO_DEVICES = 4


@contextlib.contextmanager
def op_span(tracer, took: list):
    """Time one op into ``took[0]``; when tracing, also record it as span "op"."""
    index = tracer.begin("op") if tracer is not None else None
    start = time.perf_counter()
    try:
        yield
    finally:
        took[0] = time.perf_counter() - start
        if index is not None:
            tracer.end(index)


def _r(value):
    return None if value in (None, "") else repr(float(value))


def report_verdict(kind: str, report: dict) -> list:
    """Verdict values of one CLI report (parsed JSON, or CSV rows as trials)."""
    trials = report["trials"]
    if kind == "identify":
        return [[t["device"], t["matched"], _r(t["margin"]),
                 _r(t["distances"][t["matched"]]) if t["matched"] else None]
                for t in trials]
    if kind in ("detect-sub", "detect-fab"):
        return [[t["classification"], _r(t["distance"])] for t in trials]
    summary = report["summary"]
    return [_r(summary["gap"][0]), _r(summary["gap"][1]), _r(summary["honest"]["mean"]),
            _r(summary["cross"]["mean"]), summary["honest"]["n"], summary["cross"]["n"]]


def parse_stdout(argv: list[str], text: str) -> dict:
    """Report printed by a CLI command, without its trailing summary line."""
    body = text.splitlines()[:-1]
    if _option(argv, "--format", "json") == "csv":
        return {"trials": list(csv.DictReader(body))}
    return json.loads("\n".join(body))


def _option(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


def cli_jobs(argv: list[str], devices: int) -> tuple[int, int]:
    """(probe jobs, simulated shots) one CLI command submits on a fleet whose
    devices all accept every probe."""
    kind, probes = argv[0], argv.count("--probe")
    jobs = {"identify": devices, "detect-sub": 1, "detect-fab": probes,
            "sweep": probes * devices}[kind]
    shots = int(_option(argv, "--shots", "4000")) * int(_option(argv, "--rounds", "3"))
    return jobs, jobs * shots


def child_env() -> dict:
    """Environment for spawned interpreters: the package from src, as tier-1 runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), os.environ.get("PYTHONPATH")) if p)
    return env


def _run_cli_captured(argv: list[str]) -> tuple[int, str]:
    import qprobe.cli  # at call time, so drift's set-up never imports the CLI
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        code = qprobe.cli.main(argv)
    return code, sink.getvalue()


class Drift:
    """Criterion-8 campaign through the Python API: 270 jobs per pass."""

    name = "drift"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        config = gen.write_fleet(self.work / "fleet",
                                 [(p, None) for p in gen.drift_profiles()])
        self.cloud = load_fleet(config, hidden_rate=gen.DRIFT_HIDDEN_RATE)
        self.plan = gen.drift_plan(self.seed, self.cloud.device_ids())
        self.jobs = len(self.plan)
        self.shots = self.jobs * gen.DRIFT_SHOTS * gen.DRIFT_ROUNDS

    def canary(self) -> list:
        """Golden-seed jobs: first job seed, first placement of each size."""
        plan = gen.drift_plan(GOLDEN_SEED, self.cloud.device_ids())
        firsts = {placements[0] for placements in gen.DRIFT_PROBES.values()}
        ops = [op for op in plan if op[3] == plan[0][3] and op[1:3] in firsts]
        return [[op[0], op[1], *self.run_op(op, None)[1]] for op in ops]

    def run_op(self, op, tracer):
        device_id, secret, mapping, job_seed = op
        took = [0.0]
        with op_span(tracer, took):
            profile = self.cloud.get_profile(device_id)
            circuit = compose_probe([(secret, mapping)], profile.topology)
            expected = estimate_fingerprint(circuit, profile)
            job = self.cloud.submit(device_id, circuit, gen.DRIFT_SHOTS, gen.DRIFT_ROUNDS,
                                    job_seed)
            observed = survival_from_counts(job.counts, circuit.ideal_output)
            verdict = detect(expected, observed)
        return took[0], [repr(verdict.distance), verdict.classification], {}

    @staticmethod
    def valid(op, verdict) -> bool:
        # Every drift device is honest, and its distances (at most ~0.02)
        # sit well below the default threshold.
        return verdict[1] == "honest"


class Scan:
    """Seeded mix of in-process CLI commands over a 24-device 5-qubit fleet."""

    name = "scan"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.out = work / "reports"

    def _fleet(self, seed: int, where: str) -> str:
        return str(gen.write_fleet(self.work / where, gen.scan_profiles(seed)))

    def setup(self) -> None:
        import qprobe.cli  # noqa: F401  (every op runs the CLI)
        self.plan = gen.scan_plan(self.seed, self._fleet(self.seed, "fleet"), str(self.out))
        totals = [cli_jobs(argv, gen.SCAN_DEVICES) for argv in self.plan]
        self.jobs = sum(j for j, _ in totals)
        self.shots = sum(s for _, s in totals)
        load_fleet(self.plan[0][2])

    def canary(self) -> list:
        """Golden-seed commands: the first of each kind in the golden plan."""
        plan = gen.scan_plan(GOLDEN_SEED, self._fleet(GOLDEN_SEED, "golden"), str(self.out))
        firsts = {}
        for argv in plan:
            firsts.setdefault(argv[0], argv)
        return [[kind, *self.run_op(firsts[kind], None)[1]] for kind, _ in gen.SCAN_MIX]

    def run_op(self, argv, tracer):
        report = self.out / f"{argv[0]}.json"
        report.unlink(missing_ok=True)
        took = [0.0]
        with op_span(tracer, took):
            code, _ = _run_cli_captured(argv)
        data = report.read_bytes()
        verdict = [code, *report_verdict(argv[0], json.loads(data))]
        return took[0], verdict, {"digest": hashlib.sha256(data).hexdigest(),
                                  "report_bytes": len(data)}

    @staticmethod
    def valid(argv, verdict) -> bool:
        return verdict[0] in (0, 2)


class DemoCold:
    """The README demo commands, each run as a fresh interpreter."""

    name = "demo-cold"

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work

    def setup(self) -> None:
        import qprobe.cli  # noqa: F401  (every op runs the CLI)
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = child_env()
        self.plan = gen.demo_plan(self.seed)
        totals = [cli_jobs(argv, DEMO_DEVICES) for argv in self.plan]
        self.jobs = sum(j for j, _ in totals)
        self.shots = sum(s for _, s in totals)
        load_fleet("fleets/demo/fleet.json")

    def canary(self) -> list:
        """The README commands run in-process before any process is timed."""
        out = []
        for argv in gen.DEMO_COMMANDS:
            code, text = _run_cli_captured(list(argv))
            out.append([argv[0], code, *report_verdict(argv[0], parse_stdout(argv, text))])
        self.expected = {row[0]: row[1:] for row in out}
        return out

    def run_op(self, argv, tracer):
        if tracer is None:
            cmd = [sys.executable, "-m", "qprobe.cli", *argv]
        else:
            summary = self.work / "child-spans.json"
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")), "trace",
                   str(summary), *argv]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=self.env)
        with proc.stdout, proc.stderr:
            try:
                data = proc.stdout.read()
                proc.stderr.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        took = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        text = data.decode()
        extra = {"digest": hashlib.sha256(data).hexdigest(),
                 "report_bytes": len(text) - len(text.splitlines()[-1]) - 1,
                 "cpu_s": usage.ru_utime + usage.ru_stime,
                 "rss_mb": usage.ru_maxrss / 1024.0}
        if tracer is not None:
            extra["child"] = json.loads(summary.read_text())
        verdict = [code, *report_verdict(argv[0], parse_stdout(argv, text))]
        return took, verdict, extra

    def valid(self, argv, verdict) -> bool:
        return verdict == self.expected[argv[0]]


WORKLOADS = {w.name: w for w in (Drift, Scan, DemoCold)}

