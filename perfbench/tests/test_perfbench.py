"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH), str(ROOT / "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import qprobe.devicesim  # noqa: E402
from qprobe import dump_profile  # noqa: E402

import checks  # noqa: E402
import fleetgen  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def test_drift_fleet_matches_the_test_fixtures():
    assert ([dump_profile(p) for p in gen.drift_profiles()]
            == [dump_profile(p) for p in fleetgen.drift_profiles()])
    assert gen.DRIFT_PROBES == fleetgen.DRIFT_PROBES


def test_seeded_generators_are_deterministic():
    ids = ["harrier", "kestrel", "osprey"]
    assert gen.drift_plan(5, ids) == gen.drift_plan(5, ids)
    assert gen.drift_plan(5, ids) != gen.drift_plan(6, ids)
    assert ([(dump_profile(p), h) for p, h in gen.scan_profiles(5)]
            == [(dump_profile(p), h) for p, h in gen.scan_profiles(5)])
    assert gen.scan_profiles(5)[0][0] != gen.scan_profiles(6)[0][0]
    assert gen.scan_plan(5, "f", "o") == gen.scan_plan(5, "f", "o")
    assert gen.scan_plan(5, "f", "o") != gen.scan_plan(6, "f", "o")
    assert gen.demo_plan(5) == gen.demo_plan(5)


def test_a_seed_changes_inputs_but_not_the_shape_of_a_pass():
    ids = ["harrier", "kestrel", "osprey"]
    assert {len(gen.drift_plan(s, ids)) for s in range(5)} == {270}
    mixes = {tuple(sorted(Counter(argv[0] for argv in gen.scan_plan(s, "f", "o")).items()))
             for s in range(5)}
    assert mixes == {tuple(sorted(gen.SCAN_MIX))}
    assert {tuple(sorted(map(tuple, gen.demo_plan(s)))) for s in range(5)} == {
        tuple(sorted(map(tuple, gen.DEMO_COMMANDS)))}


def test_percentile_rule_picks_the_highest_percentile_with_ten_samples_beyond():
    for n in (1, 9, 91, 92, 100, 500, 999, 1000, 5000, 10008, 10009, 20000):
        values = list(range(n))
        cuts = {p: stats.percentile(values, p) for p in stats.TAIL_CANDIDATES}
        counts = {p: sum(v > cut for v in values) for p, cut in cuts.items()}
        assert counts == {p: stats.beyond(n, p) for p in stats.TAIL_CANDIDATES}
        eligible = [p for p in stats.TAIL_CANDIDATES if counts[p] >= 10]
        assert stats.tail_percentile(n) == (max(eligible) if eligible else None)
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(92) == 90.0
    assert stats.tail_percentile(91) is None


def test_self_time_on_a_hand_built_span_tree():
    tree = [
        ["op", 0, 100, -1],
        ["cloud.submit", 10, 60, 0],
        ["device.topology_compatible", 12, 15, 1],
        ["devicesim.run_rounds", 20, 50, 1],
        ["_flipcore.sample", 25, 45, 3],
        ["estimator.estimate_fingerprint", 70, 90, 0],
        ["estimator.estimate_fingerprint", 92, 95, 0],
    ]
    assert spans.self_times(tree) == [100 - 50 - 20 - 3, 50 - 3 - 30, 3, 30 - 20, 20, 20, 3]
    summary = spans.summarize(tree)
    assert summary["estimator.estimate_fingerprint"] == {"calls": 2, "total_ns": 23,
                                                         "self_ns": 23}
    # overlapping children are counted once
    assert spans.self_times([["a", 0, 10, -1], ["b", 2, 6, 0], ["c", 4, 8, 0]])[0] == 4


def test_tracing_nests_spans_at_the_rebound_names_and_restores_them(tmp_path):
    import qprobe.cloud
    originals = (qprobe.cloud.run_rounds, qprobe.devicesim.get_sampler,
                 qprobe.cloud.QuantumCloud.submit)
    config = gen.write_fleet(tmp_path, [(p, None) for p in gen.drift_profiles()[:1]])
    cloud = qprobe.load_fleet(config)
    tracer = spans.Tracer()
    with spans.install(tracer):
        circuit = qprobe.compose_probe([gen.DRIFT_PROBES[4][0]],
                                       cloud.get_profile("osprey").topology)
        cloud.submit("osprey", circuit, 100, 2, 7)
    assert originals == (qprobe.cloud.run_rounds, qprobe.devicesim.get_sampler,
                         qprobe.cloud.QuantumCloud.submit)
    names = [s[0] for s in tracer.spans]
    parent = {i: tracer.spans[s[3]][0] if s[3] >= 0 else None
              for i, s in enumerate(tracer.spans)}
    assert names.count("_flipcore.sample") == 2
    assert {parent[i] for i, n in enumerate(names) if n == "_flipcore.sample"} == {
        "devicesim.run_rounds"}
    assert parent[names.index("devicesim.run_rounds")] == "cloud.submit"
    assert tracer.counts["_flipcore.flip_evals"] > 0


def test_a_bypassed_boundary_is_missing_not_zero():
    summary = {"op": {"calls": 3, "total_ns": 30, "self_ns": 30},
               "cloud.submit": {"calls": 3, "total_ns": 20, "self_ns": 20}}
    values = run.layer_values(run.Pass(0.0, 0.0, [], summary, {}))
    assert values["flipcore.sample_s"] is None
    assert values["flipcore.flip_evals"] is None
    assert values["cloud.jobs"] == 3
    assert values["cloud.submit_self_s"] == 20e-9


def test_failures_count_exceptions_broken_invariants_and_pass_mismatches():
    class Fake:
        plan = ["a", "b", "c"]

        @staticmethod
        def valid(op, verdict):
            return verdict != "bad"

    def ok(verdict, digest=None):
        return (0.001, verdict, {"digest": digest} if digest else {})

    first = run.Pass(1.0, 1.0, [ok("x"), ok("y", "h1"), ok("z")])
    other_report = run.Pass(1.0, 1.0, [ok("x"), ok("y", "h2"), None])
    broken = run.Pass(1.0, 1.0, [ok("bad"), ok("y", "h1"), ok("z")])
    assert run.failures(Fake, [first, first]) == 0
    assert run.failures(Fake, [first, other_report]) == 2
    assert run.failures(Fake, [first, broken]) == 1


def test_gate_rejects_a_perturbed_distance():
    expected = checks.load_expected()["drift"]
    checks.compare_verdicts(expected, expected, "drift")
    perturbed = json.loads(json.dumps(expected))
    perturbed[4][2] = repr(np.nextafter(float(perturbed[4][2]), 1.0))
    with pytest.raises(checks.GateError, match="verdict 4"):
        checks.compare_verdicts(expected, perturbed, "drift")


_REAL_GET_SAMPLER = qprobe.devicesim.get_sampler


def _bad_sampler():
    """The active sampler with bit 0 of every outcome word flipped."""
    good = _REAL_GET_SAMPLER()
    return lambda *args: good(*args) ^ np.uint64(1)


def test_gate_rejects_a_kernel_mismatch(monkeypatch):
    assert "bit-identical" in checks.check_kernel_agreement()
    monkeypatch.setattr(qprobe.devicesim, "get_sampler", _bad_sampler)
    with pytest.raises(checks.GateError, match="kernel agreement"):
        checks.check_kernel_agreement()


def _refuses(capsys) -> None:
    code = run.main(["--workload", "demo-cold", "--seed", "1", "--seconds", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "refusing to time anything" in err
    assert not any(line.startswith("{") for line in out.splitlines())
    assert "wall_s" not in out


def test_benchmark_refuses_to_time_when_an_expected_verdict_is_perturbed(monkeypatch,
                                                                         capsys):
    monkeypatch.chdir(ROOT)
    expected = checks.load_expected()
    row = expected["demo-cold"][1]
    assert row[0] == "detect-sub"
    row[2][1] = repr(float(row[2][1]) * (1 + 1e-12))
    monkeypatch.setattr(checks, "load_expected", lambda: expected)
    _refuses(capsys)


def test_benchmark_refuses_to_time_on_a_kernel_mismatch(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(qprobe.devicesim, "get_sampler", _bad_sampler)
    _refuses(capsys)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_every_declared_metric(monkeypatch, capsys, trace):
    monkeypatch.chdir(ROOT)
    code = run.main(["--workload", "scan", "--seed", "3", "--seconds", "1",
                     "--trace", trace])
    out = capsys.readouterr().out
    assert code == 0
    result = json.loads(out.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace == "1" else "end_to_end"]]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in declared["per_layer"] + declared["end_to_end"]}
    assert all(m["unit"] == units[n] for n, m in result["metrics"].items())
