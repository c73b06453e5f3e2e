"""End-to-end guarantees of the fingerprinting protocol.

Each test here asserts one numbered release criterion at its stated
tolerance and time budget, and reports a one-line verdict through the
acceptance log (printed after the run).  These are the checks that decide
whether the package does its job; the per-module suites cover the parts.
"""

from __future__ import annotations

import json
import math
from time import perf_counter

import numpy as np

import fleetgen
from qprobe import (
    DeviceProfile,
    Fingerprint,
    Topology,
    estimate_fingerprint,
    exact_survival,
    manhattan_avg,
    run_rounds,
    survival_from_counts,
)
from qprobe.circuit import Gate, TranspiledCircuit, TranspiledOp, compose_probe, walk_ops
from qprobe.cli import ProbeSpec, main, run_detect_fabrication, run_detect_substitution, run_identify
from qprobe.cloud import load_fleet
from qprobe.devicesim import Counts

THRESHOLD = 0.035


def sized_probe_specs() -> list[ProbeSpec]:
    return [ProbeSpec(((secret, mapping),))
            for secret, mappings in fleetgen.SIZED_PROBES
            for mapping in mappings]


def test_c01_single_qubit_survival_chain(acceptance_log):
    # one tracked qubit through a single-qubit gate, a SWAP, a CNOT, another
    # single-qubit gate and readout, with hand-checkable rates
    ops = (
        TranspiledOp(Gate.H, (0,)),
        TranspiledOp(Gate.SWAP, (0, 1)),
        TranspiledOp(Gate.CNOT, (1, 2)),
        TranspiledOp(Gate.H, (1,)),
        TranspiledOp(Gate.MEASURE, (1,)),
    )
    circuit = TranspiledCircuit(3, ops, {0: 0}, (0,), "0")
    profile = DeviceProfile(
        device_id="chain",
        topology=Topology(3, [(0, 1), (1, 2)]),
        cnot_error={(0, 1): 0.013, (1, 2): 0.013},
        single_qubit_error={0: 0.0015, 1: 0.0004, 2: 0.0},
        measurement_error={0: 0.0, 1: 0.042, 2: 0.0},
        calibration_time=fleetgen.CAL_TIME,
    )
    reps = 200
    t0 = perf_counter()
    for _ in range(reps):
        est = estimate_fingerprint(circuit, profile)
    per_call = (perf_counter() - t0) / reps

    error = abs(est[0] - 0.907420)
    ok = error < 1e-6 and per_call < 1e-3
    acceptance_log(1, ok, f"survival {est[0]:.9f}, off by {error:.2e}, "
                          f"{per_call * 1e6:.0f}us per call")
    assert error < 1e-6
    assert per_call < 1e-3


def test_c02_marginal_survival_extraction(acceptance_log):
    counts = Counts({"11": 7200, "01": 800, "10": 1800, "00": 200})
    s = survival_from_counts(counts, "11")
    ok = s.survivals == (0.8, 0.9)
    acceptance_log(2, ok, f"marginals {s.survivals} == (0.8, 0.9) exactly")
    assert ok


def test_c03_sampled_survival_tracks_the_oracle(acceptance_log):
    rng = np.random.default_rng(7)
    t0 = perf_counter()
    within = 0
    for i in range(20):
        circuit, noise = fleetgen.random_fixture(rng)
        exact = exact_survival(circuit, noise)
        counts = run_rounds(circuit, noise, shots=4000, rounds=3, seed=1000 + i)
        observed = survival_from_counts(counts, circuit.ideal_output)
        within += all(abs(o - s) <= 4 * math.sqrt(s * (1 - s) / 12000)
                      for s, o in zip(exact.survivals, observed.survivals))
    elapsed = perf_counter() - t0
    ok = within >= 19 and elapsed < 30
    acceptance_log(3, ok, f"{within}/20 fixtures within 4 sigma of the oracle "
                          f"({elapsed:.1f}s)")
    assert within >= 19
    assert elapsed < 30


def test_c04_estimator_bias_is_bounded(acceptance_log):
    # the product estimate ignores flip cancellation, so it can only sit at
    # or below the oracle, and the gap is second order in the rates
    rng = np.random.default_rng(7)
    t0 = perf_counter()
    violations = 0
    for _ in range(20):
        circuit, noise = fleetgen.random_fixture(rng)
        profile = noise.true_profile
        est = estimate_fingerprint(circuit, profile)
        exact = exact_survival(circuit, noise)
        rates: dict[int, list[float]] = {}
        for _, op, events, _ in walk_ops(circuit):
            for _, logical, _ in events:
                rates.setdefault(logical, []).append(profile.rate_for(op.error_key))
        for k, q in enumerate(circuit.measured):
            gap = exact[k] - est[k]
            bound = (len(rates[q]) * max(rates[q])) ** 2 / 2
            if not (-1e-12 <= gap <= bound + 1e-12):
                violations += 1
    elapsed = perf_counter() - t0
    ok = violations == 0 and elapsed < 1
    acceptance_log(4, ok, f"0 <= oracle - estimate <= (m*e_max)^2/2 held "
                          f"entry-wise, {violations} violations ({elapsed:.2f}s)")
    assert violations == 0
    assert elapsed < 1


def test_c05_substitution_detection(corner_fleet, acceptance_log):
    cloud = load_fleet(corner_fleet)
    probe = ProbeSpec((("11", (0, 1, 3)),))
    devices = cloud.device_ids()
    assert len(devices) == 4

    t0 = perf_counter()
    cross_bad: list[tuple] = []
    honest_bad: list[tuple] = []
    cross_n = honest_n = 0
    for s in range(10):
        for idx, victim in enumerate(devices):
            for jdx, actual in enumerate(devices):
                seed = 10_000 * s + 97 * (idx * 4 + jdx)
                report, code = run_detect_substitution(
                    cloud, victim, actual, probe, shots=4000, rounds=3,
                    seed=seed, threshold=THRESHOLD)
                distance = report.summary["distance"]
                if victim == actual:
                    honest_n += 1
                    if code != 0 or distance > THRESHOLD:
                        honest_bad.append((s, victim, distance))
                else:
                    cross_n += 1
                    if code != 2 or distance <= THRESHOLD:
                        cross_bad.append((s, victim, actual, distance))
    elapsed = perf_counter() - t0

    ok = not cross_bad and not honest_bad and elapsed < 60
    acceptance_log(5, ok, f"{cross_n - len(cross_bad)}/{cross_n} substitutions "
                          f"flagged, {honest_n - len(honest_bad)}/{honest_n} honest "
                          f"runs clean ({elapsed:.1f}s)")
    assert cross_n == 120 and honest_n == 40
    assert not cross_bad, cross_bad[:3]
    assert not honest_bad, honest_bad[:3]
    assert elapsed < 60


def test_c06_fabrication_detection(grit_fleet, acceptance_log):
    probes = sized_probe_specs()
    assert len(probes) == 9

    t0 = perf_counter()
    misses = []
    for s in range(10):
        cloud = load_fleet(grit_fleet)
        report, code = run_detect_fabrication(
            cloud, "grit", {"scale": 0.5}, probes, shots=4000, rounds=3,
            seed=131 * s, threshold=THRESHOLD)
        if code != 2 or report.summary["fraudulent"] != 9:
            misses.append((s, report.summary))
    elapsed = perf_counter() - t0

    ok = not misses and elapsed < 60
    acceptance_log(6, ok, f"halved-rate forgery flagged in 9/9 probe combinations "
                          f"for 10/10 seeds ({elapsed:.1f}s)")
    assert not misses, misses[:2]
    assert elapsed < 60


def test_c07_identification_matrix(corner_fleet, acceptance_log):
    cloud = load_fleet(corner_fleet)
    probes = [ProbeSpec(((secret, mappings[0]),))
              for secret, mappings in fleetgen.SIZED_PROBES]

    t0 = perf_counter()
    correct = rows = 0
    for i, probe in enumerate(probes):
        report, code = run_identify(cloud, probe, shots=4000, rounds=3, seed=500 * i)
        correct += report.summary["correct"]
        rows += report.summary["rows"]
        assert code == 0
    elapsed = perf_counter() - t0

    ok = correct == rows == 12 and elapsed < 60
    acceptance_log(7, ok, f"{correct}/{rows} diagonal matches over three probe "
                          f"sizes ({elapsed:.1f}s)")
    assert (correct, rows) == (12, 12)
    assert elapsed < 60


def test_c08_hidden_rate_grows_with_probe_size(acceptance_log, drift_fleet):
    cloud = load_fleet(drift_fleet, hidden_rate=5e-4)
    t0 = perf_counter()
    means: dict[int, float] = {}
    for size, placements in sorted(fleetgen.DRIFT_PROBES.items()):
        distances = []
        for s in range(10):
            for device_id in cloud.device_ids():
                profile = cloud.get_profile(device_id)
                for secret, mapping in placements:
                    circuit = compose_probe([(secret, mapping)], profile.topology)
                    expected = estimate_fingerprint(circuit, profile)
                    job = cloud.submit(device_id, circuit, shots=4000, rounds=3,
                                       seed=31 * s + 7)
                    observed = survival_from_counts(job.counts, circuit.ideal_output)
                    distances.append(manhattan_avg(expected, observed))
        means[size] = sum(distances) / len(distances)
    elapsed = perf_counter() - t0

    ordered = means[3] < means[4] < means[9]
    ok = ordered and elapsed < 120
    acceptance_log(8, ok, f"mean honest distance {means[3]:.4f} < {means[4]:.4f} "
                          f"< {means[9]:.4f} across probe sizes ({elapsed:.1f}s)")
    assert ordered, means
    assert elapsed < 120


def test_c09_reports_are_deterministic(corner_fleet, tmp_path, capsys, acceptance_log):
    runs = {
        "identify-json": ["identify", "--fleet", str(corner_fleet),
                          "--probe", "bv:11", "--mapping", "0,1,3"],
        "identify-csv": ["identify", "--fleet", str(corner_fleet),
                         "--probe", "bv:11", "--mapping", "0,1,3",
                         "--format", "csv"],
        "detect-sub": ["detect-sub", "--fleet", str(corner_fleet),
                       "--probe", "bv:11", "--mapping", "0,1,3",
                       "--victim", "alpine", "--actual", "cascade"],
    }
    stable = True
    for name, argv in runs.items():
        blobs = []
        for attempt in ("x", "y"):
            out = tmp_path / f"{name}-{attempt}"
            code = main([*argv, "--out", str(out)])
            assert code in (0, 2)
            (written,) = sorted(out.iterdir())
            blobs.append(written.read_bytes())
        stable = stable and blobs[0] == blobs[1]
    capsys.readouterr()
    acceptance_log(9, stable, "reruns with identical flags emitted byte-identical "
                              "reports for three commands")
    assert stable


def test_c10_distance_is_a_metric(acceptance_log):
    # survivals drawn from a dyadic grid with power-of-two lengths keep every
    # arithmetic step exact, so the axioms must hold with no tolerance at all
    rng = np.random.default_rng(2026)
    asym = tribad = 0
    for _ in range(10_000):
        n = int(rng.choice([1, 2, 4, 8]))
        a, b, c = (Fingerprint(tuple(float(v) / 65536.0 for v in
                                     rng.integers(0, 65537, size=n)))
                   for _ in range(3))
        if manhattan_avg(a, b) != manhattan_avg(b, a):
            asym += 1
        if manhattan_avg(a, c) > manhattan_avg(a, b) + manhattan_avg(b, c):
            tribad += 1
    ok = asym == 0 and tribad == 0
    acceptance_log(10, ok, f"10000 triples: {asym} symmetry and {tribad} triangle "
                           f"violations, compared exactly")
    assert asym == 0
    assert tribad == 0
