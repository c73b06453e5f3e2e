"""Noisy execution: sampling, the parity oracle and reproducibility.

The golden stream-key values pin down the counter-based generator; any
change to the mixing scheme breaks recorded experiment seeds everywhere, so
those constants must never move silently.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fleetgen
import qprobe
from qprobe import (
    Counts,
    DeviceProfile,
    NoiseSpec,
    Topology,
    TopologyError,
    counts_from_json,
    counts_to_json,
    estimate_fingerprint,
    exact_survival,
    execute,
    run_rounds,
    survival_from_counts,
)
from qprobe._flipcore import active_kernel, get_sampler, mix64, sample_packed_numpy, stream_key
from qprobe.circuit import Gate, TranspiledCircuit, TranspiledOp, build_bv, transpile
from qprobe.devicesim import _schedule, _stream_keys


def single_qubit_circuit() -> TranspiledCircuit:
    ops = (TranspiledOp(Gate.MEASURE, (0,), ("meas", 0)),)
    return TranspiledCircuit(1, ops, {0: 0}, {0: 0}, (0,), "0")


def single_qubit_profile(meas: float) -> DeviceProfile:
    return DeviceProfile(
        device_id="one",
        topology=Topology(1, []),
        cnot_error={},
        single_qubit_error={0: 0.0},
        measurement_error={0: meas},
        calibration_time=fleetgen.CAL_TIME,
    )


def test_stream_keys_are_frozen():
    assert mix64(0) == 0
    assert mix64(1) == 0x5692161D100B05E5
    assert stream_key(0, 0, 0, 0) == 0xFBE988335F36C931
    assert stream_key(1, 2, 1, 7) == 0x9754ACA99151ED28
    assert stream_key(42, 17, 2, 126) == 0x552254E5AE57AE4F


def test_noiseless_execution_returns_the_ideal_output():
    circ = transpile(build_bv("101"), fleetgen.t5(), [0, 1, 2, 3])
    zero = DeviceProfile(
        device_id="zero",
        topology=fleetgen.t5(),
        cnot_error={e: 0.0 for e in fleetgen.t5().sorted_edges()},
        single_qubit_error={q: 0.0 for q in range(5)},
        measurement_error={q: 0.0 for q in range(5)},
        calibration_time=fleetgen.CAL_TIME,
    )
    counts = execute(circ, NoiseSpec(zero), shots=500, seed=3)
    assert counts.counts == {"101": 500}


def test_half_rate_flip_is_a_coin_toss():
    circ = single_qubit_circuit()
    noise = NoiseSpec(single_qubit_profile(0.5))
    assert exact_survival(circ, noise).survivals == (0.5,)
    counts = execute(circ, noise, shots=20000, seed=11)
    s = survival_from_counts(counts, "0")[0]
    assert abs(s - 0.5) < 0.02


def test_oracle_closed_form_for_two_opportunities():
    # H then MEASURE on one qubit: survival is (1 + (1-2p)(1-2q)) / 2
    ops = (
        TranspiledOp(Gate.H, (0,), ("single", 0)),
        TranspiledOp(Gate.MEASURE, (0,), ("meas", 0)),
    )
    circ = TranspiledCircuit(1, ops, {0: 0}, {0: 0}, (0,), "0")
    prof = DeviceProfile(
        device_id="two",
        topology=Topology(1, []),
        cnot_error={},
        single_qubit_error={0: 0.03},
        measurement_error={0: 0.11},
        calibration_time=fleetgen.CAL_TIME,
    )
    s = exact_survival(circ, NoiseSpec(prof)).survivals[0]
    assert s == pytest.approx(1 - 0.03 - 0.11 + 2 * 0.03 * 0.11, abs=1e-15)


def test_oracle_never_sits_below_the_estimator():
    rng = np.random.default_rng(5)
    for _ in range(5):
        circ, noise = fleetgen.random_fixture(rng)
        est = estimate_fingerprint(circ, noise.true_profile)
        exact = exact_survival(circ, noise)
        assert all(e >= s for e, s in zip(exact.survivals, est.survivals))


def test_sampled_survival_approaches_the_oracle():
    rng = np.random.default_rng(99)
    circ, noise = fleetgen.random_fixture(rng)
    exact = exact_survival(circ, noise)
    counts = run_rounds(circ, noise, shots=4000, rounds=3, seed=21)
    observed = survival_from_counts(counts, circ.ideal_output)
    for s, o in zip(exact.survivals, observed.survivals):
        assert abs(s - o) < 4 * math.sqrt(s * (1 - s) / 12000) + 1e-9


def test_execution_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    circ, noise = fleetgen.random_fixture(rng)
    a = execute(circ, noise, shots=2000, seed=7)
    b = execute(circ, noise, shots=2000, seed=7)
    c = execute(circ, noise, shots=2000, seed=8)
    assert a.counts == b.counts
    assert a.counts != c.counts


def test_run_rounds_pools_single_executions():
    rng = np.random.default_rng(3)
    circ, noise = fleetgen.random_fixture(rng)
    assert run_rounds(circ, noise, shots=1000, rounds=1, seed=5).counts == \
        execute(circ, noise, shots=1000, seed=5).counts
    pooled = run_rounds(circ, noise, shots=1000, rounds=3, seed=5)
    assert pooled.shots == 3000
    manual: dict[str, int] = {}
    for r in range(3):
        for outcome, n in execute(circ, noise, shots=1000, seed=5 + r).counts.items():
            manual[outcome] = manual.get(outcome, 0) + n
    assert pooled.counts == manual


def test_compiled_and_numpy_kernels_agree():
    if active_kernel() != "compiled":
        pytest.skip("compiled kernel not built")
    rng = np.random.default_rng(13)
    circ, noise = fleetgen.random_fixture(rng)
    sites, probs, bits = _schedule(circ, noise)
    ideal = sum(circ.ideal_bit(i) << i for i in range(len(circ.measured)))
    args = (ideal, _stream_keys(sites, 31), probs, bits, 20000)
    compiled = get_sampler()(*args)
    assert compiled.dtype == np.uint64
    assert np.array_equal(sample_packed_numpy(*args), compiled)


def test_kernel_env_override_forces_numpy():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(qprobe.__file__))
    env = dict(os.environ, QPROBE_KERNEL="numpy",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run(
        [sys.executable, "-c", "from qprobe._flipcore import active_kernel; print(active_kernel())"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "numpy"


def test_survival_marginals_from_counts():
    counts = Counts({"11": 7200, "01": 800, "10": 1800, "00": 200}, shots=10000)
    s = survival_from_counts(counts, "11")
    assert s.survivals == (0.8, 0.9)
    with pytest.raises(ValueError, match="width"):
        survival_from_counts(counts, "1")
    with pytest.raises(ValueError, match="empty"):
        survival_from_counts(Counts({}, shots=0), "1")


def test_counts_validation():
    with pytest.raises(ValueError, match="width"):
        Counts({"00": 1, "1": 2}, shots=3)
    with pytest.raises(ValueError, match="negative"):
        Counts({"0": -1, "1": 4}, shots=3)
    with pytest.raises(ValueError, match="sum"):
        Counts({"0": 1}, shots=2)
    assert Counts({"0": 1, "1": 3}, shots=4).probabilities() == {"0": 0.25, "1": 0.75}


def test_counts_json_round_trip():
    counts = Counts({"01": 5, "11": 7}, shots=12)
    again, seed = counts_from_json(counts_to_json(counts, seed=9))
    assert again == counts and seed == 9
    again, seed = counts_from_json(counts_to_json(counts))
    assert again == counts and seed is None


def test_execute_argument_checks():
    circ = single_qubit_circuit()
    noise = NoiseSpec(single_qubit_profile(0.1))
    with pytest.raises(ValueError, match="shots"):
        execute(circ, noise, shots=0, seed=0)
    with pytest.raises(ValueError, match="rounds"):
        run_rounds(circ, noise, shots=10, rounds=0, seed=0)
    other = transpile(build_bv("11"), fleetgen.t5(), [0, 1, 3])
    with pytest.raises(TopologyError, match="does not fit"):
        execute(other, noise, shots=10, seed=0)


def test_hidden_rate_bounds_and_saturation():
    with pytest.raises(ValueError, match="hidden_rate"):
        NoiseSpec(single_qubit_profile(0.1), hidden_rate=1.0)
    # a rate plus the hidden extra must stay a probability
    noise = NoiseSpec(single_qubit_profile(0.6), hidden_rate=0.5)
    with pytest.raises(ValueError, match="not < 1"):
        execute(single_qubit_circuit(), noise, shots=10, seed=0)
    with pytest.raises(ValueError, match="not < 1"):
        exact_survival(single_qubit_circuit(), noise)


def test_wide_probes_are_rejected():
    n = 65
    topo = Topology(n, [])
    ops = tuple(TranspiledOp(Gate.MEASURE, (q,), ("meas", q)) for q in range(n))
    ident = {q: q for q in range(n)}
    circ = TranspiledCircuit(n, ops, ident, ident, tuple(range(n)), "0" * n)
    prof = DeviceProfile(
        device_id="wide",
        topology=topo,
        cnot_error={},
        single_qubit_error={q: 0.0 for q in range(n)},
        measurement_error={q: 0.0 for q in range(n)},
        calibration_time=fleetgen.CAL_TIME,
    )
    with pytest.raises(ValueError, match="at most 64"):
        execute(circ, NoiseSpec(prof), shots=1, seed=0)
