"""Noisy execution: sampling, the parity oracle and reproducibility.

The golden stream-key values pin down the counter-based generator; any
change to the mixing scheme breaks recorded experiment seeds everywhere, so
those constants must never move silently.  Both kernels, numpy and the C
kernel built from source by the ``flipcore_c`` fixture, are checked bit for
bit against ``per_event_sampler``, a fixed one-event-at-a-time oracle that
makes the float test (u >> 11) * 2**-53 < p.
"""

from __future__ import annotations

import math
import tracemalloc

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
    estimate_fingerprint,
    exact_survival,
    execute,
    run_rounds,
    survival_from_counts,
)
from qprobe._flipcore import (
    _GAMMA,
    _MASK,
    _MIX1,
    _MIX2,
    _TILE,
    _mix64,
    _mix64_np,
    _shot_halves,
    compiled_sampler,
    offset_seed,
    flip_thresholds,
    get_sampler,
    salted_keys,
    sample_packed_numpy,
    stream_keys,
    stream_salts,
)
from qprobe.circuit import Gate, TranspiledCircuit, TranspiledOp, bit_at, build_bv, transpile
from qprobe.devicesim import _flip_probs


def single_qubit_circuit() -> TranspiledCircuit:
    ops = (TranspiledOp(Gate.MEASURE, (0,)),)
    return TranspiledCircuit(1, ops, {0: 0}, (0,), "0")


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
    assert _mix64_np(np.array([0, 1], dtype=np.uint64)).tolist() == [0, 0x5692161D100B05E5]
    assert stream_keys(0, [(0, 0, 0)]).tolist() == [0xFBE988335F36C931]
    assert stream_keys(1, [(2, 1, 7)]).tolist() == [0x9754ACA99151ED28]
    assert stream_keys(42, [(17, 2, 126)]).tolist() == [0x552254E5AE57AE4F]
    # a negative seed keys as its 64-bit two's complement
    assert stream_keys(-1, [(3, 2, 5)]).tolist() == [0xD79CB2ACCA3824B9]
    assert stream_keys(2**64 - 1, [(3, 2, 5), (0, 0, 0)]).tolist() == \
        [0xD79CB2ACCA3824B9, stream_keys(-1, [(0, 0, 0)])[0]]



def test_salted_keys_match_stream_keys_for_every_seed():
    sites = [(0, 0, 0), (2, 1, 7), (17, 2, 126), (3, 2, 5)]
    seeds = [0, 1, 42, 2**64 - 1, -1, -2**63]
    keys = salted_keys(seeds, stream_salts(sites))
    assert keys.dtype == np.uint64 and keys.shape == (len(seeds), len(sites))
    for seed, row in zip(seeds, keys):
        assert row.tolist() == stream_keys(seed, sites).tolist()
    words = np.random.default_rng(3).integers(0, 2**64, 50, dtype=np.uint64)
    assert [_mix64(w) for w in words.tolist()] == _mix64_np(words.copy()).tolist()
    assert salted_keys([5], stream_salts(np.empty((0, 3)))).shape == (1, 0)


def test_stream_keys_accept_exactly_the_64_bit_seeds():
    site = [(0, 0, 0)]
    for seed in (-2**63, 2**64 - 1):
        assert stream_keys(seed, site).dtype == np.uint64
    for seed in (-2**63 - 1, 2**64):
        with pytest.raises(ValueError, match="outside the 64-bit range"):
            stream_keys(seed, site)


def test_offset_seed_checks_the_given_seed_and_wraps_the_sum():
    # sums inside the range are kept, so reports record the seeds they always did
    assert [offset_seed(-5, k) for k in (0, 3, 6)] == [-5, -2, 1]
    assert offset_seed(2**64 - 4, 3) == 2**64 - 1
    # a sum past the top wraps modulo 2**64, like -1 and 2**64 - 1
    assert [offset_seed(2**64 - 1, k) for k in (0, 1, 3)] == [2**64 - 1, 0, 2]
    # only the given seed is checked, and the error names it
    for seed in (-2**63 - 1, 2**64):
        with pytest.raises(ValueError, match=f"seed {seed} outside the 64-bit range"):
            offset_seed(seed, 0)


def test_rounds_past_the_top_seed_alias_the_seeds_below_it():
    circ = transpile(build_bv("11"), fleetgen.t5(), [0, 1, 3])
    noise = NoiseSpec(fleetgen.corner_profiles()[0], hidden_rate=0.05)
    top = run_rounds(circ, noise, shots=200, rounds=3, seed=2**64 - 1)
    assert top.counts == run_rounds(circ, noise, shots=200, rounds=3, seed=-1).counts


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
        TranspiledOp(Gate.H, (0,)),
        TranspiledOp(Gate.MEASURE, (0,)),
    )
    circ = TranspiledCircuit(1, ops, {0: 0}, (0,), "0")
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


@pytest.fixture(params=["numpy", "compiled"])
def kernel(request):
    """Each sampling kernel in turn; the compiled one is built from source."""
    if request.param == "numpy":
        return sample_packed_numpy
    return compiled_sampler(request.getfixturevalue("flipcore_c"))


def test_compiled_and_numpy_kernels_agree(flipcore_c):
    rng = np.random.default_rng(13)
    circ, noise = fleetgen.random_fixture(rng)
    ideal = int(circ.ideal_output, 2) if circ.ideal_output else 0
    args = (ideal, stream_keys(31, circ.flip_sites), flip_thresholds(_flip_probs(circ, noise)),
            circ.flip_bits, 20000)
    compiled = compiled_sampler(flipcore_c)(*args)
    assert compiled.dtype == np.uint64
    assert np.array_equal(sample_packed_numpy(*args), compiled)
    assert np.array_equal(get_sampler()(*args), compiled)


@pytest.mark.parametrize("lengths", [(3, 2, 3), (3, 3, 4), (0, 1, 0)])
def test_kernels_reject_mismatched_lengths(kernel, lengths):
    keys, thresholds, bits = (np.zeros(n, dtype=dtype) for n, dtype in
                              zip(lengths, (np.uint64, np.uint64, np.int64)))
    with pytest.raises(ValueError):
        kernel(0, keys, thresholds, bits, 5)


@pytest.mark.parametrize("bit", [-1, 64, 65, 2**40])
def test_kernels_reject_target_bits_outside_the_word(kernel, bit):
    keys = thresholds = np.zeros(2, dtype=np.uint64)
    with pytest.raises(ValueError):
        kernel(0, keys, thresholds, np.array([0, bit], dtype=np.int64), 5)


@pytest.mark.parametrize("events", [0, 3])
def test_kernels_return_no_words_for_no_shots(kernel, events):
    keys = thresholds = np.full(events, 2**63, dtype=np.uint64)
    out = kernel(5, keys, thresholds, np.zeros(events, dtype=np.int64), 0)
    assert out.dtype == np.uint64 and out.shape == (0,)


def test_c_kernel_rejects_a_mismatched_out_buffer_and_bad_bits(flipcore_c):
    keys = thresholds = np.zeros(2, dtype=np.uint64)
    bits = np.zeros(2, dtype=np.int64)
    with pytest.raises(ValueError):
        flipcore_c.sample_packed(0, keys, thresholds, bits, 5, np.empty(4, dtype=np.uint64))
    for bit in (-1, 64):
        with pytest.raises(ValueError):
            flipcore_c.sample_packed(0, keys, thresholds, np.array([0, bit]), 5,
                                     np.empty(5, dtype=np.uint64))


def per_event_sampler(ideal: int, keys: np.ndarray, probs: np.ndarray,
                      bits: np.ndarray, shots: int) -> np.ndarray:
    """Oracle: one event at a time, flipping where (u >> 11) * 2**-53 < p."""
    salts = np.arange(shots, dtype=np.uint64) * np.uint64(_GAMMA)
    out = np.full(shots, ideal, dtype=np.uint64)
    for j in range(len(keys)):
        u = _mix64_np(keys[j] ^ salts)
        flips = (u >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 < probs[j]
        out ^= flips.astype(np.uint64) << np.uint64(bits[j])
    return out


# edge probabilities: never, subnormal, the largest below 1, a coin
EDGE_PROBS = (0.0, 5e-324, 2.0 ** -1060, 1.0 - 2.0 ** -53, 0.5)


# bits 0 and 63 interleaved with others, in no order
FEW_BITS = (63, 0, 5, 0, 63, 17)
# every bit of the word, unsorted, so one tile holds events of many bits
ALL_BITS = tuple(np.random.default_rng(64).permutation(64).tolist())

ORACLE_CASES = pytest.mark.parametrize("events, shots, bit_pool", [
    *(pytest.param(events, shots, FEW_BITS, id=f"{events}-{shots}") for events, shots in (
        (0, 1), (0, 37), (1, 1), (9, 1), (40, 3), (70, 500), (50, 4000), (30, 4099),
        (5, _TILE // 2), (6, _TILE // 2 + 1), (5, _TILE), (6, _TILE + 1))),
    pytest.param(200, 100, ALL_BITS, id="200-100-all-bits"),
    pytest.param(300, 4000, ALL_BITS, id="300-4000-all-bits"),
])


def assert_matches_the_per_event_oracle(kernel, events, shots, bit_pool):
    rng = np.random.default_rng([events, shots])
    keys = rng.integers(0, 2**64, events, dtype=np.uint64)
    probs = np.where(rng.random(events) < 0.5, rng.choice(EDGE_PROBS, events),
                     rng.random(events) * 0.2)
    bits = rng.choice(bit_pool, events).astype(np.int64)
    ideal = int(rng.integers(0, 2**64, dtype=np.uint64))
    out = kernel(ideal, keys, flip_thresholds(probs), bits, shots)
    assert out.dtype == np.uint64 and out.shape == (shots,)
    assert np.array_equal(out, per_event_sampler(ideal, keys, probs, bits, shots))


@ORACLE_CASES
def test_numpy_kernel_matches_the_per_event_oracle(events, shots, bit_pool):
    assert_matches_the_per_event_oracle(sample_packed_numpy, events, shots, bit_pool)


@ORACLE_CASES
def test_compiled_kernel_matches_the_per_event_oracle(flipcore_c, events, shots, bit_pool):
    assert_matches_the_per_event_oracle(compiled_sampler(flipcore_c), events, shots, bit_pool)


def assert_strict_at_the_53_bit_boundary(kernel):
    rng = np.random.default_rng(17)
    keys = rng.integers(0, 2**64, 1 << 15, dtype=np.uint64)
    shots = rng.integers(0, 300, 1 << 15)
    draws = _mix64_np(keys ^ shots.astype(np.uint64) * np.uint64(_GAMMA))
    # a draw whose low 11 bits are zero equals the integer threshold at p
    on_threshold = np.flatnonzero((draws & np.uint64(2047)) == 0)[:5]
    assert len(on_threshold) == 5
    bits = np.zeros(1, dtype=np.int64)
    for i in [*on_threshold.tolist(), *range(200)]:
        key, shot, u = np.array([keys[i]]), int(shots[i]), draws[i]
        p = float(u >> np.uint64(11)) * 2.0 ** -53  # exact: the draw itself
        for q, flipped in ((p, 0), (np.nextafter(p, 1.0), 1), (np.nextafter(p, 0.0), 0)):
            probs = np.array([q])
            out = kernel(0, key, flip_thresholds(probs), bits, shot + 1)
            assert int(out[shot]) == flipped
            assert int(per_event_sampler(0, key, probs, bits, shot + 1)[shot]) == flipped


def test_flip_threshold_is_strict_at_the_53_bit_boundary():
    assert_strict_at_the_53_bit_boundary(sample_packed_numpy)


def test_compiled_flip_threshold_is_strict_at_the_53_bit_boundary(flipcore_c):
    assert_strict_at_the_53_bit_boundary(compiled_sampler(flipcore_c))


def _unxorshift(y: int, shift: int) -> int:
    """The x with x ^ x >> shift == y, for 64-bit words held as Python ints."""
    x = y
    for _ in range(64 // shift):
        x = y ^ x >> shift
    return x


def key_reaching(z: int, shot: int) -> int:
    """The stream key whose draw at ``shot`` holds z after mix64's second multiply.

    Every step of mix64 is invertible: the multipliers are odd, and an
    xorshift by r is undone by repeating it 64 // r times.
    """
    x = z * pow(_MIX2, -1, 1 << 64) & _MASK
    x = _unxorshift(x, 27) * pow(_MIX1, -1, 1 << 64) & _MASK
    return _unxorshift(x, 30) ^ shot * _GAMMA & _MASK


def screening_boundary_events() -> list[tuple[int, int]]:
    """(z, m) pairs: a partial word z and a threshold m << 11 beside it.

    z sits on the ceiling (m << 11) | (2**33 - 1), one above it, or at
    2**64 - 1, with the final draw u on either side of the threshold,
    including p = m * 2**-53 >= 1 - 2**-31.
    """
    low = (1 << 33) - 1
    events = []
    for top in (0, 1, 12345, 1 << 30, (1 << 31) - 1):  # z >> 33
        z = top << 33 | low
        m = (z ^ z >> 31) >> 11
        events += [(z, m), (z, m + 1)]  # u at the threshold, and just below it
        if top < (1 << 31) - 1:
            events.append(((top + 1) << 33, (top << 33 | low) >> 11))  # ceiling + 1
    top_u = _MASK ^ _MASK >> 31
    events += [(_MASK, top_u >> 11), (_MASK, (top_u >> 11) + 1), (_MASK, (1 << 53) - 1)]
    return events


@pytest.mark.parametrize("shots", [1, 37, _TILE // 3, _TILE + 3])
def test_kernels_are_exact_at_the_screening_boundary(kernel, shots):
    shot = shots - 1
    events = screening_boundary_events()
    keys = np.array([key_reaching(z, shot) for z, _ in events], dtype=np.uint64)
    for key, (z, _) in zip(keys.tolist(), events):
        assert _mix64(key ^ shot * _GAMMA & _MASK) == z ^ z >> 31
    probs = np.array([m * 2.0 ** -53 for _, m in events])
    bits = np.arange(len(events), dtype=np.int64)
    flipped = [(z ^ z >> 31) < m << 11 for z, m in events]
    assert any(flipped) and not all(flipped)
    assert max(probs) >= 1 - 2.0 ** -31
    out = kernel(0, keys, flip_thresholds(probs), bits, shots)
    assert [bool(int(out[shot]) >> bit & 1) for bit in bits.tolist()] == flipped
    assert np.array_equal(out, per_event_sampler(0, keys, probs, bits, shots))


def test_the_per_shot_half_is_kept_read_only_per_shot_count():
    halves = _shot_halves(500)
    assert _shot_halves(500) is halves and not halves.flags.writeable
    products = [s * _GAMMA & _MASK for s in range(500)]
    assert halves.tolist() == [z ^ z >> 30 for z in products]
    with pytest.raises(ValueError):
        halves[0] = 0


def test_numpy_kernel_memory_does_not_grow_with_the_events():
    """Every draw at p = 0.999 is a candidate; the pool still stays bounded."""
    shots = 20000

    def peak(events: int) -> int:
        rng = np.random.default_rng(events)
        keys = rng.integers(0, 2**64, events, dtype=np.uint64)
        thresholds = flip_thresholds(np.full(events, 0.999))
        bits = rng.integers(0, 64, events)
        tracemalloc.start()
        try:
            sample_packed_numpy(0, keys, thresholds, bits, shots)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= 1.5 * peak(400)


def test_survival_marginals_from_counts():
    counts = Counts({"11": 7200, "01": 800, "10": 1800, "00": 200})
    s = survival_from_counts(counts, "11")
    assert s.survivals == (0.8, 0.9)
    with pytest.raises(ValueError, match="width"):
        survival_from_counts(counts, "1")
    with pytest.raises(ValueError, match="empty"):
        survival_from_counts(Counts({}), "1")
    with pytest.raises(ValueError, match="empty"):
        survival_from_counts(Counts({"1": 0}), "1")
    with pytest.raises(ValueError, match="bitstring"):
        survival_from_counts(counts, "1x")


def test_counts_validation():
    with pytest.raises(ValueError, match="width"):
        Counts({"00": 1, "1": 2})
    with pytest.raises(ValueError, match="negative"):
        Counts({"0": -1, "1": 4})
    assert Counts({"0": 1, "1": 3}).shots == 4
    assert Counts({}).shots == 0
    assert Counts({"0": 1, "1": 3}).probabilities() == {"0": 0.25, "1": 0.75}
    for bad in ({"0b1": 1}, {" 1": 1}, {"1_0": 1}, {"12": 1}):
        with pytest.raises(ValueError, match="bitstrings"):
            Counts(bad)
    with pytest.raises(ValueError, match="at most 64"):
        Counts({"1" * 65: 1})
    with pytest.raises(TypeError):
        Counts({"1": 1.5})
    for flag in (True, np.True_):
        with pytest.raises(ValueError, match="not bools"):
            Counts({"0": 2, "1": flag})
    with pytest.raises(AttributeError, match="immutable"):
        Counts({"1": 1}).shots = 2
    for empty in (Counts({}), Counts({"1": 0}), Counts({"01": 0, "10": 0})):
        with pytest.raises(ValueError, match="empty counts"):
            empty.probabilities()


def survival_by_string_fold(counts: Counts, ideal_output: str) -> tuple[float, ...]:
    """Oracle: per bit, the counts of the outcome strings whose character
    matches the ideal one, over all shots."""
    return tuple(
        sum(n for outcome, n in counts.counts.items()
            if bit_at(outcome, i) == bit_at(ideal_output, i)) / counts.shots
        for i in range(len(ideal_output)))


def test_survivals_from_words_equal_the_string_fold():
    rng = np.random.default_rng(7)
    for trial in range(12):
        circ, noise = fleetgen.random_fixture(rng)
        noise = NoiseSpec(noise.true_profile, hidden_rate=0.1)
        pooled = run_rounds(circ, noise, shots=700, rounds=3, seed=trial)
        want = survival_by_string_fold(pooled, circ.ideal_output)
        assert survival_from_counts(pooled, circ.ideal_output).survivals == want
        assert survival_from_counts(Counts(pooled.counts), circ.ideal_output).survivals == want
        # against another reference outcome, so most bits mismatch
        flipped = "".join("10"[int(c)] for c in circ.ideal_output)
        assert survival_from_counts(pooled, flipped).survivals == \
            survival_by_string_fold(pooled, flipped)


def test_counts_from_strings_and_from_words_agree():
    rng = np.random.default_rng(7)
    circ, noise = fleetgen.random_fixture(rng)
    pooled = run_rounds(circ, NoiseSpec(noise.true_profile, hidden_rate=0.2),
                        shots=300, rounds=2, seed=4)
    parsed = Counts(pooled.counts)
    assert len(parsed.counts) == len(pooled.counts) > 1
    assert parsed.counts == pooled.counts
    assert parsed.shots == pooled.shots == 600
    assert parsed == pooled
    assert parsed.width == pooled.width == len(circ.measured)
    assert dict(zip(parsed.words.tolist(), parsed.word_counts.tolist())) == \
        dict(zip(pooled.words.tolist(), pooled.word_counts.tolist()))
    # a probe measuring no qubit pools every shot under the empty outcome
    assert Counts({"": 5}).counts == {"": 5}
    assert survival_from_counts(Counts({"": 5}), "").survivals == ()


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


def test_the_fit_is_checked_before_the_flip_probabilities():
    # a CNOT off the one-qubit device's (empty) edge set, on a register whose
    # readout rate plus the hidden rate would reach 1 if it were priced
    ops = (TranspiledOp(Gate.CNOT, (0, 1)), TranspiledOp(Gate.MEASURE, (0,)))
    circ = TranspiledCircuit(2, ops, {0: 0}, (0,), "0")
    noise = NoiseSpec(single_qubit_profile(0.6), hidden_rate=0.5)
    with pytest.raises(TopologyError, match="does not fit"):
        run_rounds(circ, noise, shots=10, rounds=1, seed=0)
    with pytest.raises(TopologyError, match="does not fit"):
        exact_survival(circ, noise)


def test_wide_probes_are_rejected():
    n = 65
    topo = Topology(n, [])
    ops = tuple(TranspiledOp(Gate.MEASURE, (q,)) for q in range(n))
    ident = {q: q for q in range(n)}
    circ = TranspiledCircuit(n, ops, ident, tuple(range(n)), "0" * n)
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
