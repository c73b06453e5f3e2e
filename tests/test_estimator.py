"""Survival estimation against hand-computed products and walk bookkeeping.

``per_event_fold`` is a fixed oracle: it walks ``walk_ops`` one flip event at
a time and multiplies every tracked qubit's factors in walk order.  The
estimate and the exact parity survival must equal it bit for bit, so any
change to the order of the products shows here before it moves a report.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import fleetgen
from qprobe import (DeviceProfile, NoiseSpec, Topology, estimate_fingerprint, exact_survival,
                    fabricate, load_profile)
from qprobe.circuit import (Gate, TranspiledCircuit, TranspiledOp, build_bv, compose_probe,
                            transpile, walk_ops)
from qprobe.estimator import Fingerprint, estimate_array, key_rates, trace_survival

DEMO_DIR = Path(__file__).resolve().parents[1] / "fleets" / "demo"


def chain_circuit() -> TranspiledCircuit:
    """One tracked qubit through H, SWAP, CNOT, H, MEASURE on a 3-register line."""
    ops = (
        TranspiledOp(Gate.H, (0,)),
        TranspiledOp(Gate.SWAP, (0, 1)),
        TranspiledOp(Gate.CNOT, (1, 2)),
        TranspiledOp(Gate.H, (1,)),
        TranspiledOp(Gate.MEASURE, (1,)),
    )
    return TranspiledCircuit(3, ops, {0: 0}, (0,), "0")


def chain_profile() -> DeviceProfile:
    return DeviceProfile(
        device_id="chain",
        topology=Topology(3, [(0, 1), (1, 2)]),
        cnot_error={(0, 1): 0.013, (1, 2): 0.013},
        single_qubit_error={0: 0.0015, 1: 0.0004, 2: 0.0},
        measurement_error={0: 0.0, 1: 0.042, 2: 0.0},
        calibration_time=fleetgen.CAL_TIME,
    )


def test_estimate_is_the_product_of_per_event_survivals():
    est = estimate_fingerprint(chain_circuit(), chain_profile())
    expected = 1.0
    for e in (0.0015, 0.013, 0.013, 0.013, 0.013, 0.0004, 0.042):
        expected *= 1.0 - e
    assert est.survivals == (expected,)
    assert abs(est[0] - 0.907420) < 1e-6


def test_trace_snapshots_follow_the_walk():
    steps = trace_survival(chain_circuit(), chain_profile())
    assert [op_index for op_index, _ in steps] == [-1, 0, 1, 2, 3, 4]

    (track0,) = steps[0][1]
    assert track0 == (0, 0, 1.0)

    # the SWAP costs three CNOT factors and moves the qubit to register 1
    ((_, register, survival),) = steps[2][1]
    assert register == 1
    assert survival == pytest.approx(0.9985 * 0.987 ** 3, abs=1e-12)

    ((_, _, final),) = steps[-1][1]
    assert final == estimate_fingerprint(chain_circuit(), chain_profile())[0]


def test_lower_advertised_rates_raise_every_survival():
    prof = fleetgen.corner_profiles()[0]
    circ = transpile(build_bv("111"), prof.topology, [0, 1, 2, 3])
    est = estimate_fingerprint(circ, prof)
    est_scaled = estimate_fingerprint(circ, fabricate(prof, scale=0.5))
    assert all(s < t for s, t in zip(est.survivals, est_scaled.survivals))


def test_raising_one_readout_rate_only_touches_its_qubit():
    prof = fleetgen.corner_profiles()[0]
    circ = transpile(build_bv("11"), prof.topology, [0, 1, 3])
    base = estimate_fingerprint(circ, prof)
    bumped = estimate_fingerprint(circ, fabricate(prof, overrides={"Meas_0": 0.3}))
    # fingerprint index 0 is the qubit measured on register 0
    assert bumped[0] < base[0]
    assert bumped[1] == base[1]


def test_subprobe_order_permutes_but_preserves_survivals():
    prof = fleetgen.drift_profiles()[0]
    a = ("11", (0, 1, 2))
    b = ("101", (5, 6, 7, 8))
    est_ab = estimate_fingerprint(compose_probe([a, b], prof.topology), prof)
    est_ba = estimate_fingerprint(compose_probe([b, a], prof.topology), prof)
    assert est_ab.survivals[:2] == est_ba.survivals[3:]
    assert est_ab.survivals[2:] == est_ba.survivals[:3]


def test_estimate_rejects_mismatched_topology():
    circ = transpile(build_bv("11"), fleetgen.t5(), [0, 1, 3])
    with pytest.raises(ValueError, match="does not fit"):
        estimate_fingerprint(circ, chain_profile())


def test_fingerprint_validation_and_access():
    fp = Fingerprint((0.25, 1.0))
    assert len(fp) == 2
    assert fp[1] == 1.0
    with pytest.raises(ValueError, match="outside"):
        Fingerprint((1.5,))
    with pytest.raises(ValueError, match="outside"):
        Fingerprint((-0.1,))


def per_event_fold(circuit: TranspiledCircuit, factor) -> tuple[float, ...]:
    """Oracle: per tracked qubit, the product of factor(op) over its events,
    in walk order."""
    product = {q: 1.0 for q in circuit.initial_mapping}
    for _, op, events, _ in walk_ops(circuit):
        for _, logical, _ in events:
            product[logical] *= factor(op)
    return tuple(product[q] for q in circuit.measured)


def fold_cases():
    rng = np.random.default_rng(7)
    cases = [fleetgen.random_fixture(rng) for _ in range(20)]
    line = fleetgen.drift_profiles()[0]
    composite = compose_probe([("11", (9, 11, 10)), ("11", (49, 51, 50)),
                               ("11", (89, 91, 90))], line.topology)
    return cases + [(composite, NoiseSpec(line, hidden_rate=5e-4))]


@pytest.mark.parametrize("circuit, noise", fold_cases())
def test_estimate_and_oracle_equal_the_per_event_fold_bit_for_bit(circuit, noise):
    profile, hidden = noise.true_profile, noise.hidden_rate
    estimate = per_event_fold(circuit, lambda op: 1.0 - profile.rate_for(op.error_key))
    parity = per_event_fold(
        circuit, lambda op: 1.0 - 2.0 * (profile.rate_for(op.error_key) + hidden))
    assert estimate_fingerprint(circuit, profile).survivals == estimate
    assert exact_survival(circuit, noise).survivals == tuple((1.0 + x) / 2.0 for x in parity)


@pytest.mark.parametrize("circuit, noise", fold_cases())
def test_last_trace_snapshot_is_the_estimate_bit_for_bit(circuit, noise):
    profile = noise.true_profile
    steps = trace_survival(circuit, profile)
    assert [op_index for op_index, _ in steps] == list(range(-1, len(circuit.ops)))
    assert all(type(track) is tuple and len(track) == 3 for _, tracks in steps for track in tracks)
    assert [[q for q, _, _ in tracks] for _, tracks in steps] == \
        [sorted(circuit.initial_mapping)] * len(steps)
    last = {q: (register, survival) for q, register, survival in steps[-1][1]}
    assert {q: register for q, (register, _) in last.items()} == circuit.final_mapping
    assert tuple(last[q][1] for q in circuit.measured) == \
        estimate_fingerprint(circuit, profile).survivals


def fleets():
    """Devices sharing a topology: the committed demo files, the generated
    corner and grit devices, and the 127-qubit drift lines."""
    demo = [load_profile(path.read_text()) for path in sorted(DEMO_DIR.glob("*.json"))
            if not path.name.startswith("fleet")]
    return {"demo": demo, "corner": [*fleetgen.corner_profiles(), fleetgen.grit_profile()],
            "drift": fleetgen.drift_profiles()}


def fleet_probe_cases():
    """Every fleet with each sized probe of the scan workload; the drift
    lines also with their own placements."""
    sized = [(secret, mapping) for secret, mappings in fleetgen.SIZED_PROBES
             for mapping in mappings]
    drift = [probe for placements in fleetgen.DRIFT_PROBES.values() for probe in placements]
    return [pytest.param(name, secret, mapping, id=f"{name}-{secret}@{mapping}")
            for name in fleets()
            for secret, mapping in sized + (drift if name == "drift" else [])]


@pytest.mark.parametrize("fleet, secret, mapping", fleet_probe_cases())
def test_estimate_array_rows_equal_the_per_device_estimate(fleet, secret, mapping):
    profiles = fleets()[fleet]
    circuit = compose_probe([(secret, mapping)], profiles[0].topology)
    rows = estimate_array(circuit, np.array([key_rates(circuit, p) for p in profiles]))
    assert rows.shape == (len(profiles), len(circuit.measured))
    for profile, row in zip(profiles, rows.tolist()):
        assert tuple(row) == estimate_fingerprint(circuit, profile).survivals == per_event_fold(
            circuit, lambda op: 1.0 - profile.rate_for(op.error_key))


def hand_built_cases():
    """The walk's corner cases: a SWAP, two composed parts, a ring, no ops."""
    def line(n):
        return Topology(n, [(i, i + 1) for i in range(n - 1)])
    ring = Topology(8, [(i, (i + 1) % 8) for i in range(8)])
    return [pytest.param(circuit, None, id=name) for name, circuit in (
        ("swap", transpile(build_bv("1"), line(3), [0, 2])),
        ("two-parts", compose_probe([("101", [0, 2, 4, 1]), ("11", [7, 9, 8])], line(10))),
        ("ring", compose_probe([("1101", [0, 4, 2, 6, 1])], ring)),
        ("empty", TranspiledCircuit(1, (), {}, (), "")),
    )]


def drift_cases():
    """Long routes on the 127-register line: each drift placement and a
    two-part composite."""
    line = fleetgen.line_topology(127)
    cases = [pytest.param(compose_probe([(secret, mapping)], line), None,
                          id=f"drift-{size}-{mapping[0]}")
             for size, placements in fleetgen.DRIFT_PROBES.items()
             for secret, mapping in placements]
    return cases + [pytest.param(compose_probe(fleetgen.DRIFT_PROBES[9][:2], line), None,
                                 id="drift-two-parts")]


@pytest.mark.parametrize("circuit, noise", fold_cases() + hand_built_cases() + drift_cases())
def test_flips_are_the_measured_events_of_the_walk(circuit, noise):
    """The flip arrays are the measured events of ``walk_ops``, in walk order.

    ``noise`` is unused; the cases are shared with the bit-for-bit fold test.
    """
    bit_of = {q: i for i, q in enumerate(circuit.measured)}
    steps = list(walk_ops(circuit))
    assert all(type(step) is tuple and len(step) == 4 for step in steps)
    # (op index, sub-op, register, logical, error key) per measured event
    events = [(op_index, sub, register, logical, op.error_key)
              for op_index, op, step_events, _ in steps
              for sub, logical, register in step_events if logical in bit_of]
    assert circuit.flip_sites.shape == (len(events), 3)
    assert circuit.flip_sites.tolist() == [[i, sub, r] for i, sub, r, _, _ in events]
    assert circuit.flip_bits.tolist() == [bit_of[q] for _, _, _, q, _ in events]
    assert [circuit.error_keys[i] for i in circuit.flip_slots.tolist()] == \
        [key for *_, key in events]
    bits = [bit_of[q] for _, _, _, q, _ in events]
    assert circuit.flip_places.tolist() == [bits[:i].count(bit) for i, bit in enumerate(bits)]
    gamma = 0x9E3779B97F4A7C15
    assert circuit.flip_salts.tolist() == [
        [(i * 4 + sub + 1) * gamma % 2**64 for i, sub, _, _, _ in events],
        [(r + 1) * gamma % 2**64 for _, _, r, _, _ in events]]
    for array in (circuit.flip_sites, circuit.flip_bits, circuit.flip_slots, circuit.flip_places):
        assert array.dtype == np.int64
    assert circuit.flip_salts.dtype == np.uint64
    for array in (circuit.flip_sites, circuit.flip_bits, circuit.flip_slots, circuit.flip_places,
                  circuit.flip_salts):
        assert not array.flags.writeable
