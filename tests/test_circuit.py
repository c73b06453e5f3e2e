"""Probe construction, routing and the stored op walk.

Routing correctness is checked against the dense statevector simulator in
qsim.py: whatever SWAPs the transpiler inserts, the measured marginal of the
routed circuit must stay a point mass on the ideal output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsim
from qprobe import Topology
from qprobe.circuit import (
    CircuitError,
    Gate,
    LogicalCircuit,
    RoutingError,
    TranspiledCircuit,
    TranspiledOp,
    bit_at,
    build_bv,
    compose_probe,
    transpile,
    walk_ops,
)


def line(n: int) -> Topology:
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


RING4 = Topology(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_bitstring_convention():
    assert bit_at("110", 0) == "0"
    assert bit_at("110", 2) == "1"


def test_build_bv_gate_sequence():
    circ = build_bv("101")
    gates = [(g, q) for g, q in circ.ops]
    assert gates == [
        (Gate.X, (3,)), (Gate.H, (3,)),
        (Gate.H, (0,)), (Gate.H, (1,)), (Gate.H, (2,)),
        (Gate.CNOT, (0, 3)), (Gate.CNOT, (2, 3)),
        (Gate.H, (0,)), (Gate.H, (1,)), (Gate.H, (2,)),
        (Gate.MEASURE, (0,)), (Gate.MEASURE, (1,)), (Gate.MEASURE, (2,)),
    ]
    assert circ.measured == (0, 1, 2)
    assert circ.ideal_output == "101"


@pytest.mark.parametrize("secret", ["0", "1", "11", "101", "0110", "11111"])
def test_build_bv_outputs_its_secret(secret):
    qsim.assert_deterministic_output(qsim.logical_marginal(build_bv(secret)), secret)


def test_build_bv_rejects_bad_secrets():
    with pytest.raises(CircuitError):
        build_bv("")
    with pytest.raises(CircuitError):
        build_bv("10x")


def test_logical_circuit_validation():
    with pytest.raises(CircuitError, match="takes 2 qubits"):
        LogicalCircuit(2, ((Gate.CNOT, (0,)),), (), "")
    with pytest.raises(CircuitError, match="repeated qubit"):
        LogicalCircuit(2, ((Gate.CNOT, (1, 1)),), (), "")
    with pytest.raises(CircuitError, match="out of range"):
        LogicalCircuit(1, ((Gate.H, (1,)),), (), "")
    with pytest.raises(CircuitError, match="after measurement"):
        LogicalCircuit(1, ((Gate.MEASURE, (0,)), (Gate.H, (0,))), (0,), "0")
    with pytest.raises(CircuitError, match="does not match MEASURE"):
        LogicalCircuit(2, ((Gate.MEASURE, (0,)),), (0, 1), "00")
    with pytest.raises(CircuitError, match="length"):
        LogicalCircuit(1, ((Gate.MEASURE, (0,)),), (0,), "00")
    with pytest.raises(CircuitError, match="bitstring"):
        LogicalCircuit(1, ((Gate.MEASURE, (0,)),), (0,), "2")


def test_transpile_adjacent_mapping_inserts_no_swaps():
    circ = transpile(build_bv("11"), line(3), [0, 2, 1])
    assert all(op.gate is not Gate.SWAP for op in circ.ops)
    assert circ.final_mapping == circ.initial_mapping
    qsim.assert_deterministic_output(qsim.measured_marginal(circ), "11")


def test_transpile_error_keys():
    circ = transpile(build_bv("1"), line(2), [0, 1])
    kinds = [op.error_key[0] for op in circ.ops]
    assert kinds == ["single", "single", "single", "cnot", "single", "meas"]
    cnot = next(op for op in circ.ops if op.gate is Gate.CNOT)
    assert cnot.error_key == ("cnot", (0, 1))


def test_circuit_lists_its_distinct_error_keys_in_first_use_order():
    circ = transpile(build_bv("1"), line(2), [0, 1])
    assert circ.error_keys == (("single", 1), ("single", 0), ("cnot", (0, 1)), ("meas", 0))
    # a routing SWAP is keyed by its edge; the ops after it by the new register
    routed = transpile(build_bv("1"), line(3), [0, 2])
    assert routed.error_keys == (("single", 2), ("single", 0), ("cnot", (0, 1)),
                                 ("cnot", (1, 2)), ("single", 1), ("meas", 1))
    ops = (TranspiledOp(Gate.CNOT, (1, 0)), TranspiledOp(Gate.SWAP, (0, 1)),
           TranspiledOp(Gate.MEASURE, (1,)))
    assert TranspiledCircuit(2, ops, {0: 0}, (0,), "0").error_keys == \
        (("cnot", (0, 1)), ("meas", 1))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_routing_on_a_line_uses_distance_minus_one_swaps(n):
    # input at one end, ancilla at the other: the single oracle CNOT spans
    # the whole line
    circ = transpile(build_bv("1"), line(n), [0, n - 1])
    swaps = [op for op in circ.ops if op.gate is Gate.SWAP]
    assert len(swaps) == n - 2
    qsim.assert_deterministic_output(qsim.measured_marginal(circ), "1")


def test_routing_tie_breaks_toward_lower_registers():
    circ = transpile(build_bv("1"), RING4, [0, 2])
    swaps = [op.registers for op in circ.ops if op.gate is Gate.SWAP]
    assert swaps == [(0, 1)]  # 0-1-2 wins over 0-3-2


def test_routing_avoids_measured_registers():
    # qubit 0 is read out mid-circuit on the register that sits on the
    # shortest 0-2 path; the router must detour the long way around the ring.
    circ = LogicalCircuit(
        num_qubits=3,
        ops=((Gate.MEASURE, (0,)), (Gate.CNOT, (1, 2))),
        measured=(0,),
        ideal_output="0",
    )
    routed = transpile(circ, RING4, [1, 0, 2])
    swaps = [op.registers for op in routed.ops if op.gate is Gate.SWAP]
    assert swaps == [(0, 3)]
    with pytest.raises(RoutingError, match="no route"):
        transpile(circ, line(3), [1, 0, 2])


def test_transpile_validates_the_mapping():
    with pytest.raises(CircuitError, match="every logical qubit"):
        transpile(build_bv("1"), line(3), [0])
    with pytest.raises(CircuitError, match="not injective"):
        transpile(build_bv("1"), line(3), [1, 1])
    with pytest.raises(CircuitError, match="out of range"):
        transpile(build_bv("1"), line(3), [0, 3])


def test_transpile_accepts_a_mapping_dict():
    # {logical: register} must mean placement, not be iterated as bare keys.
    seq = transpile(build_bv("11"), line(5), [4, 2, 3])
    via_dict = transpile(build_bv("11"), line(5), {0: 4, 1: 2, 2: 3})
    assert via_dict == seq
    with pytest.raises(CircuitError, match="0..n-1"):
        transpile(build_bv("11"), line(5), {0: 4, 1: 2, 5: 3})


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_routed_probe_still_computes_its_secret(data):
    n = data.draw(st.integers(min_value=3, max_value=6), label="line length")
    k = data.draw(st.integers(min_value=1, max_value=n - 1), label="secret bits")
    secret = data.draw(st.text(alphabet="01", min_size=k, max_size=k), label="secret")
    mapping = data.draw(st.permutations(range(n)), label="mapping")[: k + 1]
    circ = transpile(build_bv(secret), line(n), mapping)
    qsim.assert_deterministic_output(qsim.measured_marginal(circ), secret)


def test_walk_swap_emits_three_events_and_exchanges_locations():
    circ = transpile(build_bv("1"), line(3), [0, 2])
    steps = list(walk_ops(circ))
    swap_steps = [s for s in steps if s.op.gate is Gate.SWAP]
    assert len(swap_steps) == 1
    step = swap_steps[0]
    by_logical = {}
    for ev in step.events:
        by_logical.setdefault(ev.logical, []).append(ev.sub)
    assert all(subs == [0, 1, 2] for subs in by_logical.values())
    # the tracked input hops from register 0 to register 1
    assert step.locations[0] == 1


def test_walk_ops_walks_afresh_to_the_final_mapping():
    circ = compose_probe([("101", [0, 2, 4, 1]), ("11", [7, 9, 8])], line(10))
    steps = list(walk_ops(circ))
    assert list(walk_ops(circ)) == steps
    assert len(steps) == len(circ.ops)
    assert steps[-1].locations == circ.final_mapping


def test_walk_rejects_ops_on_measured_registers():
    ops = (
        TranspiledOp(Gate.MEASURE, (0,)),
        TranspiledOp(Gate.H, (0,)),
    )
    with pytest.raises(CircuitError, match="already-measured"):
        TranspiledCircuit(1, ops, {0: 0}, (0,), "0")


def test_transpiled_circuit_checks_final_mapping_and_measures():
    # the final mapping is derived from the op replay, never passed in
    base = transpile(build_bv("1"), line(3), [0, 2])
    assert base.initial_mapping == {0: 0, 1: 2}
    assert base.final_mapping == {0: 1, 1: 2}  # the one SWAP moved the input
    rebuilt = TranspiledCircuit(3, base.ops, base.initial_mapping, base.measured, "1")
    assert rebuilt == base and rebuilt.final_mapping == base.final_mapping
    with pytest.raises(CircuitError, match="MEASURE ops do not cover"):
        TranspiledCircuit(3, base.ops[:-1], base.initial_mapping, base.measured, "1")


@pytest.mark.parametrize("gate", list(Gate))
@pytest.mark.parametrize("registers", [(1, 2), (2, 1)])
def test_op_derives_its_error_key(gate, registers):
    if gate.n_registers == 2:
        expected = ("cnot", (1, 2))
    else:
        registers = registers[:1]
        expected = ("meas" if gate is Gate.MEASURE else "single", registers[0])
    assert TranspiledOp(gate, registers).error_key == expected


def test_op_error_key_cannot_be_passed_in():
    # a CNOT on 0-1 can no longer be priced as edge 1-3
    with pytest.raises(TypeError):
        TranspiledOp(Gate.CNOT, (0, 1), ("cnot", (1, 3)))


def test_compose_probe_concatenates_measured_qubits():
    circ = compose_probe([("1", (0, 1)), ("0", (3, 4))], line(6))
    assert circ.measured == (0, 2)
    assert circ.ideal_output == "01"
    assert bit_at(circ.ideal_output, 0) == "1" and bit_at(circ.ideal_output, 1) == "0"
    qsim.assert_deterministic_output(qsim.measured_marginal(circ), "01")


def test_compose_probe_requires_separated_regions():
    with pytest.raises(CircuitError, match="graph distance 1"):
        compose_probe([("1", (0, 1)), ("1", (2, 3))], line(6))
    # distance 2 is enough
    compose_probe([("1", (0, 1)), ("1", (3, 4))], line(6))
    with pytest.raises(CircuitError, match="at least one"):
        compose_probe([], line(6))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compose_probe_single_part_matches_plain_transpile(data):
    n = data.draw(st.integers(min_value=2, max_value=7), label="line length")
    k = data.draw(st.integers(min_value=1, max_value=n - 1), label="secret bits")
    secret = data.draw(st.text(alphabet="01", min_size=k, max_size=k), label="secret")
    mapping = tuple(data.draw(st.permutations(range(n)), label="mapping")[: k + 1])
    plain = transpile(build_bv(secret), line(n), mapping)
    composed = compose_probe([(secret, mapping)], line(n))
    assert composed == plain
    assert composed.final_mapping == plain.final_mapping
    assert [op.error_key for op in composed.ops] == [op.error_key for op in plain.ops]
    assert composed.error_keys == plain.error_keys
    for name in ("flip_sites", "flip_bits", "flip_slots", "flip_salts"):
        assert np.array_equal(getattr(composed, name), getattr(plain, name))
