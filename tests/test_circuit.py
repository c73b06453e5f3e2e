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

import fleetgen
import qprobe.circuit
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
    # a bool or a float would place the qubit on the register it equals
    for bad in ([0.0, 1], [True, 0], [0, np.True_], [0, 1.5], ["0", 1], [0, None]):
        with pytest.raises(CircuitError, match="is not an integer"):
            transpile(build_bv("1"), line(3), bad)
    with pytest.raises(CircuitError, match="is not an integer"):
        compose_probe([("11", (0.0, 1, 3))], fleetgen.t5())
    with pytest.raises(CircuitError, match="is not an integer"):
        compose_probe([("11", (True, 0, 3))], fleetgen.t5())
    # numpy integers are registers, held as ints
    plain = compose_probe([("11", (1, 0, 3))], fleetgen.t5())
    for registers in (np.array([1, 0, 3]), (np.int32(1), np.uint8(0), np.int64(3))):
        via_numpy = compose_probe([("11", registers)], fleetgen.t5())
        assert via_numpy == plain
        assert [type(p) for p in via_numpy.initial_mapping.values()] == [int, int, int]


def full_bfs_route_path(topology: Topology, start: int, goal: int,
                        blocked: set[int]) -> list[int]:
    """Reference router: a full BFS from ``goal``, then from ``start`` the
    lowest-index neighbour one hop closer, until ``goal``."""
    dist = topology.distances_from(goal, blocked=frozenset(blocked - {start, goal}))
    if start not in dist:
        raise RoutingError(f"no route from register {start} to {goal}")
    path = [start]
    cur = start
    while cur != goal:
        steps = [v for v in topology.neighbors(cur)
                 if v not in blocked and v in dist and dist[v] == dist[cur] - 1]
        cur = min(steps)
        path.append(cur)
    return path


@st.composite
def connected_topologies(draw) -> Topology:
    """A line of up to 127 registers, a tree, a grid, or a tree with extra
    edges, under a random register numbering.  Grids and extra edges close
    cycles, so shortest paths tie."""
    kind = draw(st.sampled_from(["line", "tree", "grid", "cyclic"]), label="kind")
    if kind == "line":
        n = draw(st.integers(min_value=2, max_value=127), label="n")
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "grid":
        rows, cols = draw(st.integers(2, 6), label="rows"), draw(st.integers(2, 6), label="cols")
        n = rows * cols
        edges = [(i, i + 1) for i in range(n) if (i + 1) % cols] + \
            [(i, i + cols) for i in range(n - cols)]
    else:
        n = draw(st.integers(min_value=2, max_value=40), label="n")
        edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, n)]
        if kind == "cyclic":
            pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1])
            edges += draw(st.lists(pairs, min_size=1, max_size=n), label="extra edges")
    label = draw(st.permutations(range(n)), label="numbering")
    return Topology(n, [(label[a], label[b]) for a, b in edges])


def transpiled_or_error(circuit: LogicalCircuit, topology: Topology, mapping):
    try:
        routed = transpile(circuit, topology, mapping)
    except RoutingError as exc:
        return str(exc)
    return routed.ops, routed.final_mapping


@settings(max_examples=150, deadline=None)
@given(data=st.data(), topology=connected_topologies())
def test_routing_matches_the_full_bfs_reference_router(data, topology):
    n = topology.num_qubits
    k = data.draw(st.integers(min_value=1, max_value=min(n - 1, 10)), label="secret bits")
    secret = data.draw(st.text(alphabet="01", min_size=k, max_size=k), label="secret")
    blockers = data.draw(st.integers(min_value=0, max_value=min(n - k - 1, 4)), label="blockers")
    bv = build_bv(secret)
    # qubits read out before the probe runs block routes through their registers
    circuit = LogicalCircuit(
        num_qubits=bv.num_qubits + blockers,
        ops=tuple((Gate.MEASURE, (bv.num_qubits + i,)) for i in range(blockers)) + bv.ops,
        measured=bv.measured + tuple(range(bv.num_qubits, bv.num_qubits + blockers)),
        ideal_output="0" * blockers + bv.ideal_output,
    )
    mapping = data.draw(st.permutations(range(n)), label="mapping")[: circuit.num_qubits]
    routed = transpiled_or_error(circuit, topology, mapping)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qprobe.circuit, "_route_path", full_bfs_route_path)
        assert transpiled_or_error(circuit, topology, mapping) == routed


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
    swap_steps = [s for s in steps if s[1].gate is Gate.SWAP]
    assert len(swap_steps) == 1
    _, _, events, locations = swap_steps[0]
    by_logical = {}
    for sub, logical, _ in events:
        by_logical.setdefault(logical, []).append(sub)
    assert all(subs == [0, 1, 2] for subs in by_logical.values())
    # the tracked input hops from register 0 to register 1
    assert locations[0] == 1


def test_walk_ops_walks_afresh_to_the_final_mapping():
    circ = compose_probe([("101", [0, 2, 4, 1]), ("11", [7, 9, 8])], line(10))
    steps = list(walk_ops(circ))
    assert list(walk_ops(circ)) == steps
    assert len(steps) == len(circ.ops)
    assert all(type(step) is tuple and len(step) == 4 for step in steps)
    assert [op_index for op_index, *_ in steps] == list(range(len(circ.ops)))
    assert [op for _, op, *_ in steps] == list(circ.ops)
    assert steps[-1][3] == circ.final_mapping
    # each step's locations are a dict of its own, not the walk's live map
    locations = [loc for *_, loc in steps]
    assert all(type(loc) is dict for loc in locations)
    assert len({id(loc) for loc in locations}) == len(steps)
    before = [dict(loc) for loc in locations]
    locations[0].clear()
    assert locations[1:] == before[1:]
    assert list(walk_ops(circ))[0][3] == before[0]


def test_walk_rejects_ops_on_measured_registers():
    ops = (
        TranspiledOp(Gate.MEASURE, (0,)),
        TranspiledOp(Gate.H, (0,)),
    )
    with pytest.raises(CircuitError, match="already-measured"):
        TranspiledCircuit(1, ops, {0: 0}, (0,), "0")


def test_hand_built_circuits_take_integer_registers_and_qubits_only():
    # a bool or a float register would be priced and walked as the int it equals
    with pytest.raises(CircuitError, match="H register True is not an integer"):
        TranspiledCircuit(2, (TranspiledOp(Gate.H, (True,)), TranspiledOp(Gate.MEASURE, (1.0,))),
                          {0: 1}, (0,), "0")
    for gate, registers in ((Gate.MEASURE, (1.0,)), (Gate.CNOT, (0, np.True_)),
                            (Gate.SWAP, ("0", 1)), (Gate.X, (None,))):
        with pytest.raises(CircuitError, match=f"{gate.value} register .* is not an integer"):
            TranspiledOp(gate, registers)
    measure = (TranspiledOp(Gate.MEASURE, (1,)),)
    with pytest.raises(CircuitError, match="initial mapping register True is not an integer"):
        TranspiledCircuit(2, measure, {0: True}, (0,), "0")
    with pytest.raises(CircuitError, match="logical qubit 0.0 is not an integer"):
        TranspiledCircuit(2, measure, {0.0: 1}, (0,), "0")
    with pytest.raises(CircuitError, match="measured qubit False is not an integer"):
        TranspiledCircuit(2, measure, {0: 1}, (False,), "0")
    with pytest.raises(CircuitError, match="op 1: qubit 0.0 is not an integer"):
        LogicalCircuit(2, ((Gate.H, (1,)), (Gate.H, (0.0,))), (), "")
    with pytest.raises(CircuitError, match="measured qubit True is not an integer"):
        LogicalCircuit(2, ((Gate.MEASURE, (1,)),), (True,), "0")
    # numpy integers are held as ints, so keys and mappings hold ints only
    op = TranspiledOp(Gate.CNOT, (np.int64(3), np.uint8(1)))
    assert op.registers == (3, 1) and op.error_key == ("cnot", (1, 3))
    assert [type(r) for r in (*op.registers, *op.error_key[1])] == [int] * 4
    logical = LogicalCircuit(2, ((Gate.MEASURE, (np.int32(1),)),), (np.int64(1),), "0")
    assert logical.ops == ((Gate.MEASURE, (1,)),) and logical.measured == (1,)
    assert type(logical.ops[0][1][0]) is int and type(logical.measured[0]) is int
    circuit = TranspiledCircuit(2, measure, {np.int64(0): np.uint16(1)}, (np.int8(0),), "0")
    held = (*circuit.initial_mapping.items(), *circuit.final_mapping.items())
    assert [type(x) for pair in held for x in pair] == [int] * 4
    assert type(circuit.measured[0]) is int


def test_circuit_mappings_are_read_only():
    circuit = transpile(build_bv("1"), line(3), [0, 2])
    for mapping in (circuit.initial_mapping, circuit.final_mapping):
        with pytest.raises(TypeError):
            mapping[0] = 2
    assert circuit.initial_mapping == {0: 0, 1: 2} and circuit.final_mapping == {0: 1, 1: 2}


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
    for name in ("flip_sites", "flip_bits", "flip_slots", "flip_places", "flip_salts"):
        assert np.array_equal(getattr(composed, name), getattr(plain, name))


def test_compose_probe_shares_one_circuit_per_probe():
    first = compose_probe([("11", (0, 1, 3))], fleetgen.t5())
    # equal topologies that are different objects share it, as do list mappings
    assert fleetgen.t5() is not fleetgen.t5()
    assert compose_probe([["11", [0, 1, 3]]], fleetgen.t5()) is first
    assert compose_probe((("11", (0, 1, 3)),), fleetgen.t5()) is first
    # the key is a copy of the mapping, so editing the caller's list later changes nothing
    mapping = [0, 1, 3]
    assert compose_probe([("11", mapping)], fleetgen.t5()) is first
    mapping[0] = 4
    assert compose_probe([("11", (0, 1, 3))], fleetgen.t5()) is first
    # another secret, mapping or topology is another probe
    for subprobes, topology in (([("10", (0, 1, 3))], fleetgen.t5()),
                                ([("11", (1, 0, 3))], fleetgen.t5()),
                                ([("11", (0, 1, 3))], line(5))):
        other = compose_probe(subprobes, topology)
        assert other is not first
        assert other == qprobe.circuit._compose(subprobes, topology)
    assert first == transpile(build_bv("11"), fleetgen.t5(), (0, 1, 3))


@pytest.mark.parametrize("registers, plain_registers", [
    ((np.int64(1), 0, 3), (1, 0, 3)), (np.array([1, 0, 3]), (1, 0, 3)),
    ({0: 1, 1: 0, 2: 3}, (1, 0, 3)), (range(3), (0, 1, 2)),
], ids=["numpy integer", "numpy array", "dict", "range"])
def test_compose_probe_builds_other_mappings_uncached(registers, plain_registers):
    plain = compose_probe([("11", plain_registers)], fleetgen.t5())
    first, second = (compose_probe([("11", registers)], fleetgen.t5()) for _ in range(2))
    assert first == plain and second == plain
    assert first is not second and plain is not first and plain is not second


@pytest.mark.parametrize("subprobes, message", [
    ([("11", (True, 0, 3))], "mapping register True is not an integer"),
    ([("11", (1.0, 0, 3))], "mapping register 1.0 is not an integer"),
    ([("11", {0: 1, 1: 0})], "initial mapping must place every logical qubit"),
    ([("11", {0: 1, 1: 0, 3: 3})], r"mapping must place logical qubits 0..n-1"),
    ([("11", (0, 0, 3))], "not injective"),
    ([("11", (0, 1, 9))], "mapping register 9 out of range"),
    ([("11", (0, 1))], "initial mapping must place every logical qubit"),
    ([("12", (0, 1, 3))], "secret must be a non-empty bitstring"),
    ([("1", (0, 1)), ("1", (2, 3))], "graph distance 0"),
])
def test_a_probe_that_fails_to_compose_raises_on_every_call(subprobes, message):
    for _ in range(2):
        with pytest.raises(CircuitError, match=message):
            compose_probe(subprobes, fleetgen.t5())
    assert qprobe.circuit._composed.cache_info().currsize == 0
