"""Topology, profile validation, error vectors and profile JSON handling."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetgen
from qprobe import (
    DeviceProfile,
    ProfileError,
    Topology,
    dump_profile,
    error_vector,
    fabricate,
    load_profile,
    topology_compatible,
)
from qprobe.circuit import build_bv, transpile


def make_profile(**overrides) -> DeviceProfile:
    base = dict(
        device_id="unit",
        topology=fleetgen.t5(),
        cnot_error={e: 0.01 for e in fleetgen.t5().sorted_edges()},
        single_qubit_error={q: 0.001 for q in range(5)},
        measurement_error={q: 0.02 for q in range(5)},
        calibration_time=fleetgen.CAL_TIME,
    )
    base.update(overrides)
    return DeviceProfile(**base)


# --- Topology ----------------------------------------------------------------


def test_edges_are_normalized_and_deduplicated():
    topo = Topology(3, [(1, 0), (0, 1), (2, 1)])
    assert topo.sorted_edges() == [(0, 1), (1, 2)]
    assert topo.adjacent(0, 1) and topo.adjacent(1, 0)
    assert not topo.adjacent(0, 2)


def test_topology_rejects_bad_edges():
    with pytest.raises(ProfileError, match="self-loop"):
        Topology(3, [(1, 1)])
    with pytest.raises(ProfileError, match="out of range"):
        Topology(3, [(0, 3)])
    with pytest.raises(ProfileError, match="positive"):
        Topology(0, [])


def test_neighbors_sorted():
    topo = Topology(5, [(1, 3), (0, 1), (1, 2)])
    assert topo.neighbors(1) == [0, 2, 3]
    assert topo.neighbors(4) == []


def test_bfs_distances_respect_blocked_registers():
    line = Topology(5, [(i, i + 1) for i in range(4)])
    assert line.distances_from(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert line.distances_from(0, blocked={2}) == {0: 0, 1: 1}


def test_set_distance():
    topo = Topology(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
    assert topo.set_distance({0, 1}, {3}) == 2
    assert topo.set_distance({0, 1}, {1, 2}) == 0
    assert topo.set_distance({0}, {5}) is None


# --- DeviceProfile -----------------------------------------------------------


def test_profile_normalizes_cnot_edge_orientation():
    prof = make_profile(cnot_error={(1, 0): 0.01, (1, 2): 0.02, (1, 3): 0.03, (3, 4): 0.04})
    assert prof.rate_for(("cnot", (0, 1))) == 0.01
    assert prof.rate_for(("cnot", (1, 0))) == 0.01


def test_profile_requires_rate_per_edge_and_qubit():
    edges = fleetgen.t5().sorted_edges()
    with pytest.raises(ProfileError, match=r"cnot_error.3-4: missing"):
        make_profile(cnot_error={e: 0.01 for e in edges[:-1]})
    with pytest.raises(ProfileError, match=r"cnot_error.0-2: edge not in topology"):
        make_profile(cnot_error={**{e: 0.01 for e in edges}, (0, 2): 0.01})
    with pytest.raises(ProfileError, match=r"measurement_error.4: missing"):
        make_profile(measurement_error={q: 0.02 for q in range(4)})


def test_profile_rejects_rates_outside_unit_interval():
    with pytest.raises(ProfileError, match=r"single_qubit_error.2: rate"):
        make_profile(single_qubit_error={0: 0.0, 1: 0.0, 2: 1.0, 3: 0.0, 4: 0.0})
    with pytest.raises(ProfileError, match="rate -0.1"):
        make_profile(measurement_error={0: -0.1, 1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0})
    # zero is a legal rate, one is not
    make_profile(single_qubit_error={q: 0.0 for q in range(5)})


def test_rate_for_unknown_entries():
    prof = make_profile()
    with pytest.raises(KeyError, match="no rate for cnot"):
        prof.rate_for(("cnot", (0, 2)))
    with pytest.raises(KeyError, match="unknown error key kind"):
        prof.rate_for(("depol", 0))


# --- error vectors and fabrication --------------------------------------------


def test_error_vector_order_and_labels():
    prof = make_profile()
    vec = error_vector(prof)
    assert vec.labels() == (
        "CNOT_(0,1)", "CNOT_(1,2)", "CNOT_(1,3)", "CNOT_(3,4)",
        "Meas_0", "Meas_1", "Meas_2", "Meas_3", "Meas_4",
    )
    assert len(vec) == 9


def test_error_vector_region_needs_both_endpoints():
    vec = error_vector(make_profile(), region={0, 1, 2})
    # edge (1, 3) leaves the region, so only two CNOT entries survive
    assert vec.labels() == ("CNOT_(0,1)", "CNOT_(1,2)", "Meas_0", "Meas_1", "Meas_2")


def test_fabricate_scale_halves_every_rate():
    prof = make_profile()
    forged = fabricate(prof, scale=0.5)
    assert forged.cnot_error[(0, 1)] == 0.005
    assert forged.single_qubit_error[3] == 0.0005
    assert forged.measurement_error[2] == 0.01
    # the real profile is untouched
    assert prof.cnot_error[(0, 1)] == 0.01
    assert forged.device_id == prof.device_id


def test_fabricate_overrides_pin_named_entries():
    forged = fabricate(make_profile(), overrides={"CNOT_(1,3)": 0.2, "Meas_0": 0.3, "SQ_4": 0.05})
    assert forged.cnot_error[(1, 3)] == 0.2
    assert forged.measurement_error[0] == 0.3
    assert forged.single_qubit_error[4] == 0.05
    assert forged.cnot_error[(0, 1)] == 0.01


def test_fabricate_argument_validation():
    prof = make_profile()
    with pytest.raises(ProfileError, match="exactly one"):
        fabricate(prof)
    with pytest.raises(ProfileError, match="exactly one"):
        fabricate(prof, scale=0.5, overrides={"Meas_0": 0.1})
    with pytest.raises(ProfileError, match="scale_factor"):
        fabricate(prof, scale=0.0)
    with pytest.raises(ProfileError, match="scale_factor"):
        fabricate(prof, scale=1.5)
    with pytest.raises(ProfileError, match="not CNOT"):
        fabricate(prof, overrides={"Flux_0": 0.1})
    with pytest.raises(ProfileError, match="does not name"):
        fabricate(prof, overrides={"CNOT_(0,2)": 0.1})
    for label in ("CNOT_(x,1)", "CNOT_(1)", "Meas_", "SQ_q"):
        with pytest.raises(ProfileError, match=f"label '{re.escape(label)}' is not CNOT"):
            fabricate(prof, overrides={label: 0.1})
    with pytest.raises(ProfileError, match="scale_factor"):
        fabricate(prof, scale=True)


def test_topology_compatible_is_total():
    topo = fleetgen.t5()
    circuit = transpile(build_bv("11"), topo, [0, 1, 3])
    assert topology_compatible(circuit, topo)
    assert not topology_compatible(circuit, Topology(3, [(0, 1), (1, 2)]))
    # same qubit count, different couplings
    assert not topology_compatible(circuit, Topology(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))


# --- JSON documents ------------------------------------------------------------


def test_profile_round_trip_is_exact():
    prof = make_profile(cnot_error={(0, 1): 0.1 + 0.2 - 0.3 + 0.013, (1, 2): 0.0127,
                                    (1, 3): 3e-4, (3, 4): 0.05})
    again = load_profile(dump_profile(prof))
    assert again == prof
    assert dump_profile(again) == dump_profile(prof)


@settings(max_examples=25, deadline=None)
@given(rates=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=14, max_size=14))
def test_profile_round_trip_random_rates(rates):
    topo = fleetgen.t5()
    prof = DeviceProfile(
        device_id="rt",
        topology=topo,
        cnot_error=dict(zip(topo.sorted_edges(), rates[:4])),
        single_qubit_error=dict(enumerate(rates[4:9])),
        measurement_error=dict(enumerate(rates[9:14])),
        calibration_time=fleetgen.CAL_TIME,
    )
    assert load_profile(dump_profile(prof)) == prof


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.pop("device_id"), "device_id: missing field"),
    (lambda d: d.update(num_qubits="5"), "num_qubits: must be an integer"),
    (lambda d: d.update(edges=[[0, 1, 2]]), r"edges\[0\]"),
    (lambda d: d["cnot_error"].update({"3-1": 0.1}), "cnot_error.3-1: key must be 'a-b'"),
    (lambda d: d["cnot_error"].update({"x1": 0.1}), "cnot_error.x1: key must look like"),
    (lambda d: d["cnot_error"].update({"0-1": True}), "rate must be a number"),
    (lambda d: d["single_qubit_error"].update({"one": 0.1}), "single_qubit_error.one"),
    (lambda d: d.update(calibration_time=7), "calibration_time"),
    (lambda d: d.update(edges=5), "edges: must be a list"),
    (lambda d: d.update(measurement_error=[0.1]), "measurement_error: must be a JSON object"),
    # a rate-table key has one spelling, so no second one can overwrite an entry
    (lambda d: d["measurement_error"].update({" 0": 0.5}), "measurement_error. 0: key must be"),
    (lambda d: d["cnot_error"].update({"0-01": 0.3}), "cnot_error.0-01: key must look like"),
    (lambda d: d["single_qubit_error"].update({"0_0": 0.1}), "single_qubit_error.0_0: key must"),
    # the int key dumps as a second "0" in the same object
    (lambda d: d["measurement_error"].update({0: 0.5}), "repeated key '0'"),
])
def test_load_profile_reports_field_paths(mutate, message):
    import json

    doc = json.loads(dump_profile(make_profile()))
    mutate(doc)
    with pytest.raises(ProfileError, match=message):
        load_profile(json.dumps(doc))


def test_load_profile_rejects_non_object_documents():
    with pytest.raises(ProfileError, match="not valid JSON"):
        load_profile("{nope")
    with pytest.raises(ProfileError, match="JSON object"):
        load_profile("[1, 2]")
