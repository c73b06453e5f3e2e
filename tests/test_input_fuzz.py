"""Fuzzed input documents: bad input is rejected with the package's own errors.

Any JSON document either loads as a profile or raises ProfileError, and any
fleet list either loads or raises ValueError (OSError for a profile file that
cannot be read).  A TypeError, KeyError or AttributeError escaping here would
reach the CLI user as a traceback.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fleetgen
from qprobe import ProfileError, dump_profile, load_fleet, load_profile

scalars = (st.none() | st.booleans() | st.integers(-3, 7) | st.integers() | st.just(10 ** 400)
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12)

VALID = json.loads(dump_profile(fleetgen.corner_profiles()[0]))
rate_edits = st.tuples(
    st.sampled_from(["cnot_error", "single_qubit_error", "measurement_error"]),
    st.sampled_from(["0", "4", "5", "-1", "x", "0-1", "1-0", "0-2", "0-1-2", "a-b", ""]),
    scalars)


@st.composite
def profile_documents(draw):
    """A valid profile with edited rates and edges, and fields replaced or dropped."""
    doc = json.loads(json.dumps(VALID))
    for table, key, value in draw(st.lists(rate_edits, max_size=3)):
        doc[table][key] = value
    doc["edges"].extend(draw(st.lists(st.lists(scalars, max_size=3), max_size=2)))
    for field in draw(st.lists(st.sampled_from(sorted(VALID)), max_size=2)):
        if draw(st.booleans()):
            doc[field] = draw(json_values)
        else:
            doc.pop(field, None)
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=json_values | profile_documents())
def test_any_json_document_loads_or_raises_profile_error(doc):
    try:
        load_profile(json.dumps(doc))
    except ProfileError:
        pass


labels = st.sampled_from(["Meas_0", "Meas_9", "Meas_", "SQ_1", "SQ_x", "CNOT_(0,1)",
                          "CNOT_(1,0)", "CNOT_(x,1)", "CNOT_(1)", "Flux_0"])
fabrications = (json_values
                | st.fixed_dictionaries({"scale": json_values})
                | st.fixed_dictionaries({"overrides": st.dictionaries(labels, json_values,
                                                                      max_size=3)}))
# relative names only, so no entry ever reads outside the fleet directory
paths = st.sampled_from(["alpine.json", "boreal.json", "bad.json", "missing.json", "",
                         ".", "nul\x00.json"])
entries = json_values | st.fixed_dictionaries(
    {}, optional={"profile_path": paths | json_values, "hidden_rate": json_values,
                  "fabrication": fabrications})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fleet=st.lists(entries, max_size=3) | json_values,
       hidden_rate=st.none() | st.floats(allow_nan=True, allow_infinity=True))
def test_any_fleet_list_loads_or_raises_value_error(tmp_path, fleet, hidden_rate):
    profiles = fleetgen.corner_profiles()
    for name, prof in (("alpine", profiles[0]), ("boreal", profiles[1])):
        (tmp_path / f"{name}.json").write_text(dump_profile(prof))
    (tmp_path / "bad.json").write_text(json.dumps(dict(VALID, edges=5)))
    config = tmp_path / "fleet.json"
    config.write_text(json.dumps(fleet))
    try:
        load_fleet(config, hidden_rate=hidden_rate)
    except (ValueError, OSError):
        pass


def test_pathological_documents_are_rejected(tmp_path):
    with pytest.raises(ProfileError, match="not valid JSON"):
        load_profile("[" * 100_000)
    doc = json.loads(json.dumps(VALID))
    doc["cnot_error"]["0-1"] = 10 ** 400  # no float can hold it
    with pytest.raises(ProfileError, match="cnot_error.0-1: rate outside"):
        load_profile(json.dumps(doc))
    for field, value in (("num_qubits", True), ("edges", [[True, False]])):
        with pytest.raises(ProfileError, match=field):
            load_profile(json.dumps(dict(VALID, **{field: value})))
    config = tmp_path / "fleet.json"
    config.write_text("[" * 100_000)
    with pytest.raises(ValueError, match="nests too deeply"):
        load_fleet(config)
