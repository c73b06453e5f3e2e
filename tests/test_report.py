"""Report encodings: JSON equal to the indented encoder byte for byte, the
same JSON and CSV from a report's columns as from its rows as dicts, and CSV
that reads back with as many cells in a row as in its header."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetgen
from qprobe import DeviceProfile, Topology, fabricate, load_fleet
from qprobe.cli import (ExperimentReport, Table, main, parse_probe_args, run_identify,
                        run_threshold_sweep)

# strings json must escape or a string-built writer could mishandle, plus arbitrary text
strings = st.sampled_from(["", '"', "\\", "\x00\t\n\x1f\x7f", "é☃\U0001d11e", "%s", "%%", "{}"]) \
    | st.text(max_size=8)
floats = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]) \
    | st.floats(allow_nan=True, allow_infinity=True)
scalars = st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.just(-10 ** 40) \
    | floats | strings
json_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(strings, inner, max_size=3),
    max_leaves=8)
# one strategy fills a whole column, so every typed column encoder is reached
column_values = st.sampled_from([strings, st.integers(), floats, st.floats(allow_nan=False,
                                 allow_infinity=False), st.booleans(), json_values])


@st.composite
def tables(draw, n: int, depth: int) -> tuple[Table, list]:
    """n rows with one key set, as a Table and as dicts; a column may itself
    be such a table, some of whose cells are null."""
    keys = draw(st.lists(strings, unique=True, max_size=4))
    columns, cells = {}, {}
    for key in keys:
        if depth and draw(st.booleans()):
            nulls = draw(st.sets(st.integers(0, n - 1))) if n else set()
            nested, dicts = draw(tables(n - len(nulls), depth - 1))
            columns[key] = Table(nested.rows, nested.columns, frozenset(nulls))
            rest = iter(dicts)
            cells[key] = [None if i in nulls else next(rest) for i in range(n)]
        else:
            columns[key] = cells[key] = draw(st.lists(draw(column_values), min_size=n,
                                                      max_size=n))
    return Table(n, columns), [{key: cells[key][i] for key in keys} for i in range(n)]


def as_doc(report: ExperimentReport) -> str:
    doc = {"kind": report.kind, "params": report.params, "trials": report.trials,
           "summary": report.summary}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def reports(draw) -> ExperimentReport:
    _, rows = draw(tables(draw(st.integers(0, 5)), depth=2))
    return ExperimentReport(kind=draw(strings),
                            params=draw(st.dictionaries(strings, json_values, max_size=3)),
                            table=Table.from_rows(rows),
                            summary=draw(st.dictionaries(strings, json_values, max_size=3)))


@settings(max_examples=400, deadline=None)
@given(report=reports())
def test_json_report_equals_the_indented_encoder(report):
    assert report.to_json() == as_doc(report)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_report_from_columns_writes_what_one_from_rows_writes(data):
    table, rows = data.draw(tables(data.draw(st.integers(0, 5)), depth=2))
    # any kind but identify, whose CSV needs candidates in its params
    kind, params, summary = data.draw(strings.filter(lambda k: k != "identify")), {}, {}
    from_columns = ExperimentReport(kind, params, table, summary)
    from_rows = ExperimentReport(kind, params, Table.from_rows(rows), summary)
    assert from_columns.trials == from_rows.trials == rows
    assert from_columns.to_json() == from_rows.to_json() == as_doc(from_rows)
    assert from_columns.to_csv() == from_rows.to_csv()


@pytest.mark.parametrize("column", [
    [{}, {"a": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{2: 0, 10: 1}, {2: 1, 10: 0}],  # json sorts int keys as ints: 2 before 10
])
def test_nested_dicts_without_one_set_of_string_keys(column):
    report = ExperimentReport("k", {}, Table.from_rows([{"x": v} for v in column]), {})
    assert report.to_json() == as_doc(report)


@pytest.mark.parametrize("trials", [
    [{"a": 1}, {"b": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"a": 1, "b": 2}, {"a": 1}],
])
def test_rows_with_different_keys_are_refused(trials):
    with pytest.raises(ValueError, match="one key set"):
        Table.from_rows(trials)


@pytest.mark.parametrize("rows, columns, nulls, message", [
    (2, {"a": [1]}, frozenset(), "column 'a' has 1 cells for 2 rows"),
    (1, {"a": Table(1, {}, frozenset({0}))}, frozenset(), "column 'a' has 2 cells for 1 rows"),
    (1, {3: [1]}, frozenset(), "report key 3 is not a string"),
    (1, {}, frozenset({2}), "null position outside the column"),
])
def test_a_table_is_refused_unless_its_columns_fit(rows, columns, nulls, message):
    with pytest.raises(ValueError, match=message):
        Table(rows, columns, nulls)


def test_report_rows_cannot_be_null():
    with pytest.raises(ValueError, match="report rows cannot be null"):
        ExperimentReport("sweep", {}, Table(0, {}, frozenset({0})), {})


def check_report(report: ExperimentReport) -> None:
    """The report's JSON is the indented encoder's, and its rows rebuilt as
    dicts give the same JSON and CSV."""
    assert report.to_json() == as_doc(report)
    again = ExperimentReport(report.kind, report.params, Table.from_rows(report.trials),
                             report.summary)
    assert again.to_json() == report.to_json()
    assert again.to_csv() == report.to_csv()


def test_a_24_device_sweep_report(tmp_path):
    # six scaled copies of each corner profile, under new ids
    profiles = [fabricate(dataclasses.replace(base, device_id=f"d{i:02d}"), scale=1 - i / 50)
                for i, base in enumerate(fleetgen.corner_profiles() * 6)]
    cloud = load_fleet(fleetgen.write_fleet(tmp_path, profiles))
    probes = parse_probe_args(("bv:11", "bv:111"), ("0,1,3", "0,1,2,3"))
    report, code = run_threshold_sweep(cloud, probes, shots=200, rounds=1, seed=3)
    assert code == 0 and len(report.trials) == 2 * 24 * 24
    check_report(report)


def test_an_identify_report_with_an_unfit_device(tmp_path):
    tiny = DeviceProfile(device_id="tiny", topology=Topology(2, [(0, 1)]),
                         cnot_error={(0, 1): 0.01}, single_qubit_error={0: 0.0, 1: 0.0},
                         measurement_error={0: 0.01, 1: 0.01},
                         calibration_time=fleetgen.CAL_TIME)
    cloud = load_fleet(fleetgen.write_fleet(tmp_path, [*fleetgen.corner_profiles(), tiny]))
    (probe,) = parse_probe_args(("bv:11",), ("0,1,3",))
    report, code = run_identify(cloud, probe, shots=200, rounds=1, seed=3)
    assert code == 2
    assert report.trials[-1] == {"device": "tiny", "seed": 7, "matched": None,
                                 "correct": False, "margin": None, "distances": None}
    check_report(report)
    assert report.to_csv().splitlines()[-1] == "tiny,,,,"


@pytest.mark.parametrize("argv", [
    ["identify"],
    ["detect-sub", "--victim", "alpine", "--actual", "dune"],
    ["detect-fab", "--device", "alpine", "--fab", "scale:0.5"],
    ["sweep"],
])
def test_csv_rows_are_as_wide_as_the_header(corner_fleet, tmp_path, argv, capsys):
    out = tmp_path / "report"
    code = main([*argv, "--fleet", str(corner_fleet), "--probe", "bv:11", "--mapping", "0,1,3",
                 "--shots", "200", "--out", str(out), "--format", "csv"])
    assert code in (0, 2)
    capsys.readouterr()
    text = (out / f"{argv[0]}.csv").read_text()
    header, *rows = csv.reader(io.StringIO(text))
    assert rows
    assert all(len(row) == len(header) for row in rows)
    if "probe" in header:
        # the label holds commas, so it must be quoted to stay one cell
        assert {row[header.index("probe")] for row in rows} == {"bv:11@0,1,3"}
