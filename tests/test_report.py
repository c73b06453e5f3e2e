"""Report encodings: JSON equal to the indented encoder byte for byte, and
CSV that reads back with as many cells in a row as in its header."""

from __future__ import annotations

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qprobe.cli import ExperimentReport, main

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
def tables(draw, n: int, depth: int) -> list[dict]:
    """n dicts with one key set; a column may itself be such a table."""
    keys = draw(st.lists(strings, unique=True, max_size=4))
    columns = {}
    for key in keys:
        if depth and draw(st.booleans()):
            columns[key] = draw(tables(n, depth - 1))
        else:
            columns[key] = draw(st.lists(draw(column_values), min_size=n, max_size=n))
    return [{key: columns[key][i] for key in keys} for i in range(n)]


@st.composite
def reports(draw) -> ExperimentReport:
    return ExperimentReport(kind=draw(strings),
                            params=draw(st.dictionaries(strings, json_values, max_size=3)),
                            trials=draw(tables(draw(st.integers(0, 5)), depth=2)),
                            summary=draw(st.dictionaries(strings, json_values, max_size=3)))


@settings(max_examples=400, deadline=None)
@given(report=reports())
def test_json_report_equals_the_indented_encoder(report):
    doc = {"kind": report.kind, "params": report.params, "trials": report.trials,
           "summary": report.summary}
    assert report.to_json() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("column", [
    [{}, {"a": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{2: 0, 10: 1}, {2: 1, 10: 0}],  # json sorts int keys as ints: 2 before 10
])
def test_nested_dicts_without_one_set_of_string_keys(column):
    report = ExperimentReport(kind="k", params={}, trials=[{"x": v} for v in column], summary={})
    doc = {"kind": "k", "params": {}, "trials": report.trials, "summary": {}}
    assert report.to_json() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("trials", [
    [{"a": 1}, {"b": 1}],
    [{"a": 1}, {"a": 1, "b": 2}],
    [{"a": 1, "b": 2}, {"a": 1}],
])
def test_rows_with_different_keys_are_refused(trials):
    report = ExperimentReport(kind="sweep", params={}, trials=trials, summary={})
    with pytest.raises(ValueError, match="one key set"):
        report.to_json()


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
