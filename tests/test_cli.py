"""Command line behaviour: parsing, exit codes, report files.

Exit code contract: 0 for honest or fully identified, 2 when any fraud (or
identification miss) shows up, 1 for configuration mistakes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import weakref
from functools import reduce
from operator import add
from pathlib import Path

import pytest

import fleetgen
import qprobe.device
import qprobe.devicesim
import qprobe.estimator
from qprobe import (AttackConfig, DeviceProfile, QuantumCloud, Topology, TopologyError, detect,
                    dump_profile, estimate_fingerprint, load_fleet, manhattan_avg, match_device,
                    run_rounds, survival_from_counts)
from qprobe.circuit import compose_probe
from qprobe.cli import (CommandError, ProbeSpec, main, parse_probe_args, parse_strategy,
                        run_identify)

CORNER_PROBE = ["--probe", "bv:11", "--mapping", "0,1,3"]
DEMO_FLEET = Path(__file__).resolve().parents[1] / "fleets" / "demo" / "fleet.json"


# --- flag parsing --------------------------------------------------------------


def test_parse_single_probe():
    (spec,) = parse_probe_args(("bv:101",), ("4,3,2,1",))
    assert spec.subprobes == (("101", (4, 3, 2, 1)),)
    assert spec.label == "bv:101@4,3,2,1"
    assert spec.size == 4


def test_parse_composite_probe():
    (spec,) = parse_probe_args(("bv:11+bv:1",), ("0,1,2;5,6",))
    assert spec.subprobes == (("11", (0, 1, 2)), ("1", (5, 6)))
    assert spec.label == "bv:11@0,1,2+bv:1@5,6"
    assert spec.size == 5


@pytest.mark.parametrize("probes, mappings, message", [
    ((), (), "at least one"),
    (("bv:11",), (), "same number"),
    (("xx:11",), ("0,1,2",), "must look like bv:"),
    (("bv:12",), ("0,1,2",), "must be a bitstring"),
    (("bv:11",), ("0,a,2",), "comma-separated ints"),
    (("bv:11+bv:1",), ("0,1,2",), "mapping '0,1,2' has 1 group"),
    (("bv:11",), ("0,1",), "needs 3 mapped qubits"),
    # a register has one spelling; nothing is dropped or read leniently
    *[pytest.param(("bv:11",), (mapping,), re.escape(f"mapping group {mapping!r} must be"),
                   id=f"mapping {mapping!r}")
      for mapping in ("0,,1,3", "0,1,3,", ",0,1,3", " 0,1,3", "0,1,+3", "0,01,3", "")],
    (("bv:11+bv:1",), ("0,1,2;",), "mapping group '' must be"),
    (("bv:11+bv:1",), ("0,1,2;5,-6",), "mapping group '5,-6' must be"),
    # a register placed twice is an input error, reported once and not per device
    pytest.param(("bv:11",), ("0,0,3",), "mapping '0,0,3' places register 0 twice",
                 id="repeated register"),
    pytest.param(("bv:1+bv:1",), ("0,1;1,2",), "mapping '0,1;1,2' places register 1 twice",
                 id="register shared by two subprobes"),
])
def test_parse_probe_rejections(probes, mappings, message):
    with pytest.raises(CommandError, match=message):
        parse_probe_args(probes, mappings)


def test_parse_strategy():
    assert parse_strategy("scale:0.5") == {"scale": 0.5}
    assert parse_strategy("set:Meas_0=0.01,CNOT_(1,3)=0.002") == {
        "overrides": {"Meas_0": 0.01, "CNOT_(1,3)": 0.002}}
    with pytest.raises(CommandError, match="must start with"):
        parse_strategy("halve")
    with pytest.raises(CommandError, match="bad scale"):
        parse_strategy("scale:tiny")
    with pytest.raises(CommandError, match="Label=rate"):
        parse_strategy("set:Meas_0")
    with pytest.raises(CommandError, match="at least one override"):
        parse_strategy("set:")
    # a repeated label would silently keep its last rate
    with pytest.raises(CommandError, match=re.escape("override label 'Meas_0' given twice")):
        parse_strategy("set:Meas_0=0.1,Meas_0=0.5")
    with pytest.raises(CommandError, match=re.escape("label 'CNOT_(0,1)' given twice")):
        parse_strategy("set:CNOT_(0,1)=0.1,Meas_1=0.2,CNOT_(0,1)=0.3")


def test_probe_spec_builds_against_a_fitting_device(drift_fleet):
    from qprobe.cloud import load_fleet

    cloud = load_fleet(drift_fleet)
    spec = ProbeSpec((("11", (100, 101, 102)),))
    circuit, reference = spec.build(cloud)
    assert reference == "harrier"  # first id in sorted order
    assert circuit.measured == (0, 1)
    bad = ProbeSpec((("11", (300, 301, 302)),))
    with pytest.raises(CommandError, match="fits no fleet device"):
        bad.build(cloud)


# --- exit codes ----------------------------------------------------------------


def test_identify_honest_corner_fleet(corner_fleet, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["identify", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--out", str(out)])
    assert code == 0
    assert "identify: 4/4 correct" in capsys.readouterr().out
    doc = json.loads((out / "identify.json").read_text())
    assert doc["summary"]["accuracy"] == 1.0
    assert doc["summary"]["ambiguous"] == []
    assert [t["device"] for t in doc["trials"]] == ["alpine", "boreal", "cascade", "dune"]
    assert all(t["matched"] == t["device"] for t in doc["trials"])


def test_identify_composite_probe_on_the_line_fleet(drift_fleet, capsys):
    code = main(["identify", "--fleet", str(drift_fleet),
                 "--probe", "bv:11+bv:11+bv:11",
                 "--mapping", "9,11,10;49,51,50;89,91,90"])
    assert code == 0
    assert "identify: 3/3 correct" in capsys.readouterr().out


def test_detect_sub_flags_a_swapped_machine(corner_fleet, capsys):
    code = main(["detect-sub", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--victim", "alpine", "--actual", "dune"])
    assert code == 2
    assert "detect-sub: fraudulent" in capsys.readouterr().out


def test_detect_sub_self_substitution_read_as_honest(corner_fleet, capsys):
    code = main(["detect-sub", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--victim", "alpine", "--actual", "alpine"])
    assert code == 0
    assert "detect-sub: honest" in capsys.readouterr().out


def test_hidden_rate_flag_reaches_the_noise_model(corner_fleet, capsys):
    code = main(["detect-sub", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--victim", "alpine", "--actual", "alpine",
                 "--hidden-rate", "0.2"])
    assert code == 2
    assert "fraudulent" in capsys.readouterr().out


def test_detect_fab_catches_halved_rates(grit_fleet, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["detect-fab", "--fleet", str(grit_fleet),
                 "--probe", "bv:11", "--mapping", "0,1,3",
                 "--probe", "bv:111", "--mapping", "0,1,2,3",
                 "--probe", "bv:1111", "--mapping", "0,1,2,3,4",
                 "--device", "grit", "--fab", "scale:0.5", "--out", str(out)])
    assert code == 2
    assert "detect-fab: 3/3 fraudulent" in capsys.readouterr().out
    doc = json.loads((out / "detect-fab.json").read_text())
    assert all(t["classification"] == "fraudulent" for t in doc["trials"])


def test_detect_fab_identity_forgery_stays_honest(grit_fleet, capsys):
    code = main(["detect-fab", "--fleet", str(grit_fleet),
                 "--probe", "bv:11", "--mapping", "0,1,3",
                 "--device", "grit", "--fab", "scale:1.0"])
    assert code == 0
    assert "detect-fab: 0/1 fraudulent" in capsys.readouterr().out


def test_sweep_reports_a_usable_gap(corner_fleet, tmp_path):
    # the corner devices are separated through their register-0/1 readout
    # rates, so the sweep uses probes whose measured qubits sit there
    out = tmp_path / "report"
    code = main(["sweep", "--fleet", str(corner_fleet),
                 "--probe", "bv:11", "--mapping", "0,1,3",
                 "--probe", "bv:111", "--mapping", "0,1,2,3",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["summary"]["gap_valid"] is True
    assert doc["summary"]["threshold_in_gap"] is True
    assert doc["summary"]["honest"]["max"] < 0.035 < doc["summary"]["cross"]["min"]
    assert set(doc["summary"]["by_size"]) == {"3", "4"}


@pytest.mark.parametrize("argv_tail", [
    ["--probe", "bv:2", "--mapping", "0,1"],
    ["--probe", "bv:11", "--mapping", "0,1"],
    ["--probe", "bv:11", "--mapping", "90,91,92"],
    ["--probe", "bv:11", "--mapping", "0,1,+3"],
    # just above the pooled-shot bound; far above it, numpy failed to allocate
    ["--probe", "bv:11", "--mapping", "0,1,3", "--shots", str(2**24 + 1), "--rounds", "1"],
])
def test_configuration_mistakes_exit_one(corner_fleet, argv_tail, capsys):
    # the second run in the same process meets warm profile and probe caches
    errors = []
    for _ in range(2):
        code = main(["identify", "--fleet", str(corner_fleet), *argv_tail])
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1
    assert errors[1] == errors[0]


@pytest.mark.parametrize("argv_tail", [
    ["--probe", "bv:11", "--mapping", "0,0,3"],
    ["--probe", "bv:1+bv:1", "--mapping", "0,1;1,2"],
])
def test_repeated_register_is_reported_once(corner_fleet, argv_tail, capsys):
    for _ in range(2):  # the second run meets warm caches
        code = main(["identify", "--fleet", str(corner_fleet), *argv_tail])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "twice" in err
        assert not any(device_id in err for device_id in ("alpine", "boreal", "cascade", "dune"))


@pytest.mark.parametrize("seed", [str(2**64), str(-2**63 - 1)])
def test_seed_outside_64_bits_exits_one(corner_fleet, tmp_path, seed, capsys):
    out = tmp_path / "report"
    code = main(["detect-sub", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--victim", "alpine", "--actual", "alpine", "--shots", "50",
                 "--seed", seed, "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "outside the 64-bit range" in captured.err
    assert "honest" not in captured.out and "fraudulent" not in captured.out
    assert not out.exists()


def test_the_top_seed_runs_and_aliases_minus_one(tmp_path):
    distances = []
    for seed in ("-1", str(2**64 - 1)):
        out = tmp_path / seed
        code = main(["detect-sub", "--fleet", str(DEMO_FLEET), *CORNER_PROBE,
                     "--victim", "alpine", "--actual", "alpine", "--shots", "50",
                     "--seed", seed, "--out", str(out)])
        assert code == 0
        distances.append(json.loads((out / "detect-sub.json").read_text())["summary"]["distance"])
    assert distances == [0.00559805527935997] * 2
    out = tmp_path / "identify"
    code = main(["identify", "--fleet", str(DEMO_FLEET), *CORNER_PROBE, "--shots", "50",
                 "--seed", str(2**64 - 1), "--out", str(out)])
    assert code in (0, 2)
    # row i uses seed + 3 * i, wrapped modulo 2**64
    rows = json.loads((out / "identify.json").read_text())["trials"]
    assert [row["seed"] for row in rows] == [2**64 - 1, 2, 5, 8]
    code = main(["sweep", "--fleet", str(DEMO_FLEET), *CORNER_PROBE, "--shots", "50",
                 "--seed", str(2**64 - 1)])
    assert code in (0, 2)


@pytest.mark.parametrize("fab, label", [
    ("set:Meas_0=0.1,Meas_0=0.5", "override label 'Meas_0' given twice"),
    ("set:CNOT_(0,1)=0.1,CNOT_(1,0)=0.2", "override label 'CNOT_(1,0)' is not CNOT_(a,b)"),
    ("set:Meas_01=0.1", "override label 'Meas_01' is not CNOT_(a,b)"),
    ("set:CNOT_( 0, 1)=0.1", "override label 'CNOT_( 0, 1)' is not CNOT_(a,b)"),
])
def test_a_second_spelling_of_an_override_exits_one(corner_fleet, fab, label, capsys):
    code = main(["detect-fab", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--device", "alpine", "--fab", fab])
    assert code == 1
    captured = capsys.readouterr()
    assert f"error: {label}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["detect-sub", "--victim", "alpine", "--actual", "dune"],
    ["detect-fab", "--device", "alpine", "--fab", "scale:0.5"],
])
@pytest.mark.parametrize("threshold", ["nan", "inf"])
def test_non_finite_threshold_exits_one(corner_fleet, command, threshold, capsys):
    code = main([*command, "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--threshold", threshold])
    assert code == 1
    captured = capsys.readouterr()
    assert "threshold must be a finite" in captured.err
    assert "fraudulent" not in captured.out and "honest" not in captured.out


@pytest.mark.parametrize("command", [
    ["detect-sub", "--victim", "alpine", "--actual", "nope"],
    ["detect-sub", "--victim", "nope", "--actual", "alpine"],
    ["detect-fab", "--device", "nope", "--fab", "scale:0.5"],
])
def test_unknown_device_exits_one_with_an_unquoted_message(corner_fleet, command, capsys):
    code = main([*command, "--fleet", str(corner_fleet), *CORNER_PROBE])
    assert code == 1
    assert capsys.readouterr().err == "error: attack references unknown device 'nope'\n"


@pytest.mark.parametrize("entries, profile_update, message", [
    ([1], {}, "fleet entry 0: must be a JSON object"),
    ([{"profile_path": "alpine.json", "hidden_rate": "x"}], {},
     "fleet entry 0: hidden_rate: must be a number"),
    ([{"profile_path": "alpine.json", "fabrication": 3}], {},
     "fleet entry 0: fabrication: must be a JSON object"),
    ([{"profile_path": "alpine.json", "fabrication": {"scale": "x"}}], {},
     "scale_factor 'x' outside"),
    ([{"profile_path": "alpine.json", "fabrication": {"overrides": [1]}}], {},
     "overrides must map labels to rates"),
    ([{"profile_path": "alpine.json"}], {"edges": 5}, "edges: must be a list"),
    ([{"profile_path": "boreal.json"}, {"profile_path": "alpine.json"}], {"edges": 5},
     "fleet entry 1 (alpine.json): edges: must be a list of two-int pairs"),
    ([{"profile_path": "alpine.json"}, {"profile_path": "alpine.json"}], {},
     "fleet entry 1 (alpine.json): device 'alpine' already registered"),
    ([{"profile_path": "alpine.json", "hidden_rate": False}], {},
     "fleet entry 0: hidden_rate: must be a number"),
    ([{"profile_path": "alpine.json", "hidden_rate": True}], {},
     "fleet entry 0: hidden_rate: must be a number"),
    ([{"profile_path": "alpine.json", "hidden_rate": 1.5}], {},
     "fleet entry 0 (alpine.json): hidden_rate 1.5 outside [0, 1)"),
    ([{"profile_path": "alpine.json", "fabrication": {"scale": True}}], {},
     "fleet entry 0 (alpine.json): scale_factor True outside (0, 1]"),
    ([{"profile_path": "alpine.json", "fabrication": {"overrides": {"Meas_": 0.1}}}], {},
     "fleet entry 0 (alpine.json): override label 'Meas_' is not CNOT_(a,b)"),
    # entries given as text are written verbatim, so they can repeat a key
    ('[{"profile_path": "alpine.json", "profile_path": "boreal.json"}]', {},
     "fleet config: repeated key 'profile_path' in a JSON object"),
    ('[{"profile_path": "alpine.json", "hidden_rate": 0.5, "hidden_rate": 0.0}]', {},
     "fleet config: repeated key 'hidden_rate' in a JSON object"),
    # a misspelled key would silently fall back to its default
    ([{"profile_path": "alpine.json", "hiden_rate": 0.3}], {},
     "fleet entry 0: unknown key 'hiden_rate'"),
    ([{"profile_pth": "alpine.json"}], {}, "fleet entry 0: unknown key 'profile_pth'"),
    ([{"profile_path": "alpine.json",
       "fabrication": {"scale": 0.5, "overides": {"Meas_0": 0.1}}}], {},
     "fleet entry 0: fabrication: unknown key 'overides'"),
    # an override label has one spelling, so no entry can be set twice
    ([{"profile_path": "alpine.json",
       "fabrication": {"overrides": {"CNOT_(0,1)": 0.1, "CNOT_(1,0)": 0.2}}}], {},
     "override label 'CNOT_(1,0)' is not CNOT_(a,b) with a < b"),
    ([{"profile_path": "alpine.json", "fabrication": {"overrides": {"Meas_01": 0.1}}}], {},
     "override label 'Meas_01' is not CNOT_(a,b)"),
])
def test_malformed_fleet_configs_exit_one(tmp_path, entries, profile_update, message, capsys):
    doc = json.loads(dump_profile(fleetgen.corner_profiles()[0]))
    doc.update(profile_update)
    (tmp_path / "alpine.json").write_text(json.dumps(doc))
    (tmp_path / "boreal.json").write_text(dump_profile(fleetgen.corner_profiles()[1]))
    fleet = tmp_path / "fleet.json"
    fleet.write_text(entries if isinstance(entries, str) else json.dumps(entries))
    # errors from an entry's profile file or its forgery name the entry and the file
    if not message.startswith(("fleet entry", "fleet config")):
        message = f"fleet entry 0 (alpine.json): {message}"
    for _ in range(2):  # the second run meets warm caches
        # an unmapped exception would escape main() and fail the test with its traceback
        code = main(["identify", "--fleet", str(fleet), *CORNER_PROBE])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err


def tiny_profile() -> DeviceProfile:
    """A 2-qubit device that no 3-qubit probe fits."""
    return DeviceProfile(
        device_id="tiny",
        topology=Topology(2, [(0, 1)]),
        cnot_error={(0, 1): 0.01},
        single_qubit_error={0: 0.0, 1: 0.0},
        measurement_error={0: 0.01, 1: 0.01},
        calibration_time=fleetgen.CAL_TIME,
    )


@pytest.mark.parametrize("command, message", [
    (["detect-sub", "--victim", "tiny", "--actual", "alpine"],
     "probe does not fit victim device 'tiny'"),
    (["detect-fab", "--device", "tiny", "--fab", "scale:0.5"],
     "probe 'bv:11@0,1,3' does not fit device 'tiny'"),
])
def test_probe_that_does_not_fit_the_attacked_device_exits_one(tmp_path, command, message,
                                                               capsys):
    # the probe is built on alpine, the first device it fits
    fleet = fleetgen.write_fleet(tmp_path, [*fleetgen.corner_profiles(), tiny_profile()])
    for _ in range(2):  # the second run meets warm caches
        code = main([*command, "--fleet", str(fleet), *CORNER_PROBE])
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command, message", [
    (["detect-fab", "--device", "alpine", "--fab", "scale:0.5", *CORNER_PROBE,
      "--threshold", "nan"], "threshold must be a finite"),
    (["detect-sub", "--victim", "alpine", "--actual", "dune", *CORNER_PROBE,
      "--threshold", "nan"], "threshold must be a finite"),
    # the first probe fits tiny and the second does not
    (["detect-fab", "--device", "tiny", "--fab", "scale:0.5", "--probe", "bv:1",
      "--mapping", "0,1", *CORNER_PROBE], "probe 'bv:11@0,1,3' does not fit device 'tiny'"),
])
def test_a_detect_command_checks_every_probe_before_any_job_runs(tmp_path, monkeypatch,
                                                                 command, message, capsys):
    fleet = fleetgen.write_fleet(tmp_path, [*fleetgen.corner_profiles(), tiny_profile()])
    calls, _ = count_sampler_calls_and_jobs(monkeypatch)
    submit, submitted = QuantumCloud.submit, []

    def counted(self, *args):
        submitted.append(args)
        return submit(self, *args)

    monkeypatch.setattr(QuantumCloud, "submit", counted)
    assert main([*command, "--fleet", str(fleet), "--shots", "100000", "--rounds", "100"]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert submitted == [] and calls == []


def test_an_out_path_under_a_file_is_refused_before_any_job_runs(tmp_path, monkeypatch,
                                                               capsys):
    calls, jobs = count_sampler_calls_and_jobs(monkeypatch)
    a_file = tmp_path / "report"
    a_file.write_text("")
    for out in (a_file, a_file / "sub", a_file / "sub" / "deeper"):
        for command in (["identify"], ["sweep"], ["detect-sub", "--victim", "alpine",
                                                  "--actual", "dune"]):
            assert main([*command, "--fleet", str(DEMO_FLEET), *CORNER_PROBE,
                         "--out", str(out)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: argument --out: {str(a_file)!r} is not a directory\n"
    assert calls == jobs == []
    assert a_file.read_text() == ""


def test_sweep_summary_is_a_left_to_right_fold_over_its_rows(tmp_path, capsys):
    # bv:1@3,4 and bv:11 do not fit tiny, and the two bv:1 probes share a size
    fleet = fleetgen.write_fleet(tmp_path, [*fleetgen.corner_profiles(), tiny_profile()])
    out = tmp_path / "report"
    assert main(["sweep", "--fleet", str(fleet), "--probe", "bv:1", "--mapping", "0,1",
                 *CORNER_PROBE, "--probe", "bv:1", "--mapping", "3,4", "--shots", "300",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads((out / "sweep.json").read_text())
    trials = doc["trials"]
    assert [sum(t["probe"] == label for t in trials)
            for label in doc["params"]["probes"]] == [25, 16, 16]

    def stats(size=None):
        """Each pair kind's stats over the rows of one size, or of every size."""
        out = {}
        for pair in ("honest", "cross"):
            values = [t["distance"] for t in trials
                      if t["pair"] == pair and size in (None, t["size"])]
            out[pair] = {"n": len(values), "mean": reduce(add, values, 0.0) / len(values),
                         "min": min(values), "max": max(values)}
        return out

    summary = doc["summary"]
    assert summary["by_size"] == {"2": stats(2), "3": stats(3)}
    assert {pair: summary[pair] for pair in ("honest", "cross")} == stats()
    assert summary["by_size"]["2"]["honest"]["n"] == 9
    gap = [summary["honest"]["max"], summary["cross"]["min"]]
    assert summary["gap"] == gap and summary["gap_valid"] == (gap[0] < gap[1])


def test_identify_leaves_a_device_the_probe_does_not_fit_unscored(corner_fleet, tmp_path,
                                                                 capsys):
    fleet = fleetgen.write_fleet(tmp_path, [*fleetgen.corner_profiles(), tiny_profile()])
    docs = []
    for path, code in ((corner_fleet, 0), (fleet, 2)):
        out = tmp_path / f"report-{code}"
        assert main(["identify", "--fleet", str(path), *CORNER_PROBE, "--out", str(out)]) == code
        docs.append(json.loads((out / "identify.json").read_text()))
    assert "identify: 4/5 correct" in capsys.readouterr().out
    without, with_tiny = docs
    assert with_tiny["params"] == without["params"]
    assert with_tiny["params"]["candidates"] == ["alpine", "boreal", "cascade", "dune"]
    # tiny sorts last, so the other devices keep their job seeds and every number
    *rows, tiny_row = with_tiny["trials"]
    assert rows == without["trials"]
    assert tiny_row == {"device": "tiny", "seed": 12, "matched": None, "correct": False,
                        "margin": None, "distances": None}
    assert with_tiny["summary"] == {"rows": 5, "correct": 4, "accuracy": 0.8,
                                    "ambiguous": without["summary"]["ambiguous"]}


def test_sweep_on_one_device_has_no_cross_pairs(grit_fleet, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(["sweep", "--fleet", str(grit_fleet), *CORNER_PROBE,
                 "--probe", "bv:111", "--mapping", "0,1,2,3", "--out", str(out)]) == 0
    assert "sweep: gap=None" in capsys.readouterr().out
    doc = json.loads((out / "sweep.json").read_text())
    assert [(t["size"], t["pair"]) for t in doc["trials"]] == [(3, "honest"), (4, "honest")]
    summary = doc["summary"]
    assert summary["gap"] is None
    assert summary["note"] == "no cross pairs; gap not computable"
    assert "gap_valid" not in summary and "threshold_in_gap" not in summary
    assert summary["cross"] is None and summary["honest"]["n"] == 2
    assert {size: (stats["honest"]["n"], stats["cross"])
            for size, stats in summary["by_size"].items()} == {"3": (1, None), "4": (1, None)}


@pytest.mark.parametrize("command", [
    ["identify"],
    ["sweep", "--probe", "bv:111", "--mapping", "0,1,2,3"],
    ["detect-fab", "--device", "alpine", "--fab", "scale:0.5",
     "--probe", "bv:111", "--mapping", "0,1,2,3"],
])
def test_identify_and_sweep_score_without_the_per_fingerprint_functions(
        corner_fleet, monkeypatch, command, capsys):
    # identify and sweep score all their jobs as arrays, whose rows the
    # per-fingerprint functions only reproduce one at a time; the detect
    # commands run one lone job per probe and score it through them
    per_job = ["detect", "estimate_fingerprint", "manhattan_avg", "run_rounds",
               "survival_from_counts"]
    calls = []
    for original in (estimate_fingerprint, survival_from_counts, detect, manhattan_avg,
                     match_device, run_rounds):
        def counted(*args, _original=original):
            calls.append(_original.__name__)
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if (name == "qprobe" or name.startswith("qprobe.")) \
                    and getattr(module, original.__name__, None) is original:
                monkeypatch.setattr(module, original.__name__, counted)
    assert main([*command, "--fleet", str(corner_fleet), *CORNER_PROBE]) == 0
    # detect-fab's two probes make two lone jobs, each estimated, sampled and scored once
    assert sorted(calls) == (sorted(per_job * 2) if command[0] == "detect-fab" else [])
    calls.clear()
    # the patches are live: a detect-sub verdict goes through each per-job one once
    assert main(["detect-sub", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--victim", "alpine", "--actual", "alpine"]) == 0
    assert sorted(calls) == per_job
    capsys.readouterr()


def count_pricing(monkeypatch) -> tuple[list, list]:
    """Two lists the runs fill: each ``key_rates`` call's (circuit, profile)
    pair of objects, and each ``topology_compatible`` call's topology."""
    key_rates, fits = qprobe.estimator.key_rates, qprobe.device.topology_compatible
    priced, checked = [], []

    def counted_rates(circuit, profile):
        priced.append((circuit, profile))
        return key_rates(circuit, profile)

    def counted_fit(circuit, topology):
        checked.append(topology)
        return fits(circuit, topology)

    # rebind each name in every package module that imported it
    for name, module in list(sys.modules.items()):
        if name == "qprobe" or name.startswith("qprobe."):
            for attr, original, counted in (("key_rates", key_rates, counted_rates),
                                            ("topology_compatible", fits, counted_fit)):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counted)
    return priced, checked


def distinct_pairs(priced: list) -> int:
    return len({(id(circuit), id(profile)) for circuit, profile in priced})


def test_identify_prices_each_device_once(monkeypatch, capsys):
    priced, checked = count_pricing(monkeypatch)
    assert main(["identify", "--fleet", str(DEMO_FLEET), *CORNER_PROBE]) == 0
    capsys.readouterr()
    # the estimate on the user side prices a device, and its job reuses the row
    assert len(priced) == distinct_pairs(priced) == len(checked) == 4


@pytest.mark.parametrize("probes", [1, 3])
def test_a_sweep_prices_each_device_once_per_probe(monkeypatch, probes, capsys):
    priced, checked = count_pricing(monkeypatch)
    extra = ["--probe", "bv:111", "--mapping", "0,1,2,3", "--probe", "bv:1", "--mapping", "3,4"]
    argv = ["sweep", "--fleet", str(DEMO_FLEET), *CORNER_PROBE, *extra[:4 * (probes - 1)]]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(priced) == distinct_pairs(priced) == len(checked) == 4 * probes


def identify_report(cloud) -> str:
    spec = ProbeSpec((("11", (0, 1, 3)),))
    return run_identify(cloud, spec, shots=300, rounds=2, seed=7)[0].to_json()


def test_forged_and_true_profiles_are_priced_apart(tmp_path, monkeypatch, capsys):
    priced, _ = count_pricing(monkeypatch)
    assert main(["identify", "--fleet", str(DEMO_FLEET.with_name("fleet-fab.json")),
                 *CORNER_PROBE]) == 0
    capsys.readouterr()
    assert len(priced) == 1
    # a forgery baked into the fleet, and one mounted as an attack
    baked = fleetgen.write_fleet(tmp_path, fleetgen.corner_profiles(),
                                 extra={"dune": {"fabrication": {"scale": 0.5}}})
    mounted = load_fleet(DEMO_FLEET)
    mounted.set_attack(AttackConfig.fabrication("dune", scale=0.5))
    reports = []
    for make in (lambda: load_fleet(baked), lambda: mounted):
        priced.clear()
        reports.append(identify_report(make()))
        # four advertised profiles, and dune's true one for its job
        assert len(priced) == distinct_pairs(priced) == 5
        assert [p.device_id for _, p in priced] == ["alpine", "boreal", "cascade", "dune",
                                                    "dune"]
    # pricing every job afresh gives the same bytes
    monkeypatch.setattr(QuantumCloud, "price", lambda self, circuit, profile:
                        qprobe.estimator.key_rates(circuit, profile))
    assert reports == [identify_report(load_fleet(baked)), identify_report(mounted)]
    # dune's job ran at its true rates, so it does not match its forged profile
    assert json.loads(reports[0])["trials"][3]["matched"] != "dune"


def test_a_lone_submit_prices_its_own_job(monkeypatch):
    priced, checked = count_pricing(monkeypatch)
    cloud = load_fleet(DEMO_FLEET)
    circuit = compose_probe([("11", (0, 1, 3))], cloud.get_profile("alpine").topology)
    cloud.price(circuit, cloud.get_profile("alpine"))
    for _ in range(2):
        cloud.submit("alpine", circuit, 100, 1, 7)
    # no memo outside a batch: every call prices
    assert len(priced) == len(checked) == 3
    with cloud.batch():
        cloud.submit("alpine", circuit, 100, 1, 7)
        cloud.submit("alpine", circuit, 100, 1, 8)
    assert len(priced) == 4
    # the memo ended with the batch
    cloud.submit("alpine", circuit, 100, 1, 7)
    assert len(priced) == 5


def test_a_topology_error_is_raised_at_its_own_submit_in_a_batch(tmp_path, monkeypatch):
    priced, checked = count_pricing(monkeypatch)
    cloud = load_fleet(fleetgen.write_fleet(tmp_path, [*fleetgen.corner_profiles(),
                                                       tiny_profile()]))
    circuit = compose_probe([("11", (0, 1, 3))], cloud.get_profile("alpine").topology)
    message = "circuit does not fit the topology of 'tiny'"
    with cloud.batch():
        with pytest.raises(TopologyError, match=message):
            cloud.price(circuit, cloud.get_profile("tiny"))
        # the earlier checks still come first, in their order
        with pytest.raises(ValueError, match="shots must be positive"):
            cloud.submit("tiny", circuit, 0, 1, 0)
        with pytest.raises(ValueError, match="outside the 64-bit range"):
            cloud.submit("tiny", circuit, 10, 1, 2**64)
        for _ in range(2):
            with pytest.raises(TopologyError, match=message):
                cloud.submit("tiny", circuit, 10, 1, 0)
        job = cloud.submit("alpine", circuit, 10, 1, 0)
    assert job.counts.shots == 10
    assert len(priced) == len(checked) == 2


def count_sampler_calls_and_jobs(monkeypatch) -> tuple[list[int], list[int]]:
    """Two lists the runs fill: each sampler call's flip evaluations, shots x
    len(keys), and each job's, shots x rounds x events, one per
    ``QuantumCloud.submit`` that returned."""
    calls, jobs = [], []
    sampler = qprobe.devicesim.get_sampler()

    def counted(ideal, keys, thresholds, bits, shots):
        calls.append(shots * len(keys))
        return sampler(ideal, keys, thresholds, bits, shots)

    submit = QuantumCloud.submit

    def submitted(self, device_id, circuit, shots, rounds, seed):
        job = submit(self, device_id, circuit, shots, rounds, seed)
        jobs.append(shots * rounds * len(circuit.flip_bits))
        return job

    monkeypatch.setattr(qprobe.devicesim, "get_sampler", lambda: counted)
    monkeypatch.setattr(QuantumCloud, "submit", submitted)
    return calls, jobs


def test_a_lone_submit_makes_one_sampler_call_per_round(monkeypatch):
    calls, jobs = count_sampler_calls_and_jobs(monkeypatch)
    cloud = load_fleet(DEMO_FLEET)
    circuit = compose_probe([("11", (0, 1, 3))], cloud.get_profile("alpine").topology)
    cloud.submit("alpine", circuit, 100, 2, 7)
    assert len(calls) == 2 and len(jobs) == 1
    assert sum(calls) == sum(jobs) == 100 * 2 * len(circuit.flip_bits)


@pytest.mark.parametrize("command, rounds, probes", [
    (["identify", *CORNER_PROBE], 3, 1),
    (["sweep", *CORNER_PROBE, "--probe", "bv:111", "--mapping", "0,1,2,3"], 2, 2),
])
def test_a_probe_samples_all_its_jobs_in_one_sampler_call_per_round(
        monkeypatch, tmp_path, command, rounds, probes, capsys):
    calls, jobs = count_sampler_calls_and_jobs(monkeypatch)
    assert main([*command, "--fleet", str(DEMO_FLEET), "--shots", "200",
                 "--rounds", str(rounds), "--out", str(tmp_path)]) in (0, 2)
    capsys.readouterr()
    assert len(calls) == probes * rounds
    assert sum(calls) == sum(jobs)
    # one submit per job: a scored identify row, or a sweep row's honest pair
    trials = json.loads((tmp_path / f"{command[0]}.json").read_text())["trials"]
    scored = [t for t in trials if t.get("distances") or t.get("pair") == "honest"]
    assert len(jobs) == len(scored) == probes * len(load_fleet(DEMO_FLEET).device_ids())


def test_unknown_device_exits_one(corner_fleet, capsys):
    code = main(["detect-sub", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--victim", "alpine", "--actual", "mirage"])
    assert code == 1
    capsys.readouterr()


def test_usage_errors_exit_one(tmp_path, monkeypatch, capsys):
    submitted = []
    monkeypatch.setattr(QuantumCloud, "submit", lambda *args: submitted.append(args))
    a_file = tmp_path / "report"
    a_file.write_text("")
    fleet = ["--fleet", str(DEMO_FLEET), *CORNER_PROBE]
    for argv in ([], ["frobnicate"], ["identify", *fleet, "--verbose"],
                 ["identify", "--fle", str(DEMO_FLEET), *CORNER_PROBE],
                 ["identify", *fleet, "--shots", "abc"],
                 ["identify", *fleet, "--out", str(a_file)],
                 ["identify", "--fleet", "/does/not/exist.json", *CORNER_PROBE]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, argv
        if "--fle" in argv:
            # a misspelt required option is a leftover, not a missing option
            assert captured.err.startswith("error: unrecognized arguments: --fle "), argv
    assert submitted == []
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(command in out for command in ("identify", "detect-sub", "detect-fab", "trace"))
    for command, own in [("identify", "--fleet"), ("detect-sub", "--victim"),
                         ("detect-fab", "--fab"), ("sweep", "--format"),
                         ("trace", "--profile")]:
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert own in out and "--probe" in out
        assert ("--threshold" in out) == command.startswith("detect")


def test_main_keeps_no_reference_to_its_output_streams():
    sinks = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sinks[0]), contextlib.redirect_stderr(sinks[1]):
        assert main(["detect-sub", "--fleet", str(DEMO_FLEET), *CORNER_PROBE,
                     "--victim", "alpine", "--actual", "dune"]) == 2
        assert main(["frobnicate"]) == 1
    assert "detect-sub: fraudulent" in sinks[0].getvalue()
    assert "frobnicate" in sinks[1].getvalue()
    refs = [weakref.ref(sink) for sink in sinks]
    del sinks
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


# A child interpreter that refuses every import from outside the standard
# library, numpy and qprobe itself.
STDLIB_AND_NUMPY_ONLY = """
import runpy, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] not in {*sys.stdlib_module_names, "numpy", "qprobe"}:
            raise ImportError(f"{name} is not in the standard library or numpy")

sys.meta_path.insert(0, Refuse())
runpy.run_module("qprobe.cli", run_name="__main__", alter_sys=True)
"""


def test_the_command_runs_on_the_standard_library_and_numpy(tmp_path):
    argv = ["detect-sub", "--fleet", str(DEMO_FLEET), "--victim", "alpine", "--actual", "dune",
            *CORNER_PROBE, "--seed", "7", "--format", "csv"]
    source = Path(qprobe.device.__file__).resolve().parents[1]
    child = subprocess.run([sys.executable, "-c", STDLIB_AND_NUMPY_ONLY, *argv],
                           capture_output=True, cwd=tmp_path, timeout=120,
                           env={**os.environ, "PYTHONPATH": str(source)})
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 2
    assert (child.returncode, child.stderr) == (2, b"")
    assert child.stdout == out.getvalue().encode()
    assert child.stdout.endswith(b"detect-sub: fraudulent\n")


# --- report files ----------------------------------------------------------------


def test_reports_are_byte_identical_across_runs(corner_fleet, tmp_path, capsys):
    argv = ["identify", "--fleet", str(corner_fleet), *CORNER_PROBE]
    paths = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        paths.append(out / "identify.json")
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_identify_csv_is_a_distance_matrix(corner_fleet, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["identify", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    capsys.readouterr()
    lines = (out / "identify.csv").read_text().splitlines()
    assert lines[0] == "device,alpine,boreal,cascade,dune"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "alpine"
    # repr round-trips every float exactly
    assert all(float(cell) >= 0 for cell in first[1:])


def test_sweep_csv_columns_are_sorted(corner_fleet, tmp_path, capsys):
    out = tmp_path / "report"
    code = main(["sweep", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--out", str(out), "--format", "csv"])
    assert code == 0
    capsys.readouterr()
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "candidate,device,distance,pair,probe,seed,size"
    assert len(lines) == 1 + 16  # 4 devices x 4 candidates


def test_trace_prints_the_survival_walk(tmp_path, capsys):
    prof = fleetgen.corner_profiles()[0]
    path = tmp_path / "alpine.json"
    path.write_text(dump_profile(prof))
    code = main(["trace", "--profile", str(path), *CORNER_PROBE])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("init")
    assert "q0@0 1.000000" in lines[0]
    circuit = compose_probe([("11", (0, 1, 3))], prof.topology)
    est = estimate_fingerprint(circuit, prof)
    assert f"q0@0 {est[0]:.6f}" in lines[-1]
    assert f"q1@1 {est[1]:.6f}" in lines[-1]
    # one line per op plus the initial state
    assert len(lines) == len(circuit.ops) + 1


def test_committed_demo_fleet_matches_the_generator():
    # the README examples run against fleets/demo; keep it in sync with fleetgen
    demo = Path(__file__).resolve().parent.parent / "fleets" / "demo"
    for prof in fleetgen.corner_profiles() + [fleetgen.grit_profile()]:
        assert (demo / f"{prof.device_id}.json").read_text() == dump_profile(prof)
    corners = load_fleet(demo / "fleet.json")
    assert corners.device_ids() == ["alpine", "boreal", "cascade", "dune"]
    fab = load_fleet(demo / "fleet-fab.json")
    assert fab.device_ids() == ["grit"]
