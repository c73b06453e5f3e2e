"""Command line behaviour: parsing, exit codes, report files.

Exit code contract: 0 for honest or fully identified, 2 when any fraud (or
identification miss) shows up, 1 for configuration mistakes.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import fleetgen
import qprobe.device
from qprobe import DeviceProfile, Topology, dump_profile, estimate_fingerprint, load_fleet
from qprobe.circuit import compose_probe
from qprobe.cli import CommandError, ProbeSpec, main, parse_probe_args, parse_strategy

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
])
def test_configuration_mistakes_exit_one(corner_fleet, argv_tail, capsys):
    # the second run in the same process meets warm profile and probe caches
    errors = []
    for _ in range(2):
        code = main(["identify", "--fleet", str(corner_fleet), *argv_tail])
        assert code == 1
        errors.append(capsys.readouterr().err)
    assert "error:" in errors[0] and errors[1] == errors[0]


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


@pytest.mark.parametrize("command, message", [
    (["detect-sub", "--victim", "tiny", "--actual", "alpine"],
     "probe does not fit victim device 'tiny'"),
    (["detect-fab", "--device", "tiny", "--fab", "scale:0.5"],
     "probe 'bv:11@0,1,3' does not fit device 'tiny'"),
])
def test_probe_that_does_not_fit_the_attacked_device_exits_one(tmp_path, command, message,
                                                               capsys):
    tiny = DeviceProfile(
        device_id="tiny",
        topology=Topology(2, [(0, 1)]),
        cnot_error={(0, 1): 0.01},
        single_qubit_error={0: 0.0, 1: 0.0},
        measurement_error={0: 0.01, 1: 0.01},
        calibration_time=fleetgen.CAL_TIME,
    )
    # the probe is built on alpine, the first device it fits
    fleet = fleetgen.write_fleet(tmp_path, [*fleetgen.corner_profiles(), tiny])
    for _ in range(2):  # the second run meets warm caches
        code = main([*command, "--fleet", str(fleet), *CORNER_PROBE])
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: {message}" in captured.err
        assert captured.out == ""


def test_identify_checks_topology_once_per_side(corner_fleet, monkeypatch, capsys):
    original = qprobe.device.topology_compatible
    calls = []

    def counted(circuit, topology):
        calls.append(topology)
        return original(circuit, topology)

    # rebind the name in every package module that imported it
    for name, module in list(sys.modules.items()):
        if name.startswith("qprobe.") and getattr(module, "topology_compatible", None) is original:
            monkeypatch.setattr(module, "topology_compatible", counted)
    assert main(["identify", "--fleet", str(corner_fleet), *CORNER_PROBE]) == 0
    capsys.readouterr()
    # per device: the estimate on the user side and the run on the platform side
    assert len(calls) == 2 * 4


def test_unknown_device_exits_one(corner_fleet, capsys):
    code = main(["detect-sub", "--fleet", str(corner_fleet), *CORNER_PROBE,
                 "--victim", "alpine", "--actual", "mirage"])
    assert code == 1
    capsys.readouterr()


def test_usage_errors_exit_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["identify", "--fleet", "/does/not/exist.json", *CORNER_PROBE]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


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
