"""Catalog behaviour, attack modes and fleet config loading."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetgen
import qprobe.circuit
import qprobe.devicesim
import qprobe.estimator
from qprobe import (
    AttackConfig,
    CatalogEntry,
    NoiseSpec,
    QuantumCloud,
    Topology,
    TopologyError,
    estimate_fingerprint,
    fabricate,
    load_fleet,
    run_rounds,
)
from qprobe.circuit import TranspiledCircuit, build_bv, compose_probe, transpile
from qprobe.device import DeviceProfile, ProfileError, dump_profile, load_profile


def corner_cloud() -> QuantumCloud:
    cloud = QuantumCloud()
    for prof in fleetgen.corner_profiles():
        cloud.register(CatalogEntry(prof.device_id, prof, NoiseSpec(prof)))
    return cloud


def line_cloud() -> QuantumCloud:
    line = fleetgen.drift_profiles()[0]
    cloud = QuantumCloud()
    cloud.register(CatalogEntry(line.device_id, line, NoiseSpec(line)))
    return cloud


def probe():
    return transpile(build_bv("11"), fleetgen.t5(), [0, 1, 3])


DEMO_FLEET = Path(__file__).resolve().parents[1] / "fleets" / "demo" / "fleet.json"


def test_catalog_entry_consistency():
    alpine, boreal = fleetgen.corner_profiles()[:2]
    with pytest.raises(ValueError, match="mixes device ids"):
        CatalogEntry("alpine", alpine, NoiseSpec(boreal))
    tiny = DeviceProfile(
        device_id="alpine",
        topology=Topology(2, [(0, 1)]),
        cnot_error={(0, 1): 0.01},
        single_qubit_error={0: 0.0, 1: 0.0},
        measurement_error={0: 0.01, 1: 0.01},
        calibration_time=fleetgen.CAL_TIME,
    )
    with pytest.raises(ValueError, match="topology"):
        CatalogEntry("alpine", alpine, NoiseSpec(tiny))


def test_attack_config_validation():
    AttackConfig.honest()
    AttackConfig.substitution("a", "b")
    AttackConfig.fabrication("a", scale=0.5)
    AttackConfig.fabrication("a", overrides={"Meas_0": 0.1})
    with pytest.raises(ValueError, match="victim and actual"):
        AttackConfig(mode="substitution", victim="a")
    with pytest.raises(ValueError, match="device id"):
        AttackConfig(mode="fabrication", scale=0.5)
    with pytest.raises(ValueError, match="exactly one"):
        AttackConfig.fabrication("a", scale=0.5, overrides={"Meas_0": 0.1})
    with pytest.raises(ValueError, match="unknown attack mode"):
        AttackConfig(mode="drift")


def test_register_rejects_duplicates_and_lists_sorted():
    cloud = corner_cloud()
    assert cloud.device_ids() == ["alpine", "boreal", "cascade", "dune"]
    with pytest.raises(ValueError, match="already registered"):
        cloud.register(cloud.true_entry("alpine"))
    with pytest.raises(KeyError, match="no device"):
        cloud.get_profile("mirage")


def test_set_attack_requires_known_devices():
    cloud = corner_cloud()
    with pytest.raises(KeyError, match="mirage"):
        cloud.set_attack(AttackConfig.substitution("alpine", "mirage"))
    cloud.set_attack(AttackConfig.substitution("alpine", "boreal"))
    assert cloud.attack.mode == "substitution"
    # set_attack is the one way to mount an attack, so no name goes unchecked
    with pytest.raises(TypeError):
        QuantumCloud(AttackConfig.substitution("alpine", "mirage"))


@pytest.mark.parametrize("attack", [
    AttackConfig.fabrication("dune", scale=2.0),
    AttackConfig.fabrication("dune", overrides={"CNOT_(0,4)": 0.1}),
])
def test_a_bad_forgery_fails_when_the_attack_is_mounted(attack):
    cloud = corner_cloud()
    cloud.set_attack(AttackConfig.substitution("alpine", "boreal"))
    with pytest.raises(ProfileError):
        cloud.set_attack(attack)
    # the attack already on stays on, and dune still advertises its own rates
    assert cloud.attack.mode == "substitution"
    assert cloud.get_profile("dune") is cloud.true_entry("dune").advertised


def test_honest_submission_matches_direct_execution():
    cloud = corner_cloud()
    circ = probe()
    job = cloud.submit("alpine", circ, shots=500, rounds=2, seed=40)
    direct = run_rounds(circ, cloud.true_entry("alpine").true_noise,
                        shots=500, rounds=2, seed=40)
    assert job.counts == direct
    assert (job.requested, job.executed_on) == ("alpine", "alpine")


def test_substitution_reroutes_only_the_victim():
    cloud = corner_cloud()
    cloud.set_attack(AttackConfig.substitution("alpine", "dune"))
    circ = probe()
    job = cloud.submit("alpine", circ, shots=500, rounds=1, seed=1)
    on_dune = run_rounds(circ, cloud.true_entry("dune").true_noise,
                         shots=500, rounds=1, seed=1)
    assert job.counts == on_dune
    assert (job.requested, job.executed_on) == ("alpine", "dune")
    # other devices still run their own jobs
    other = cloud.submit("boreal", circ, shots=500, rounds=1, seed=1)
    assert other.executed_on == "boreal"


def test_substitution_onto_an_incompatible_machine_fails_loudly():
    alpine = fleetgen.corner_profiles()[0]
    tiny = DeviceProfile(
        device_id="tiny",
        topology=Topology(2, [(0, 1)]),
        cnot_error={(0, 1): 0.01},
        single_qubit_error={0: 0.0, 1: 0.0},
        measurement_error={0: 0.01, 1: 0.01},
        calibration_time=fleetgen.CAL_TIME,
    )
    cloud = QuantumCloud()
    cloud.register(CatalogEntry("alpine", alpine, NoiseSpec(alpine)))
    cloud.register(CatalogEntry("tiny", tiny, NoiseSpec(tiny)))
    cloud.set_attack(AttackConfig.substitution("alpine", "tiny"))
    with pytest.raises(TopologyError, match="tiny"):
        cloud.submit("alpine", probe(), shots=10, rounds=1, seed=0)


# --- batches: jobs sampled together when the scope closes ----------------------


def grit_cloud() -> QuantumCloud:
    grit = fleetgen.grit_profile()
    cloud = QuantumCloud()
    cloud.register(CatalogEntry(grit.device_id, grit, NoiseSpec(grit, hidden_rate=0.02)))
    return cloud


FLEETS = {"demo": lambda: load_fleet(DEMO_FLEET), "grit": grit_cloud, "corner": corner_cloud}
# probes of three sizes on the 5-qubit T topology every one of those fleets shares
T5_PROBES = [probe(), compose_probe([("111", (0, 1, 2, 3))], fleetgen.t5()),
             compose_probe([("1", (3, 4))], fleetgen.t5())]
# any 64-bit seed, negative ones, and ones whose later rounds wrap past 2**64 - 1
SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**63, -1),
                  st.integers(2**64 - 3, 2**64 - 1))


def same_words(batched, lone) -> bool:
    return (batched.width == lone.width and np.array_equal(batched.words, lone.words)
            and np.array_equal(batched.word_counts, lone.word_counts))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batched_counts_equal_lone_submits_word_for_word(data):
    cloud = FLEETS[data.draw(st.sampled_from(sorted(FLEETS)), label="fleet")]()
    ids = cloud.device_ids()
    if data.draw(st.booleans(), label="substitution"):
        cloud.set_attack(AttackConfig.substitution(data.draw(st.sampled_from(ids)),
                                                   data.draw(st.sampled_from(ids))))
    # a few (probe, shots, rounds) settings, so that jobs share sampler calls
    alike = data.draw(st.lists(st.tuples(st.sampled_from(T5_PROBES), st.integers(1, 600),
                                         st.integers(1, 3)), min_size=1, max_size=3))
    jobs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(alike), SEEDS),
                              min_size=1, max_size=30), label="jobs")
    with cloud.batch():
        batched = [cloud.submit(device_id, circuit, shots, rounds, seed)
                   for device_id, (circuit, shots, rounds), seed in jobs]
    for (device_id, (circuit, shots, rounds), seed), job in zip(jobs, batched):
        lone = cloud.submit(device_id, circuit, shots, rounds, seed)
        assert (job.requested, job.executed_on) == (lone.requested, lone.executed_on)
        assert same_words(job.counts, lone.counts)


def test_batched_counts_do_not_depend_on_how_the_jobs_are_grouped(monkeypatch):
    """Alike jobs share sampler calls in groups of at most ``_MAX_POOLED_SHOTS``
    pooled words, one call per round each; no grouping changes a count."""
    cloud, circuit = corner_cloud(), probe()
    lone = [cloud.submit(device_id, circuit, 300, 2, seed).counts
            for seed, device_id in enumerate(cloud.device_ids() * 2)]
    calls = []
    sampler = qprobe.devicesim.get_sampler()
    monkeypatch.setattr(qprobe.devicesim, "get_sampler",
                        lambda: lambda *args: calls.append(len(args[0])) or sampler(*args))
    for bound, blocks in ((600, [1] * 8), (1200, [2] * 4), (2000, [3, 3, 2]), (2**24, [8])):
        monkeypatch.setattr(qprobe.devicesim, "_MAX_POOLED_SHOTS", bound)
        calls.clear()
        with cloud.batch():
            jobs = [cloud.submit(device_id, circuit, 300, 2, seed)
                    for seed, device_id in enumerate(cloud.device_ids() * 2)]
        assert calls == [b for b in blocks for _ in range(2)]
        assert all(same_words(job.counts, want) for job, want in zip(jobs, lone))


def test_jobs_of_equal_circuits_built_apart_share_sampler_calls(monkeypatch):
    cloud = corner_cloud()
    ids = cloud.device_ids() * 2
    lone = [cloud.submit(device_id, probe(), 300, 2, seed).counts
            for seed, device_id in enumerate(ids)]
    calls = []
    sampler = qprobe.devicesim.get_sampler()
    monkeypatch.setattr(qprobe.devicesim, "get_sampler",
                        lambda: lambda *args: calls.append(len(args[0])) or sampler(*args))
    with cloud.batch():
        # each job transpiles its own circuit: equal values, different objects
        jobs = [cloud.submit(device_id, probe(), 300, 2, seed)
                for seed, device_id in enumerate(ids)]
    assert len({id(job._outcome.circuit) for job in jobs}) == 8
    assert calls == [8, 8]
    assert all(same_words(job.counts, want) for job, want in zip(jobs, lone))


def tiny_profile() -> DeviceProfile:
    return DeviceProfile(device_id="tiny", topology=Topology(2, [(0, 1)]),
                         cnot_error={(0, 1): 0.01}, single_qubit_error={0: 0.0, 1: 0.0},
                         measurement_error={0: 0.01, 1: 0.01}, calibration_time=fleetgen.CAL_TIME)


@pytest.mark.parametrize("device_id, shots, rounds, seed, error, message", [
    ("alpine", 0, 1, 0, ValueError, "shots must be positive"),
    ("alpine", 10, 0, 0, ValueError, "rounds must be positive"),
    ("alpine", 0, 0, 0, ValueError, "rounds must be positive"),
    ("alpine", 2**24 + 1, 1, 2**64, ValueError,
     "shots 16777217 x rounds 1 exceeds the 16777216 shots one job may pool"),
    ("alpine", 2**12, 2**12 + 1, 0, ValueError,
     "shots 4096 x rounds 4097 exceeds the 16777216 shots one job may pool"),
    ("alpine", 10, 1, 2**64, ValueError,
     "seed 18446744073709551616 outside the 64-bit range [-2**63, 2**64)"),
    ("tiny", 10, 1, -2**63 - 1, ValueError,
     "seed -9223372036854775809 outside the 64-bit range [-2**63, 2**64)"),
    ("tiny", 10, 1, 0, TopologyError, "circuit does not fit the topology of 'tiny'"),
    ("saturated", 10, 1, 0, ValueError, "effective flip probability 1.0028 at op 4 not < 1"),
])
def test_a_batched_submit_raises_at_once_what_a_lone_one_raises(device_id, shots, rounds,
                                                               seed, error, message):
    alpine = fleetgen.corner_profiles()[0]
    saturated = load_profile(json.dumps({**json.loads(dump_profile(alpine)),
                                         "device_id": "saturated"}))
    cloud = QuantumCloud()
    cloud.register(CatalogEntry("alpine", alpine, NoiseSpec(alpine)))
    cloud.register(CatalogEntry("tiny", tiny_profile(), NoiseSpec(tiny_profile())))
    cloud.register(CatalogEntry("saturated", saturated, NoiseSpec(saturated, hidden_rate=0.999)))
    with pytest.raises(error) as lone:
        cloud.submit(device_id, probe(), shots, rounds, seed)
    assert str(lone.value) == message
    with cloud.batch():
        with pytest.raises(error) as batched:
            cloud.submit(device_id, probe(), shots, rounds, seed)
        # the batch goes on: identify skips a device that does not fit
        job = cloud.submit("alpine", probe(), 100, 2, 5)
    assert str(batched.value) == message
    assert same_words(job.counts, cloud.submit("alpine", probe(), 100, 2, 5).counts)


def test_a_batched_result_is_read_only_after_its_batch_closes():
    cloud = corner_cloud()
    with cloud.batch():
        job = cloud.submit("alpine", probe(), 100, 1, 0)
        with pytest.raises(RuntimeError, match="sampled when its batch closes"):
            job.counts
    assert job.counts.shots == 100


def test_an_exception_leaving_a_batch_samples_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(qprobe.devicesim, "get_sampler", lambda: calls.append)
    cloud = corner_cloud()
    with pytest.raises(KeyError, match="no device"):
        with cloud.batch():
            job = cloud.submit("alpine", probe(), 100, 1, 0)
            cloud.submit("nowhere", probe(), 100, 1, 0)
    assert calls == []
    with pytest.raises(RuntimeError, match="this one was not sampled"):
        job.counts
    monkeypatch.undo()
    # the cloud is out of the batch: a lone submit samples at once
    assert cloud.submit("alpine", probe(), 100, 1, 0).counts.shots == 100


def test_batches_do_not_nest():
    cloud = corner_cloud()
    with pytest.raises(RuntimeError, match="batches do not nest"):
        with cloud.batch():
            job = cloud.submit("alpine", probe(), 100, 1, 0)
            with cloud.batch():
                pass
    with pytest.raises(RuntimeError, match="not sampled"):
        job.counts
    # a refused nesting leaves no batch open behind it
    with cloud.batch():
        job = cloud.submit("alpine", probe(), 100, 1, 0)
    assert job.counts.shots == 100


def count_build_walk_and_fit_calls(monkeypatch) -> Counter:
    calls: Counter = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count(TranspiledCircuit, "__post_init__")
    count(qprobe.circuit, "_walk")
    # the estimator owns the fit check; the simulator calls it there too
    count(qprobe.estimator, "topology_compatible")
    return calls


def test_a_job_walks_its_probe_once_and_checks_topology_once(monkeypatch):
    calls = count_build_walk_and_fit_calls(monkeypatch)
    cloud = corner_cloud()
    circuit = compose_probe([("11", (0, 1, 3))], fleetgen.t5())
    estimate_fingerprint(circuit, cloud.get_profile("alpine"))
    assert calls["topology_compatible"] == 1
    cloud.submit("alpine", circuit, shots=100, rounds=3, seed=0)
    assert calls["topology_compatible"] == 2
    assert calls["__post_init__"] == 1
    assert calls["_walk"] == 1


def test_a_composite_probe_is_built_and_walked_once(monkeypatch):
    calls = count_build_walk_and_fit_calls(monkeypatch)
    cloud = line_cloud()
    line = cloud.get_profile(cloud.device_ids()[0])
    circuit = compose_probe(fleetgen.DRIFT_PROBES[4][:2], line.topology)
    estimate_fingerprint(circuit, line)
    assert calls["topology_compatible"] == 1
    cloud.submit(line.device_id, circuit, shots=100, rounds=3, seed=0)
    assert calls["topology_compatible"] == 2
    assert calls["__post_init__"] == 1
    assert calls["_walk"] == 1


def test_a_job_prices_each_error_key_once_per_side(monkeypatch):
    priced = []
    rate_for = DeviceProfile.rate_for

    def counted(profile, key):
        priced.append(key)
        return rate_for(profile, key)
    monkeypatch.setattr(DeviceProfile, "rate_for", counted)
    line = line_cloud()
    composite = compose_probe(fleetgen.DRIFT_PROBES[4][:2], fleetgen.drift_profiles()[0].topology)
    for cloud, circuit in ((corner_cloud(), probe()), (line, composite)):
        device_id = cloud.device_ids()[0]
        # many flip rows share a key, so pricing per row would cost more calls
        assert len(circuit.flip_slots) > len(circuit.error_keys)
        priced.clear()
        estimate_fingerprint(circuit, cloud.get_profile(device_id))
        assert priced == list(circuit.error_keys)
        cloud.submit(device_id, circuit, shots=100, rounds=3, seed=0)
        assert priced == 2 * list(circuit.error_keys)


def test_fabrication_doctors_only_the_advertised_profile():
    cloud = corner_cloud()
    cloud.set_attack(AttackConfig.fabrication("cascade", scale=0.5))
    seen = cloud.get_profile("cascade")
    truth = cloud.true_entry("cascade").true_noise.true_profile
    assert seen == fabricate(truth, scale=0.5)
    # forged once, when the attack was mounted
    assert cloud.get_profile("cascade") is seen
    assert cloud.get_profile("alpine") == cloud.true_entry("alpine").advertised
    # execution still uses the true rates
    job = cloud.submit("cascade", probe(), shots=500, rounds=1, seed=2)
    honest = run_rounds(probe(), NoiseSpec(truth), shots=500, rounds=1, seed=2)
    assert job.counts == honest


def test_load_fleet_resolves_paths_and_bakes_in_config(tmp_path):
    config = fleetgen.write_fleet(
        tmp_path, fleetgen.corner_profiles(),
        extra={"alpine": {"hidden_rate": 0.002},
               "dune": {"fabrication": {"scale": 0.5}}})
    cloud = load_fleet(config)
    assert cloud.device_ids() == ["alpine", "boreal", "cascade", "dune"]
    assert cloud.true_entry("alpine").true_noise.hidden_rate == 0.002
    assert cloud.true_entry("boreal").true_noise.hidden_rate == 0.0
    dune = cloud.true_entry("dune")
    assert dune.advertised == fabricate(dune.true_noise.true_profile, scale=0.5)

    # the argument overrides every per-device hidden rate
    flat = load_fleet(config, hidden_rate=0.01)
    assert flat.true_entry("alpine").true_noise.hidden_rate == 0.01
    assert flat.true_entry("boreal").true_noise.hidden_rate == 0.01


def test_load_fleet_sees_an_edited_profile_at_once(tmp_path):
    config = fleetgen.write_fleet(tmp_path, fleetgen.corner_profiles())
    before = load_fleet(config).get_profile("alpine")
    # the same files give the same shared profiles
    assert load_fleet(config).get_profile("alpine") is before
    edited = fabricate(before, overrides={"Meas_0": 0.25})
    (tmp_path / "alpine.json").write_text(dump_profile(edited))
    after = load_fleet(config).get_profile("alpine")
    assert after == edited and after.measurement_error[0] == 0.25
    # a file broken after a good load fails on every load
    (tmp_path / "alpine.json").write_text('{"device_id": "alpine"}')
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^fleet entry 0 \(alpine.json\): num_qubits: missing"):
            load_fleet(config)


def test_load_fleet_config_errors(tmp_path):
    bad = tmp_path / "fleet.json"
    bad.write_text(json.dumps({"profile_path": "x.json"}))
    with pytest.raises(ValueError, match="JSON list"):
        load_fleet(bad)
    bad.write_text(json.dumps([{"hidden_rate": 0.1}]))
    with pytest.raises(ValueError, match="entry 0: missing profile_path"):
        load_fleet(bad)
    bad.write_text(json.dumps([{"profile_path": "alpine.json", "hiden_rate": 0.3}]))
    with pytest.raises(ValueError, match="^fleet entry 0: unknown key 'hiden_rate'$"):
        load_fleet(bad)
    bad.write_text(json.dumps([{"profile_path": "alpine.json",
                                "fabrication": {"scale": 0.5, "overides": {}}}]))
    with pytest.raises(ValueError, match="^fleet entry 0: fabrication: unknown key 'overides'$"):
        load_fleet(bad)
    # a repeated key would silently keep its last value
    bad.write_text('[{"profile_path": "alpine.json", "profile_path": "boreal.json", '
                   '"hidden_rate": 0.5, "hidden_rate": 0.0}]')
    with pytest.raises(ValueError, match="^fleet config: repeated key 'profile_path'"):
        load_fleet(bad)
    good = fleetgen.write_fleet(tmp_path, fleetgen.corner_profiles())
    for rate in (1.0, float("nan")):
        with pytest.raises(ValueError, match="^hidden_rate .* outside"):
            load_fleet(good, hidden_rate=rate)
