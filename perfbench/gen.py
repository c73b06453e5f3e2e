"""Seeded fleets and op plans for the benchmark workloads.

The benchmark owns these generators so that edits to the test fixtures
cannot change what it measures; its own test checks that the drift fleet
still equals ``tests/fleetgen.drift_profiles()`` and ``DRIFT_PROBES``.

A seed changes the inputs of a workload but never its shape: every seed
gives the same number of ops of each kind, so run-to-run spread across
seeds measures the machine, not the mix.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

from qprobe import DeviceProfile, Topology, dump_profile

CAL_TIME = "2026-02-11T06:00:00Z"

# --- drift: the criterion-8 campaign on three 127-qubit line devices ---------

DRIFT_HIDDEN_RATE = 5e-4
DRIFT_SHOTS = 4000
DRIFT_ROUNDS = 3
DRIFT_SEEDS_PER_PASS = 10

# One secret per probe size, three line placements each.  Size-3 placements
# put the ancilla between its inputs (no routing SWAPs); larger sizes put it
# at the end of the line so routing depth grows with size.
DRIFT_PROBES = {
    3: tuple(("11", (base - 1, base + 1, base)) for base in (10, 50, 90)),
    4: tuple(("111", (base, base + 1, base + 2, base + 3)) for base in (10, 50, 90)),
    9: tuple(("11111111", tuple(range(base, base + 9))) for base in (10, 50, 90)),
}


def line_topology(n: int = 127) -> Topology:
    return Topology(n, [(i, i + 1) for i in range(n - 1)])


def _profile(device_id: str, topology: Topology, cnot, single, meas) -> DeviceProfile:
    return DeviceProfile(device_id=device_id, topology=topology, cnot_error=cnot,
                         single_qubit_error=single, measurement_error=meas,
                         calibration_time=CAL_TIME)


def drift_profiles() -> list[DeviceProfile]:
    """Three line devices with low, slightly offset rates (fixed, not seeded)."""
    topo = line_topology(127)
    rng = np.random.default_rng(20260211)
    out = []
    for device_id, cnot_base, meas_base in (("osprey", 0.0010, 0.006),
                                            ("kestrel", 0.0012, 0.013),
                                            ("harrier", 0.0014, 0.020)):
        cnot = {e: cnot_base + float(rng.uniform(0.0, 0.0002)) for e in topo.sorted_edges()}
        single = {q: 0.0003 + float(rng.uniform(0.0, 0.0001)) for q in range(127)}
        meas = {q: meas_base + float(rng.uniform(0.0, 0.002)) for q in range(127)}
        out.append(_profile(device_id, topo, cnot, single, meas))
    return out


def drift_plan(seed: int, device_ids: list[str]) -> list[tuple]:
    """(device, secret, mapping, job seed) for the 270 jobs of one drift pass.

    The seed draws the ten job seeds; criterion 8 uses 31*s+7 instead.
    """
    rng = random.Random(seed)
    job_seeds = [rng.randrange(2 ** 31) for _ in range(DRIFT_SEEDS_PER_PASS)]
    return [(device_id, secret, mapping, job_seed)
            for _, placements in sorted(DRIFT_PROBES.items())
            for job_seed in job_seeds
            for device_id in device_ids
            for secret, mapping in placements]


# --- scan: many short CLI commands over a wide 5-qubit fleet -----------------

T5_EDGES = ((0, 1), (1, 2), (1, 3), (3, 4))
SCAN_DEVICES = 24
SCAN_SHOTS = 500
SCAN_ROUNDS = 1
# Sizes 3/4/5 at three placements each; some placements need routing SWAPs.
SCAN_PROBES = (
    ("11", "0,1,3"), ("11", "2,1,0"), ("11", "4,3,1"),
    ("111", "0,1,2,3"), ("111", "4,3,2,1"), ("111", "2,1,3,0"),
    ("1111", "0,1,2,3,4"), ("1111", "4,3,2,1,0"), ("1111", "1,0,3,4,2"),
)
# Commands per pass, by kind.  Each kind uses every probe equally often, so
# a seed never changes the pass's cost profile.  Sorted by latency the kinds
# run detect-sub < detect-fab < identify < sweep; the counts put the median
# inside the identify block and p90 inside the sweep block, away from a jump
# between kinds.
SCAN_MIX = (("detect-sub", 9), ("detect-fab", 9), ("identify", 18), ("sweep", 9))
SCAN_STRATEGIES = ("scale:0.5", "scale:0.7", "set:Meas_1=0.001")


def scan_profiles(seed: int) -> list[tuple[DeviceProfile, float]]:
    """(profile, hidden rate) for each device of the seeded scan fleet.

    Device i has high readout error (+0.12) on the registers set in the
    bits of i + 4, so fingerprints spread out the way the demo fleet's
    corner devices do; the seed jitters every rate.
    """
    rng = np.random.default_rng(seed % 2 ** 64)  # numpy takes no negative seed
    topo = Topology(5, T5_EDGES)
    out = []
    for i in range(SCAN_DEVICES):
        cnot = {e: float(rng.uniform(0.003, 0.006)) for e in topo.sorted_edges()}
        single = {q: float(rng.uniform(0.0003, 0.0007)) for q in range(5)}
        meas = {q: float(rng.uniform(0.005, 0.02)) + 0.12 * ((i + 4) >> q & 1)
                for q in range(5)}
        hidden = float(rng.uniform(0.0, 5e-4))
        out.append((_profile(f"s{i:02d}", topo, cnot, single, meas), hidden))
    return out


def _probe_args(probes) -> list[str]:
    args: list[str] = []
    for secret, mapping in probes:
        args += ["--probe", f"bv:{secret}", "--mapping", mapping]
    return args


def scan_plan(seed: int, fleet: str, out_dir: str) -> list[list[str]]:
    """argv lists for one scan pass, in seeded order."""
    rng = random.Random(seed)
    ids = [f"s{i:02d}" for i in range(SCAN_DEVICES)]
    common = ["--fleet", fleet, "--shots", str(SCAN_SHOTS), "--rounds", str(SCAN_ROUNDS),
              "--out", out_dir]
    plan = []
    for kind, count in SCAN_MIX:
        for k in range(count):
            probe = SCAN_PROBES[k % len(SCAN_PROBES)]
            argv = [kind, *common, "--seed", str(rng.randrange(10 ** 6))]
            if kind == "identify":
                argv += _probe_args([probe])
            elif kind == "detect-sub":
                victim, actual = rng.sample(ids, 2)
                argv += ["--victim", victim, "--actual", actual, *_probe_args([probe])]
            elif kind == "detect-fab":
                second = SCAN_PROBES[(k + 4) % len(SCAN_PROBES)]
                argv += ["--device", rng.choice(ids), "--fab", rng.choice(SCAN_STRATEGIES),
                         *_probe_args([probe, second])]
            else:
                argv += _probe_args(SCAN_PROBES)
            plan.append(argv)
    rng.shuffle(plan)
    return plan


# --- demo-cold: the README demo commands, each a fresh process --------------

DEMO_COMMANDS = (
    ["identify", "--fleet", "fleets/demo/fleet.json", "--probe", "bv:11",
     "--mapping", "0,1,3", "--seed", "7"],
    ["detect-sub", "--fleet", "fleets/demo/fleet.json", "--victim", "alpine",
     "--actual", "dune", "--probe", "bv:11", "--mapping", "0,1,3", "--seed", "7",
     "--format", "csv"],
    ["detect-fab", "--fleet", "fleets/demo/fleet-fab.json", "--device", "grit",
     "--fab", "scale:0.5", "--probe", "bv:11", "--mapping", "0,1,3", "--probe", "bv:111",
     "--mapping", "0,1,2,3", "--seed", "7", "--format", "csv"],
    ["sweep", "--fleet", "fleets/demo/fleet.json", "--probe", "bv:11", "--mapping",
     "0,1,3", "--probe", "bv:111", "--mapping", "0,1,2,3", "--seed", "3"],
)


def demo_plan(seed: int) -> list[list[str]]:
    """The README commands verbatim; the seed only fixes their order."""
    plan = [list(argv) for argv in DEMO_COMMANDS]
    random.Random(seed).shuffle(plan)
    return plan


# --- writing fleets -----------------------------------------------------------

def write_fleet(fleet_dir: Path, entries: list[tuple[DeviceProfile, float | None]]) -> Path:
    """Write profile files plus a fleet config; returns the config path."""
    fleet_dir.mkdir(parents=True, exist_ok=True)
    config = []
    for profile, hidden in entries:
        (fleet_dir / f"{profile.device_id}.json").write_text(dump_profile(profile))
        entry: dict = {"profile_path": f"{profile.device_id}.json"}
        if hidden is not None:
            entry["hidden_rate"] = hidden
        config.append(entry)
    path = fleet_dir / "fleet.json"
    path.write_text(json.dumps(config, indent=2))
    return path
