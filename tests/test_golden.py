"""Byte-exact stdout of fixed CLI commands, under each sampling kernel.

The first four commands are the README demo; the others add a composite
line probe on the drift fleet, a sweep with a negative seed and a routed
trace.  Their stdout is stored under ``tests/golden/``.  A change that moves
one byte of a report fails here, whichever kernel samples the flips.

To re-record after a change meant to alter reports:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

import fleetgen
import qprobe.devicesim
from qprobe._flipcore import compiled_sampler, sample_packed_numpy
from qprobe.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEMO = Path(__file__).resolve().parents[1] / "fleets" / "demo"

# "{demo}" is the committed demo fleet directory, "{drift}" the drift fleet config.
GOLDEN_COMMANDS = {
    "identify": ["identify", "--fleet", "{demo}/fleet.json", "--probe", "bv:11",
                 "--mapping", "0,1,3", "--seed", "7"],
    "detect-sub": ["detect-sub", "--fleet", "{demo}/fleet.json", "--victim", "alpine",
                   "--actual", "dune", "--probe", "bv:11", "--mapping", "0,1,3", "--seed", "7",
                   "--format", "csv"],
    "detect-fab": ["detect-fab", "--fleet", "{demo}/fleet-fab.json", "--device", "grit",
                   "--fab", "scale:0.5", "--probe", "bv:11", "--mapping", "0,1,3",
                   "--probe", "bv:111", "--mapping", "0,1,2,3", "--seed", "7",
                   "--format", "csv"],
    "sweep": ["sweep", "--fleet", "{demo}/fleet.json", "--probe", "bv:11", "--mapping",
              "0,1,3", "--probe", "bv:111", "--mapping", "0,1,2,3", "--seed", "3"],
    "identify-composite-line": ["identify", "--fleet", "{drift}", "--probe",
                                "bv:11+bv:11+bv:11", "--mapping",
                                "9,11,10;49,51,50;89,91,90", "--seed", "7"],
    "sweep-negative-seed": ["sweep", "--fleet", "{demo}/fleet.json", "--probe", "bv:11",
                            "--mapping", "2,1,0", "--probe", "bv:1111", "--mapping",
                            "1,0,3,4,2", "--seed", "-5"],
    "trace-alpine": ["trace", "--profile", "{demo}/alpine.json", "--probe", "bv:1111",
                     "--mapping", "1,0,3,4,2"],
}


def run_command(name: str, drift: Path) -> tuple[int, str]:
    """Exit code and stdout of one golden command."""
    argv = [arg.format(demo=DEMO, drift=drift) for arg in GOLDEN_COMMANDS[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(params=["numpy", "compiled"])
def kernel(request, monkeypatch):
    """Each sampling kernel in turn; the compiled one is built from source."""
    sampler = sample_packed_numpy
    if request.param == "compiled":
        sampler = compiled_sampler(request.getfixturevalue("flipcore_c"))
    monkeypatch.setattr(qprobe.devicesim, "get_sampler", lambda: sampler)
    return request.param


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_stdout_matches_the_golden_file(kernel, name, drift_fleet):
    code, out = run_command(name, drift_fleet)
    assert code == (2 if name.startswith("detect") else 0)  # both demos catch their fraud
    assert out.encode() == (GOLDEN_DIR / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        drift = fleetgen.write_fleet(Path(tmp), fleetgen.drift_profiles())
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name in sorted(GOLDEN_COMMANDS):
            code, out = run_command(name, drift)
            (GOLDEN_DIR / f"{name}.txt").write_bytes(out.encode())
            print(f"{name}: exit {code}, {len(out)} bytes", file=sys.stderr)
