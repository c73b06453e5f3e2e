from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

import fleetgen
import qprobe.circuit
import qprobe.device

FLIPCORE_C_SOURCE = Path(__file__).resolve().parents[1] / "src" / "qprobe" / "_flipcore_c.c"

# One line per acceptance check, printed after the run so the verdicts are
# visible even with output capture on.
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(autouse=True)
def fresh_front_end_caches():
    """Start every test with empty profile and probe caches, so a test that
    counts builds sees one build per first parse or compose."""
    qprobe.device._parsed.cache_clear()
    qprobe.circuit._composed.cache_clear()


@pytest.fixture(scope="session")
def corner_fleet(tmp_path_factory):
    fleet_dir = tmp_path_factory.mktemp("corner_fleet")
    return fleetgen.write_fleet(fleet_dir, fleetgen.corner_profiles())


@pytest.fixture(scope="session")
def grit_fleet(tmp_path_factory):
    fleet_dir = tmp_path_factory.mktemp("grit_fleet")
    return fleetgen.write_fleet(fleet_dir, [fleetgen.grit_profile()])


@pytest.fixture(scope="session")
def drift_fleet(tmp_path_factory):
    fleet_dir = tmp_path_factory.mktemp("drift_fleet")
    return fleetgen.write_fleet(fleet_dir, fleetgen.drift_profiles())


@pytest.fixture(scope="session")
def flipcore_c(tmp_path_factory):
    """The C sampling kernel, built from source with setuptools' build_ext.

    Skips only when the build fails, i.e. without a C compiler or headers.
    """
    from setuptools import Distribution, Extension
    from setuptools.errors import CompileError, LinkError, PlatformError

    build_dir = tmp_path_factory.mktemp("flipcore_c")
    ext = Extension("_flipcore_c", [str(FLIPCORE_C_SOURCE)], extra_compile_args=["-O3"])
    cmd = Distribution({"ext_modules": [ext]}).get_command_obj("build_ext")
    cmd.build_lib = str(build_dir)
    cmd.build_temp = str(build_dir / "tmp")
    try:
        cmd.ensure_finalized()
        cmd.run()
    except (CompileError, LinkError, PlatformError) as exc:
        pytest.skip(f"cannot build the C kernel: {exc}")
    spec = importlib.util.spec_from_file_location("_flipcore_c",
                                                  cmd.get_ext_fullpath("_flipcore_c"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def acceptance_log():
    def record(number: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        ACCEPTANCE_LINES.append(f"criterion {number:2d}: {verdict}  {detail}")
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
