"""Gates that must pass before the benchmark times anything.

* Kernel agreement: the numpy reference and the active sampler must give
  bit-identical outcome words on the largest flip schedule of the drift
  workload, the check ``benchmarks/kernel_bench.py`` makes.  The schedule is
  captured at the sampler boundary while the program runs the job, so the
  check follows however the program builds it.
* Expected verdicts: a canary run at the golden seed must reproduce the
  values stored in ``expected.json`` exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import qprobe.devicesim
from qprobe import NoiseSpec, compose_probe
from qprobe._flipcore import sample_packed_numpy

import gen

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class GateError(Exception):
    """A gate failed; the benchmark must not report timings."""


def largest_drift_schedule() -> tuple:
    """Sampler arguments of the drift job with the most flip evaluations."""
    profile = gen.drift_profiles()[-1]
    noise = NoiseSpec(true_profile=profile, hidden_rate=gen.DRIFT_HIDDEN_RATE)
    captured = []
    active = qprobe.devicesim.get_sampler

    def capture():
        sampler = active()

        def record(*args):
            captured.append(args)
            return sampler(*args)
        return record

    qprobe.devicesim.get_sampler = capture
    try:
        for placement in gen.DRIFT_PROBES[max(gen.DRIFT_PROBES)]:
            circuit = compose_probe([placement], profile.topology)
            qprobe.devicesim.execute(circuit, noise, gen.DRIFT_SHOTS, seed=1)
    finally:
        qprobe.devicesim.get_sampler = active
    return max(captured, key=lambda args: len(args[1]) * args[4])


def check_kernel_agreement() -> str:
    """Raise GateError unless the active sampler matches the numpy reference."""
    args = largest_drift_schedule()
    reference = sample_packed_numpy(*args)
    active = np.asarray(qprobe.devicesim.get_sampler()(*args))
    if active.dtype != reference.dtype or not np.array_equal(active, reference):
        raise GateError("kernel agreement: active sampler differs from the numpy "
                        f"reference on a {len(args[1])}-event, {args[4]}-shot schedule")
    return f"{len(args[1])} flip events x {args[4]} shots bit-identical"


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def normalize(value):
    """Tuples become lists, as they would after a JSON round trip."""
    return json.loads(json.dumps(value))


def compare_verdicts(expected: list, actual: list, what: str) -> None:
    """Raise GateError at the first verdict that differs from the stored one."""
    actual = normalize(actual)
    if len(expected) != len(actual):
        raise GateError(f"{what}: {len(actual)} verdicts, expected {len(expected)}")
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            raise GateError(f"{what}: verdict {index} is {got}, expected {want}")
