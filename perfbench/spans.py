"""Spans around calls into qprobe's modules, recorded from the benchmark side.

Nothing in the package is edited.  ``install`` rebinds the names a consuming
module imported (``qprobe.cloud.run_rounds``, ``qprobe.devicesim.get_sampler``,
``qprobe.cli.estimate_fingerprint`` ...) to wrappers that open a span named
``<layer>.<function>`` and count work where it happens; leaving the block
restores the originals.  A refactor that stops calling through one of these
names leaves its boundary with zero calls, and the report then says
``missing`` for that layer instead of a time of 0.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter, defaultdict

import qprobe
import qprobe.cli
import qprobe.cloud
import qprobe.devicesim
import qprobe.estimator
from qprobe.circuit import Gate

class Tracer:
    """In-memory span list: [name, start_ns, end_ns, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced


def _count_sample(counts, args, result) -> None:
    _ideal, keys, _probs, _bits, shots = args
    counts["_flipcore.flip_evals"] += int(shots) * len(keys)


def _count_compose(counts, args, circuit) -> None:
    counts["circuit.ops"] += len(circuit.ops)
    counts["circuit.swaps"] += sum(op.gate is Gate.SWAP for op in circuit.ops)


def _count_outcomes(counts, args, result) -> None:
    counts["devicesim.outcomes"] += len(result.counts)


# Public functions whose imported names are rebound: span name and counter.
_BOUNDARIES = {
    "load_fleet": ("cloud.load_fleet", None),
    "compose_probe": ("circuit.compose_probe", _count_compose),
    "estimate_fingerprint": ("estimator.estimate_fingerprint", None),
    "run_rounds": ("devicesim.run_rounds", _count_outcomes),
    "survival_from_counts": ("devicesim.survival_from_counts", None),
    "detect": ("detector.detect", None),
    "manhattan_avg": ("detector.manhattan_avg", None),
    "match_device": ("detector.match_device", None),
    "topology_compatible": ("device.topology_compatible", None),
    "load_profile": ("device.load_profile", None),
    "fabricate": ("device.fabricate", None),
}
_CONSUMERS = (qprobe.cli, qprobe.cloud, qprobe.devicesim, qprobe.estimator)


@contextlib.contextmanager
def install(tracer: Tracer, *bench_modules):
    """Rebind the boundary names imported by qprobe's modules, and by the
    given benchmark modules that call the API directly, to traced wrappers."""
    saved = []

    def rebind(owner, name, wrapper):
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    try:
        for module in (*_CONSUMERS, *bench_modules):
            for name, (span, count) in _BOUNDARIES.items():
                if getattr(module, name, None) is getattr(qprobe, name):
                    rebind(module, name, tracer.wrap(span, getattr(qprobe, name), count))
        get_sampler = qprobe.devicesim.get_sampler
        rebind(qprobe.devicesim, "get_sampler",
               lambda: tracer.wrap("_flipcore.sample", get_sampler(), _count_sample))
        rebind(qprobe.cloud.QuantumCloud, "submit",
               tracer.wrap("cloud.submit", qprobe.cloud.QuantumCloud.submit))
        rebind(qprobe.cli, "main", tracer.wrap("cli.main", qprobe.cli.main))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for index, (_name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, total and self nanoseconds."""
    out: dict[str, dict[str, int]] = defaultdict(lambda: {"calls": 0, "total_ns": 0,
                                                          "self_ns": 0})
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["total_ns"] += end - start
        row["self_ns"] += own
    return dict(out)
