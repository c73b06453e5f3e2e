"""Fraud verdicts from fingerprint distances.

The working metric is the average per-qubit Manhattan distance between two
survival fingerprints; a device is flagged as fraudulent when that distance
strictly exceeds the decision threshold.  The default threshold of 0.035
sits inside the gap between honest self-distances and cross-device
distances observed on separated fleets.

`static_match` is the baseline scheme this protocol improves on: comparing
advertised calibration vectors directly, with an unaveraged Manhattan
distance.  It identifies honest devices but cannot see through a fabricated
profile, which is the point of probing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, sub
from typing import Mapping

from .device import ErrorVector
from .estimator import Fingerprint

__all__ = [
    "DEFAULT_THRESHOLD",
    "Verdict",
    "manhattan_avg",
    "check_threshold",
    "detect",
    "match_device",
    "static_match",
]

DEFAULT_THRESHOLD = 0.035


@dataclass(frozen=True)
class Verdict:
    distance: float
    threshold: float
    classification: str

    @property
    def is_fraud(self) -> bool:
        return self.classification == "fraudulent"


def manhattan_avg(a: Fingerprint, b: Fingerprint) -> float:
    """Average per-qubit Manhattan distance between two fingerprints."""
    xs, ys = a.survivals, b.survivals
    if not xs or len(xs) != len(ys):
        raise ValueError("fingerprints must be non-empty and the same length")
    # a left-to-right fold, not sum(): from Python 3.12 sum() compensates
    # float rounding, which would move the last bits of every distance
    return reduce(add, map(abs, map(sub, xs, ys)), 0.0) / len(xs)


def check_threshold(threshold: float) -> None:
    """Reject a decision threshold that is negative or not a finite number."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be a finite non-negative number, got {threshold}")


def detect(expected: Fingerprint, observed: Fingerprint,
           threshold: float = DEFAULT_THRESHOLD) -> Verdict:
    """Classify a device: fraudulent iff distance strictly exceeds threshold."""
    check_threshold(threshold)
    distance = manhattan_avg(expected, observed)
    classification = "fraudulent" if distance > threshold else "honest"
    return Verdict(distance=distance, threshold=threshold, classification=classification)


def match_device(candidates: Mapping[str, Fingerprint],
                 observed: Fingerprint) -> tuple[str, dict[str, float]]:
    """Closest candidate by fingerprint distance; ties go to the lowest id.

    Candidates whose probes would not fit the observed device must be
    excluded by the caller before matching.
    """
    if not candidates:
        raise ValueError("no candidates to match against")
    distances = {name: manhattan_avg(fp, observed) for name, fp in candidates.items()}
    best = min(sorted(distances), key=lambda name: distances[name])
    return best, distances


def static_match(candidates: Mapping[str, ErrorVector],
                 observed: ErrorVector) -> tuple[str, dict[str, float]]:
    """Baseline matcher on advertised calibration vectors (total Manhattan).

    All vectors must carry identical label sequences.
    """
    if not candidates:
        raise ValueError("no candidates to match against")
    distances = {}
    for name, vec in candidates.items():
        if vec.labels() != observed.labels():
            raise ValueError(f"candidate {name!r} has mismatched error-vector labels")
        # folded left to right, as in manhattan_avg
        distances[name] = reduce(add, map(abs, map(sub, vec.rates(), observed.rates())), 0.0)
    best = min(sorted(distances), key=lambda name: distances[name])
    return best, distances
