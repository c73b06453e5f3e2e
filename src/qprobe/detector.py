"""Fraud verdicts from fingerprint distances.

The working metric is the average per-qubit Manhattan distance between two
survival fingerprints; a device is flagged as fraudulent when that distance
strictly exceeds the decision threshold.  The default threshold of 0.035
sits inside the gap between honest self-distances and cross-device
distances observed on separated fleets.

Distances are arrays: ``distance_array`` compares every observed row with
every expected row at once, adding the per-qubit |differences| column by
column, left to right.  That fold is the only one: ``manhattan_avg`` (and
so ``detect``) is its one-row case, and ``match_devices`` picks each
observed row's closest candidate from the same array; ``match_device`` is
its one-row case.

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
from typing import Mapping, Sequence

import numpy as np

from .device import ErrorVector
from .estimator import Fingerprint, check_survivals

__all__ = [
    "DEFAULT_THRESHOLD",
    "Verdict",
    "manhattan_avg",
    "distance_array",
    "check_threshold",
    "detect",
    "match_devices",
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


def _fold(columns):
    # a left-to-right fold, not sum(): from Python 3.12 sum() compensates
    # float rounding, which would move the last bits of every distance
    return reduce(add, columns, 0.0)


def distance_array(expected: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """(observed rows × expected rows) average per-qubit Manhattan distances.

    Entry [j, c] compares expected row c with observed row j: the
    |differences| are added one qubit column at a time, left to right, and
    then divided by the width.  Both arrays are checked as a ``Fingerprint``
    checks its survivals.
    """
    width = expected.shape[-1]
    if not width or observed.shape[-1] != width:
        raise ValueError("fingerprints must be non-empty and the same length")
    check_survivals(expected)
    check_survivals(observed)
    return _fold(np.abs(expected - observed[:, None, :]).transpose(2, 0, 1)) / width


def manhattan_avg(a: Fingerprint, b: Fingerprint) -> float:
    """Average per-qubit Manhattan distance between two fingerprints: the
    one-row case of ``distance_array``."""
    return distance_array(np.array([a.survivals]), np.array([b.survivals])).item()


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


def match_devices(names: Sequence[str], expected: np.ndarray,
                  observed: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Closest candidate per observed row, and the ``distance_array``.

    ``names`` labels the rows of ``expected``.  Ties go to the lowest id:
    the argmin runs over the candidates in id order.  Candidates whose
    probes would not fit the observed device must be excluded by the caller
    before matching.
    """
    if not len(names):
        raise ValueError("no candidates to match against")
    distances = distance_array(expected, observed)
    by_id = sorted(range(len(names)), key=names.__getitem__)
    best = distances[:, by_id].argmin(axis=1)
    return [names[by_id[i]] for i in best.tolist()], distances


def match_device(candidates: Mapping[str, Fingerprint],
                 observed: Fingerprint) -> tuple[str, dict[str, float]]:
    """Closest candidate by fingerprint distance, and every candidate's
    distance: the one-row case of ``match_devices``."""
    names = list(candidates)
    expected = np.array([candidates[name].survivals for name in names], ndmin=2)
    (best,), distances = match_devices(names, expected, np.array([observed.survivals]))
    return best, dict(zip(names, distances[0].tolist()))


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
        distances[name] = _fold(map(abs, map(sub, vec.rates(), observed.rates())))
    best = min(sorted(distances), key=lambda name: distances[name])
    return best, distances
