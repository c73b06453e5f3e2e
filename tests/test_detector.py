"""Distance metric, fraud verdicts and the static baseline matcher."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fleetgen
from qprobe import (DEFAULT_THRESHOLD, ErrorVector, Fingerprint, detect, error_vector, fabricate,
                    manhattan_avg)
from qprobe.detector import distance_array, match_device, match_devices, static_match

survival = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
triples = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(*(
        st.lists(survival, min_size=n, max_size=n).map(lambda v: Fingerprint(tuple(v)))
        for _ in range(3))))


def test_manhattan_avg_basics():
    assert manhattan_avg(Fingerprint((1.0, 0.5)), Fingerprint((0.5, 1.0))) == 0.5
    assert manhattan_avg(Fingerprint((0.3,)), Fingerprint((0.3,))) == 0.0
    with pytest.raises(ValueError, match="same length"):
        manhattan_avg(Fingerprint((0.5,)), Fingerprint((0.5, 0.5)))
    with pytest.raises(ValueError, match="non-empty"):
        manhattan_avg(Fingerprint(()), Fingerprint(()))


@settings(max_examples=300, deadline=None)
@given(triples=triples)
def test_metric_axioms(triples):
    a, b, c = triples
    assert manhattan_avg(a, b) == manhattan_avg(b, a)
    assert manhattan_avg(a, a) == 0.0
    assert manhattan_avg(a, b) >= 0.0
    # float rounding can break the triangle inequality by about one ulp; the
    # slack here covers that and nothing more
    assert manhattan_avg(a, c) <= manhattan_avg(a, b) + manhattan_avg(b, c) + 1e-12


def left_to_right(xs, ys) -> float:
    total = 0.0
    for x, y in zip(xs, ys):
        total += abs(x - y)
    return total


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(survival, survival), min_size=1, max_size=300))
def test_distances_add_left_to_right(pairs):
    # sum() of floats is compensated from Python 3.12; a plain fold keeps
    # every distance, and so every report, the same on each Python
    xs, ys = map(tuple, zip(*pairs))
    assert manhattan_avg(Fingerprint(xs), Fingerprint(ys)) == left_to_right(xs, ys) / len(xs)
    labels = [f"Meas_{i}" for i in range(len(xs))]
    _, distances = static_match({"a": ErrorVector(tuple(zip(labels, xs)))},
                                ErrorVector(tuple(zip(labels, ys))))
    assert distances["a"] == left_to_right(xs, ys)


# dyadic survivals make equal distances, and so ties, common
tie_prone = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]) | survival


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distance_array_entries_equal_manhattan_avg(data):
    width = data.draw(st.integers(min_value=1, max_value=9))
    pool = data.draw(st.lists(st.tuples(*[tie_prone] * width), min_size=1, max_size=4))
    # rows drawn from a small pool, so equal rows are common too
    expected = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    observed = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    distances = distance_array(np.array(expected), np.array(observed))
    assert distances.shape == (len(observed), len(expected))
    for j, ys in enumerate(observed):
        for c, xs in enumerate(expected):
            assert distances[j, c] == manhattan_avg(Fingerprint(xs), Fingerprint(ys)) \
                == left_to_right(xs, ys) / width
    # candidate ids out of row order: the tie rule reads the ids, not the rows
    names = data.draw(st.permutations([f"d{c}" for c in range(len(expected))]))
    best, same = match_devices(names, np.array(expected), np.array(observed))
    assert np.array_equal(same, distances)
    candidates = dict(zip(names, map(Fingerprint, expected)))
    for j, ys in enumerate(observed):
        one, by_name = match_device(candidates, Fingerprint(ys))
        assert best[j] == one == min(sorted(names), key=by_name.__getitem__)
        assert list(by_name.values()) == distances[j].tolist()


def test_distance_array_checks_its_inputs():
    with pytest.raises(ValueError, match="same length"):
        distance_array(np.zeros((2, 3)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="non-empty"):
        distance_array(np.zeros((2, 0)), np.zeros((1, 0)))
    for bad in (1.5, -0.25, math.nan):
        with pytest.raises(ValueError, match=f"survival {bad} outside"):
            distance_array(np.array([[0.5, bad]]), np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match=f"survival {bad} outside"):
            distance_array(np.array([[0.5, 0.5]]), np.array([[0.5, 0.5], [bad, 0.5]]))
    with pytest.raises(ValueError, match="no candidates"):
        match_devices([], np.zeros((0, 2)), np.zeros((1, 2)))


def test_detect_boundary_is_strict():
    # distances built from dyadic rates are exact, so the boundary really is
    # distance == threshold
    at = detect(Fingerprint((0.75,)), Fingerprint((0.5,)), threshold=0.25)
    assert at.distance == 0.25
    assert at.classification == "honest" and not at.is_fraud
    above = detect(Fingerprint((0.8125,)), Fingerprint((0.5,)), threshold=0.25)
    assert above.classification == "fraudulent" and above.is_fraud
    assert above.threshold == 0.25


def test_detect_default_threshold_and_validation():
    verdict = detect(Fingerprint((0.9,)), Fingerprint((0.9,)))
    assert verdict.threshold == DEFAULT_THRESHOLD == 0.035
    with pytest.raises(ValueError, match="non-negative"):
        detect(Fingerprint((0.9,)), Fingerprint((0.9,)), threshold=-0.1)


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_detect_rejects_non_finite_thresholds(threshold):
    # a NaN threshold would make every distance look honest
    with pytest.raises(ValueError, match="finite"):
        detect(Fingerprint((0.9,)), Fingerprint((0.1,)), threshold=threshold)


def test_match_device_picks_the_closest_candidate():
    candidates = {
        "far": Fingerprint((0.2, 0.2)),
        "near": Fingerprint((0.85, 0.9)),
    }
    best, distances = match_device(candidates, Fingerprint((0.9, 0.9)))
    assert best == "near"
    assert distances["near"] == pytest.approx(0.025)
    assert set(distances) == {"far", "near"}
    with pytest.raises(ValueError, match="no candidates"):
        match_device({}, Fingerprint((0.9,)))


def test_match_device_ties_go_to_the_lowest_id():
    candidates = {"b": Fingerprint((0.5,)), "a": Fingerprint((0.75,))}
    best, distances = match_device(candidates, Fingerprint((0.625,)))
    assert distances["a"] == distances["b"]
    assert best == "a"


def test_static_match_identifies_honest_profiles():
    profiles = fleetgen.corner_profiles()[:3]
    candidates = {p.device_id: error_vector(p) for p in profiles}
    for p in profiles:
        best, distances = static_match(candidates, error_vector(p))
        assert best == p.device_id
        assert distances[p.device_id] == 0.0


def test_static_match_cannot_see_a_consistent_forgery():
    # the baseline compares advertised numbers with advertised numbers, so a
    # fleet-wide forged profile looks perfectly honest to it
    grit = fleetgen.grit_profile()
    forged = fabricate(grit, scale=0.5)
    best, distances = static_match({"grit": error_vector(forged)}, error_vector(forged))
    assert best == "grit" and distances["grit"] == 0.0


def test_static_match_requires_matching_labels():
    prof = fleetgen.corner_profiles()[0]
    with pytest.raises(ValueError, match="mismatched"):
        static_match({"alpine": error_vector(prof)}, error_vector(prof, region={0, 1}))
