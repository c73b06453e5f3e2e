"""Simulated execution of probe circuits under an outcome-flip noise model.

A probe lands in a known basis state, so noise is modelled classically: each
op that touches a measured qubit's register is an independent chance to flip
that qubit's measured bit, with probability (op error rate + hidden rate).
A SWAP is three flip opportunities at its edge's CNOT rate; readout is one
more at the measurement register.  This yields the closed-form parity
oracle in `exact_survival`: a bit survives when an even number of its flip
opportunities fire.

Flip opportunities mirror the user-side estimator's exactly: both read the
circuit's one flip table and price it with ``estimator.key_rates``, and the
parity oracle folds it with ``estimator.fold_flips``.  A job's outcomes stay
packed words: ``Counts`` keeps the distinct words and their counts, formats
its ``counts`` strings only when they are first read, and
``survival_from_counts`` reads the words.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from ._flipcore import flip_thresholds, get_sampler, offset_seed, salted_keys
from .circuit import TranspiledCircuit
from .device import DeviceProfile, TopologyError
from .estimator import Fingerprint, fold_flips, key_rates

__all__ = [
    "NoiseSpec",
    "Counts",
    "TopologyError",
    "execute",
    "run_rounds",
    "exact_survival",
    "survival_from_counts",
]

_MAX_MEASURED = 64  # packed-word sampler limit; probes stay far below this


@dataclass(frozen=True)
class NoiseSpec:
    """Ground-truth noise of a device: its real profile plus a hidden extra.

    ``hidden_rate`` is added to every flip opportunity and never appears in
    any published profile; it stands in for calibration staleness and other
    unreported error sources.
    """

    true_profile: DeviceProfile
    hidden_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.hidden_rate < 1.0):
            raise ValueError(f"hidden_rate {self.hidden_rate} outside [0, 1)")


class Counts:
    """Measurement outcome histogram; keys follow the rightmost-is-qubit-0 rule.

    Held as packed words: ``words`` are the distinct outcomes (measured qubit
    i at bit i, uint64), ``word_counts`` their counts (int64) and ``width``
    the number of measured qubits.  ``counts``, the {bitstring: count}
    mapping, is formatted from them when first read; ``Counts(mapping)``
    parses its strings into the same words.  ``shots`` is the sum of the
    counts.
    """

    __hash__ = None

    def __init__(self, counts: Mapping[str, int]) -> None:
        widths = {len(k) for k in counts}
        if len(widths) > 1:
            raise ValueError("outcome strings differ in width")
        if any(k.strip("01") for k in counts):
            raise ValueError("outcome strings must be bitstrings")
        if any(isinstance(n, (bool, np.bool_)) for n in counts.values()):
            raise ValueError("counts must be integers, not bools")
        ns = [operator.index(n) for n in counts.values()]
        if any(n < 0 for n in ns):
            raise ValueError("negative count")
        width = widths.pop() if widths else 0
        if width > _MAX_MEASURED:
            raise ValueError(f"at most {_MAX_MEASURED} measured qubits supported")
        self._hold(np.array([int(k, 2) if k else 0 for k in counts], dtype=np.uint64),
                   np.array(ns, dtype=np.int64), width)
        self.__dict__["counts"] = dict(zip(counts, ns))

    @classmethod
    def _from_words(cls, words: np.ndarray, word_counts: np.ndarray, width: int) -> Counts:
        """Counts of distinct packed ``words`` seen ``word_counts`` times each.

        The arrays are kept, not copied, and made read-only.
        """
        pooled = cls.__new__(cls)
        pooled._hold(words, word_counts, width)
        return pooled

    def _hold(self, words: np.ndarray, word_counts: np.ndarray, width: int) -> None:
        words.flags.writeable = word_counts.flags.writeable = False
        self.__dict__.update(words=words, word_counts=word_counts, width=width,
                             shots=int(word_counts.sum()))

    @cached_property
    def counts(self) -> dict[str, int]:
        return {format(v, f"0{self.width}b") if self.width else "": n
                for v, n in zip(self.words.tolist(), self.word_counts.tolist())}

    def __setattr__(self, name, value):
        raise AttributeError(f"Counts is immutable: cannot set {name}")

    def __eq__(self, other):
        if not isinstance(other, Counts):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"Counts({self.counts!r})"

    def probabilities(self) -> dict[str, float]:
        if not self.shots:
            raise ValueError("empty counts")
        return {k: v / self.shots for k, v in self.counts.items()}


def _flip_probs(circuit: TranspiledCircuit, noise: NoiseSpec) -> np.ndarray:
    """True flip probability of each flip row: its key's price plus the hidden
    rate.  The fit is checked first."""
    rates = key_rates(circuit, noise.true_profile)
    if len(circuit.measured) > _MAX_MEASURED:
        raise ValueError(f"at most {_MAX_MEASURED} measured qubits supported")
    probs = (rates + noise.hidden_rate)[circuit.flip_slots]
    bad = np.flatnonzero(probs >= 1.0)
    if len(bad):
        row = bad[0]
        raise ValueError(f"effective flip probability {probs[row].item()} at op "
                         f"{circuit.flip_sites[row, 0]} not < 1")
    return probs


def execute(circuit: TranspiledCircuit, noise: NoiseSpec, shots: int, seed: int) -> Counts:
    """Sample measurement outcomes for a probe on a noisy device."""
    return run_rounds(circuit, noise, shots, rounds=1, seed=seed)


def run_rounds(circuit: TranspiledCircuit, noise: NoiseSpec, shots: int,
               rounds: int, seed: int) -> Counts:
    """Pool several executions with per-round derived seeds (round r uses
    ``offset_seed(seed, r)``, i.e. seed + r).

    The seed is checked first.  The circuit is checked, priced and given its
    flip thresholds once, every round's stream keys are derived at once, each
    round samples, and the pooled words are counted in one pass.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if shots < 1:
        raise ValueError("shots must be positive")
    seeds = [offset_seed(seed, r) for r in range(rounds)]
    thresholds = flip_thresholds(_flip_probs(circuit, noise))
    width = len(circuit.measured)
    ideal = int(circuit.ideal_output, 2) if width else 0
    keys = salted_keys(seeds, circuit.flip_salts)
    packed = np.concatenate([
        get_sampler()(ideal, round_keys, thresholds, circuit.flip_bits, shots)
        for round_keys in keys])
    return Counts._from_words(*np.unique(packed, return_counts=True), width)


def exact_survival(circuit: TranspiledCircuit, noise: NoiseSpec) -> Fingerprint:
    """Closed-form survival under the flip model.

    A measured bit ends up correct when an even number of its flip
    opportunities fire, so survival is (1 + prod_k (1 - 2 p_k)) / 2 over that
    qubit's opportunities.
    """
    parity = fold_flips(circuit, 1.0 - 2.0 * _flip_probs(circuit, noise))
    return Fingerprint(tuple((1.0 + x) / 2.0 for x in parity))


def survival_from_counts(counts: Counts, ideal_output: str) -> Fingerprint:
    """Per-qubit marginal survival: fraction of shots whose bit i came out ideal.

    Bit i's mismatches are counted over the distinct outcome words, and its
    survival is (shots - mismatches) / shots.
    """
    if not counts.shots:
        raise ValueError("empty counts")
    width = counts.width
    if width != len(ideal_output):
        raise ValueError("ideal_output width does not match outcome strings")
    if ideal_output.strip("01"):
        raise ValueError("ideal_output must be a bitstring")
    wrong = counts.words ^ np.uint64(int(ideal_output, 2) if width else 0)
    mismatched = (wrong[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1)
    flipped = counts.word_counts @ mismatched.astype(np.int64)
    return Fingerprint(tuple((counts.shots - n) / counts.shots for n in flipped.tolist()))
