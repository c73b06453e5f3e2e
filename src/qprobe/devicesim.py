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
parity oracle folds it with ``estimator.fold_flips``.

A job is checked and priced by ``prepare_job`` and sampled by
``sample_jobs``.  Jobs of equal circuits, shot count and round count are
sampled together: each job is one block of the sampler's block contract
(see ``_flipcore``), so a round of all of them is one sampler call.  Rounds
stay separate calls, each with its own seeds.  All the jobs' pooled words
are then counted in one pass over a (jobs × pooled shots) array.
``run_rounds`` is the one-job case, and ``QuantumCloud.batch`` gathers the
jobs of one probe.

A job's outcomes stay packed words: ``Counts`` keeps the distinct words and
their counts, formats its ``counts`` strings only when they are first read,
and ``survival_array`` reads the words of many jobs of one circuit at once,
one row of per-qubit survivals per job; ``survival_from_counts`` is its
one-job case.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Callable, Mapping, Sequence

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
    "Job",
    "prepare_job",
    "sample_jobs",
    "run_rounds",
    "exact_survival",
    "survival_array",
    "survival_from_counts",
]

_MAX_MEASURED = 64  # packed-word sampler limit; probes stay far below this
# Most shots one job may pool over its rounds: far above the 4000 x 3 default,
# and checked before any per-round list or per-shot array is built.
_MAX_POOLED_SHOTS = 2**24


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
        word_counts = np.array(ns, dtype=np.int64)
        self._hold(np.array([int(k, 2) if k else 0 for k in counts], dtype=np.uint64),
                   word_counts, width, int(word_counts.sum()))
        self.__dict__["counts"] = dict(zip(counts, ns))

    @classmethod
    def _from_words(cls, words: np.ndarray, word_counts: np.ndarray, width: int,
                    shots: int) -> Counts:
        """Counts of distinct packed ``words`` seen ``word_counts`` times each,
        ``shots`` (their sum) in all.

        The arrays are kept, not copied, and made read-only.
        """
        pooled = cls.__new__(cls)
        pooled._hold(words, word_counts, width, shots)
        return pooled

    def _hold(self, words: np.ndarray, word_counts: np.ndarray, width: int,
              shots: int) -> None:
        words.flags.writeable = word_counts.flags.writeable = False
        self.__dict__.update(words=words, word_counts=word_counts, width=width, shots=shots)

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


def _flip_probs(circuit: TranspiledCircuit, noise: NoiseSpec,
                price: Callable | None = None) -> np.ndarray:
    """True flip probability of each flip row: its key's price plus the hidden
    rate.  The fit is checked first, by ``price`` if given, which returns or
    raises what ``key_rates`` does, else by ``key_rates``."""
    rates = (price or key_rates)(circuit, noise.true_profile)
    if len(circuit.measured) > _MAX_MEASURED:
        raise ValueError(f"at most {_MAX_MEASURED} measured qubits supported")
    probs = (rates + noise.hidden_rate)[circuit.flip_slots]
    if probs.max(initial=0.0) >= 1.0:
        row = np.flatnonzero(probs >= 1.0)[0]
        raise ValueError(f"effective flip probability {probs[row].item()} at op "
                         f"{circuit.flip_sites[row, 0]} not < 1")
    return probs


def execute(circuit: TranspiledCircuit, noise: NoiseSpec, shots: int, seed: int) -> Counts:
    """Sample measurement outcomes for a probe on a noisy device."""
    return run_rounds(circuit, noise, shots, rounds=1, seed=seed)


class Job:
    """A checked and priced job whose rounds are sampled later by ``sample_jobs``.

    ``seeds`` holds each round's seed and ``probs`` the flip probability
    of each of the circuit's flip rows; ``sample_jobs`` turns the probs of
    all the jobs it samples together into thresholds at once.  ``counts``
    raises RuntimeError until the job has been sampled.
    """

    __slots__ = ("circuit", "shots", "rounds", "seeds", "probs", "_counts")

    def __init__(self, circuit: TranspiledCircuit, shots: int, rounds: int,
                 seeds: list[int], probs: np.ndarray) -> None:
        self.circuit, self.shots, self.rounds = circuit, shots, rounds
        self.seeds, self.probs, self._counts = seeds, probs, None

    @property
    def counts(self) -> Counts:
        if self._counts is None:
            raise RuntimeError("a batched job is sampled when its batch closes without "
                               "an error; this one was not sampled")
        return self._counts


def prepare_job(circuit: TranspiledCircuit, noise: NoiseSpec, shots: int,
                rounds: int, seed: int, price: Callable | None = None) -> Job:
    """Check and price a job of ``rounds`` executions; round r uses
    ``offset_seed(seed, r)``, i.e. seed + r.

    Rounds, shots and their product (at most ``_MAX_POOLED_SHOTS``) are
    checked first, then the seed, then the circuit's fit and flip
    probabilities (``_flip_probs``).  ``price`` stands in for ``key_rates``
    (``QuantumCloud.batch`` passes its per-batch memo).  Nothing is sampled.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if shots < 1:
        raise ValueError("shots must be positive")
    if shots * rounds > _MAX_POOLED_SHOTS:
        raise ValueError(f"shots {shots} x rounds {rounds} exceeds the {_MAX_POOLED_SHOTS} "
                         "shots one job may pool")
    seeds = [offset_seed(seed, r) for r in range(rounds)]
    return Job(circuit, shots, rounds, seeds, _flip_probs(circuit, noise, price))


def sample_jobs(jobs: Sequence[Job]) -> None:
    """Sample every job, and count each one's pooled words into its ``counts``.

    Jobs alike in what the sampler reads of their circuits (flip salts,
    flip bits and ideal output, compared by value, so equal circuits built
    apart are alike), in shot count and in round count are sampled
    together, one block per job, in one sampler call per round; more of
    them than ``_MAX_POOLED_SHOTS`` pooled words hold run as consecutive
    groups.  Every draw is a pure function of its stream key and shot, so a
    job's counts do not depend on which jobs share its calls.
    """
    alike: dict[tuple, list[Job]] = {}
    for job in jobs:
        circuit = job.circuit
        key = (circuit.flip_salts.tobytes(), circuit.flip_bits.tobytes(),
               circuit.ideal_output, job.shots, job.rounds)
        alike.setdefault(key, []).append(job)
    for group in alike.values():
        step = max(1, _MAX_POOLED_SHOTS // (group[0].shots * group[0].rounds))
        for lo in range(0, len(group), step):
            _sample_blocks(group[lo:lo + step])


def _sample_blocks(jobs: list[Job]) -> None:
    """Sample alike jobs (see ``sample_jobs``) as blocks of one sampler call
    per round, and count each job's words."""
    circuit, shots, rounds = jobs[0].circuit, jobs[0].shots, jobs[0].rounds
    width = len(circuit.measured)
    ideals = np.full(len(jobs), int(circuit.ideal_output, 2) if width else 0, dtype=np.uint64)
    # round-major, so that each round's keys are one flat run of blocks
    keys = salted_keys([job.seeds[r] for r in range(rounds) for job in jobs],
                       circuit.flip_salts).reshape(rounds, -1)
    thresholds = flip_thresholds(np.concatenate([job.probs for job in jobs]))
    # one row of pooled words per job, filled a round at a time
    words = np.empty((len(jobs), rounds * shots), dtype=np.uint64)
    sampler = get_sampler()
    for r, round_keys in enumerate(keys):
        words[:, r * shots:(r + 1) * shots] = sampler(ideals, round_keys, thresholds,
                                                      circuit.flip_bits, shots)
    for job, counts in zip(jobs, _count_rows(words, width)):
        job._counts = counts


def _count_rows(words: np.ndarray, width: int) -> list[Counts]:
    """Counts of each row of a (jobs × pooled shots) word array, in one pass
    over all rows; sorts ``words`` in place.  Each row's distinct words are
    the runs of its sorted words, as ``np.unique`` finds them in one row."""
    pooled = words.shape[1]
    words.sort(axis=1)
    flat = words.reshape(-1)
    # where each run starts, and one past the last word, which ends the last run
    starts = np.empty(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=starts[1:-1])
    starts[:-1:pooled] = starts[-1] = True  # every row starts a run
    at = np.flatnonzero(starts)
    distinct, word_counts = flat[at[:-1]], at[1:] - at[:-1]
    ends = np.searchsorted(at, np.arange(pooled, flat.size + 1, pooled)).tolist()
    return [Counts._from_words(distinct[lo:hi], word_counts[lo:hi], width, pooled)
            for lo, hi in zip([0, *ends], ends)]


def run_rounds(circuit: TranspiledCircuit, noise: NoiseSpec, shots: int,
               rounds: int, seed: int) -> Counts:
    """Pool several executions with per-round derived seeds (round r uses
    ``offset_seed(seed, r)``, i.e. seed + r): the one-job case of
    ``prepare_job`` and ``sample_jobs``.

    The job is checked and priced once, every round's stream keys are
    derived at once, each round is one sampler call, and the pooled words
    are counted in one pass.
    """
    job = prepare_job(circuit, noise, shots, rounds, seed)
    sample_jobs([job])
    return job.counts


def exact_survival(circuit: TranspiledCircuit, noise: NoiseSpec) -> Fingerprint:
    """Closed-form survival under the flip model.

    A measured bit ends up correct when an even number of its flip
    opportunities fire, so survival is (1 + prod_k (1 - 2 p_k)) / 2 over that
    qubit's opportunities.
    """
    parity = fold_flips(circuit, 1.0 - 2.0 * _flip_probs(circuit, noise))
    return Fingerprint(tuple(((1.0 + parity) / 2.0).tolist()))


def survival_array(counts: Sequence[Counts], ideal_output: str) -> np.ndarray:
    """Per-qubit marginal survivals, one row per job: the fraction of the
    job's shots whose bit i came out ideal.

    Every job must have shots, and outcomes as wide as ``ideal_output``, a
    bitstring.  The jobs' distinct words are pooled: bit i's mismatches are
    counted over them, summed per job, and bit i survives with
    (shots - mismatches) / shots.
    """
    shots = np.array([c.shots for c in counts], dtype=np.int64)
    if not shots.all():
        raise ValueError("empty counts")
    width = len(ideal_output)
    if any(c.width != width for c in counts):
        raise ValueError("ideal_output width does not match outcome strings")
    if ideal_output.strip("01"):
        raise ValueError("ideal_output must be a bitstring")
    wrong = np.concatenate([c.words for c in counts]) ^ np.uint64(
        int(ideal_output, 2) if width else 0)
    mismatched = (wrong[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1)
    weighted = mismatched.astype(np.int64) * np.concatenate(
        [c.word_counts for c in counts])[:, None]
    # a job with shots has a word, so each job's words are one non-empty run
    starts = list(accumulate((len(c.words) for c in counts[:-1]), initial=0))
    flipped = np.add.reduceat(weighted, starts, axis=0)
    return (shots[:, None] - flipped) / shots[:, None]


def survival_from_counts(counts: Counts, ideal_output: str) -> Fingerprint:
    """Per-qubit marginal survival of one job: the one-row case of
    ``survival_array``."""
    return Fingerprint(tuple(survival_array([counts], ideal_output)[0].tolist()))
