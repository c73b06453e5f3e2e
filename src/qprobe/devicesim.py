"""Simulated execution of probe circuits under an outcome-flip noise model.

A probe lands in a known basis state, so noise is modelled classically: each
op that touches a measured qubit's register is an independent chance to flip
that qubit's measured bit, with probability (op error rate + hidden rate).
A SWAP is three flip opportunities at its edge's CNOT rate; readout is one
more at the measurement register.  This yields the closed-form parity
oracle in `exact_survival`: a bit survives when an even number of its flip
opportunities fire.

Flip opportunities mirror the user-side estimator's exactly: both read the
rows ``circuit.flips`` and price each key of ``circuit.error_keys`` once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._flipcore import flip_thresholds, get_sampler, offset_seed, stream_keys
from .circuit import TranspiledCircuit, bit_at
from .device import DeviceProfile, TopologyError
from .estimator import Fingerprint, require_fit

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


@dataclass(frozen=True)
class Counts:
    """Measurement outcome histogram; keys follow the rightmost-is-qubit-0 rule.

    ``shots`` is computed: the sum of the counts.
    """

    counts: Mapping[str, int]
    shots: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        widths = {len(k) for k in self.counts}
        if len(widths) > 1:
            raise ValueError("outcome strings differ in width")
        if any(c < 0 for c in self.counts.values()):
            raise ValueError("negative count")
        object.__setattr__(self, "counts", dict(self.counts))
        object.__setattr__(self, "shots", sum(self.counts.values()))

    def probabilities(self) -> dict[str, float]:
        return {k: v / self.shots for k, v in self.counts.items()}


def _schedule(circuit: TranspiledCircuit, noise: NoiseSpec):
    """Sites, true flip probabilities and target bits of the circuit's flip rows.

    Sites are an (n, 3) array of (op index, sub-op, register); with a seed
    they give the stream keys.
    """
    if len(circuit.measured) > _MAX_MEASURED:
        raise ValueError(f"at most {_MAX_MEASURED} measured qubits supported")
    rate = {key: noise.true_profile.rate_for(key) for key in circuit.error_keys}
    probs = [rate[key] + noise.hidden_rate for _, _, key in circuit.flips]
    for p, (site, _, _) in zip(probs, circuit.flips):
        if p >= 1.0:
            raise ValueError(f"effective flip probability {p} at op {site[0]} not < 1")
    return (np.array([site for site, _, _ in circuit.flips], dtype=np.int64).reshape(-1, 3),
            np.array(probs, dtype=np.float64),
            np.array([bit for _, bit, _ in circuit.flips], dtype=np.int64))


def execute(circuit: TranspiledCircuit, noise: NoiseSpec, shots: int, seed: int) -> Counts:
    """Sample measurement outcomes for a probe on a noisy device."""
    return run_rounds(circuit, noise, shots, rounds=1, seed=seed)


def run_rounds(circuit: TranspiledCircuit, noise: NoiseSpec, shots: int,
               rounds: int, seed: int) -> Counts:
    """Pool several executions with per-round derived seeds (round r uses
    ``offset_seed(seed, r)``, i.e. seed + r).

    The seed is checked first.  The circuit is checked, scheduled and given
    its flip thresholds once; each round derives only its keys and samples,
    and the pooled words are counted in one pass.
    """
    if rounds < 1:
        raise ValueError("rounds must be positive")
    if shots < 1:
        raise ValueError("shots must be positive")
    seeds = [offset_seed(seed, r) for r in range(rounds)]
    require_fit(circuit, noise.true_profile)
    sites, probs, bits = _schedule(circuit, noise)
    thresholds = flip_thresholds(probs)
    width = len(circuit.measured)
    ideal = int(circuit.ideal_output, 2) if width else 0
    packed = np.concatenate([
        get_sampler()(ideal, stream_keys(s, sites), thresholds, bits, shots) for s in seeds])
    values, ns = np.unique(packed, return_counts=True)
    pooled = {format(v, f"0{width}b") if width else "": n
              for v, n in zip(values.tolist(), ns.tolist())}
    return Counts(pooled)


def exact_survival(circuit: TranspiledCircuit, noise: NoiseSpec) -> Fingerprint:
    """Closed-form survival under the flip model.

    A measured bit ends up correct when an even number of its flip
    opportunities fire, so survival is (1 + prod_k (1 - 2 p_k)) / 2 over that
    qubit's opportunities.
    """
    require_fit(circuit, noise.true_profile)
    _, probs, bits = _schedule(circuit, noise)
    parity = [1.0] * len(circuit.measured)
    for p, bit in zip(probs.tolist(), bits.tolist()):
        parity[bit] *= 1.0 - 2.0 * p
    return Fingerprint(tuple((1.0 + x) / 2.0 for x in parity))


def survival_from_counts(counts: Counts, ideal_output: str) -> Fingerprint:
    """Per-qubit marginal survival: fraction of shots whose bit i came out ideal."""
    if not counts.shots:
        raise ValueError("empty counts")
    width = len(next(iter(counts.counts)))
    if width != len(ideal_output):
        raise ValueError("ideal_output width does not match outcome strings")
    survivals = []
    for i in range(width):
        good = sum(n for outcome, n in counts.counts.items()
                   if bit_at(outcome, i) == bit_at(ideal_output, i))
        survivals.append(good / counts.shots)
    return Fingerprint(tuple(survivals))
