"""User-side survival estimation from published calibration data.

Each tracked qubit carries a triple (logical id, current register, survival
probability).  Walking the transpiled ops in order, every op that touches a
tracked qubit's register multiplies its survival by (1 - e) where e is the
op's published error rate; a SWAP counts as its three constituent CNOTs and
exchanges the two locations; a MEASURE applies the readout error of the
register the qubit ends up on.  That pass is the circuit's flip table; an
estimate prices it with ``key_rates`` and multiplies it out with ``fold_flips``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import TranspiledCircuit, walk_ops
from .device import DeviceProfile, TopologyError, topology_compatible

__all__ = ["QubitTrack", "Fingerprint", "key_rates", "fold_flips", "estimate_fingerprint",
           "trace_survival"]


@dataclass(frozen=True)
class QubitTrack:
    """Snapshot of one tracked qubit: where it sits and how likely it survived."""

    logical: int
    register: int
    survival: float


@dataclass(frozen=True)
class Fingerprint:
    """Per-qubit survival probabilities, ordered like the circuit's measured list."""

    survivals: tuple[float, ...]

    def __post_init__(self) -> None:
        for s in self.survivals:
            if not (0.0 <= s <= 1.0):
                raise ValueError(f"survival {s} outside [0, 1]")

    def __len__(self) -> int:
        return len(self.survivals)

    def __getitem__(self, index: int) -> float:
        return self.survivals[index]


def key_rates(circuit: TranspiledCircuit, profile: DeviceProfile) -> np.ndarray:
    """Rate of each of ``circuit.error_keys``; TopologyError when the circuit
    does not fit the profile's topology."""
    if not topology_compatible(circuit, profile.topology):
        raise TopologyError(f"circuit does not fit the topology of {profile.device_id!r}")
    return np.array([profile.rate_for(key) for key in circuit.error_keys], dtype=np.float64)


def fold_flips(circuit: TranspiledCircuit, factors: np.ndarray) -> list[float]:
    """Per measured bit, the product of its flip rows' ``factors`` in row order."""
    product = [1.0] * len(circuit.measured)
    for factor, bit in zip(factors.tolist(), circuit.flip_bits.tolist()):
        product[bit] *= factor
    return product


def estimate_fingerprint(circuit: TranspiledCircuit, profile: DeviceProfile) -> Fingerprint:
    """Predicted survival per measured qubit under a published profile.

    Raises TopologyError when the circuit does not fit the profile's topology.
    """
    rates = key_rates(circuit, profile)
    return Fingerprint(tuple(fold_flips(circuit, 1.0 - rates[circuit.flip_slots])))


def trace_survival(circuit: TranspiledCircuit,
                   profile: DeviceProfile) -> list[tuple[int, tuple[QubitTrack, ...]]]:
    """Survival snapshots before execution (index -1) and after every op.

    The final snapshot's measured-qubit survivals equal estimate_fingerprint.
    """
    rate = dict(zip(circuit.error_keys, key_rates(circuit, profile).tolist()))
    survival = {q: 1.0 for q in circuit.initial_mapping}
    snapshots = [(-1, circuit.initial_mapping, dict(survival))]
    for step in walk_ops(circuit):
        for ev in step.events:
            survival[ev.logical] *= 1.0 - rate[ev.error_key]
        snapshots.append((step.op_index, step.locations, dict(survival)))
    return [(index, tuple(QubitTrack(q, locations[q], s[q]) for q in sorted(locations)))
            for index, locations, s in snapshots]
