"""User-side survival estimation from published calibration data.

Each tracked qubit carries a triple (logical id, current register, survival
probability).  Walking the transpiled ops in order, every op that touches a
tracked qubit's register multiplies its survival by (1 - e) where e is the
op's published error rate; a SWAP counts as its three constituent CNOTs and
exchanges the two locations; a MEASURE applies the readout error of the
register the qubit ends up on.  That pass is the circuit's flip table; an
estimate prices it with ``key_rates`` and multiplies it out with ``fold_flips``.

Estimates are arrays: ``estimate_array`` turns one row of key rates per
device into one row of survivals per device, so a command that compares a
probe with every device in a fleet prices each device once and folds them
all together.  ``estimate_fingerprint`` is its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import TranspiledCircuit, walk_ops
from .device import DeviceProfile, TopologyError, topology_compatible

__all__ = ["QubitTrack", "Fingerprint", "check_survivals", "key_rates", "fold_flips",
           "estimate_array", "estimate_fingerprint", "trace_survival"]


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
        check_survivals(np.array(self.survivals, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.survivals)

    def __getitem__(self, index: int) -> float:
        return self.survivals[index]


def check_survivals(survivals: np.ndarray) -> None:
    """Raise ValueError naming the first survival outside [0, 1] (NaN included)."""
    if not (survivals.min(initial=0.0) >= 0.0 and survivals.max(initial=1.0) <= 1.0):
        bad = survivals[~((survivals >= 0.0) & (survivals <= 1.0))]
        raise ValueError(f"survival {bad[0].item()} outside [0, 1]")


def key_rates(circuit: TranspiledCircuit, profile: DeviceProfile) -> np.ndarray:
    """Rate of each of ``circuit.error_keys``; TopologyError when the circuit
    does not fit the profile's topology."""
    if not topology_compatible(circuit, profile.topology):
        raise TopologyError(f"circuit does not fit the topology of {profile.device_id!r}")
    return np.array([profile.rate_for(key) for key in circuit.error_keys], dtype=np.float64)


def fold_flips(circuit: TranspiledCircuit, factors: np.ndarray) -> np.ndarray:
    """Per measured bit, the product of its flip rows' ``factors`` in row order.

    ``factors`` holds one value per flip row along its last axis, and the
    result one value per measured bit there.  Each row goes to its bit's line
    at its ``flip_places`` column, the lines padded with 1.0, which leaves a
    product unchanged; one ``np.multiply.accumulate`` along the lines then
    multiplies each bit's factors left to right, as ``product *= factor``
    would from 1.0.
    """
    places = circuit.flip_places
    grid = np.ones((*factors.shape[:-1], len(circuit.measured), 1 + places.max(initial=0)))
    grid[..., circuit.flip_bits, places] = factors
    return np.multiply.accumulate(grid, axis=-1)[..., -1]


def estimate_array(circuit: TranspiledCircuit, rates: np.ndarray) -> np.ndarray:
    """Predicted survivals from key rates: ``rates`` holds one rate per
    ``circuit.error_keys`` entry along its last axis (a row per device, each
    as ``key_rates`` gives it), and the result one survival per measured
    qubit there."""
    return fold_flips(circuit, 1.0 - rates[..., circuit.flip_slots])


def estimate_fingerprint(circuit: TranspiledCircuit, profile: DeviceProfile) -> Fingerprint:
    """Predicted survival per measured qubit under a published profile: the
    one-row case of ``estimate_array``.

    Raises TopologyError when the circuit does not fit the profile's topology.
    """
    return Fingerprint(tuple(estimate_array(circuit, key_rates(circuit, profile)).tolist()))


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
