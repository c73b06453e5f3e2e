"""User-side survival estimation from published calibration data.

Each tracked qubit carries a triple (logical id, current register, survival
probability).  Walking the transpiled ops in order, every op that touches a
tracked qubit's register multiplies its survival by (1 - e) where e is the
op's published error rate; a SWAP counts as its three constituent CNOTs and
exchanges the two locations; a MEASURE applies the readout error of the
register the qubit ends up on.  One pass over the ops, so the cost is linear
in circuit length.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import TranspiledCircuit, walk_ops
from .device import DeviceProfile, TopologyError, topology_compatible

__all__ = ["QubitTrack", "Fingerprint", "estimate_fingerprint", "trace_survival"]


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


def _check_profile(circuit: TranspiledCircuit, profile: DeviceProfile) -> None:
    if not topology_compatible(circuit, profile.topology):
        raise TopologyError(f"circuit does not fit the topology of {profile.device_id!r}")


def estimate_fingerprint(circuit: TranspiledCircuit, profile: DeviceProfile) -> Fingerprint:
    """Predicted survival per measured qubit under a published profile.

    Raises TopologyError when the circuit does not fit the profile's topology.
    """
    _check_profile(circuit, profile)
    survival = {q: 1.0 for q in circuit.initial_mapping}
    for step in walk_ops(circuit):
        for ev in step.events:
            survival[ev.logical] *= 1.0 - profile.rate_for(ev.error_key)
    return Fingerprint(tuple(survival[q] for q in circuit.measured))


def trace_survival(circuit: TranspiledCircuit,
                   profile: DeviceProfile) -> list[tuple[int, tuple[QubitTrack, ...]]]:
    """Survival snapshots before execution (index -1) and after every op.

    The final snapshot's measured-qubit survivals equal estimate_fingerprint.
    """
    _check_profile(circuit, profile)
    survival = {q: 1.0 for q in circuit.initial_mapping}

    def snapshot(locations: dict[int, int]) -> tuple[QubitTrack, ...]:
        return tuple(QubitTrack(q, locations[q], survival[q]) for q in sorted(locations))

    out = [(-1, snapshot(circuit.initial_mapping))]
    for step in walk_ops(circuit):
        for ev in step.events:
            survival[ev.logical] *= 1.0 - profile.rate_for(ev.error_key)
        out.append((step.op_index, snapshot(step.locations)))
    return out
