"""qprobe: dynamic fingerprinting of quantum cloud devices.

Probe circuits with known ideal outcomes are run against a (simulated)
cloud; per-qubit survival probabilities form a behavioural fingerprint that
exposes machine substitution and calibration-profile fabrication, which
static calibration comparison cannot.
"""

from ._flipcore import active_kernel
from .circuit import (
    CircuitError,
    Gate,
    LogicalCircuit,
    RoutingError,
    TranspiledCircuit,
    TranspiledOp,
    build_bv,
    compose_probe,
    transpile,
    walk_ops,
)
from .cloud import AttackConfig, CatalogEntry, JobResult, QuantumCloud, load_fleet
from .detector import (
    DEFAULT_THRESHOLD,
    Verdict,
    detect,
    manhattan_avg,
    match_device,
    static_match,
)
from .device import (
    DeviceProfile,
    ErrorVector,
    ProfileError,
    Topology,
    TopologyError,
    dump_profile,
    error_vector,
    fabricate,
    load_profile,
    topology_compatible,
)
from .devicesim import (
    Counts,
    NoiseSpec,
    exact_survival,
    execute,
    run_rounds,
    survival_from_counts,
)
from .estimator import Fingerprint, estimate_fingerprint, trace_survival

__version__ = "0.1.0"

__all__ = [
    "AttackConfig",
    "CatalogEntry",
    "CircuitError",
    "Counts",
    "DEFAULT_THRESHOLD",
    "DeviceProfile",
    "ErrorVector",
    "Fingerprint",
    "Gate",
    "JobResult",
    "LogicalCircuit",
    "NoiseSpec",
    "ProfileError",
    "QuantumCloud",
    "RoutingError",
    "Topology",
    "TopologyError",
    "TranspiledCircuit",
    "TranspiledOp",
    "Verdict",
    "active_kernel",
    "build_bv",
    "compose_probe",
    "detect",
    "dump_profile",
    "error_vector",
    "estimate_fingerprint",
    "exact_survival",
    "execute",
    "fabricate",
    "load_fleet",
    "load_profile",
    "manhattan_avg",
    "match_device",
    "run_rounds",
    "static_match",
    "survival_from_counts",
    "topology_compatible",
    "trace_survival",
    "transpile",
    "walk_ops",
]
