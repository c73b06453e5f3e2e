"""Counter-based outcome-flip sampling.

Every flip opportunity owns an independent uniform stream keyed by
(seed, op index, sub-op index, physical register); the draw for a given shot
is a pure function of the stream key and the shot index.  No sequential RNG
state exists, so results are bit-reproducible regardless of evaluation
order, chunking or which kernel runs.

The mixing function is the splitmix64 finalizer.  Uniforms come from the top
53 bits, so the compiled kernel (same integer ops on uint64, same float
scale) produces identical outcomes to the numpy path here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stream_keys", "sample_packed_numpy", "active_kernel", "get_sampler"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def stream_keys(seed: int, sites) -> np.ndarray:
    """Stream key of each flip opportunity; the per-shot counter salts it later.

    ``sites`` is an (n, 3) integer array of (op index, sub-op, register).
    uint64 arithmetic wraps like the masked integer steps it stands for.
    """
    sites = np.asarray(sites, dtype=np.int64).reshape(-1, 3).astype(np.uint64)
    gamma = np.uint64(_GAMMA)
    h = _mix64_np(np.full(len(sites), (seed & _MASK) ^ _GAMMA, dtype=np.uint64))
    h = _mix64_np(h ^ ((sites[:, 0] * np.uint64(4) + sites[:, 1] + np.uint64(1)) * gamma))
    return _mix64_np(h ^ ((sites[:, 2] + np.uint64(1)) * gamma))


def sample_packed_numpy(ideal: int, keys: np.ndarray, probs: np.ndarray,
                        bits: np.ndarray, shots: int) -> np.ndarray:
    """Vectorized reference sampler: one packed outcome word per shot."""
    salts = np.arange(shots, dtype=np.uint64) * np.uint64(_GAMMA)
    out = np.full(shots, ideal, dtype=np.uint64)
    for j in range(len(keys)):
        u = _mix64_np(keys[j] ^ salts)
        flips = (u >> np.uint64(11)).astype(np.float64) * _U53 < probs[j]
        out ^= flips.astype(np.uint64) << np.uint64(bits[j])
    return out


def _bind_sampler():
    """The kernel this process uses: (name, sampler), chosen once at import.

    The compiled extension when it is built, the numpy reference otherwise.
    """
    try:
        from . import _flipcore_c
    except ImportError:
        return "numpy", sample_packed_numpy

    def sample_packed_compiled(ideal: int, keys: np.ndarray, probs: np.ndarray,
                               bits: np.ndarray, shots: int) -> np.ndarray:
        out = np.empty(shots, dtype=np.uint64)
        _flipcore_c.sample_packed(ideal, keys, probs, bits.astype(np.int64), shots, out)
        return out

    return "compiled", sample_packed_compiled


_KERNEL, _SAMPLER = _bind_sampler()


def active_kernel() -> str:
    """Name of the sampler the package selected at import: compiled or numpy."""
    return _KERNEL


def get_sampler():
    """The sampler selected at import; same signature as sample_packed_numpy."""
    return _SAMPLER
