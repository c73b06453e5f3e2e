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

import os

import numpy as np

__all__ = ["mix64", "stream_key", "sample_packed_numpy", "active_kernel", "get_sampler"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U53 = 2.0 ** -53


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_key(seed: int, op_index: int, sub: int, register: int) -> int:
    """Stream key of one flip opportunity; the per-shot counter salts it later."""
    h = mix64((seed & _MASK) ^ _GAMMA)
    h = mix64(h ^ (((op_index * 4 + sub + 1) * _GAMMA) & _MASK))
    h = mix64(h ^ (((register + 1) * _GAMMA) & _MASK))
    return h


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


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

    Setting ``QPROBE_KERNEL=numpy`` forces the reference even when the
    compiled extension is built.
    """
    if os.environ.get("QPROBE_KERNEL", "").lower() == "numpy":
        return "numpy", sample_packed_numpy
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
