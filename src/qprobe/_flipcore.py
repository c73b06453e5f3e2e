"""Counter-based outcome-flip sampling.

Every flip opportunity owns an independent uniform stream keyed by
(seed, op index, sub-op index, physical register); the draw for a given shot
is a pure function of the stream key and the shot index.  No sequential RNG
state exists, so results are bit-reproducible regardless of evaluation
order, chunking or which kernel runs.

The mixing function is the splitmix64 finalizer.  Shot s of an event with
stream key k draws u = mix64(k ^ s * gamma) and flips its target bit when
u < t, the event's threshold.  ``flip_thresholds`` turns a flip probability
p in [0, 1) into t = ceil(p * 2**53) << 11, so a bit flips exactly when the
top 53 bits of u, scaled to [0, 1), fall below p.  Both kernels take the
same arguments, (ideal, keys, thresholds, bits, shots), and make that one
integer test.

A stream key depends on the seed only through its first mix, so a circuit
keeps two seed-free salts per event (``stream_salts``): (op * 4 + sub + 1) *
gamma and (register + 1) * gamma.  ``salted_keys`` mixes each seed once and
then salts and mixes all of a circuit's events at once.

The numpy kernel stable-sorts the events by target bit and cuts the sorted
list into tiles of events x shots of about ``_TILE`` words, so a tile may
span several bits.  It mixes each tile at once and xor-reduces the tile's
hits of each bit run inside it into that bit's parity row; a run's row is
applied to the packed words once, where the run ends.  A call costs a few
numpy operations per tile plus a few per bit run, not per event, and its
memory is O(shots) plus two tiles.
"""

from __future__ import annotations

import numpy as np

__all__ = ["offset_seed", "stream_salts", "salted_keys", "stream_keys", "flip_thresholds",
           "sample_packed_numpy", "compiled_sampler", "active_kernel", "get_sampler"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TILE = 1 << 15  # words per events x shots tile of the numpy kernel


def _mix64_np(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """splitmix64 finalizer of each word of the uint64 array z, in place; returns z.

    ``scratch``, an array of z's shape and dtype, holds the shifted copies.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def _mix64(z: int) -> int:
    """``_mix64_np`` of one word held as a Python int in [0, 2**64)."""
    z ^= z >> 30
    z = z * _MIX1 & _MASK
    z ^= z >> 27
    z = z * _MIX2 & _MASK
    return z ^ z >> 31


def offset_seed(seed: int, offset: int) -> int:
    """The seed ``offset`` >= 0 steps after ``seed``, for a round or report row.

    ``seed`` must lie in [-2**63, 2**64), else a ValueError names it.  A sum
    past 2**64 - 1 wraps modulo 2**64, as -1 already keys the streams of
    2**64 - 1; any other sum is kept as it is.
    """
    if not -(1 << 63) <= seed <= _MASK:
        raise ValueError(f"seed {seed} outside the 64-bit range [-2**63, 2**64)")
    return seed + offset if seed + offset <= _MASK else (seed + offset) & _MASK


def stream_salts(sites) -> np.ndarray:
    """Seed-free salts of each flip opportunity, a (2, n) uint64 array.

    ``sites`` is an (n, 3) integer array of (op index, sub-op, register); row
    0 holds (op * 4 + sub + 1) * gamma and row 1 (register + 1) * gamma.
    uint64 arithmetic wraps like the masked integer steps.
    """
    sites = np.asarray(sites, dtype=np.int64).reshape(-1, 3).astype(np.uint64)
    gamma = np.uint64(_GAMMA)
    return np.stack([(sites[:, 0] * np.uint64(4) + sites[:, 1] + np.uint64(1)) * gamma,
                     (sites[:, 2] + np.uint64(1)) * gamma])


def salted_keys(seeds, salts) -> np.ndarray:
    """Stream keys of every event under each seed: a (len(seeds), n) uint64 array.

    ``seeds`` come from ``offset_seed`` and ``salts`` from ``stream_salts``.
    A negative seed keys the streams of its two's complement.  Each seed's
    first mix is one scalar; then every event of every seed is salted and
    mixed at once.
    """
    first = np.array([_mix64((seed & _MASK) ^ _GAMMA) for seed in seeds], dtype=np.uint64)
    keys = np.bitwise_xor(first[:, None], salts[0])
    scratch = np.empty_like(keys)
    _mix64_np(keys, scratch)
    keys ^= salts[1]
    return _mix64_np(keys, scratch)


def stream_keys(seed: int, sites) -> np.ndarray:
    """Stream key of each flip opportunity; the per-shot counter salts it later.

    ``sites`` is an (n, 3) integer array of (op index, sub-op, register).
    ``seed`` lies in [-2**63, 2**64) (see ``offset_seed``), a negative one
    keying the streams of its two's complement.
    """
    return salted_keys([offset_seed(seed, 0)], stream_salts(sites))[0]


def flip_thresholds(probs) -> np.ndarray:
    """uint64 flip threshold ceil(p * 2**53) << 11 of each probability p in [0, 1).

    Scaling by a power of two is exact and p < 1 keeps the shifted
    threshold inside 64 bits.
    """
    scaled = np.ceil(np.asarray(probs, dtype=np.float64) * 2.0 ** 53)
    return scaled.astype(np.uint64) << np.uint64(11)


def sample_packed_numpy(ideal: int, keys: np.ndarray, thresholds: np.ndarray,
                        bits: np.ndarray, shots: int) -> np.ndarray:
    """Vectorized reference sampler: one packed outcome word per shot.

    ``keys`` are uint64 stream keys, ``thresholds`` the uint64 flip
    thresholds from ``flip_thresholds`` and ``bits`` the target bit of each
    event.
    """
    if not len(keys) == len(thresholds) == len(bits):
        raise ValueError(f"{len(keys)} keys, {len(thresholds)} thresholds and "
                         f"{len(bits)} bits: need one of each per event")
    salts = np.arange(shots, dtype=np.uint64) * np.uint64(_GAMMA)
    out = np.full(shots, ideal, dtype=np.uint64)
    if len(keys) == 0:
        return out
    order = np.argsort(bits, kind="stable")
    keys = keys[order]
    thresholds = thresholds[order]
    bits = bits[order]
    cuts = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
    starts, ends = [0, *cuts], [*cuts, len(keys)]  # the bit runs
    step = min(max(1, _TILE // shots), len(keys))
    words, scratch = np.empty((2, step, shots), dtype=np.uint64)
    flips = np.empty((step, shots), dtype=bool)
    targets = bits[starts].tolist()
    run, carry = 0, None  # carry: parity so far of a run that spans tiles
    for lo in range(0, len(keys), step):
        hi = min(lo + step, len(keys))
        tile = np.bitwise_xor(keys[lo:hi, None], salts, out=words[:hi - lo])
        _mix64_np(tile, scratch[:hi - lo])
        hit = np.less(tile, thresholds[lo:hi, None], out=flips[:hi - lo])
        while run < len(starts) and starts[run] < hi:  # the runs inside this tile
            first, stop = max(starts[run], lo) - lo, min(ends[run], hi) - lo
            parity = np.bitwise_xor.reduce(hit[first:stop], axis=0)
            if starts[run] < lo:
                parity ^= carry
            if ends[run] > hi:
                carry = parity
                break
            out ^= parity.astype(np.uint64) << np.uint64(targets[run])
            run += 1
    return out


def compiled_sampler(ext):
    """The sampler of a built ``_flipcore_c`` extension module ``ext``.

    Same arguments and output as ``sample_packed_numpy``.
    """
    def sample_packed_compiled(ideal: int, keys: np.ndarray, thresholds: np.ndarray,
                               bits: np.ndarray, shots: int) -> np.ndarray:
        out = np.empty(shots, dtype=np.uint64)
        ext.sample_packed(ideal, np.ascontiguousarray(keys, dtype=np.uint64),
                          np.ascontiguousarray(thresholds, dtype=np.uint64),
                          np.ascontiguousarray(bits, dtype=np.int64), shots, out)
        return out

    return sample_packed_compiled


def _bind_sampler():
    """The kernel this process uses: (name, sampler), chosen once at import.

    The compiled extension when it is built, the numpy reference otherwise.
    """
    try:
        from . import _flipcore_c
    except ImportError:
        return "numpy", sample_packed_numpy
    return "compiled", compiled_sampler(_flipcore_c)


_KERNEL, _SAMPLER = _bind_sampler()


def active_kernel() -> str:
    """Name of the sampler the package selected at import: compiled or numpy."""
    return _KERNEL


def get_sampler():
    """The sampler selected at import; same signature as sample_packed_numpy."""
    return _SAMPLER
