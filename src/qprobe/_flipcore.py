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

The numpy kernel mixes tiles of events x shots of about ``_TILE`` words at
once, using two exact identities of the finalizer, whose steps are
z ^= z >> 30, z *= MIX1, z ^= z >> 27, z *= MIX2, z ^= z >> 31:

(a) The first step is linear over xor, so for x = k ^ s * gamma it equals
    (k ^ k >> 30) ^ (s * gamma ^ (s * gamma) >> 30).  Each call computes
    the per-event half once; the per-shot half depends only on the shot
    count, so it is computed once per count and kept read-only
    (``_shot_halves``).  A tile starts with one broadcast xor and goes
    straight to the first multiply.
(b) The last step keeps the top 31 bits of z, so u < t implies
    z <= t | (2**33 - 1), a ceiling that never overflows.  After the second
    multiply one comparison screens the tile: against each event's ceiling,
    or against the highest where a tile's ceilings lie within 2**59 of each
    other, since numpy compares with one scalar about twice as fast.  Only
    the few draws at or under the ceiling, the candidates, take the last
    step and the exact test u < t; each hit xors its bit into its shot's
    word.

Xor does not depend on order, so events need no sorting.  Candidates are
pooled across tiles and finished whenever the pool reaches ``_TILE`` and
once at the end, so a call's memory is O(shots) plus a few tiles, whatever
its number of events.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["offset_seed", "stream_salts", "salted_keys", "stream_keys", "flip_thresholds",
           "sample_packed_numpy", "compiled_sampler", "active_kernel", "get_sampler"]

_MASK = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TILE = 1 << 16  # words per events x shots tile of the numpy kernel
_SHOT_COUNTS = 8  # per-shot halves kept, one array per shot count


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


@functools.lru_cache(maxsize=_SHOT_COUNTS)
def _shot_halves(shots: int) -> np.ndarray:
    """Per-shot half of the first mix step, s * gamma ^ (s * gamma) >> 30 for
    s < shots, as a read-only uint64 array; see (a) above."""
    salts = np.arange(shots, dtype=np.uint64) * np.uint64(_GAMMA)
    salts ^= salts >> np.uint64(30)
    salts.flags.writeable = False
    return salts


def sample_packed_numpy(ideal: int, keys: np.ndarray, thresholds: np.ndarray,
                        bits: np.ndarray, shots: int) -> np.ndarray:
    """Vectorized reference sampler: one packed outcome word per shot.

    ``keys`` are uint64 stream keys, ``thresholds`` the uint64 flip
    thresholds from ``flip_thresholds`` and ``bits`` the target bit of each
    event, in [0, 64).  Its memory is O(shots) plus a few tiles of ``_TILE``
    words, whatever the number of events.
    """
    if not len(keys) == len(thresholds) == len(bits):
        raise ValueError(f"{len(keys)} keys, {len(thresholds)} thresholds and "
                         f"{len(bits)} bits: need one of each per event")
    bits = np.asarray(bits, dtype=np.int64)
    if len(bits) and not 0 <= bits.min() <= bits.max() < 64:
        raise ValueError(f"target bits must lie in [0, 64), got {bits.min()}..{bits.max()}")
    out = np.full(shots, ideal, dtype=np.uint64)
    if len(keys) == 0 or shots == 0:
        return out
    # (a): the first step of mix64(k ^ s * gamma), split into its two halves
    salts = _shot_halves(shots)
    halves = keys ^ (keys >> np.uint64(30))
    # (b): u < t implies z <= t | (2**33 - 1), z the word before the last step
    ceilings = thresholds | np.uint64((1 << 33) - 1)
    masks = np.uint64(1) << bits.astype(np.uint64)
    step = min(max(1, _TILE // shots), len(keys))
    words, scratch = np.empty((2, step, shots), dtype=np.uint64)
    screen = np.empty((step, shots), dtype=bool)
    # a narrow tile, with ceilings within 2**59 of each other, is screened
    # against their highest: a few more candidates, but a scalar comparison
    starts = np.arange(0, len(keys), step)
    tops = np.maximum.reduceat(ceilings, starts)
    narrow = tops - np.minimum.reduceat(ceilings, starts) < np.uint64(1 << 59)
    pool_z, pool_at, pooled = [], [], 0  # candidates not yet finished
    for lo, top, one_top in zip(starts.tolist(), tops, narrow.tolist()):
        hi = min(lo + step, len(keys))
        z = np.bitwise_xor(halves[lo:hi, None], salts, out=words[:hi - lo])
        z *= np.uint64(_MIX1)
        z ^= np.right_shift(z, np.uint64(27), out=scratch[:hi - lo])
        z *= np.uint64(_MIX2)
        bound = top if one_top else ceilings[lo:hi, None]
        at = np.flatnonzero(np.less_equal(z, bound, out=screen[:hi - lo]))
        if len(at):
            pool_z.append(z.ravel()[at])
            pool_at.append(at + lo * shots)
            pooled += len(at)
        if pooled and (pooled >= _TILE or hi == len(keys)):  # finish the candidates
            z, (event, shot) = np.concatenate(pool_z), np.divmod(np.concatenate(pool_at), shots)
            hit = z ^ (z >> np.uint64(31)) < thresholds[event]
            np.bitwise_xor.at(out, shot[hit], masks[event[hit]])
            pool_z, pool_at, pooled = [], [], 0
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
