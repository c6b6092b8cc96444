"""Counter-based pseudorandom words for reproducible, partition-independent draws.

Every random quantity in this package is a pure function of a 64-bit key and a
word counter.  Draw ``d`` of a stream owns the fixed word range
``[d*words_per_draw, (d+1)*words_per_draw)``, so any partitioning of a draw
range across workers reproduces the serial sequence bit for bit.

The word function is the splitmix64 output mixer applied to the counter; keys
for distinct purposes are derived by folding integer tags into the seed with
the same mixer.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(z):
    # of a Python int, or of each word of a uint64 array, whose arithmetic
    # wraps (numpy's uint64 scalars would raise under errstate(over="raise"))
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, *tags):
    """Fold integer tags into a seed, yielding an independent stream key.
    A tag may be a uint64 array: the result is then the array of the keys
    of its values, folded at once."""
    key = _mix((seed & _MASK) + _GAMMA)
    for tag in tags:
        key = _mix(key ^ _mix((tag & _MASK) + _GAMMA))
    return key


def words(key, start: int, count: int, stride: int = 1) -> np.ndarray:
    """Words ``start, start+stride, ..., start+(count-1)*stride`` of the
    stream, as uint64; ``stride`` >= 1.  A uint64 array of keys gives a row
    of words per key, all mixed in one pass.

    Word i mixes (start + 1 + i*stride) * gamma + key, so a stride of w
    from start + t gives column t of the words taken w to a row.  The mixer
    runs in place on pieces of 16,384 words, which with their one spare
    buffer stay in a core's cache; the words are those of one pass over the
    whole range.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if start + 1 < 0 or start + 1 + (count - 1) * stride >= 2**64:
        raise OverflowError(f"words {start}..{start + (count - 1) * stride} "
                            "leave the 64-bit word counter")
    if isinstance(key, np.ndarray):
        steps = np.arange(count, dtype=np.uint64) * np.uint64(stride * _GAMMA & _MASK)
        return _mix(np.add.outer(key, steps + np.uint64((start + 1) * _GAMMA & _MASK)))
    piece = 16384
    out = np.empty(count, dtype=np.uint64)
    steps = np.arange(min(count, piece), dtype=np.uint64)
    steps *= np.uint64(stride * _GAMMA & _MASK)
    spare = np.empty_like(steps)
    for lo in range(0, count, piece):
        z = out[lo : lo + piece]
        t = spare[: z.size]
        base = ((start + 1 + lo * stride) * _GAMMA + key) & _MASK
        np.add(steps[: z.size], np.uint64(base), out=z)
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= np.uint64(_MIX1)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(_MIX2)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return out
