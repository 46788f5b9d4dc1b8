"""Splittable counter-based random streams for the Monte Carlo modules.

The generator is the SplitMix64 finalizer used in counter mode: draw i of
the stream with 64-bit key K is mix64(K + i * GOLDEN), where GOLDEN is
the odd Weyl increment 2^64 / phi and mix64 is the Stafford variant-13
avalanche permutation.  Keys are derived, never sequential:

* replicate r of a run with seed s gets key mix64(mix64(s ^ SALT) + (r+1) * GOLDEN),
* within a node of the fragmentation tree, draw 2t+1 supplies the t-th
  stick uniform and draw 2t+2 becomes the child node's key.

Because every node owns its key, enlarging the truncation cap (or
changing batch or thread layout) never shifts the randomness consumed by
the surviving nodes: shared lineages see byte-identical samples.  All
operations vectorize over uint64 numpy arrays.

Arithmetic mod 2^64 runs in numpy's array ufuncs, which wrap silently,
and the draw offset i * GOLDEN mod 2^64 is taken in Python ints, so no
call needs ``np.errstate``.  Numpy scalars check for overflow, so no
product is ever taken between two of them.  A uniform is built from the
top 52 bits m of a word: m under the exponent of 1.0 is the float
1 + m * 2^-52, and subtracting 1 - 2^-53 leaves (m + 1/2) * 2^-52 exactly
(Sterbenz's lemma: both operands lie within a factor of two of each
other), the same bits as computing (m + 0.5) * 2^-52 in floats.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DomainError, as_int, check_bytes

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
SALT = np.uint64(0x8BB84B93962EACC9)
RDE_SALT = np.uint64(0x5851F42D4C957F2D)

_U64 = np.uint64
_MASK = (1 << 64) - 1
_GOLDEN_INT = int(GOLDEN)
_MUL1, _MUL2 = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
_SHIFT12, _SHIFT27, _SHIFT30, _SHIFT31 = _U64(12), _U64(27), _U64(30), _U64(31)
_ONE_BITS = _U64(0x3FF0000000000000)  # the exponent field of 1.0
_UNIT_OFFSET = 1.0 - 2.0**-53


def mix64(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stafford variant-13 finalizer (bijective avalanche on uint64 arrays).

    Writes into ``out`` when given (``out=z`` mixes in place) and into a
    new array otherwise; ``z`` itself is only read.  One scratch array
    holds the shifts.  A 0-d ``z`` gives a 0-d array.
    """
    if z.ndim == 0:  # a 0-d result comes back as a numpy scalar, whose *= warns
        return mix64(z.reshape(1), None if out is None else out.reshape(1)).reshape(())
    scratch = z >> _SHIFT30
    out = np.bitwise_xor(z, scratch, out=out)
    out *= _MUL1
    out ^= np.right_shift(out, _SHIFT27, out=scratch)
    out *= _MUL2
    out ^= np.right_shift(out, _SHIFT31, out=scratch)
    return out


def mix64_int(z: int) -> int:
    """Pure-integer mirror of :func:`mix64` for scalar key derivation, z mod 2^64."""
    z = as_int(z, "z") & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_draw(keys: np.ndarray, index: int) -> np.ndarray:
    """Raw 64-bit draw number ``index`` (>= 1) of each key's stream, as a
    new array (``keys``, uint64, is only read)."""
    z = keys + _U64(as_int(index, "index", 1) * _GOLDEN_INT & _MASK)
    return mix64(z, out=z)


def to_unit(raw: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Map raw 64-bit words to floats strictly inside (0, 1).

    u = (m + 1/2) * 2^-52 for the top 52 bits m of the word, built from
    the bits of 1 + m * 2^-52 minus 1 - 2^-53, which is exact (see the
    module docstring).  So u lies in [2^-53, 1 - 2^-53] and log(u) and
    log1p(-u) are both finite for every input word.  ``raw`` is only read
    unless it is passed as ``out``, a uint64 array whose buffer then
    holds the floats (``out=raw`` converts a fresh draw in place).
    """
    bits = np.right_shift(raw, _SHIFT12, out=out)
    bits |= _ONE_BITS
    u = bits.view(np.float64)
    u -= _UNIT_OFFSET
    return u


def replicate_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Keys for replicates ``start..stop-1`` (0 <= start, stop < 2^63) of the run with this seed (mod 2^64)."""
    start, stop = as_int(start, "start", 0, (1 << 63) - 1), as_int(stop, "stop", 0, (1 << 63) - 1)
    check_bytes(24 * (stop - start), f"{stop - start} replicate keys")  # the keys and mix64's two arrays
    root = mix64_int(as_int(seed, "seed") ^ int(SALT))
    reps = np.arange(start + 1, stop + 1, dtype=np.uint64)
    return mix64(_U64(root) + reps * GOLDEN)


def uniform_stream(key: int):
    """Scalar generator yielding the uniforms of one node stream, in the
    exact order the vectorized engine consumes them (draws 1, 3, 5, ...).
    A key that is not an integer in [0, 2^64) raises a DomainError here,
    not at the first draw; a key is a word, so None or a string is one too."""
    try:
        key = as_int(key, "stream key", 0, _MASK)
    except TypeError as exc:
        raise DomainError(f"stream key {key!r} is not an integer") from exc
    keys = np.array([key], dtype=np.uint64)
    return (float(to_unit(stream_draw(keys, 2 * t + 1))[0]) for t in itertools.count())
