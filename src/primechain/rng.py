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
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
SALT = np.uint64(0x8BB84B93962EACC9)
RDE_SALT = np.uint64(0x5851F42D4C957F2D)

_U64 = np.uint64
_MASK = (1 << 64) - 1


def mix64(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stafford variant-13 finalizer (bijective avalanche on uint64 arrays).

    Writes into ``out`` when given (``out=z`` mixes in place) and into a
    new array otherwise; ``z`` itself is only read.  One scratch array
    holds the shifts.
    """
    with np.errstate(over="ignore"):
        scratch = z >> _U64(30)
        out = np.bitwise_xor(z, scratch, out=out)
        out *= _U64(0xBF58476D1CE4E5B9)
        out ^= np.right_shift(out, _U64(27), out=scratch)
        out *= _U64(0x94D049BB133111EB)
        out ^= np.right_shift(out, _U64(31), out=scratch)
        return out


def mix64_int(z: int) -> int:
    """Pure-integer mirror of :func:`mix64` for scalar key derivation."""
    z = int(z) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_draw(keys: np.ndarray, index: int) -> np.ndarray:
    """Raw 64-bit draw number ``index`` (>= 1) of each key's stream, as a
    new array (``keys`` is only read)."""
    with np.errstate(over="ignore"):
        z = keys + _U64(index) * GOLDEN
    return mix64(z, out=z)


def to_unit(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit words to floats strictly inside (0, 1).

    The 12-bit shift keeps the +0.5 offset exactly representable, so the
    result lies in [2^-53, 1 - 2^-53] and log(u) and log1p(-u) are both
    finite for every input word.
    """
    u = np.add(raw >> _U64(12), 0.5)
    u *= 2.0**-52
    return u


def replicate_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Keys for replicates ``start..stop-1`` of the run with this seed."""
    root = mix64_int((seed & _MASK) ^ int(SALT))
    reps = np.arange(start + 1, stop + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(_U64(root) + reps * GOLDEN)


def uniform_stream(key: int):
    """Scalar generator yielding the uniforms of one node stream, in the
    exact order the vectorized engine consumes them (draws 1, 3, 5, ...)."""
    t = 0
    while True:
        yield float(to_unit(stream_draw(np.array([key], dtype=np.uint64), 2 * t + 1))[0])
        t += 1
