"""Segmented smallest-prime-factor sieve and factorization helpers.

One segment walk marks the smallest-prime-factor values of every odd
integer in ``2..limit``, segment by segment so each working block stays
cache resident; an even integer's is 2.  Primes are the cells whose
smallest prime factor equals the integer itself; internally those cells
store 0 so a freshly zeroed segment needs one marking pass only.  The
walk has two consumers: :class:`SpfTable` keeps its segments, and
:func:`prime_chunks` streams each segment's primes out of one reused
buffer and keeps no cells.

Pratt trees, chain enumeration and totient iterates factorize through the
table, above its limit by trial division by its primes; the singular
series reads the stream.  Primality above the limit falls back to a
deterministic Miller-Rabin test that is exact for all 64-bit inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, as_int, as_int_array, as_real, check_bytes

# Cells sieved per pass; one segment of uint16 cells stays cache resident.
SEGMENT_WIDTH = 1 << 20
# Cells per array of prime_chunks.  The stream sieves whole segments, so its
# base-prime loop runs once a segment as the table's does, and lists each
# segment's primes a quarter at a time, so one array, and the arrays a consumer
# builds from it, stay small.  Sieving 2^18 cells a pass as well held the same
# memory, but singular_series at 349,903,901 took 1.7-1.8 s that way, against
# 1.35-1.5 s on a whole factor table and 1.2-1.35 s this way (best of two
# calls in each of three processes, 2-core Xeon).
PRIME_CHUNK = 1 << 18
MAX_LIMIT = (1 << 32) - 1
# Ceiling on the candidates above a table's limit, summed over all moduli, that
# one primes_in_aps call tests with Miller-Rabin: about 20 s at 64 bits, 2-core
# Xeon.  count_primes_in_aps makes one call, enumerate_from one per chain length.
MAX_AP_CANDIDATES = 10**6

# Deterministic Miller-Rabin witness set, exact for n < 3.3*10^24 and in
# particular for every 64-bit integer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    n = as_int(n, "n", 0)
    if n >= 1 << 64:
        raise CapacityError("the witness set only proves primality below 2**64")
    return _miller_rabin(n)


def _miller_rabin(n: int) -> bool:
    """``is_prime_u64`` of a Python int 0 <= n < 2**64, unchecked."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def table_bytes(limit: int) -> int:
    """Bytes of the cells of a table for 2..limit (one uint16 per odd integer)."""
    return 2 * ((as_int(limit, "limit") + 1) // 2)


def prime_count_bound(x: int) -> float:
    """pi(x) < 1.25506 x / ln x for x > 1 (Rosser-Schoenfeld); 0 below.
    It sizes tables and arrays, none of which reaches 2^64, so x from 2^64
    on (inf too) is refused here for every footprint that reads it, first."""
    if x >= 1 << 64:
        raise CapacityError(f"no table or array is sized for x >= 2**64 (log2 x = {math.log2(x):.1f})")
    x = as_real(x, "x")
    return 1.25506 * x / math.log(x) if x > 1 else 0.0


def _simple_prime_array(n: int) -> np.ndarray:
    """Primes <= n by a plain boolean sieve: the base primes of the segment walk."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def _sieve_segment(seg: np.ndarray, lo: int, base: list[int]) -> None:
    """Mark the zeroed cells lo.. of ``seg``: the odd multiples of an odd
    prime p are the cells = (p - 1) / 2 (mod p), and each p of ``base``
    marks those from p^2 on.  ``base`` lists the largest p first, so the
    smallest factor's mark is the one that stays."""
    hi = lo + seg.size
    for p in base:
        start = max(p * p >> 1, lo + ((p >> 1) - lo) % p)
        if start < hi:
            seg[start - lo :: p] = p


def _segments(limit: int, cells: np.ndarray | None = None):
    """The one segment walk: yield (lo, seg), the cells lo.. of 2..limit
    marked by ``_sieve_segment``, ``SEGMENT_WIDTH`` at a time, the cell of 1
    poisoned.  Each seg is a view of ``cells`` (zeroed, one per odd integer)
    when given, else of one buffer zeroed again for every segment, so the
    walk itself keeps one segment."""
    size = (limit + 1) // 2
    base = _simple_prime_array(math.isqrt(limit))[1:].tolist()[::-1]  # odd, largest first
    buffer = np.empty(min(size, SEGMENT_WIDTH), dtype=np.uint16) if cells is None else None
    for lo in range(0, size, SEGMENT_WIDTH):
        if cells is None:
            seg = buffer[: size - lo]
            seg.fill(0)
        else:
            seg = cells[lo : lo + SEGMENT_WIDTH]
        if lo == 0:
            seg[0] = 1  # 1 is out of domain; poison its cell
        _sieve_segment(seg, lo, base)
        yield lo, seg


def _cell_primes(zero: np.ndarray, j: int) -> np.ndarray:
    """The primes 2 (j + i) + 1 of the cells j + i marked in ``zero``,
    increasing, as intp: int64 on 64-bit platforms."""
    return 2 * (np.flatnonzero(zero) + j) + 1


def prime_chunks(limit: int):
    """Yield the primes up to ``limit`` (2..MAX_LIMIT), increasing, as int64
    arrays: the i-th holds those in [2i PRIME_CHUNK, 2(i + 1) PRIME_CHUNK),
    maybe none.  The segment walk of ``SpfTable`` marks one reused buffer, so
    the stream keeps no cells and holds one segment and one array at a time
    whatever the limit.  A limit outside 2..MAX_LIMIT is refused before
    anything is sieved."""
    limit = as_int(limit, "prime limit", 2, MAX_LIMIT)
    for lo, seg in _segments(limit):
        for a in range(0, seg.size, PRIME_CHUNK):
            primes = _cell_primes(seg[a : a + PRIME_CHUNK] == 0, lo + a)
            yield np.concatenate(([2], primes)) if lo + a == 0 else primes


@dataclass(frozen=True)
class Factorization:
    """Prime factorization of a positive integer as (prime, exponent) pairs
    in increasing prime order."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def distinct_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    def largest_prime_factor(self) -> int:
        """P+(n); by convention P+(1) = 1."""
        return self.pairs[-1][0] if self.pairs else 1

    def totient(self) -> int:
        phi = 1
        for p, e in self.pairs:
            phi *= (p - 1) * p ** (e - 1)
        return phi

    def radical(self) -> int:
        rad = 1
        for p, _ in self.pairs:
            rad *= p
        return rad

    def unitary_cofactor(self) -> int:
        """l(n): the product of p^(e-1) over p^e || n, i.e. n / rad(n)."""
        val = 1
        for p, e in self.pairs:
            val *= p ** (e - 1)
        return val


class SpfTable:
    """Smallest-prime-factor values for 2..limit, sieved by the segment walk
    and stored for the odd integers only.

    Cell j holds spf(2j + 1), 0 marking a prime (its smallest prime factor
    is the number itself); the cell of 1 is poisoned.  Every even n has
    spf 2, so the methods answer it arithmetically: prime only when n = 2.
    A composite below 2**32 has its smallest prime factor below 2**16, so
    each cell is a uint16.  ``segments`` are views of ``SEGMENT_WIDTH``
    cells each.  No other module reads the cells; they ask the methods,
    ``spf_rounds`` for spf division of whole arrays, up to ``factor_limit``
    = min(limit^2, 2**32 - 1): above the limit by trial division by the
    table's primes up to isqrt(factor_limit), listed once per table, for a
    few n, such as one tree's labels.
    """

    def __init__(self, limit: int):
        limit = as_int(limit, "table limit", 2)
        check_bytes(table_bytes(limit), f"table limit {limit}")  # so limit < MAX_LIMIT
        self.limit = limit
        self.factor_limit = min(self.limit**2, MAX_LIMIT)
        self._cells = np.zeros((limit + 1) // 2, dtype=np.uint16)
        self.segments: list[np.ndarray] = [seg for _, seg in _segments(limit, self._cells)]

    def _zero_runs(self, a: int, b: int):
        """(j, cells[j:k] == 0) for the cells a..b-1, a segment at a time."""
        for j in range(a, b, SEGMENT_WIDTH):
            yield j, self._cells[j : min(j + SEGMENT_WIDTH, b)] == 0

    # -- scalar queries -------------------------------------------------

    def spf(self, n: int) -> int:
        """Smallest prime factor of n (2 <= n <= factor_limit)."""
        return self._spf(as_int(n, "n", 2, self.factor_limit))

    def _spf(self, n: int) -> int:
        """``spf`` of a Python int in its range, unchecked."""
        if n % 2 == 0:
            return 2
        if n > self.limit:
            p = next((p for p in self._trial_primes if n % p == 0 or p * p > n), n)
            return p if p * p <= n else n
        v = int(self._cells[n >> 1])
        return n if v == 0 else v

    @cached_property
    def _trial_primes(self) -> list[int]:
        """The odd primes up to isqrt(factor_limit), listed on first use: the
        trial divisors of every n above the limit."""
        return self._primes(3, math.isqrt(self.factor_limit)).tolist()

    def is_prime(self, n: int) -> bool:
        """Primality for any 64-bit n; table lookup below the limit,
        deterministic Miller-Rabin above it."""
        n = as_int(n, "n")
        if n < 2:
            return False
        if n <= self.limit:
            return n == 2 or (n % 2 == 1 and self._cells[n >> 1] == 0)
        return is_prime_u64(n)

    def are_prime(self, ns: np.ndarray) -> np.ndarray:
        """``is_prime`` of every entry of an integer array: the cells up to the
        limit, where the poisoned cell of 1 answers every n < 2, parity for the
        even n, Miller-Rabin one entry at a time above it; 2**64 on is refused."""
        ns = as_int_array(ns, "ns")
        # one index temporary, shifted and then reused for the parity
        idx = np.clip(ns, 0, 2 * self._cells.size - 1)
        idx >>= 1
        out = self._cells[idx] == 0
        out &= np.bitwise_and(ns, 1, out=idx) == 1
        out |= ns == 2
        big = np.flatnonzero(ns > self.limit)
        out[big] = [_miller_rabin(n) for n in ns[big].tolist()]
        return out

    def factorize(self, n: int) -> Factorization:
        """Factorization of 1 <= n <= factor_limit via repeated spf division."""
        n = as_int(n, "n", 1, self.factor_limit)
        e = (n & -n).bit_length() - 1
        pairs = [(2, e)] if e else []
        m = n >> e
        while m > 1:
            p = self._spf(m)
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        return Factorization(n, tuple(pairs))

    # -- vectorized queries ---------------------------------------------

    def spf_rounds(self, ns: np.ndarray):
        """Yield (rows, s, new) per round of spf division of the odd parts of
        ``ns``, integers in 1..factor_limit (DomainError otherwise): each
        round divides every unfinished odd part m[row] by its smallest prime
        factor s, int64, read in the cells, or by ``spf`` for the odd parts
        above the limit alone.  ``new`` marks the s that differ from the
        row's previous round's: the odd prime divisors of ns[row], once each,
        increasing."""
        m = as_int_array(ns, "ns", 1, self.factor_limit)
        m = m // (m & -m)
        above = int(m.max(initial=1)) > self.limit
        rows = np.flatnonzero(m > 1)
        m = m[rows]
        last = np.zeros_like(m)
        while m.size:
            s = self._cells[np.minimum(m >> 1, self._cells.size - 1) if above else m >> 1]
            s = np.where(s == 0, m, s)  # int64
            if above:
                big = np.flatnonzero(m > self.limit)
                s[big] = [self._spf(n) for n in m[big].tolist()]
            yield rows, s, s != last
            m //= s
            more = m > 1
            rows, m, last = rows[more], m[more], s[more]

    def unitary_cofactors(self, ns: np.ndarray) -> np.ndarray:
        """l(n) = n / rad(n) of every entry of ``ns`` (1 <= n <= factor_limit), int64.

        The power of 2 goes in one step, 2^e giving 2^(e-1); the odd part
        multiplies l by every factor of ``spf_rounds`` that repeats the
        round before's.
        """
        m = as_int_array(ns, "ns", 1, self.factor_limit)
        out = np.maximum((m & -m) >> 1, 1)
        for rows, s, new in self.spf_rounds(m):
            again = ~new
            out[rows[again]] *= s[again]
        return out

    def primes(self, lo: int = 2, hi: int | None = None) -> np.ndarray:
        """The primes in [lo, hi] (hi defaults to, and is clipped at, the limit) as int64."""
        return self._primes(as_int(lo, "lo"), self.limit if hi is None else as_int(hi, "hi"))

    def _primes(self, lo: int, hi: int) -> np.ndarray:
        """``primes`` of Python ints lo and hi, unchecked."""
        lo, hi = max(lo, 0), min(hi, self.limit)
        # the cells of the odd n in [lo, hi], counted and then filled a segment
        # at a time, so no mask spans the range; the poisoned cell of 1 never matches
        a = lo >> 1
        b = max((hi + 1) >> 1, a)
        two = int(lo <= 2 <= hi)
        counts = [int(np.count_nonzero(zero)) for _, zero in self._zero_runs(a, b)]
        out = np.empty(two + sum(counts), dtype=np.int64)
        out[:two] = 2
        k = two
        for (j, zero), c in zip(self._zero_runs(a, b), counts):
            out[k : k + c] = _cell_primes(zero, j)
            k += c
        return out

    def prime_count(self, x: int) -> int:
        """pi(x) for x <= limit."""
        x = as_int(x, "x", hi=self.limit)
        # counted a segment at a time, so the temporary mask stays small
        return int(x >= 2) + sum(int(np.count_nonzero(zero)) for _, zero in self._zero_runs(0, (x + 1) >> 1))


def build_spf(limit: int) -> SpfTable:
    """Construct the smallest-prime-factor table for 2..limit."""
    return SpfTable(limit)


def progression_step(q):
    """Stride between the candidates 1 + mq that can be prime: q, or 2q for
    odd q > 1, since 1 + qm is then even and at least 4 for every odd m.
    Takes an int q >= 1, or an array of them (below 2**64) as uint64, where
    a 2q that wraps becomes 2**64 - 1, above any ceiling below 2**64 too."""
    q = as_int(q, "q", 1) if np.ndim(q) == 0 else as_int_array(q, "modulus q", 1).astype(np.uint64)
    step = q << ((q > 1) & (q % 2 == 1))
    if np.ndim(q):
        step[step < q] = np.iinfo(np.uint64).max
    return step


# Candidates per array of progression_candidates; bounds the temporaries
# (a few 2 MiB arrays).
PROGRESSION_CHUNK = 1 << 18


def progression_candidates(qs: np.ndarray, ceiling: int):
    """Yield (rows, candidates): every 1 + k * progression_step(qs[row]) with
    k >= 1 and at most ``ceiling`` (below 2**64), as uint64, in chunks of at
    most PROGRESSION_CHUNK.  Rows come in order and each row's candidates
    increase; a row with more than PROGRESSION_CHUNK candidates gets chunks
    of its own.  Any q < 1 is refused with a DomainError."""
    ceiling = as_int(ceiling, "ceiling", hi=(1 << 64) - 1)
    width = PROGRESSION_CHUNK
    steps = progression_step(qs)
    if ceiling < 2 or not steps.size:
        return
    counts = (ceiling - 1) // steps
    # a row above width is clipped to width + 1, so no shared chunk takes it
    clipped = np.minimum(counts, width + 1).astype(np.int64)
    ends = np.cumsum(clipped)
    i = 0
    while i < steps.size:
        if clipped[i] > width:
            total, step = int(counts[i]), steps[i]
            for k in range(0, total, width):
                ks = np.arange(k + 1, min(k + width, total) + 1, dtype=np.uint64)
                yield np.full(ks.size, i), 1 + ks * step
            i += 1
            continue
        start = ends[i] - clipped[i]
        j = int(np.searchsorted(ends, start + width, side="right"))  # rows i..j-1 fit
        c = clipped[i:j]
        rows = np.repeat(np.arange(i, j), c)
        ks = np.arange(1, rows.size + 1, dtype=np.uint64)
        ks -= np.repeat((ends[i:j] - c - start).astype(np.uint64), c)
        ks *= steps[rows]
        ks += 1
        yield rows, ks
        i = j


def primes_in_aps(qs: np.ndarray, x: int, table: SpfTable):
    """Yield (rows, primes): the primes p <= x with p = 1 (mod qs[row]), q >= 1,
    per chunk of ``progression_candidates`` (rows in order, each row's primes
    increasing, uint64), as ``table.are_prime`` finds them: the cells up to
    the limit, Miller-Rabin above it.  Refused with a CapacityError before
    any test when x reaches 2**64 or more than ``MAX_AP_CANDIDATES``
    candidates, summed over all moduli, lie above the limit."""
    x = as_int(x, "x")
    steps = progression_step(qs)
    if x >= 1 << 64:
        raise CapacityError(f"x={x} reaches 2**64; the witness set only proves primality below it")
    if x > table.limit:
        above = (x - 1) // steps - (table.limit - 1) // steps
        count = sum(above.tolist())
        if count > MAX_AP_CANDIDATES:
            raise CapacityError(f"{count} candidates above the table limit {table.limit}; at most {MAX_AP_CANDIDATES} are tested")
    for rows, cands in progression_candidates(qs, x):
        prime = table.are_prime(cands)
        yield rows[prime], cands[prime]


def count_primes_in_aps(x: int, qs: np.ndarray, table: SpfTable) -> np.ndarray:
    """Number of primes p <= x with p = 1 (mod q) for every q >= 1 of
    ``qs``, as int64, counted over ``primes_in_aps`` and refused where it
    refuses; q = 1 degenerates to pi(x)."""
    counts = np.zeros(np.size(qs), dtype=np.int64)
    for rows, _ in primes_in_aps(qs, x, table):
        counts += np.bincount(rows, minlength=counts.size)
    return counts
