"""Segmented smallest-prime-factor sieve and factorization helpers.

The central object is :class:`SpfTable`: smallest-prime-factor values for
every integer in ``2..limit``, materialized segment by segment so each
working block stays cache resident.  Primes are the cells whose smallest
prime factor equals the integer itself; internally those cells store 0 so
a freshly zeroed segment needs one marking pass only.

Everything downstream (Pratt trees, chain enumeration, totient iterates,
singular series) factorizes through this table.  Integers above the table
limit fall back to a deterministic Miller-Rabin test that is exact for all
64-bit inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

# Cells sieved per pass; one segment of uint16 cells stays cache resident.
SEGMENT_WIDTH = 1 << 20
MAX_LIMIT = (1 << 32) - 1
# Ceiling on the bytes of one table; SpfTable refuses larger limits before
# allocating anything.
MAX_TABLE_BYTES = 1 << 30
# Ceiling on the candidates above a table's limit, summed over all moduli, that
# count_primes_in_aps tests with Miller-Rabin: about 20 s at 64 bits, 2-core Xeon.
MAX_AP_CANDIDATES = 10**6

# Deterministic Miller-Rabin witness set, exact for n < 3.3*10^24 and in
# particular for every 64-bit integer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime_u64(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 2**64."""
    if n < 0:
        raise DomainError("primality test needs n >= 0")
    if n >= 1 << 64:
        raise CapacityError("witness set only proves primality below 2**64")
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
    """Bytes of the cells of a table for 2..limit (one uint16 per integer)."""
    return 2 * (limit + 1)


def _simple_prime_array(n: int) -> np.ndarray:
    """Primes <= n by a plain boolean sieve (used for base primes only)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


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
    """Smallest-prime-factor values for 2..limit in one array, sieved per
    segment.

    Cells holding 0 denote primes (their smallest prime factor is the
    number itself).  A composite below 2**32 has its smallest prime factor
    below 2**16, so each cell is a uint16.  ``segments`` are views of
    ``SEGMENT_WIDTH`` cells each.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise DomainError("table limit must be at least 2")
        if limit > MAX_LIMIT:
            raise CapacityError(f"table limit {limit} exceeds 32-bit ceiling {MAX_LIMIT}")
        if table_bytes(limit) > MAX_TABLE_BYTES:
            raise CapacityError(
                f"table limit {limit} needs {table_bytes(limit) >> 20} MiB, above the {MAX_TABLE_BYTES >> 20} MiB ceiling"
            )
        self.limit = int(limit)
        self._base = _simple_prime_array(math.isqrt(limit))
        self._cells = np.zeros(limit + 1, dtype=np.uint16)
        self._cells[:2] = 1  # 0 and 1 are out of domain; poison the cells
        self.segments: list[np.ndarray] = []
        for lo in range(0, limit + 1, SEGMENT_WIDTH):
            seg = self._cells[lo : lo + SEGMENT_WIDTH]
            self._sieve_segment(seg, lo)
            self.segments.append(seg)

    def _sieve_segment(self, seg: np.ndarray, lo: int) -> None:
        hi = lo + seg.size
        for p in self._base:
            p = int(p)
            start = max(2 * p, ((lo + p - 1) // p) * p)
            if start >= hi:
                continue
            sl = seg[start - lo :: p]
            sl[sl == 0] = p

    # -- scalar queries -------------------------------------------------

    def spf(self, n: int) -> int:
        """Smallest prime factor of n (2 <= n <= limit)."""
        if not 2 <= n <= self.limit:
            raise DomainError(f"n={n} outside table range 2..{self.limit}")
        v = int(self._cells[n])
        return n if v == 0 else v

    def is_prime(self, n: int) -> bool:
        """Primality for any 64-bit n; table lookup below the limit,
        deterministic Miller-Rabin above it."""
        if n < 2:
            return False
        if n <= self.limit:
            return self._cells[n] == 0
        return is_prime_u64(n)

    def are_prime(self, ns: np.ndarray) -> np.ndarray:
        """``is_prime`` of every entry of an integer array: the cells up to
        the limit, where the poisoned cells 0 and 1 answer every n < 2, and
        Miller-Rabin one entry at a time above it."""
        ns = np.asarray(ns)
        out = self._cells[np.clip(ns, 0, self.limit)] == 0
        big = np.flatnonzero(ns > self.limit)
        out[big] = [is_prime_u64(n) for n in ns[big].tolist()]
        return out

    def factorize(self, n: int) -> Factorization:
        """Factorization of 1 <= n <= limit via repeated spf division."""
        if not 1 <= n <= self.limit:
            raise DomainError(f"n={n} outside factorization range 1..{self.limit}")
        m = n
        pairs = []
        while m > 1:
            p = self.spf(m)
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
        return Factorization(n, tuple(pairs))

    # -- vectorized queries ---------------------------------------------

    def _spf_rounds(self, m: np.ndarray):
        """Yield (rows, s, new) per round of spf division of the odd parts of
        ``m``, an int64 array with every entry in 1..limit (DomainError
        otherwise): each round divides every unfinished odd part m[row] by its
        smallest prime factor s.  A row's factors come out non-decreasing, so
        ``new`` marks the s that differ from the row's previous round's."""
        if m.size and (m.min() < 1 or m.max() > self.limit):
            raise DomainError(f"array entries outside table range 1..{self.limit}")
        m = m // (m & -m)
        rows = np.flatnonzero(m > 1)
        m = m[rows]
        last = np.zeros_like(m)
        while m.size:
            s = self._cells[m].astype(np.int64)
            s = np.where(s == 0, m, s)
            yield rows, s, s != last
            m //= s
            more = m > 1
            rows, m, last = rows[more], m[more], s[more]

    def prime_divisors(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct prime divisors of every entry of ``ns`` (1 <= n <= limit).

        Returns parallel int64 arrays (rows, primes): the primes dividing
        ``ns[row]``, grouped by increasing row and increasing within a row.
        2 comes from the parity, the odd primes from the new factors of
        ``_spf_rounds``.
        """
        m = np.asarray(ns, dtype=np.int64)
        rows = np.flatnonzero(m % 2 == 0)
        got_rows, got_primes = [rows], [np.full(rows.size, 2, dtype=np.int64)]
        for rows, s, new in self._spf_rounds(m):
            got_rows.append(rows[new])
            got_primes.append(s[new])
        # each round's rows are increasing, so the stable sort merges runs;
        # one concatenation at a time keeps the peak at four arrays
        rows = np.concatenate(got_rows)
        del got_rows
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        primes = np.concatenate(got_primes)
        del got_primes
        return rows, primes[order]

    def unitary_cofactors(self, ns: np.ndarray) -> np.ndarray:
        """l(n) = n / rad(n) of every entry of ``ns`` (1 <= n <= limit), int64.

        The power of 2 goes in one step, 2^e giving 2^(e-1); the odd part
        multiplies l by every factor of ``_spf_rounds`` that repeats the
        round before's.
        """
        m = np.asarray(ns, dtype=np.int64)
        out = np.maximum((m & -m) >> 1, 1)
        for rows, s, new in self._spf_rounds(m):
            again = ~new
            out[rows[again]] *= s[again]
        return out

    def primes(self, lo: int = 2, hi: int | None = None) -> np.ndarray:
        """The primes in [lo, hi] (hi defaults to, and is clipped at, the limit) as int64."""
        lo = max(lo, 0)
        hi = self.limit if hi is None else min(hi, self.limit)
        # the poisoned cells 0 and 1 are nonzero, so they never match
        cells = self._cells[lo : max(hi + 1, lo)]
        out = np.flatnonzero(cells == 0).astype(np.int64, copy=False)
        out += lo
        return out

    def prime_count(self, x: int) -> int:
        """pi(x) for 0 <= x <= limit."""
        if x > self.limit:
            raise DomainError(f"x={x} beyond table limit {self.limit}")
        # counted a segment at a time, so the temporary mask stays small
        starts = range(0, x + 1, SEGMENT_WIDTH)
        return sum(int(np.count_nonzero(self._cells[lo : min(lo + SEGMENT_WIDTH, x + 1)] == 0)) for lo in starts)


def build_spf(limit: int) -> SpfTable:
    """Construct the smallest-prime-factor table for 2..limit."""
    return SpfTable(limit)


def progression_step(q):
    """Stride between the candidates 1 + mq that can be prime: q, or 2q for
    odd q > 1, since 1 + qm is then even and at least 4 for every odd m.
    Takes an int or an integer array, elementwise; a uint64 array wraps
    2q for odd q >= 2**63."""
    return q << ((q > 1) & (q % 2 == 1))


# Candidates per array of progression_candidates; bounds the temporaries
# (a few 2 MiB arrays).
PROGRESSION_CHUNK = 1 << 18


def progression_candidates(qs: np.ndarray, ceiling: int, width: int = PROGRESSION_CHUNK):
    """Yield (rows, candidates): every 1 + k * progression_step(qs[row]) with
    k >= 1 and at most ``ceiling`` (below 2**64), as uint64, in chunks of at
    most ``width``.  Rows come in order and each row's candidates increase; a
    row with more than ``width`` candidates gets chunks of its own."""
    qs = np.asarray(qs, dtype=np.uint64)
    if ceiling < 2 or not qs.size:
        return
    steps = progression_step(qs)
    counts = (ceiling - 1) // steps
    counts[steps < qs] = 0  # 2q wrapped: the true step exceeds any ceiling below 2**64
    # a row above width is clipped to width + 1, so no shared chunk takes it
    clipped = np.minimum(counts, width + 1).astype(np.int64)
    ends = np.cumsum(clipped)
    i = 0
    while i < qs.size:
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


def count_primes_in_aps(x: int, qs: np.ndarray, table: SpfTable) -> np.ndarray:
    """Number of primes p <= x with p = 1 (mod q) for every q >= 1 of
    ``qs``, as int64; q = 1 degenerates to pi(x).

    Only the candidates of ``progression_candidates`` are read, and
    ``table.are_prime`` tests them: the cells up to the table limit,
    Miller-Rabin above it.  x must lie below 2**64, and at most
    ``MAX_AP_CANDIDATES`` candidates, summed over all moduli, above the
    limit; beyond either the counts are refused with a CapacityError before
    any test.
    """
    if np.min(qs, initial=1) < 1:
        raise DomainError("modulus q must be >= 1")
    qs = np.asarray(qs, dtype=np.uint64)
    if x >= 1 << 64:
        raise CapacityError("witness set only proves primality below 2**64")
    if x > table.limit:
        steps = progression_step(qs)
        above = (x - 1) // steps - (table.limit - 1) // steps
        above[steps < qs] = 0  # 2q wrapped: no candidate below 2**64
        count = sum(above.tolist())
        if count > MAX_AP_CANDIDATES:
            raise CapacityError(
                f"{count} candidates above the table limit {table.limit}; at most {MAX_AP_CANDIDATES} are tested"
            )
    counts = np.zeros(qs.size, dtype=np.int64)
    for rows, cands in progression_candidates(qs, x):
        counts += np.bincount(rows[table.are_prime(cands)], minlength=counts.size)
    return counts
