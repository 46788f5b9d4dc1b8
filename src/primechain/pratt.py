"""Pratt trees: recursive certificate trees of primes.

The tree of a prime p has root p and one child subtree for each distinct
prime q dividing p - 1; the tree of 2 is a single node.  Per prime p:

* ``f(p)`` - number of nodes (counted with multiplicity),
* ``H(p)`` - height, with the single node 2 having height 1,
* ``g(p)`` - number of root-to-2 descending label chains, which for
  odd p is exactly f(p) / 2,

with f(p) = 1 + sum f(q), H(p) = 1 + max H(q) and g(p) = sum g(q) over the
children q.  Every child of p is at most (p - 1) / 2, so the primes of a
block [L, 2L) depend only on primes below L.  ``_pieces`` therefore walks
an increasing prime set one block at a time, factors the block's p - 1
with the table's vectorised spf division and finds each child's position
in a rank table, giving per-parent runs of children.  Every recurrence is
one reduction over those runs: :class:`PrattDag` fills f, H and g in dense
uint8 arrays, and :class:`MassProducts` the exact mass products in object
arrays, with l(p - 1) from a separate vectorised spf division.  The set
is every prime of the table, or any set closed under "prime divisor of
p - 1": the primes up to x for range statistics, the labels of one tree
(``tree_primes``) for a single prime.  Range histograms and
N(x) = sum f(p) are reductions over the PrattDag arrays.

The module also carries level profiles, the exact product identities on
the label multiset Q(p) of the tree (every label q contributes
q/(q-1) * l(q-1), and the full product telescopes to p), iterated-totient
statistics, and the greedy chain 2, 3, 7, 29, ... in which each prime is
the least prime = 1 modulo its predecessor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrityError
from .sieve import SpfTable, is_prime_u64, progression_step, table_bytes

# Widest block of integers factored in one pass; bounds the temporaries.
_BLOCK_WIDTH = 1 << 20

# A PrattDag fill's tracemalloc peak beyond its table: the 1-byte mask per
# integer of ``table.primes()``, each prime (8 bytes) with its f/H/g (3), the
# rank table (4 MiB) and one piece's temporaries (at most 10.1 MiB, at 2^21).
# The peak is 9.2, 28.8 and 70.6 MiB at 1e6, 2e7 and 5e7, the bound 16.9,
# 49.7 and 99.8 MiB.
_BYTES_PER_INTEGER = 1
_BYTES_PER_PRIME = 11
_PIECE_BYTES = 15 << 20


def footprint_bytes(limit: int) -> int:
    """Bytes of a factor table to ``limit`` plus the peak of a PrattDag fill
    over it, with pi(x) < 1.25506 x / ln x (Rosser-Schoenfeld)."""
    primes = 1.25506 * limit / math.log(limit) if limit > 1 else 0
    return table_bytes(limit) + limit * _BYTES_PER_INTEGER + int(primes * _BYTES_PER_PRIME) + _PIECE_BYTES


def tree_footprint_bytes(limit: int) -> int:
    """Bytes of a factor table to ``limit`` plus the peak of a PrattDag fill
    over one tree's labels (``tree_primes``): a handful of primes, so the
    rank table and one small piece, both inside ``_PIECE_BYTES``."""
    return table_bytes(limit) + _PIECE_BYTES


def _rank_table(primes: np.ndarray) -> np.ndarray:
    """Position in ``primes`` of each prime below ``_BLOCK_WIDTH``, indexed
    by the prime; 0 elsewhere, so a lookup is confirmed by reading back."""
    top = int(primes[-1]) if primes.size else 0
    small = primes[: np.searchsorted(primes, _BLOCK_WIDTH)]
    rank = np.zeros(min(_BLOCK_WIDTH, top + 1), dtype=np.int32)
    rank[small] = np.arange(small.size, dtype=np.int32)
    return rank


def _pieces(table: SpfTable, primes: np.ndarray, rank: np.ndarray):
    """Yield (a, b, kid, first) per piece of the dyadic blocks [2^k, 2^(k+1)),
    each cut at ``_BLOCK_WIDTH`` integers: ``kid`` indexes in ``primes`` the
    children of primes[a:b], and those of primes[a + j] start at kid[first[j]].
    Every child lies below its piece, so reductions read finished values."""
    top = int(primes[-1]) if primes.size else 0
    lo = 3
    while lo <= top:
        hi = min(1 << lo.bit_length(), lo + _BLOCK_WIDTH, top + 1)
        a, b = np.searchsorted(primes, [lo, hi]).tolist()
        lo = hi
        if a < b:
            yield a, b, *_children(table, primes, rank, a, b)


def _children(table: SpfTable, primes: np.ndarray, rank: np.ndarray, a: int, b: int):
    """(kid, first) of primes[a:b] for ``_pieces``; its temporaries end with
    the call, so they never overlap the next piece's.

    Children below ``_BLOCK_WIDTH`` are looked up in ``rank``, the
    ``_rank_table`` of ``primes``, larger ones by binary search; a child
    missing from ``primes`` raises an IntegrityError.
    """
    rows, divisors = table.prime_divisors(primes[a:b] - 1)
    kid = rank.take(divisors, mode="clip")
    big = divisors >= rank.size
    kid[big] = np.searchsorted(primes[:a], divisors[big])  # every child is below the piece
    if not np.array_equal(primes[kid], divisors):
        raise IntegrityError(f"a prime divisor of p - 1 for some p in [{primes[a]}, {primes[b - 1]}] is missing from the primes")
    counts = np.bincount(rows, minlength=b - a)
    return kid, np.cumsum(counts) - counts  # p >= 3, so every parent has a child


def _complete_to(table: SpfTable, primes: np.ndarray) -> int:
    """The largest y <= table.limit with every prime <= y in ``primes``, a
    validated increasing prime set, when the set is the first k primes: just
    below the next prime.  Any other set gets 1, so it answers no x >= 2.
    The k-th prime is below k (ln k + ln ln k) for k >= 6 (Rosser), which
    refuses a sparse set, like most of a tree's labels, without a count."""
    k = primes.size
    top = int(primes[-1]) if k else 1
    bound = 11 if k < 6 else k * (math.log(k) + math.log(math.log(k)))
    if top > bound or table.prime_count(top) != k:
        return 1
    nxt = top + 1
    while nxt <= table.limit and not table.is_prime(nxt):
        nxt += 1
    return nxt - 1


def _require_prime(p: int, table: SpfTable) -> None:
    if p > table.limit:
        raise DomainError(f"{p} is beyond factorization limit {table.limit}")
    if not table.is_prime(p):
        raise DomainError(f"{p} is not prime")


def tree_primes(p: int, table: SpfTable) -> np.ndarray:
    """The distinct labels of the tree of p, increasing: the least prime
    set holding p and closed under "prime divisor of q - 1"."""
    _require_prime(p, table)
    found, level = {p}, {p}
    while level:
        level = set(table.prime_divisors(np.fromiter(level, np.int64) - 1)[1].tolist()) - found
        found |= level
    return np.array(sorted(found), dtype=np.int64)


class PrattDag:
    """f, H and g of every prime of a set closed under "prime divisor of
    p - 1": by default all primes up to the table's limit.

    Values live in arrays indexed by a prime's position in ``_primes``,
    filled once, in place, by reductions over ``_pieces``; no children are
    stored.  f(p) <= 2 log2 p - 1 < 64 below 2**32, so uint8 holds them.
    ``tree_primes(p, table)`` is the least set that answers for p.
    ``values(x)`` answers only for the first k primes, below the next one.
    """

    def __init__(self, table: SpfTable, primes: np.ndarray | None = None):
        self.table = table
        if primes is None:
            primes = table.primes()
            self._complete = table.limit
        else:
            primes = np.asarray(primes, dtype=np.int64)
            if primes.size and (primes[0] < 2 or primes[-1] > table.limit or np.any(np.diff(primes) <= 0)):
                raise DomainError(f"primes must increase within 2..{table.limit}")
            if not np.all(table._cells[primes] == 0):
                raise DomainError("the set holds a composite")
            self._complete = _complete_to(table, primes)
        self._primes = primes
        rank = self._rank = _rank_table(primes)
        f, h, g = self._f, self._h, self._g = [np.ones(primes.size, dtype=np.uint8) for _ in range(3)]
        for a, b, kid, first in _pieces(table, primes, rank):
            f[a:b] = 1 + np.add.reduceat(f[kid], first, dtype=np.int64)
            h[a:b] = 1 + np.maximum.reduceat(h[kid], first)
            g[a:b] = np.add.reduceat(g[kid], first, dtype=np.int64)

    def _index(self, p: int) -> int:
        i = int(self._rank[p] if 0 <= p < self._rank.size else self._primes.searchsorted(p))
        if i == self._primes.size or self._primes[i] != p:
            _require_prime(p, self.table)
            raise DomainError(f"{p} is not among the dag's primes")
        return i

    def values(self, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(primes, f, H, g) for every prime p <= x, as read-only views;
        refused unless the set is the first k primes, below the next one."""
        if x > self.table.limit:
            raise DomainError(f"x={x} beyond table limit {self.table.limit}")
        if x > self._complete:
            raise DomainError(f"the dag's primes stop being complete at {self._complete} < x={x}")
        k = int(np.searchsorted(self._primes, x, side="right"))
        views = tuple(a[:k] for a in (self._primes, self._f, self._h, self._g))
        for v in views:
            v.flags.writeable = False
        return views

    def children(self, p: int) -> tuple[int, ...]:
        """Distinct primes dividing p - 1 (deduplicated, increasing)."""
        self._index(p)
        return tuple(self.table.prime_divisors(np.array([p - 1]))[1].tolist())

    def f_of(self, p: int) -> int:
        """Node count: f(2) = 1, f(p) = 1 + sum of f over the children."""
        i = self._index(p)
        return int(self._f[i])

    def h_of(self, p: int) -> int:
        """Height: H(2) = 1, H(p) = 1 + max of H over the children."""
        i = self._index(p)
        return int(self._h[i])

    def g_of(self, p: int) -> int:
        """Descending label chains from p to a leaf 2; f(p) / 2 for odd p."""
        i = self._index(p)
        return int(self._g[i])

    def level_counts(self, p: int) -> list[int]:
        """Number of tree nodes at each depth; length h(p), entries sum to f(p)."""
        counts, level = [], [p]
        while level:
            counts.append(len(level))
            level = [c for q in level for c in self.children(q)]
        return counts


def is_fermat_prime(p: int) -> bool:
    """True when p = 2^(2^m) + 1 for some m >= 0, i.e. the tree of p has
    height exactly 2 (all of p - 1's prime mass is on 2)."""
    if p < 3:
        return False
    e = (p - 1).bit_length() - 1
    if (1 << e) != p - 1:
        return False
    return e >= 1 and e & (e - 1) == 0 and is_prime_u64(p)


@dataclass
class RangeStats:
    """Aggregate tree statistics over all primes p <= limit."""

    limit: int
    prime_count: int
    h_hist: dict[int, int]
    f_hist: dict[int, int]
    n_total: int  # sum of f(p) over p <= limit
    max_h: int
    max_h_prime: int
    max_f: int
    max_f_prime: int

    def rows(self, stat: str) -> list[tuple[str, int, int]]:
        if stat not in ("H", "f"):
            raise DomainError("stat must be 'H' or 'f'")
        hist = self.h_hist if stat == "H" else self.f_hist
        return [(stat, value, hist[value]) for value in sorted(hist)]


def _histogram(values: np.ndarray) -> dict[int, int]:
    counts = np.bincount(values)
    return {v: int(counts[v]) for v in np.flatnonzero(counts).tolist()}


def range_stats(x: int, table: SpfTable, dag: PrattDag | None = None) -> RangeStats:
    """Histograms of f and h over primes <= x, plus N(x) = sum of f(p).

    The extreme primes are the first (least) primes attaining the maxima.
    """
    if x < 2:
        raise DomainError("x must be >= 2")
    primes, f, h, _ = (dag or PrattDag(table, table.primes(2, x))).values(x)
    i_h, i_f = int(np.argmax(h)), int(np.argmax(f))
    return RangeStats(
        limit=x,
        prime_count=int(primes.size),
        h_hist=_histogram(h),
        f_hist=_histogram(f),
        n_total=int(f.sum(dtype=np.int64)),
        max_h=int(h[i_h]),
        max_h_prime=int(primes[i_h]),
        max_f=int(f[i_f]),
        max_f_prime=int(primes[i_f]),
    )


class MassProducts:
    """Exact integer products over the label multiset Q(p) of the tree.

    For each prime p the multiset Q(p) consists of p together with the
    labels of all child subtrees:

    * ``den(p)``  = product of (q - 1) over Q(p),
    * ``num(p)``  = product of q * l(q - 1) over Q(p),
    * ``lprod(p)`` = product of l(q - 1) over Q(p).

    The identity num(p) == p * den(p) is the exact-arithmetic form of
    "the tree mass product telescopes to p", and lprod(p)^2 * 2^f(p) <= p^2
    is the exact form of the 2^(-f/2) mass decay bound.  The constructor
    fills all three for every prime of the dag: l(p - 1) for all of them at
    once by ``table.unitary_cofactors``, then Python-int product reductions
    over ``_pieces``.  l(q - 1) comes from its own spf division, not from
    the pieces' children, so the identity also checks the children.
    """

    def __init__(self, table: SpfTable, dag: PrattDag):
        self.dag = dag
        primes = dag._primes
        lp = self._lprod = table.unitary_cofactors(primes - 1).astype(object)
        den = self._den = (primes - 1).astype(object)
        num = self._num = primes.astype(object) * lp  # before lp becomes lprod
        for a, b, kid, first in _pieces(table, primes, dag._rank):
            den[a:b] *= np.multiply.reduceat(den[kid], first)
            num[a:b] *= np.multiply.reduceat(num[kid], first)
            lp[a:b] *= np.multiply.reduceat(lp[kid], first)

    def den(self, p: int) -> int:
        return self._den[self.dag._index(p)]

    def num(self, p: int) -> int:
        return self._num[self.dag._index(p)]

    def lprod(self, p: int) -> int:
        return self._lprod[self.dag._index(p)]

    def mass_identity_holds(self, p: int) -> bool:
        i = self.dag._index(p)
        return self._num[i] == p * self._den[i]


def phi_iterate(n: int, k: int, table: SpfTable) -> int:
    """k-fold iterate of Euler's totient; phi_0(n) = n and phi(1) = 1."""
    if n < 1 or k < 0:
        raise DomainError("need n >= 1 and k >= 0")
    for _ in range(k):
        if n == 1:
            return 1
        n = table.factorize(n).totient()
    return n


def phi_iter_stats(x: int, k: int, eps: float, table: SpfTable) -> float:
    """Fraction of n <= x whose k-th totient iterate is x^eps-smooth.

    Smoothness means the largest prime factor of phi_k(n) is <= x^eps,
    with P+(1) = 1.  Computed exhaustively with full totient and
    largest-prime-factor tables up to x.
    """
    if x < 2 or x > table.limit:
        raise DomainError("x must be in 2..table limit")
    if k < 0 or not 0 < eps <= 1:
        raise DomainError("need k >= 0 and 0 < eps <= 1")
    phi = np.arange(x + 1, dtype=np.int64)
    gpf = np.ones(x + 1, dtype=np.int64)
    for p in table.primes(2, x).tolist():
        phi[p::p] -= phi[p::p] // p
        gpf[p::p] = p
    vals = np.arange(1, x + 1, dtype=np.int64)
    for _ in range(k):
        vals = phi[vals]
    threshold = float(x) ** eps
    return float(np.mean(gpf[vals] <= threshold))


def linnik_chain(length: int, table: SpfTable) -> list[int]:
    """Greedy chain starting at 2 where each next element is the least
    prime congruent to 1 modulo the current one."""
    if length < 1:
        raise DomainError("length must be >= 1")
    chain = [2]
    while len(chain) < length:
        step = progression_step(chain[-1])
        cand = 1 + step
        while not table.is_prime(cand):  # raises CapacityError from 2**64 on
            cand += step
        chain.append(cand)
    return chain
