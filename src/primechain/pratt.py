"""Pratt trees: recursive certificate trees of primes.

The tree of a prime p has root p and one child subtree for each distinct
prime q dividing p - 1; the tree of 2 is a single node.  Per prime p:

* ``f(p)`` - number of nodes (counted with multiplicity),
* ``H(p)`` - height, with the single node 2 having height 1,
* ``g(p)`` - number of root-to-2 descending label chains, which for
  odd p is exactly f(p) / 2,

with f(p) = 1 + sum f(q), H(p) = 1 + max H(q) and g(p) = sum g(q) over the
children q.  Every child of p is at most (p - 1) / 2, so the primes of a
block [L, 2L) depend only on primes below L.  ``_links`` walks an
increasing prime set block by block and yields its links "q divides
p - 1" straight from the table's spf-division rounds, each child found in
a rank table; every recurrence is one update per yield.  :class:`PrattDag`
fills f, H and g in dense uint8 arrays, :class:`MassProducts` the exact
mass products in object arrays.  The set is every prime of the table, or
any set closed under "prime divisor of p - 1": the primes up to x for
range statistics, the labels of one tree (``tree_primes``) for a single
prime anywhere in the table's factor range (a 2**16 table serves every
prime below 2**32).  Range histograms and N(x) = sum f(p) are reductions
over the PrattDag arrays.

The module also carries level profiles, the exact product identities on
the label multiset Q(p) of the tree (every label q contributes
q/(q-1) * l(q-1), and the full product telescopes to p), iterated-totient
statistics, and the greedy chain 2, 3, 7, 29, ... in which each prime is
the least prime = 1 modulo its predecessor.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrityError, as_int, as_int_array, as_real, check_bytes
from .sieve import SpfTable, is_prime_u64, prime_count_bound, progression_step, table_bytes

# Widest block of integers factored in one pass; bounds the temporaries.
_BLOCK_WIDTH = 1 << 20

# A PrattDag fill's tracemalloc peak beyond its table, and so that of
# ``range_stats`` to the table's limit (hist), which runs that fill: each
# prime (8 bytes) of ``table.primes()``, built a segment at a time, with its
# f/H/g (3), the rank table (4 MiB) and one piece's temporaries (at most
# 7.6 MiB, the piece from 2^20).  The peak is 8.3, 24.9, 43.1 and 72.1 MiB at
# 1e6, 2e7, 5e7 and 1e8, the bound 16.0, 30.7, 52.1 and 86.5 MiB.  A fill of
# a given set also checks it: one int64 and a few bytes per prime more.
_BYTES_PER_PRIME = 11
_PIECE_BYTES = 15 << 20


def footprint_bytes(limit: int) -> int:
    """Bytes of a factor table to ``limit`` plus the peak of a PrattDag fill
    over it, with pi(x) bounded by ``prime_count_bound``."""
    return table_bytes(limit) + int(prime_count_bound(limit) * _BYTES_PER_PRIME) + _PIECE_BYTES


def _rank_table(primes: np.ndarray) -> np.ndarray:
    """Position in ``primes`` of each prime below ``_BLOCK_WIDTH``, indexed
    by the prime; 0 elsewhere, so a lookup is confirmed by reading back."""
    top = int(primes[-1]) if primes.size else 0
    small = primes[: np.searchsorted(primes, _BLOCK_WIDTH)]
    rank = np.zeros(min(_BLOCK_WIDTH, top + 1), dtype=np.int32)
    rank[small] = np.arange(small.size, dtype=np.int32)
    return rank


def _links(table: SpfTable, primes: np.ndarray, rank: np.ndarray):
    """Yield (up, kid), positions in ``primes`` of parents and of one child
    each, over every link "q divides p - 1" of the set.  A piece is the
    primes from the first one not yet done, p0 in [2^(k-1), 2^k), to below
    min(2^k, p0 + ``_BLOCK_WIDTH``); per piece come the child 2 of every
    (odd) parent, then the new factors of each round of
    ``table.spf_rounds``: no parent repeats in a yield, and every child lies
    below p0, so an update reads finished values.  Children below
    ``_BLOCK_WIDTH`` are found in ``rank``, the ``_rank_table`` of
    ``primes``, larger ones by binary search; a child missing from
    ``primes`` raises an IntegrityError."""
    a = int(np.searchsorted(primes, 3))
    while a < primes.size:
        lo = int(primes[a])
        b = int(np.searchsorted(primes, min(1 << lo.bit_length(), lo + _BLOCK_WIDTH)))
        rounds = ((rows[new], s[new]) for rows, s, new in table.spf_rounds(primes[a:b] - 1))
        for rows, s in itertools.chain([(np.arange(b - a), np.full(b - a, 2))], rounds):
            kid = rank.take(s, mode="clip")
            big = s >= rank.size
            kid[big] = np.searchsorted(primes[:a], s[big])  # every child is below the piece
            if not np.array_equal(primes[kid], s):
                raise IntegrityError(f"a prime divisor of p - 1 for some p in [{primes[a]}, {primes[b - 1]}] is missing from the primes")
            yield rows + a, kid
        a = b


def _require_prime(p: int, table: SpfTable) -> int:
    """p as a Python int, refused unless a prime in the table's factor range."""
    p = as_int(p, "p", 2, table.factor_limit)
    if not table.is_prime(p):
        raise DomainError(f"{p} is not prime")
    return p


def tree_primes(p: int, table: SpfTable) -> np.ndarray:
    """The distinct labels of the tree of p, increasing: the least prime
    set holding p (up to ``table.factor_limit``) and closed under "prime
    divisor of q - 1"."""
    p = _require_prime(p, table)
    found, level = {p}, {p}
    while level:
        rounds = table.spf_rounds(np.fromiter(level, np.int64) - 1)
        level = {2}.union(*(s[new].tolist() for _, s, new in rounds)) - found
        found |= level
    return np.array(sorted(found), dtype=np.int64)


class PrattDag:
    """f, H and g of every prime of a set closed under "prime divisor of
    p - 1": by default all primes up to the table's limit, else any up to
    its ``factor_limit``.

    Values live in arrays indexed by a prime's position in ``_primes``,
    filled once, in place, by one update per yield of ``_links`` (g starts
    at 1 for the prime 2 only); no children are stored.
    f(p) <= 2 log2 p - 1 < 64 below 2**32, so uint8 holds them.
    ``tree_primes(p, table)`` is the least set that answers for p, and
    ``upto(table, x)`` the dag of the primes up to x.  ``values(x)`` answers
    when the set holds every prime up to x: checked to be increasing primes,
    it does exactly when it has ``table.prime_count(x)`` of them up to x.
    """

    def __init__(self, table: SpfTable, primes: np.ndarray | None = None):
        self.table = table
        if primes is None:
            primes = table.primes()
        else:
            primes = as_int_array(primes, "primes", 2, table.factor_limit)
            if np.any(primes[1:] <= primes[:-1]) or not table.are_prime(primes).all():
                raise DomainError("the set must hold increasing primes")
        self._primes = primes
        rank = self._rank = _rank_table(primes)
        f, h = self._f, self._h = np.ones((2, primes.size), dtype=np.uint8)
        g = self._g = (primes == 2).astype(np.uint8)
        for up, kid in _links(table, primes, rank):
            f[up] += f[kid]
            g[up] += g[kid]
            h[up] = np.maximum(h[up], h[kid] + 1)
        # zero-copy views for scalar reads, which give Python ints far more
        # cheaply than numpy scalar indexing does
        views = map(memoryview, (rank, primes, f, h, g))
        self._rank_view, self._primes_view, self._f_view, self._h_view, self._g_view = views

    @classmethod
    def upto(cls, table: SpfTable, x: int) -> PrattDag:
        """The dag of the primes up to x; to the table's limit they are the
        table's own, so not re-checked."""
        x = as_int(x, "x")
        return cls(table, table.primes(2, x) if x < table.limit else None)

    def _index(self, p: int) -> int:
        primes = self._primes_view
        try:
            i = self._rank_view[p]  # an int below the rank table's size, unchecked
        except (IndexError, TypeError):  # beyond the rank table, or not an int: coerced
            p = as_int(p, "p")
            i = bisect.bisect_left(primes, p)
        if i == len(primes) or primes[i] != p:
            _require_prime(p, self.table)
            raise DomainError(f"{p} is not among the dag's primes")
        return i

    def values(self, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(primes, f, H, g) for every prime p <= x, as read-only views;
        refused unless the set holds all pi(x) of them."""
        pi = self.table.prime_count(x)  # a DomainError for a non-integer x or one beyond the limit
        k = int(np.searchsorted(self._primes, x, side="right"))
        if k != pi:
            raise DomainError(f"the dag holds {k} of the {pi} primes up to x={x}")
        views = tuple(a[:k] for a in (self._primes, self._f, self._h, self._g))
        for v in views:
            v.flags.writeable = False
        return views

    def children(self, p: int) -> tuple[int, ...]:
        """Distinct primes dividing p - 1 (deduplicated, increasing)."""
        self._index(p)
        return self.table.factorize(p - 1).distinct_primes()

    def f_of(self, p: int) -> int:
        """Node count: f(2) = 1, f(p) = 1 + sum of f over the children."""
        return self._f_view[self._index(p)]

    def h_of(self, p: int) -> int:
        """Height: H(2) = 1, H(p) = 1 + max of H over the children."""
        return self._h_view[self._index(p)]

    def g_of(self, p: int) -> int:
        """Descending label chains from p to a leaf 2; f(p) / 2 for odd p."""
        return self._g_view[self._index(p)]

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
    p = as_int(p, "p")
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
    """Counts of the uint8 ``values``, a block at a time, as bincount widens
    what it counts to int64."""
    blocks = range(0, values.size, _BLOCK_WIDTH)
    counts = sum(np.bincount(values[i : i + _BLOCK_WIDTH], minlength=256) for i in blocks)
    return {v: int(counts[v]) for v in np.flatnonzero(counts).tolist()}


def range_stats(x: int, table: SpfTable, dag: PrattDag | None = None) -> RangeStats:
    """Histograms of f and h over primes <= x, plus N(x) = sum of f(p).

    The extreme primes are the first (least) primes attaining the maxima.
    """
    x = as_int(x, "x", 2)
    primes, f, h, _ = (dag or PrattDag.upto(table, x)).values(x)
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
    once by ``table.unitary_cofactors``, then each parent's Python-int
    products are multiplied by the child's, one yield of ``_links`` at a
    time.  l(q - 1) comes from its own spf division, not from the links,
    so the identity also checks the children.
    """

    def __init__(self, table: SpfTable, dag: PrattDag):
        self.dag = dag
        primes = dag._primes
        lp = table.unitary_cofactors(primes - 1).astype(object)
        prods = np.stack([(primes - 1).astype(object), primes.astype(object) * lp, lp])
        for up, kid in _links(table, primes, dag._rank):
            prods[:, up] *= prods[:, kid]
        self._den, self._num, self._lprod = prods

    def den(self, p: int) -> int:
        return self._den[self.dag._index(p)]

    def num(self, p: int) -> int:
        return self._num[self.dag._index(p)]

    def lprod(self, p: int) -> int:
        return self._lprod[self.dag._index(p)]

    def mass_identity_holds(self, p: int) -> bool:
        i = self.dag._index(p)
        return self._num[i] == self.dag._primes_view[i] * self._den[i]


def phi_iterate(n: int, k: int, table: SpfTable) -> int:
    """k-fold iterate of Euler's totient; phi_0(n) = n and phi(1) = 1."""
    n, k = as_int(n, "n", 1), as_int(k, "k", 0)
    for _ in range(k):
        if n == 1:
            return 1
        n = table.factorize(n).totient()
    return n


def phi_iter_stats(x: int, k: int, eps: float, table: SpfTable) -> float:
    """Fraction of n <= x whose k-th totient iterate is x^eps-smooth.

    Smoothness means the largest prime factor of phi_k(n) is <= x^eps,
    with P+(1) = 1.  Computed exhaustively with full totient and
    largest-prime-factor tables up to x, refused with a CapacityError
    before they are allocated when they pass 512 MiB.
    """
    x, k = as_int(x, "x", 2, table.limit), as_int(k, "k", 0)
    eps = as_real(eps, "eps", 0, 1, lo_open=True)
    check_bytes(24 * (x + 1), f"x={x}'s three int64 totient tables")
    phi = np.arange(x + 1, dtype=np.int64)
    gpf = np.ones(x + 1, dtype=np.int64)
    for p in table.primes(2, x).tolist():
        phi[p::p] -= phi[p::p] // p
        gpf[p::p] = p
    vals = np.arange(1, x + 1, dtype=np.int64)
    for _ in range(k):
        if vals.max() == 1:  # phi(1) = 1, so no later iterate moves
            break
        vals = phi[vals]
    threshold = float(x) ** eps
    return float(np.mean(gpf[vals] <= threshold))


def linnik_chain(length: int, table: SpfTable) -> list[int]:
    """Greedy chain starting at 2 where each next element is the least
    prime congruent to 1 modulo the current one."""
    length = as_int(length, "length", 1)
    chain = [2]
    while len(chain) < length:
        step = progression_step(chain[-1])
        cand = 1 + step
        while not table.is_prime(cand):  # raises CapacityError from 2**64 on
            cand += step
        chain.append(cand)
    return chain
