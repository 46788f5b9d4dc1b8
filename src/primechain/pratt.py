"""Pratt trees: recursive certificate trees of primes.

The tree of a prime p has root p and one child subtree for each distinct
prime q dividing p - 1; the tree of 2 is a single node.  Per prime p:

* ``f(p)`` - number of nodes (counted with multiplicity),
* ``H(p)`` - height, with the single node 2 having height 1,
* ``g(p)`` - number of root-to-2 descending label chains, which for
  odd p is exactly f(p) / 2,

with f(p) = 1 + sum f(q), H(p) = 1 + max H(q) and g(p) = sum g(q) over the
children q.  Every child of p is at most (p - 1) / 2, so the primes of a
block [L, 2L) depend only on primes below L.  :class:`PrattDag` therefore
holds f, H and g of every prime in its table in dense per-prime arrays and
fills them in place, one block at a time: it factors the block's p - 1
with the table's vectorised spf division, gathers the children's values
and reduces per parent.  Range histograms and N(x) = sum f(p) are
reductions over those arrays.

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

from .errors import CapacityError, DomainError
from .sieve import SpfTable, is_prime_u64, table_bytes

_LINNIK_VALUE_CAP = 1 << 63

# Widest block of integers factored in one pass; bounds the temporaries.
_BLOCK_WIDTH = 1 << 20

# Peak PrattDag bytes per prime while it fills: the prime (8), f/H/g (3),
# the children offset (8) and the children's indices (4 each, fewer than 4
# on average), which are held twice while the pieces are joined.  The
# tracemalloc peak is 42-43 bytes per Rosser-Schoenfeld prime at 2e7 and 5e7.
_BYTES_PER_PRIME = 48


def footprint_bytes(limit: int) -> int:
    """Bytes of a factor table to ``limit`` plus the PrattDag arrays for
    every prime up to it, with pi(x) < 1.25506 x / ln x (Rosser-Schoenfeld)."""
    primes = 1.25506 * limit / math.log(limit) if limit > 1 else 0
    return table_bytes(limit) + int(primes * _BYTES_PER_PRIME)


class PrattDag:
    """f, H, g and the children of every prime up to the table's limit.

    Values live in arrays indexed by a prime's position in ``_primes``.
    The constructor fills them once, in place, one dyadic block
    [2^k, 2^(k+1)) at a time, cut into pieces of at most ``_BLOCK_WIDTH``
    integers; no piece holds a child of its own primes.
    f(p) <= 2 log2 p - 1 < 64 below 2**32, so uint8 holds f, H and g.
    """

    def __init__(self, table: SpfTable):
        self.table = table
        primes = self._primes = table.primes()
        f, h, g = self._f, self._h, self._g = [np.ones(primes.size, dtype=np.uint8) for _ in range(3)]
        # children of prime i: _kids[_kid_start[i]:_kid_start[i + 1]]; 2 has none
        kid_start = self._kid_start = np.zeros(primes.size + 1, dtype=np.int64)
        kids = [np.zeros(0, dtype=np.int32)]
        lo = 3
        while lo <= table.limit:
            hi = min(1 << lo.bit_length(), lo + _BLOCK_WIDTH, table.limit + 1)
            a, b = np.searchsorted(primes, [lo, hi]).tolist()
            lo = hi
            if a == b:
                continue
            rows, divisors = table.prime_divisors(primes[a:b] - 1)
            kid = np.searchsorted(primes[:a], divisors)  # every child is below the piece
            counts = np.bincount(rows, minlength=b - a)
            first = np.cumsum(counts) - counts  # p >= 3, so every parent has a child
            f[a:b] = 1 + np.add.reduceat(f[kid], first, dtype=np.int64)
            h[a:b] = 1 + np.maximum.reduceat(h[kid], first)
            g[a:b] = np.add.reduceat(g[kid], first, dtype=np.int64)
            kid_start[a + 1 : b + 1] = kid_start[a] + np.cumsum(counts)
            kids.append(kid.astype(np.int32))
        self._kids = np.concatenate(kids)

    def _index(self, p: int) -> int:
        i = int(self._primes.searchsorted(p))
        if i == self._primes.size or self._primes[i] != p:
            why = "is not prime" if p <= self.table.limit else f"is beyond factorization limit {self.table.limit}"
            raise DomainError(f"{p} {why}")
        return i

    def values(self, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(primes, f, H, g) for every prime p <= x, as read-only views."""
        if x > self.table.limit:
            raise DomainError(f"x={x} beyond table limit {self.table.limit}")
        k = int(np.searchsorted(self._primes, x, side="right"))
        views = tuple(a[:k] for a in (self._primes, self._f, self._h, self._g))
        for v in views:
            v.flags.writeable = False
        return views

    def children(self, p: int) -> tuple[int, ...]:
        """Distinct primes dividing p - 1 (deduplicated, increasing)."""
        i = self._index(p)
        kids = self._kids[self._kid_start[i] : self._kid_start[i + 1]]
        return tuple(self._primes[kids].tolist())

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
    primes, f, h, _ = (dag or PrattDag(table)).values(x)
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
    labels of all child subtrees.  Memoized recursively over the children:

    * ``den(p)``  = product of (q - 1) over Q(p),
    * ``num(p)``  = product of q * l(q - 1) over Q(p),
    * ``lprod(p)`` = product of l(q - 1) over Q(p).

    The identity num(p) == p * den(p) is the exact-arithmetic form of
    "the tree mass product telescopes to p", and lprod(p)^2 * 2^f(p) <= p^2
    is the exact form of the 2^(-f/2) mass decay bound.  l(q - 1) comes from
    the factorization of q - 1, not from the children of q, so the identity
    also checks every node's children against that factorization.
    """

    def __init__(self, table: SpfTable, dag: PrattDag):
        self.table = table
        self.dag = dag
        self._den: dict[int, int] = {}
        self._num: dict[int, int] = {}
        self._lprod: dict[int, int] = {}

    def _ensure(self, p: int) -> None:
        if p in self._den:
            return
        kids = self.dag.children(p)
        lp = self.table.factorize(p - 1).unitary_cofactor()
        den = p - 1
        num = p * lp
        for c in kids:  # recursion depth <= H(p) <= 33 below 2**32
            self._ensure(c)
            den *= self._den[c]
            num *= self._num[c]
            lp *= self._lprod[c]
        self._den[p] = den
        self._num[p] = num
        self._lprod[p] = lp

    def den(self, p: int) -> int:
        self._ensure(p)
        return self._den[p]

    def num(self, p: int) -> int:
        self._ensure(p)
        return self._num[p]

    def lprod(self, p: int) -> int:
        self._ensure(p)
        return self._lprod[p]

    def mass_identity_holds(self, p: int) -> bool:
        self._ensure(p)
        return self._num[p] == p * self._den[p]


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
        q = chain[-1]
        step = q if q == 2 else 2 * q  # odd q forces even multipliers
        cand = q + 1 if q == 2 else 2 * q + 1
        while True:
            if cand >= _LINNIK_VALUE_CAP:
                raise CapacityError("chain value exceeds 63-bit guard")
            if table.is_prime(cand):
                break
            cand += step
        chain.append(cand)
    return chain
