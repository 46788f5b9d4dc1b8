"""Enumeration of prime chains and the chain/link-vector duality.

A prime chain is a sequence p_1, ..., p_k of primes with each
p_{j+1} = 1 (mod p_j).  Equivalently p_{j+1} = m_j * p_j + 1 for positive
integer multipliers m_j, so a chain is determined by its first element and
its multiplier vector; :func:`link_vector` and :func:`rebuild` implement
that bijection with integrity checks.

``enumerate_from`` lists all chains that start at a given prime p and obey
the growth constraint p_k <= p * x (one chain length at a time, each
length's candidates tested in bounded array chunks, output sorted
lexicographically).  ``chains_ending_at`` walks the dual
direction and yields every chain whose last element is p; its cardinality
is an enumeration oracle for the tree node count f(p).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError, IntegrityError, as_int, as_real
from .pratt import PrattDag, _require_prime
from .sieve import SpfTable, count_primes_in_aps, primes_in_aps

_ENDING_CAP = 500_000  # chains one chains_ending_at call may list


@dataclass(frozen=True, slots=True)
class ChainRecord:
    """An increasing chain of primes, as Python ints, with each element = 1
    modulo the one before it.  Slotted: an enumeration holds one per chain."""

    primes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "primes", tuple(as_int(p, "chain element", 2) for p in self.primes))
        if not self.primes:
            raise DomainError("a chain has at least one element")
        for a, b in zip(self.primes, self.primes[1:]):
            if b % a != 1:
                raise IntegrityError(f"{b} is not 1 mod {a}")

    def __len__(self) -> int:
        return len(self.primes)

    @classmethod
    def _trusted(cls, chains: list[tuple[int, ...]]) -> list[ChainRecord]:
        """Records of chains whose links hold by construction, without the
        per-link check of ``__post_init__``: each is set through the slot's
        own setter, which the frozen ``__setattr__`` does not guard."""
        records = [object.__new__(cls) for _ in chains]
        list(map(cls.primes.__set__, records, chains))
        return records


@dataclass(frozen=True)
class LinkVector:
    """First chain element plus the multiplier of every link."""

    base: int
    multipliers: tuple[int, ...]


@dataclass
class ChainEnumeration:
    start: int
    ratio: float
    chains: list[ChainRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.chains)

    def counts_by_length(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for c in self.chains:
            out[len(c)] = out.get(len(c), 0) + 1
        return out


def enumerate_from(
    p: int,
    x: float,
    table: SpfTable,
    bound: int = 1_000_000,
    include_trivial: bool = True,
) -> ChainEnumeration:
    """All chains p = p_1, ..., p_k with p_k <= p * x.

    Built one length at a time: every chain of one length is extended by
    the primes among its last element's candidates, all chains' candidates
    tested together in bounded chunks.  One sort then lists the chains
    lexicographically, the order of a depth-first walk with multipliers
    increasing.  The one-element chain [p] is included by default, and
    counted like any other; ``include_trivial=False`` drops it.  Raises a
    capacity error as soon as more than ``bound`` (>= 0) chains are
    counted, before they are built; ``primes_in_aps`` reads each length and
    refuses one that reaches 2**64 or has more than ``MAX_AP_CANDIDATES``
    candidates above the table limit, before any of them is tested.
    """
    p = as_int(p, "p")
    x = as_real(x, "growth ratio x", 1)
    bound = as_int(bound, "chain bound", 0)
    if not table.is_prime(p):
        raise DomainError(f"{p} is not prime")
    num, den = x.as_integer_ratio()  # p * x in integers: as a float it rounds p past 2**53
    ceiling = min(p * num // den, 1 << 64)  # from 2**64 on, primes_in_aps refuses it
    found = [(p,)] if include_trivial else []
    total = len(found)
    if total > bound:
        raise CapacityError(f"more than {bound} chains from {p}")
    level, tips = [(p,)], np.array([p], dtype=np.uint64)
    while tips.size:
        chunks = []
        for rows, primes in primes_in_aps(tips, ceiling, table):
            chunks.append((rows, primes))
            total += rows.size
            if total > bound:
                raise CapacityError(f"more than {bound} chains from {p}")
        rows, tips = (np.concatenate(a) for a in zip(*chunks))
        level = [level[i] + (q,) for i, q in zip(rows.tolist(), tips.tolist())]
        found += level
    found.sort()
    # every candidate is 1 + k * step, so each link holds by construction
    return ChainEnumeration(start=p, ratio=float(x), chains=ChainRecord._trusted(found))


def chains_ending_at(p: int, table: SpfTable) -> list[ChainRecord]:
    """Every chain whose final element is p, by explicit recursion on the
    prime divisors of predecessor candidates (no memoization); more than
    ``_ENDING_CAP`` chains is a CapacityError."""
    p = _require_prime(p, table)
    budget = [_ENDING_CAP]

    def walk(q: int) -> list[tuple[int, ...]]:
        budget[0] -= 1
        if budget[0] < 0:
            raise CapacityError("chain enumeration size cap exceeded")
        out = [(q,)]
        if q > 2:
            for r in table.factorize(q - 1).distinct_primes():
                out.extend(c + (q,) for c in walk(r))
        return out

    return ChainRecord._trusted(sorted(walk(p)))  # each link is q to a prime divisor of q - 1


def f_oracle(p: int, table: SpfTable) -> int:
    """Tree node count of p obtained by counting chains that end at p.

    Independent of the memoized recursion: the chains are materialized one
    by one, so this is an enumeration witness, not a recurrence.
    """
    return len(chains_ending_at(p, table))


def g_oracle(p: int, table: SpfTable) -> int:
    """Number of chains from 2 to p, counted by explicit enumeration."""
    return sum(1 for c in chains_ending_at(p, table) if c.primes[0] == 2)


def link_vector(chain: ChainRecord | tuple[int, ...]) -> LinkVector:
    """Multiplier encoding of a chain, checked as a ``ChainRecord``: p_{j+1} = m_j * p_j + 1."""
    primes = (chain if isinstance(chain, ChainRecord) else ChainRecord(tuple(chain))).primes
    return LinkVector(primes[0], tuple((b - 1) // a for a, b in zip(primes, primes[1:])))


def rebuild(vector: LinkVector, table: SpfTable) -> ChainRecord:
    """Inverse of :func:`link_vector`; every reconstructed element must be
    prime or an integrity error is raised."""
    primes = [as_int(vector.base, "base")]
    if not table.is_prime(primes[0]):
        raise IntegrityError(f"base {vector.base} is not prime")
    for m in vector.multipliers:  # m < 1 gives an element below 2, not prime
        nxt = as_int(m, "multiplier") * primes[-1] + 1
        if not table.is_prime(nxt):
            raise IntegrityError(f"rebuilt element {nxt} is not prime")
        primes.append(nxt)
    return ChainRecord(tuple(primes))


def n_identity_check(x: int, table: SpfTable, dag: PrattDag | None = None) -> bool:
    """Exact double count of N(x) = sum of f(p) over primes p <= x.

    Grouping chains by final element gives sum f(p); grouping by the
    second-to-last element gives pi(x) plus sum over primes q < x of
    f(q) * pi(x; q, 1), where only q <= x/2 contribute, and q = 2 at x = 3.
    Both sides are computed in exact integer arithmetic and compared;
    pi(x; q, 1) is counted in the table's cells, never read off the dag.
    """
    x = as_int(x, "x", 2)
    primes, f, _, _ = (dag or PrattDag.upto(table, x)).values(x)
    f = f.astype(np.int64)
    rhs = table.prime_count(x) + int(f @ count_primes_in_aps(x, primes, table))
    return int(f.sum()) == rhs
