"""Singular series for the linear form systems attached to multiplier
vectors.

A multiplier vector (m_1, ..., m_{k-1}) generates forms

    f_1(n) = n,    f_{j+1}(n) = m_j * f_j(n) + 1,

so f_j(n) = a_j n + b_j with a_1 = 1, b_1 = 0, a_j = m_1 ... m_{j-1} and
b_j = 1 + sum over i in 2..j-1 of m_i ... m_{j-1}.  The density constant
for "n and all f_j(n) simultaneously prime" is

    S = prod over primes p of (1 - xi(p)/p) * (1 - 1/p)^(-k),

where xi(p) counts n in [0, p) with p dividing the product of the forms.
``xi`` counts the forms' distinct roots mod p.  For primes not dividing
the discriminant-like integer

    N = m_1 ... m_{k-1} * prod over i < j of |a_i b_j - a_j b_i|

every form has exactly one root mod p and the roots are pairwise distinct,
so xi(p) = k; this makes the infinite product computable: exact factors
for p <= P (scan for divisors of N, the k-form factor otherwise, a chunk of
``sieve.prime_chunks`` at a time: the sieve's segment walk, streamed, with no
factor table kept) and a rigorously bounded tail interval for p > P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, as_int, as_real, check_bytes
from .sieve import PRIME_CHUNK, SEGMENT_WIDTH, is_prime_u64, prime_chunks, prime_count_bound

_COEFF_CAP = 1 << 63
# Steps of one rhopm_total call, p^F rows of k multipliers: about 2 s (A06's largest: 8,788).
_MAX_BOX_STEPS = 2_000_000
_DIGIT_MASK = (1 << 31) - 1
# Bytes of the prime stream under singular_series: its reused segment of
# uint16 cells and, while one chunk's primes are listed, that chunk's arrays
# and the chunk before's, at most one entry per cell each and 64 bytes a cell
# between them.
_CHUNK_BYTES = 2 * SEGMENT_WIDTH + 64 * PRIME_CHUNK


@dataclass(frozen=True)
class FormSystem:
    """Linear forms a_j n + b_j produced by a multiplier vector."""

    multipliers: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.a)


def forms_from_links(multipliers: tuple[int, ...] | list[int]) -> FormSystem:
    """Coefficients of the form system for a multiplier vector.

    Multipliers must be nonnegative; zeros are admitted so exhaustive
    residue scans over full multiplier boxes can reuse this constructor.
    A prime can divide both a_j and b_j (multipliers (7, 6) already do it
    at j = 3), in which case that form vanishes identically mod p and the
    attached singular series is exactly zero.
    """
    ms = tuple(as_int(m, "multiplier", 0) for m in multipliers)
    a = [1]
    b = [0]
    for m in ms:
        na = a[-1] * m
        nb = b[-1] * m + 1
        if na >= _COEFF_CAP or nb >= _COEFF_CAP:
            raise CapacityError("form coefficients exceed 63-bit guard")
        a.append(na)
        b.append(nb)
    return FormSystem(ms, tuple(a), tuple(b))


def _root_count(p: int, multipliers) -> int:
    """xi at a prime p of a multiplier vector's forms, in O(k) steps at any
    p: the a/b recursion of ``forms_from_links`` runs mod p, and xi is the
    number of distinct roots -b / a of the forms with p not dividing a, or p
    itself if a form vanishes identically (p | a, b)."""
    a, b = 1, 0
    roots = {0}
    for m in multipliers:
        a, b = a * m % p, (b * m + 1) % p
        if a:
            roots.add(-b * pow(a, -1, p) % p)
        elif b == 0:
            return p
    return len(roots)


def xi(p: int, system: FormSystem) -> int:
    """Number of residues n mod a prime p at which some form vanishes mod p."""
    p = as_int(p, "p")
    if not is_prime_u64(p):
        raise DomainError("p must be a prime >= 2")
    return _root_count(p, system.multipliers)


def discriminant_product(system: FormSystem) -> int:
    """N = m_1 ... m_{k-1} * prod_{i<j} |a_i b_j - a_j b_i| (exact integer).

    A prime divides N exactly when some form degenerates mod p or two
    forms share a root mod p; away from N, xi(p) = k.
    """
    if any(m == 0 for m in system.multipliers):
        raise DomainError("discriminant product needs positive multipliers")
    val = 1
    for m in system.multipliers:
        val *= m
    k = system.k
    for i in range(k):
        for j in range(i + 1, k):
            det = abs(system.a[i] * system.b[j] - system.a[j] * system.b[i])
            val *= det
    return val


def _footprint_bytes(prime_cutoff: int) -> int:
    """Peak bytes of ``singular_series``: one float64 a prime for the generic
    terms, and the prime stream's segment and chunks.  Cutoffs to
    1,072,753,319 fit the ceiling."""
    return int(8 * prime_count_bound(prime_cutoff)) + _CHUNK_BYTES


@dataclass(frozen=True)
class SingularValue:
    """Singular series value with a rigorous tail interval.

    ``value`` multiplies exact local factors for p <= prime_cutoff by the
    nominal tail 1; the true value lies in [lower, upper].
    """

    value: float
    lower: float
    upper: float
    prime_cutoff: int
    k: int


def singular_series(
    multipliers: tuple[int, ...] | list[int],
    prime_cutoff: int = 1_000_000,
) -> SingularValue:
    """Evaluate S for a positive multiplier vector.

    Local factors at primes dividing N (and at nothing else) can deviate
    from the generic (1 - k/p)(1 - 1/p)^(-k) shape, so those primes get
    the root count of ``xi``.  The product over the remaining p <= P uses
    the generic factor; the p > P tail is bracketed by
    exp(+-tau) with tau bounding |log prod (1 - k/p)(1 - 1/p)^(-k)|.

    The primes up to P come from ``prime_chunks`` a chunk at a time; each
    chunk's generic terms go into one float64 array sized by the bound on
    pi(P), whose single pairwise sum ends the walk, so no other array spans
    the range and no factor table is built.

    Returns 0 (exactly) when some prime has xi(p) = p, which happens iff
    some residue class is fully obstructed, before that prime's log1p(-1).
    The footprint guard runs first.
    """
    as_real(prime_cutoff, "prime cutoff", hi=math.inf)
    check_bytes(_footprint_bytes(prime_cutoff), f"prime cutoff {prime_cutoff}")
    prime_cutoff = as_int(prime_cutoff, "prime cutoff", 100)
    ms = tuple(as_int(m, "multiplier", 1) for m in multipliers)
    system = forms_from_links(ms)
    k = system.k
    zero = SingularValue(0.0, 0.0, 0.0, prime_cutoff, k)
    if xi(2, system) == 2:
        # exactly when some multiplier is odd; known before N's O(k^2) factors
        return zero
    bigN = discriminant_product(system)

    # never-written pages of the bound's slack are never resident
    terms = np.empty(int(prime_count_bound(prime_cutoff)) + 1)
    used = 0
    digits = [(bigN >> shift) & _DIGIT_MASK for shift in range(31 * (bigN.bit_length() // 31), -1, -31)]
    residue = bigN
    log_exact = 0.0
    for primes in prime_chunks(prime_cutoff):
        # Primes whose local factor needs ``xi``: the divisors of N.  N mod p
        # for every p of the chunk by Horner's rule over N's 31-bit digits;
        # p < 2^32, so rem << 31 plus a digit stays below 2^63.
        rem = np.zeros_like(primes)
        for d in digits:
            rem <<= 31
            rem += d
            rem %= primes
        divides = rem == 0
        for p in primes[divides].tolist():
            x = _root_count(p, ms)
            if x == p:
                return zero
            log_exact += math.log1p(-x / p) - k * math.log1p(-1.0 / p)
            while residue % p == 0:
                residue //= p
        generic = primes[~divides].astype(np.float64)
        # A generic prime carries k distinct roots, so p <= k forces xi(p) = p
        # (possible only when p = k) and the whole product vanishes.
        if generic.size and generic[0] <= k:
            return zero
        # log1p(-k/p) - k log1p(-1/p), into the chunk's slice of ``terms``
        out = terms[used : used + generic.size]
        np.divide(-k, generic, out=out)
        np.log1p(out, out=out)
        np.divide(-1.0, generic, out=generic)
        np.log1p(generic, out=generic)
        generic *= k
        out -= generic
        used += generic.size
    # one contiguous pairwise sum over the generic primes in order
    log_exact += float(np.sum(terms[:used]))

    # residue > 1 now only has prime factors beyond the cutoff; their xi
    # is unknown (1..k), handled by widening the tail interval below.
    unknown_big_primes = 0
    if residue > 1:
        unknown_big_primes = int(math.log(residue) / math.log(prime_cutoff)) + 1

    value = math.exp(log_exact)

    # |log((1 - k/p)(1 - 1/p)^(-k))| <= k^2 / (2 p^2) * 1 / (1 - (k+1)/p)
    # for p > k + 1; summing p > P against sum n^(-2) <= 1/P gives tau.
    P = float(prime_cutoff)
    tau = (k * k) / (2.0 * P) / (1.0 - (k + 1) / P)
    # Each unfactored prime q > P contributes a factor inside
    # [(1 - k/q), (1 - 1/q)^(-k)], widened to the worst case at q = P.
    widen_low = (1.0 - k / P) ** unknown_big_primes
    widen_high = (1.0 - 1.0 / P) ** (-k * unknown_big_primes)
    return SingularValue(
        value=value,
        lower=value * math.exp(-tau) * widen_low,
        upper=value * math.exp(tau) * widen_high,
        prime_cutoff=prime_cutoff,
        k=k,
    )


def rhopm_total(p: int, k: int, free: tuple[int, ...], fixed: dict[int, int] | None = None) -> tuple[int, int]:
    """(sum of xi over a multiplier box, its lower bound), in exact integers.

    Multiplier indices in ``free`` (1-based, in 1..k-1) range over all of
    [0, p); the rest are pinned by ``fixed`` (defaulting to 1).  The sum is
    taken by direct enumeration and the bound is p^(F+1) - (p-1)^(F+1)
    with F = len(free).  Boxes of more than ``_MAX_BOX_STEPS`` are refused.
    """
    p, k = as_int(p, "p"), as_int(k, "k", 1)
    if not is_prime_u64(p):
        raise DomainError(f"{p} is not prime")
    free = tuple(sorted({as_int(i, "free index", 1, k - 1) for i in free}))
    fixed = {as_int(i, "fixed index", 1, k - 1): as_int(m, "fixed multiplier", 0) for i, m in (fixed or {}).items()}
    if set(free) & set(fixed):
        raise DomainError("an index cannot be both free and fixed")
    f_count = len(free)
    # p >= 2, so p^64 alone passes the bound: the power needs no more digits
    if p ** min(f_count, 64) * k > _MAX_BOX_STEPS:
        raise CapacityError(f"a box of {p}^{f_count} rows of {k} multipliers is too large to enumerate")
    row = [fixed.get(i, 1) % p for i in range(1, k)]
    total = 0
    for r in range(p ** f_count):
        for idx in free:
            r, row[idx - 1] = divmod(r, p)
        total += _root_count(p, row)
    target = p ** (f_count + 1) - (p - 1) ** (f_count + 1)
    return total, target


def rhopm_check(p: int, k: int, free: tuple[int, ...], fixed: dict[int, int] | None = None) -> bool:
    """Exhaustive residue-count inequality over a multiplier box: the sum
    of xi(p, m) over the box is at least p^(F+1) - (p-1)^(F+1) (see
    :func:`rhopm_total`)."""
    total, target = rhopm_total(p, k, free, fixed)
    return total >= target
