"""Residue-class link series and the matrix bound on chain counts.

Fix a smoothness level y and let r be the product of all primes <= y.
For units a, b mod r the link series

    S(a, b) = sum over m >= 1 with a*m + 1 = b (mod r) of m^(-s)

collects the m-contributions of chain links that move residue a to
residue b.  Writing m0 in [1, r] for the unique solution of
a*m = b - 1 (mod r), the series is r^(-s) * zeta(s, m0/r) with the
Hurwitz zeta function, which is how entries are evaluated.

Row b of the matrix M(r, s) = (S(a, b)) sums in closed form to

    prod over p > y of (1 - p^(-s))^(-1) * prod over p | d of (p-1)/(p^s-1)

with d = gcd(b - 1, r).  Since every unit b mod r is odd, d is always
even, so the maximum row sum is (2^s - 1)^(-1) * prod_{p>y} (1-p^(-s))^(-1),
attained at any b with gcd(b - 1, r) = 2.  Whenever that maximum R is
below 1, iterating the matrix geometric series bounds the number of
chains p_1 < ... < p_k <= x * p_1 starting at any prime p_1 > y by
phi(r) * x^s / (1 - R), which ``chain_count_bound`` minimizes over an
s grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError, InfeasibleError, NumericalError, as_int, as_real, check_bytes

# Bernoulli numbers B_2, B_4, ..., B_14 for the Euler-Maclaurin tail.
_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
)

_DIRECT_TERMS = 1_000_000  # leading terms link_series_direct sums (16 MB)
_BLOCK_ENTRIES = 1 << 17  # entries gathered per row block (1 MiB of float64)
_ADMISSIBLE_Y = (2, 3, 5, 7, 11, 13, 17, 19, 23)  # the primes to 23
_MAX_GRID = 10_000  # each s point costs one row-sum evaluation
_ZETA_TOL = 1e-12  # relative size of the first omitted Euler-Maclaurin term
_PERRON_TOL = 1e-12  # Rayleigh quotient step that ends the power iteration
_PERRON_MAX_ITER = 10_000


def hurwitz_zeta(s: float, a: float | np.ndarray):
    """Hurwitz zeta(s, a) = sum_{k>=0} (k + a)^(-s) for s > 1, a > 0.

    Euler-Maclaurin: a partial sum of N leading terms plus the integral
    and derivative corrections at the truncation point.  N grows until
    the first omitted correction term is below ``_ZETA_TOL`` relative to the
    running value.  Accepts an array of finite a > 0 (shared s); a term
    beyond the float range is a DomainError.
    """
    s = as_real(s, "s", 1, lo_open=True)
    scalar = np.ndim(a) == 0
    arr = np.atleast_1d(np.asarray(as_real(a, "a") if scalar else a, dtype=np.float64))
    if not (arr > 0).all():  # nan too; an infinite a leaves the float range below
        raise DomainError("every a must be positive")
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            partial = np.zeros_like(arr)
            n = 0
            target = 16
            while True:
                for k in range(n, target):
                    partial += (arr + k) ** (-s)
                n = target
                edge = arr + n
                total = partial + edge ** (1.0 - s) / (s - 1.0) + 0.5 * edge ** (-s)
                poch = s  # rising factorial s (s+1) ... with 2j-1 factors at depth j
                power = edge ** (-s - 1.0)
                fact = 2.0
                last_rel = np.inf
                for j, b2j in enumerate(_BERNOULLI, start=1):
                    term = b2j / fact * poch * power
                    total += term
                    last_rel = float(np.max(np.abs(term) / np.abs(total), initial=0.0))
                    poch *= (s + 2 * j - 1) * (s + 2 * j)
                    power = power / (edge * edge)
                    fact *= (2 * j + 1) * (2 * j + 2)
                if last_rel < _ZETA_TOL:
                    break
                if n >= 1 << 14:
                    raise NumericalError("hurwitz zeta failed to reach tolerance")
                target = n * 2
        except FloatingPointError as exc:
            raise DomainError(f"zeta({s}, a) leaves the float range: {exc}") from None
    return float(total[0]) if scalar else total


def _check_y(y: int) -> tuple[int, ...]:
    """The primes <= y, for an admissible y."""
    if as_int(y, "y") not in _ADMISSIBLE_Y:
        raise DomainError(f"y must be one of {_ADMISSIBLE_Y}")
    return _ADMISSIBLE_Y[: _ADMISSIBLE_Y.index(y) + 1]


def euler_factor_tail(s: float, y: int) -> float:
    """prod over primes p > y of (1 - p^(-s))^(-1), evaluated exactly as
    zeta(s) divided by the finitely many Euler factors with p <= y."""
    s = as_real(s, "s", 1, lo_open=True)
    primes = _check_y(y)
    value = hurwitz_zeta(s, 1.0)
    for p in primes:
        value *= 1.0 - float(p) ** (-s)
    return value


@dataclass
class ResidueMatrix:
    """Matrix of link series values S(a, b), rows indexed by b, kept as its
    r distinct values; ``rows`` gathers dense rows on demand."""

    y: int
    s: float
    r: int
    # both in the narrowest signed dtype holding (r - 1)^2, int32 from y = 7 on,
    # so the products and remainders of ``rows`` stay in it
    units: np.ndarray  # the phi(r) units mod r, increasing
    inverses: np.ndarray  # inverses[j] = units[j]^(-1) mod r
    entries: np.ndarray  # entries[k - 1] = r^(-s) zeta(s, k/r), the value of link residue m0 = k
    tail: float  # euler_factor_tail(s, y), the factor every row sum shares

    @property
    def dimension(self) -> int:
        return len(self.units)

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Dense rows lo..hi-1: rows(lo, hi)[i, j] = S(units[j], units[lo + i])."""
        lo, hi = as_int(lo, "lo", 0, self.dimension), as_int(hi, "hi", 0, self.dimension)
        # m0 - 1 for m0 in [1, r] solving a * m0 = b - 1 (mod r)
        idx = np.multiply.outer(self.units[lo:hi] - 1, self.inverses)
        idx -= 1
        # idx mod r by floor division, which numpy runs faster than %; the
        # quotient is dropped before the gather, so the peak stays idx and rows
        q = idx // self.r
        q *= self.r
        idx -= q
        del q
        return self.entries.take(idx)

    def blocks(self):
        """Yield (lo, rows(lo, hi)) over consecutive row blocks of at most
        ``_BLOCK_ENTRIES`` entries (one row if a row is longer)."""
        dim = self.dimension
        step = max(1, _BLOCK_ENTRIES // dim)
        for lo in range(0, dim, step):
            yield lo, self.rows(lo, min(lo + step, dim))

    def row_sums(self) -> np.ndarray:
        """Each row's sum, a block of rows at a time.  Every row is one
        contiguous pairwise sum, so the bits equal a dense ``sum(axis=1)``."""
        out = np.empty(self.dimension)
        for lo, block in self.blocks():
            out[lo : lo + len(block)] = block.sum(axis=1)
        return out

    def row_sum_closed_form(self, b: int) -> float:
        """Closed form for the row sum at unit b (see module docstring)."""
        d = math.gcd(as_int(b, "b") - 1, self.r)
        value = self.tail
        for p in _check_y(self.y):
            if d % p == 0:
                value *= (p - 1) / (float(p) ** self.s - 1.0)
        return value


def build_matrix(y: int, s: float) -> ResidueMatrix:
    """M(r, s) for r = product of primes <= y, without its dense entries.

    Entries share only r distinct values (the Hurwitz zetas at k/r for
    k = 1..r), which are computed once; ``ResidueMatrix.rows`` gathers
    them.  The dense float64 copy that ``perron_eigenvalue`` fills, 8 dim^2
    bytes, counts against the memory ceiling: y = 13 (dimension 5760,
    265 MB) fits, and y from 17 on is refused before anything of size r is
    allocated.
    """
    s = as_real(s, "s", 1, lo_open=True)
    primes = _check_y(y)
    r = math.prod(primes)
    dim = math.prod(p - 1 for p in primes)  # phi(r)
    check_bytes(8 * dim * dim, f"the dense {dim}x{dim} residue matrix for y={y}")
    coprime = np.ones(r + 1, dtype=bool)
    for p in primes:
        coprime[p::p] = False
    dtype = np.min_scalar_type(-((r - 1) ** 2))
    units = np.nonzero(coprime[1 : r + 1])[0].astype(dtype) + 1
    # series[k - 1] = S for the link residue m0 = k, k = 1..r
    series = float(r) ** (-s) * hurwitz_zeta(s, np.arange(1, r + 1, dtype=np.float64) / r)
    inv = np.array([pow(int(a), -1, r) for a in units.tolist()], dtype=dtype)
    return ResidueMatrix(
        y=y, s=s, r=r, units=units, inverses=inv, entries=series, tail=euler_factor_tail(s, y)
    )


def link_series_direct(a: int, b: int, y: int, s: float) -> float:
    """S(a, b) by direct summation of ``_DIRECT_TERMS`` leading terms plus
    an Euler-Maclaurin tail; an independent check of the closed form."""
    a, b = as_int(a, "a"), as_int(b, "b")
    s = as_real(s, "s", 1, lo_open=True)
    r = math.prod(_check_y(y))
    if math.gcd(a, r) != 1 or math.gcd(b, r) != 1:
        raise DomainError("a and b must be units mod r")
    m0 = (b - 1) * pow(a, -1, r) % r
    if m0 == 0:
        m0 = r
    m = np.arange(_DIRECT_TERMS, dtype=np.float64) * r + m0
    partial = float(np.sum(m ** (-s)))
    edge = m0 + _DIRECT_TERMS * r
    tail = edge ** (1.0 - s) / (r * (s - 1.0)) + 0.5 * edge ** (-s)
    tail += s * r * edge ** (-s - 1.0) / 12.0  # first derivative correction
    return partial + tail


def max_row_sum_value(y: int, s: float) -> float:
    """Closed-form R(M) without materializing the matrix; 2^s is a float."""
    s = as_real(s, "s", 1, 1023, lo_open=True)
    return euler_factor_tail(s, y) / (2.0 ** s - 1.0)


def perron_eigenvalue(matrix: ResidueMatrix) -> float:
    """Dominant eigenvalue of the (entrywise positive) matrix by power
    iteration with Rayleigh quotient stopping, on a dense copy filled one
    row block at a time.

    Each step takes one matvec: the product m @ w that gives the Rayleigh
    quotient of the unit vector w is the next step's m @ v.
    """
    m = np.empty((matrix.dimension, matrix.dimension))
    for lo, block in matrix.blocks():
        m[lo : lo + len(block)] = block
    mv = m @ np.full(m.shape[0], 1.0 / m.shape[0])
    lam = 0.0
    for _ in range(_PERRON_MAX_ITER):
        nw = float(np.linalg.norm(mv))
        if nw == 0.0:
            raise NumericalError("power iteration collapsed to zero")
        w = mv / nw
        mv = m @ w
        new_lam = float(w @ mv)
        if abs(new_lam - lam) < _PERRON_TOL:
            return new_lam
        lam = new_lam
    raise NumericalError("power iteration did not converge")


@dataclass
class ChainCountBound:
    """Result of minimizing phi(r) * x^s / (1 - R(M(r, s))) over s."""

    x: float
    y: int
    r: int
    phi_r: int
    s_star: float
    row_sum_bound: float  # R(M) at s_star
    bound: float
    suggested_y: float  # asymptotic guidance: log x / log_2 x
    suggested_s: float  # asymptotic guidance: 1 + log_2 y / log y


def chain_count_bound(x: float, y: int, grid_size: int = 64) -> ChainCountBound:
    """Upper bound for the number of chains p_1 < ... < p_k <= x * p_1
    starting at any fixed prime p_1 > y.

    Scans a geometric grid of s in (1, 3], keeps the points where the
    maximum row sum R is below 1, and returns the minimizing record.  The
    asymptotically motivated parameter suggestions are reported alongside
    but never enforced.  x may be inf, where no bound is finite.
    """
    x = as_real(x, "x", 1, math.inf)
    grid_size = as_int(grid_size, "grid size", 1)
    if grid_size > _MAX_GRID:
        raise CapacityError(f"grid of more than {_MAX_GRID} points; lower the grid size")
    primes = _check_y(y)
    r = math.prod(primes)
    phi_r = math.prod(p - 1 for p in primes)
    best = None
    for delta in np.geomspace(1e-3, 2.0, grid_size):
        s = 1.0 + float(delta)
        rs = max_row_sum_value(y, s)
        if rs >= 1.0:
            continue
        try:
            val = phi_r * float(x) ** s / (1.0 - rs)
        except OverflowError:  # x^s beyond a float: no finite bound
            val = math.inf
        if best is None or val < best[0]:
            best = (val, s, rs)
    if best is None:
        raise InfeasibleError(f"no s in (1, 3] contracts the matrix for y={y}")
    log2x = math.log(math.log(x)) if x > math.e else float("nan")
    sug_y = math.log(x) / log2x if x > math.e and log2x > 0 else float("nan")
    sug_s = 1.0 + math.log(math.log(y)) / math.log(y) if y > math.e else float("nan")
    return ChainCountBound(
        x=float(x),
        y=y,
        r=r,
        phi_r=phi_r,
        s_star=best[1],
        row_sum_bound=best[2],
        bound=best[0],
        suggested_y=sug_y,
        suggested_s=sug_s,
    )
