"""Numerical evaluation of the Dickman rho function.

rho solves the delay differential equation u rho'(u) = -rho(u - 1) with
rho = 1 on [0, 1]; closed forms 1 and 1 - log u cover [0, 2].  Beyond 2
the table advances on a uniform grid through the equivalent integral
identity

    u * rho(u) = integral of rho over [u - 1, u],

whose right side is a positive average of recent history.  Evaluating the
window with composite Simpson and solving for the (implicit) endpoint
value keeps *relative* accuracy as rho shrinks toward 10^-28 at u = 20,
which the subtraction form rho(u) = rho(v) - integral of rho(t-1)/t loses
to cancellation.  That subtraction form, driven by adaptive quadrature,
survives here as the independent cross-check for small u.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .errors import CapacityError, DomainError, as_int, as_real

DEFAULT_STEP = 2.0 ** -10
DEFAULT_UMAX = 20.0
# Ceiling on the multiply-adds of one table's recurrence, (n - 2 inv) * inv for
# n grid points of step 1/inv: about 7 s at 1.3e9 per second.  Step 2**-12 to
# u = 20 takes 3.0e8 of them, step 2**-16 to u = 200 would take 8.5e11.
MAX_RHO_WORK = 1 << 33


class RhoTable:
    """Grid of rho values on [0, u_max] with step 1/steps_per_unit."""

    def __init__(self, step: float = DEFAULT_STEP, u_max: float = DEFAULT_UMAX):
        step = as_real(step, "step", sys.float_info.min, 0.125)  # so 1 / step is finite
        u_max = as_real(u_max, "u_max", 3, 200)
        inv = round(1.0 / step)
        if abs(inv * step - 1.0) > 1e-12 or inv % 2:
            raise DomainError("step must be an even integer reciprocal, e.g. 2**-10")
        n = int(round(u_max * inv))
        work = (n - 2 * inv) * inv
        if work > MAX_RHO_WORK:
            raise CapacityError(f"a grid of step 1/{inv} to u = {u_max} takes {work:.3g} multiply-adds, above {MAX_RHO_WORK:.3g}")
        self.step = 1.0 / inv
        self.per_unit = inv
        self.u_max = u_max
        grid = np.empty(n + 1, dtype=np.float64)
        u = np.arange(n + 1, dtype=np.float64) / inv
        grid[u <= 1.0] = 1.0
        seg = (u > 1.0) & (u <= 2.0)
        grid[seg] = 1.0 - np.log(u[seg])
        # Simpson weights over one unit window (per_unit panels, even count).
        w = np.ones(inv + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= self.step / 3.0
        w_known = w[:-1]
        w_edge = w[-1]
        start = 2 * inv + 1
        for idx in range(start, n + 1):
            ui = idx / inv
            window = grid[idx - inv : idx]
            s_known = float(w_known @ window)
            grid[idx] = s_known / (ui - w_edge)
        self.grid = grid

    def rho(self, u: float) -> float:
        """rho(u) by closed form below 2 and cubic interpolation above."""
        u = as_real(u, "u", 0, self.u_max)
        if u <= 1.0:
            return 1.0
        if u <= 2.0:
            return 1.0 - math.log(u)
        x = u * self.per_unit
        i = int(math.floor(x))
        # 4-point Lagrange interpolation centered on the bracketing cell.
        i0 = min(max(i - 1, 0), len(self.grid) - 4)
        t = x - i0
        ys = self.grid[i0 : i0 + 4]
        val = 0.0
        for j in range(4):
            lj = 1.0
            for mjdx in range(4):
                if mjdx != j:
                    lj *= (t - mjdx) / (j - mjdx)
            val += float(ys[j]) * lj
        return val


@functools.cache
def default_table() -> RhoTable:
    """The table on the default grid, built once on first use."""
    return RhoTable()


def rho(u: float) -> float:
    """Dickman rho at u, read in ``default_table()``."""
    return default_table().rho(u)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + recurse(
            m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
        )

    return recurse(a, fa, b, fb, m, fm, whole, tol, 30)


def rho_independent(u: float, tol: float = 1e-10) -> float:
    """rho(u) for u <= 5 via the subtraction form and adaptive Simpson.

    rho(u) = rho(j) - integral over [j, u] of rho(t - 1)/t dt, peeling one
    unit layer at a time; each layer's integrand calls the previous layer
    recursively, so nothing here touches the grid table.
    """
    u = as_real(u, "u", 0, 5)
    tol = as_real(tol, "tol", 1e-12)  # each tenfold tighter tol costs about 5x: 2.4 s at 1e-12

    def layer(v: float) -> float:
        if v <= 1.0:
            return 1.0
        if v <= 2.0:
            return 1.0 - math.log(v)
        base = math.floor(v) if v != math.floor(v) else v - 1
        return layer(base) - _adaptive_simpson(lambda t: layer(t - 1.0) / t, base, v, tol)

    return layer(u)


def rho_n_asymptotic(n: int, u: float) -> float:
    """Iterated-logarithm decay scale (1 / (log_{n-1} u * log_n u))^u.

    log_0 u = u, log_j u = log(log_{j-1} u).  Domain error when the
    iterated logarithms fail to stay positive, or the scale passes a float.
    """
    n = as_int(n, "n", 1)
    logs = [as_real(u, "u")]
    while len(logs) <= n and logs[-1] > 0:
        logs.append(math.log(logs[-1]))
    if len(logs) <= n or min(logs[-2:]) <= 0:
        raise DomainError("iterated logarithm left the positive domain")
    try:
        return (1.0 / (logs[-2] * logs[-1])) ** logs[0]
    except OverflowError:
        raise DomainError(f"the scale at n={n}, u={u} passes a float") from None
