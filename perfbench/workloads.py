"""The benchmark's workloads: fixed lists of operations and their checks.

Each operation is one call into primechain's public API (the tree mass
sweep is a loop of such calls).  ``check`` returns None when the output is
right and a reason string otherwise; it holds at every seed.  ``output``
turns the result into the bytes whose SHA-256 is pinned in golden.json;
outputs that depend on the seed are pinned only at DEFAULT_SEED.

Imports of primechain happen inside ``build``, so that importing this
module costs nothing and the worker can time import plus input generation
as the set-up.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from dataclasses import dataclass
from typing import Any, Callable

DEFAULT_SEED = 1  # the CLI's and RunConfig's default seed
WORKLOADS = ("trees", "walk-minima", "walk-full", "analytic")

# mean Z_n(t) is exactly t^n / n!; 3 standard errors would fail on about
# 1 seed in 370, which the benchmark's many seeded runs would hit.
Z_SIGMAS = 5.0


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    output: Callable[[Any], bytes] | None = None
    seeded: bool = False
    # a documented defect: raising exactly this error is reported as a
    # known failure, not as a regression
    known_failure: type | None = None
    # span the tracer opens around the whole operation, for operations
    # that are loops of many small public calls
    span: str | None = None


def _f64(x: float) -> bytes:
    return struct.pack("<d", x)


@contextlib.contextmanager
def _capture(module, name: str):
    """Keep the return values of ``module.name`` while the block runs."""
    orig = getattr(module, name)
    got: list = []

    def keep(*args, **kwargs):
        out = orig(*args, **kwargs)
        got.append(out)
        return out

    setattr(module, name, keep)
    try:
        yield got
    finally:
        setattr(module, name, orig)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    from primechain import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_ok(res) -> str | None:
    code, _, err = res
    return None if code == 0 else f"exit {code}: {err.strip()}"


def _cli_op(name: str, argv: list[str], check=None) -> Op:
    def full_check(res):
        return _cli_ok(res) or (check(res[1]) if check else None)

    return Op(name, lambda: run_cli(argv), full_check, lambda res: res[1].encode())


# ---------------------------------------------------------------------------
# trees: sieve, pratt and chains; exact, so the seed is ignored


def _hist_check(csv: str) -> str | None:
    lines = csv.splitlines()
    if lines[1] != "stat,value,count":
        return f"unexpected header {lines[1]!r}"
    primes = sum(int(row.split(",")[2]) for row in lines[2:])
    return None if primes == 664_579 else f"hist counts {primes} primes, pi(1e7) = 664579"


def mass_sweep(limit: int = 10**6) -> tuple[int, int]:
    """A02's exact mass identity and l-product bound at every prime <= limit;
    returns (primes checked, primes violating either)."""
    from primechain import pratt, sieve

    table = sieve.build_spf(limit)
    dag = pratt.PrattDag(table)
    mass = pratt.MassProducts(table, dag)
    bad = 0
    primes = table.primes(2, limit).tolist()
    for p in primes:
        f = dag.f_of(p)
        if not mass.mass_identity_holds(p) or mass.lprod(p) ** 2 * (1 << f) > p * p:
            bad += 1
    return len(primes), bad


def _trees(seed: int) -> list[Op]:
    from primechain import chains, sieve

    def identity():
        return chains.n_identity_check(10**6, sieve.build_spf(10**6))

    def enumerate_chains():
        return chains.enumerate_from(2, 1e5, sieve.build_spf(10**6))

    def chains_check(enum) -> str | None:
        ps = [c.primes for c in enum.chains]
        if ps != sorted(ps) or any(c[-1] > 200_000 for c in ps):
            return "chains unsorted or beyond 2 * 1e5"
        return None

    return [
        _cli_op("hist", ["hist", "--limit", "10000000", "--stat", "f", "--format", "csv"], _hist_check),
        Op(
            "mass-sweep",
            mass_sweep,
            lambda r: None if r == (78_498, 0) else f"(checked, violations) = {r}",
            lambda r: repr(r).encode(),
            span="pratt.mass",
        ),
        Op("n-identity", identity, lambda ok: None if ok is True else "double count of N(1e6) differs"),
        Op("enumerate", enumerate_chains, chains_check, lambda e: repr([c.primes for c in e.chains]).encode()),
    ]


# ---------------------------------------------------------------------------
# walk-minima: the _drive minima path of A08, scaled to n = 16


def _walk_minima(seed: int) -> list[Op]:
    from primechain import brw

    predicted = brw.predicted_median_bn(16)

    def minima():
        cfg = brw.RunConfig(seed=seed, replicates=2000, threads=1)
        with _capture(brw, "replicate_minima") as got:
            est = brw.median_bn_detail(16, cfg, margin=3.0)
        return est, got[-1]

    def check(res) -> str | None:
        est, _ = res
        if abs(est.median - predicted) > 2.0:
            return f"median B_16 = {est.median:.3f}, predicted {predicted:.3f} +- 2"
        if est.censor_rate >= 0.5:
            return f"censor rate {est.censor_rate:.3f} >= 0.5"
        return None

    return [Op("median-b16", minima, check, lambda res: res[1].tobytes(), seeded=True)]


# ---------------------------------------------------------------------------
# walk-full: the same engine on the full-cap paths


def _walk_full(seed: int) -> list[Op]:
    from primechain import brw

    mean_z8 = 6.0**8 / math.factorial(8)

    def zcount():
        cfg = brw.RunConfig(seed=seed, replicates=100_000, threads=1)
        with _capture(brw, "replicate_z_counts") as got:
            mean, se = brw.estimate_mean_z(8, 6.0, cfg)
        return mean, se, got[-1]

    def z_check(res) -> str | None:
        mean, se, _ = res
        if abs(mean - mean_z8) > Z_SIGMAS * se:
            return f"mean Z_8(6) = {mean:.4f} +- {se:.4f}, exact {mean_z8:.4f}"
        return None

    def teps():
        cfg = brw.RunConfig(seed=seed, replicates=2000, threads=1)
        with _capture(brw, "replicate_t_epsilon") as got:
            mean, se = brw.estimate_mean_t_epsilon(1e-4, cfg)
        return mean, se, got[-1]

    def teps_check(res) -> str | None:
        mean, _, deaths = res
        if not math.isfinite(mean) or deaths.min() < 1:
            return f"T(eps) not finite for every replicate (mean {mean})"
        return None

    def rde():
        return brw.rde_iterate(100_000, 12, brw.RunConfig(seed=seed, threads=1))

    def rde_check(res) -> str | None:
        import numpy as np

        if res.diverged or not np.isfinite(res.samples).all():
            return f"rde diverged (last mean {res.mean_trace[-1]})"
        return None

    return [
        Op("mean-z8", zcount, z_check, lambda res: res[2].tobytes(), seeded=True),
        Op("mean-teps", teps, teps_check, lambda res: res[2].tobytes(), seeded=True),
        Op("rde", rde, rde_check, lambda res: res.samples.tobytes(), seeded=True),
    ]


# ---------------------------------------------------------------------------
# analytic: sifted, singular and dickman, through the CLI and directly


def _analytic(seed: int) -> list[Op]:
    import json

    from primechain import dickman, sifted
    from primechain.errors import NumericalError

    def twin_check(out: str) -> str | None:
        value = json.loads(out)["value"]
        return None if abs(value - 1.32032) <= 1e-3 else f"twin constant {value}"

    def perron(y: int):
        def call():
            m = sifted.build_matrix(y, 2.0)
            rows = m.row_sums()
            return sifted.perron_eigenvalue(m), float(rows.min()), float(rows.max())

        return call

    def perron_check(res) -> str | None:
        lam, lo, hi = res
        # a nonnegative matrix's Perron root lies between its row sums
        return None if lo - 1e-9 <= lam <= hi + 1e-9 else f"eigenvalue {lam} outside [{lo}, {hi}]"

    def row_sums():
        m = sifted.build_matrix(13, 2.0)
        closed = [m.row_sum_closed_form(b) for b in m.units.tolist()]
        return m.row_sums(), closed

    def row_sum_check(res) -> str | None:
        direct, closed = res
        worst = max(abs(d - c) for d, c in zip(direct.tolist(), closed))
        return None if worst <= 1e-8 else f"row sum off its closed form by {worst:.2e}"

    def rho_table_check(table) -> str | None:
        import numpy as np

        g = table.grid
        return None if (g > 0).all() and (np.diff(g) <= 0).all() else "rho grid not positive and decreasing"

    def rho_pair():
        return dickman.rho_independent(4.5), dickman.rho(4.5)

    def rho_check(res) -> str | None:
        ind, tab = res
        return None if abs(ind - tab) <= 1e-8 * tab else f"rho(4.5): independent {ind}, table {tab}"

    ops = [_cli_op(f"sift-bound-y{y}", ["sift-bound", "--x", "1e6", "--y", str(y)]) for y in (7, 11)]
    for links in ("2", "2,6,10", "2,6,6,10"):
        check = twin_check if links == "2" else None
        ops.append(_cli_op(f"singular-{links}", ["singular", "--pcut", "10000000", "--links", links], check))
    ops += [_cli_op(f"dickman-u{u}", ["dickman", "--u", str(u)]) for u in (3, 10)]
    ops += [
        Op("perron-y7", perron(7), perron_check, lambda res: _f64(res[0])),
        # power iteration needs more than its 10,000 steps at y = 11
        # (|lambda_2 / lambda_1| ~ 0.99961); kept in so a fix shows
        Op("perron-y11", perron(11), perron_check, known_failure=NumericalError),
        Op("row-sums-y13", row_sums, row_sum_check, lambda res: res[0].tobytes()),
        Op(
            "rho-table",
            lambda: dickman.RhoTable(step=2**-12, u_max=20),
            rho_table_check,
            lambda t: t.grid.tobytes(),
        ),
        Op("rho-independent", rho_pair, rho_check, lambda res: _f64(res[0]) + _f64(res[1])),
    ]
    return ops


_BUILDERS = {
    "trees": _trees,
    "walk-minima": _walk_minima,
    "walk-full": _walk_full,
    "analytic": _analytic,
}


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of ``workload`` with inputs made from ``seed``."""
    return _BUILDERS[workload](seed)
