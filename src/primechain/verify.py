"""Acceptance criteria and per-module property suites.

Every check returns (ok, detail); `run_suite` and `run_one` wrap them with
timing and exception capture so one failing check never hides the others.
Both read the one registry, `CHECKS`; its names give the suites and so
`primechain verify` its --suite choices, keeping the gate and pytest in lockstep.

Naming: A01..A11 are the release acceptance checks; "module/..." names
are the per-module invariant suites, each asserting a claim that no
acceptance criterion and no unit test already covers.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import re
import tempfile
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import brw, chains, dickman, pratt, rng, sieve, sifted, singular
from .brw import RunConfig

_FERMAT_SET = (3, 5, 17, 257, 65537)


class VerifyContext:
    """Lazily built shared state (prime table, tree cache) for the checks."""

    def __init__(self, threads: int = 1):
        self.threads = threads

    @functools.cached_property
    def table(self) -> sieve.SpfTable:
        return sieve.SpfTable(10**6)

    @functools.cached_property
    def dag(self) -> pratt.PrattDag:
        return pratt.PrattDag(self.table)

    @functools.cached_property
    def mass(self) -> pratt.MassProducts:
        return pratt.MassProducts(self.table, self.dag)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def naive_f(p: int, table: sieve.SpfTable) -> int:
    """Reference tree-size recursion, deliberately memoization-free."""
    if p == 2:
        return 1
    return 1 + sum(naive_f(q, table) for q in table.factorize(p - 1).distinct_primes())


def naive_h(p: int, table: sieve.SpfTable) -> int:
    """Reference tree-height recursion, deliberately memoization-free."""
    if p == 2:
        return 1
    return 1 + max(naive_h(q, table) for q in table.factorize(p - 1).distinct_primes())


# ---------------------------------------------------------------------------
# acceptance criteria


def _a01_recursion_oracle(ctx: VerifyContext):
    table, dag = ctx.table, ctx.dag
    for p in table.primes(2, 10**4).tolist():
        if dag.f_of(p) != naive_f(p, table) or dag.h_of(p) != naive_h(p, table):
            return False, f"memoized recursion disagrees with naive at p={p}"
    for p in table.primes(2, 2000).tolist():
        if chains.f_oracle(p, table) != dag.f_of(p):
            return False, f"chain enumeration count differs from tree size at p={p}"
    return True, "naive recursion to 1e4 and chain enumeration to 2000 agree"


def _a02_bounds_sweep(ctx: VerifyContext):
    table, dag, mass = ctx.table, ctx.dag, ctx.mass
    tol = 1e-9
    checked = 0
    for p in table.primes(2, 10**6).tolist():
        f = dag.f_of(p)
        h = dag.h_of(p)
        lg = math.log2(p)
        if f > 2 * lg - 1 + tol:
            return False, f"node-count bound violated at p={p} (f={f})"
        if h > lg + 1 + tol:
            return False, f"height bound violated at p={p} (H={h})"
        if p != 2:
            if f % 2:
                return False, f"odd node count at odd prime p={p}"
            if dag.g_of(p) * 2 != f:
                return False, f"2-rooted chain count is not f/2 at p={p}"
        if not mass.mass_identity_holds(p):
            return False, f"mass identity fails at p={p}"
        if mass.lprod(p) ** 2 * (1 << f) > p * p:
            return False, f"non-squarefree mass bound fails at p={p}"
        checked += 1
    return True, f"all bounds and exact mass identities hold for {checked} primes <= 1e6"


def _a03_fermat_heights(ctx: VerifyContext):
    table, dag = ctx.table, ctx.dag
    found = tuple(p for p in table.primes(2, 10**6).tolist() if dag.h_of(p) == 2)
    if found != _FERMAT_SET:
        return False, f"height-2 primes <= 1e6 came out as {found}"
    if not all(pratt.is_fermat_prime(p) for p in found):
        return False, "height-2 prime rejected by the 2^(2^m)+1 test"
    return True, "height-2 primes <= 1e6 are exactly 3, 5, 17, 257, 65537"


def _a04_counting_identities(ctx: VerifyContext):
    table, dag = ctx.table, ctx.dag
    total = sum(len(chains.chains_ending_at(p, table)) for p in (2, 3, 5, 7))
    if total != 9:
        return False, f"chains ending at primes <= 10 number {total}, expected 9"
    for x in (10**2, 10**3, 10**4):
        if not chains.n_identity_check(x, table, dag):
            return False, f"shifted-prime counting identity fails at x={x}"
    x = 10**5
    stats = pratt.range_stats(x, table, dag)
    six_log = 6.0 * math.log(x)
    for h, count in stats.f_hist.items():
        if count > (six_log / h) ** h + 1e-9:
            return False, f"count bound (6 log x/h)^h fails at h={h}: {count}"
    return True, "N(10)=9, identity holds at 1e2..1e4, per-value counts within bound at 1e5"


def _a05_sifted_matrix(ctx: VerifyContext):
    worst = 0.0
    for y in (2, 3, 5):
        for s in (1.5, 2.0, 2.5):
            m = sifted.build_matrix(y, s)
            direct = m.row_sums()
            for i, b in enumerate(m.units.tolist()):
                closed = m.row_sum_closed_form(b)
                rel = abs(direct[i] - closed) / closed
                worst = max(worst, rel)
                if rel > 1e-8:
                    return False, f"row sum mismatch at y={y}, s={s}, b={b}: rel {rel:.2e}"
            lam = sifted.perron_eigenvalue(m)
            big_r = float(direct.max())
            if lam > big_r + 1e-9:
                return False, f"dominant eigenvalue {lam} above max row sum {big_r}"
    r35 = sifted.max_row_sum_value(3, 2.0)
    if abs(r35 - 0.36551) > 1e-4:
        return False, f"max row sum at (y=3, s=2) is {r35:.6f}, outside 0.36551 +- 1e-4"
    brute = chains.enumerate_from(7, 1000, ctx.table).total
    bound = sifted.chain_count_bound(1000, 5).bound
    if brute > bound:
        return False, f"brute chain count {brute} exceeds matrix bound {bound:.1f}"
    return True, (
        f"rows match closed form (worst rel {worst:.1e}), R(3,2)={r35:.6f}, "
        f"eigenvalues below row sums, brute {brute} <= bound {bound:.1f}"
    )


def _a06_singular_series(ctx: VerifyContext):
    twin = singular.singular_series((2,), prime_cutoff=10**6)
    if abs(twin.value - 1.32032) > 1e-3:
        return False, f"twin-prime constant came out as {twin.value:.6f}"
    degenerate = singular.singular_series((1,), prime_cutoff=10**4)
    if degenerate.value != 0.0:
        return False, f"fully obstructed system returned {degenerate.value}, expected 0"
    # every box: each free set, and every residue of each fixed index
    runs = 0
    for p in (2, 3, 5, 7, 11, 13):
        for k in (1, 2, 3, 4):
            indices = range(1, k)
            for size in range(0, k):
                for free in itertools.combinations(indices, size):
                    rest = [i for i in indices if i not in free]
                    for values in itertools.product(range(p), repeat=len(rest)):
                        fixed = dict(zip(rest, values))
                        runs += 1
                        if not singular.rhopm_check(p, k, free, fixed):
                            return False, (
                                f"residue-count inequality fails at p={p}, k={k}, "
                                f"free={free}, fixed={fixed}"
                            )
    return True, (
        f"twin constant {twin.value:.6f}, obstructed system exactly 0, "
        f"{runs} residue box checks passed"
    )


def _a07_brw_expectations(ctx: VerifyContext):
    details = []
    for i, (n, t) in enumerate(((1, 1.0), (2, 1.0), (3, 2.0), (4, 2.0))):
        cfg = RunConfig(seed=700 + i, replicates=100_000, threads=ctx.threads)
        mean, se = brw.estimate_mean_z(n, t, cfg)
        exact = t**n / math.factorial(n)
        if abs(mean - exact) > 3 * se + 1e-12:
            return False, f"mean Z_{n}({t}) = {mean:.5f} vs exact {exact:.5f} (se {se:.5f})"
        details.append(f"Z_{n}({t}): {mean:.4f}~{exact:.4f}")
    cfg = RunConfig(seed=710, replicates=100_000, threads=ctx.threads)
    z1 = brw.replicate_z_counts(1, 0.5, cfg)
    phat = float(np.mean(z1 >= 1))
    se = math.sqrt(phat * (1 - phat) / len(z1))
    if abs(phat - 0.5) > 3 * se:
        return False, f"P(Z_1(0.5) >= 1) = {phat:.5f}, expected 0.5 +- {3*se:.5f}"
    cfg = RunConfig(seed=711, replicates=100_000, threads=ctx.threads)
    zl = brw.replicate_z_counts(1, math.log(2.0), cfg)
    qhat = float(np.mean(zl == 0))
    target = 1.0 - math.log(2.0)
    se2 = math.sqrt(qhat * (1 - qhat) / len(zl))
    if abs(qhat - target) > 3 * se2:
        return False, f"P(largest fragment <= 1/2) = {qhat:.5f} vs {target:.5f}"
    return True, "; ".join(details) + f"; survival {phat:.4f}~0.5; half-mass {qhat:.4f}~{target:.4f}"


def _a08_minimum_displacement(ctx: VerifyContext):
    cfg1 = RunConfig(seed=801, replicates=10_000, threads=ctx.threads)
    b1 = brw.median_bn_detail(1, cfg1).median
    if abs(b1 - 0.5) > 0.02:
        return False, f"median of B_1 = {b1:.4f}, expected 0.5 +- 0.02"
    cfg20 = RunConfig(seed=802, replicates=10_000, threads=ctx.threads)
    b20 = brw.median_bn_detail(20, cfg20, margin=3.0).median
    pred20 = brw.predicted_median_bn(20)
    delta = b20 - pred20
    if not -2.0 <= delta <= 2.0:
        return False, f"median of B_20 deviates from n/e + (3/2e)log n by {delta:.3f}"
    # Growth check: the cap for n=40 is chained off the measured n=20
    # offset; replicates shrink as exp(cap) grows to keep the run at
    # desk scale (the [6.9, 8.6] window dwarfs the median's SE here).
    pred40 = brw.predicted_median_bn(40)
    cap40 = pred40 + delta + 1.25
    reps40 = int(max(33, min(129, 2.5e9 / math.exp(cap40)))) | 1
    cfg40 = RunConfig(seed=803, replicates=reps40, threads=ctx.threads)
    b40 = brw.median_bn_detail(40, cfg40, cap=cap40).median
    growth = b40 - b20
    if not 6.9 <= growth <= 8.6:
        return False, f"b40 - b20 = {growth:.3f} outside [6.9, 8.6] (reps {reps40})"
    return True, (
        f"b1={b1:.4f}, b20={b20:.3f} (offset {delta:+.3f}), "
        f"b40={b40:.3f} from {reps40} replicates, growth {growth:.3f}"
    )


def _a09_z1_tail(ctx: VerifyContext):
    for j, t in enumerate((1.0, 2.0)):
        cfg = RunConfig(seed=900 + j, replicates=100_000, threads=ctx.threads)
        z = brw.replicate_z_counts(1, t, cfg)
        for k in range(1, 11):
            phat = float(np.mean(z >= k))
            se = math.sqrt(phat * (1 - phat) / len(z))
            bound = (math.e * t / k) ** (k - 1)
            if phat > bound + 3 * se + 1e-12:
                return False, f"P(Z_1({t}) >= {k}) = {phat:.5f} above bound {bound:.5f}"
    return True, "offspring tail bound (et/k)^(k-1) holds for t in {1,2}, k <= 10"


def _a10_dickman(ctx: VerifyContext):
    r2 = dickman.rho(2.0)
    if r2 != 1.0 - math.log(2.0):
        return False, f"rho(2) = {r2!r} is not the closed form 1 - log 2"
    r3 = dickman.rho(3.0)
    if abs(r3 - 0.0486084) > 1e-6:
        return False, f"rho(3) = {r3:.8f}, expected 0.0486084 +- 1e-6"
    ind = dickman.rho_independent(3.0, tol=1e-12)
    if abs(r3 - ind) > 1e-6:
        return False, f"table rho(3)={r3:.9f} vs independent integrator {ind:.9f}"
    coarse = dickman.RhoTable(step=2.0**-10, u_max=12)
    fine = dickman.RhoTable(step=2.0**-11, u_max=12)
    lo = 2 * coarse.per_unit
    hi = 10 * coarse.per_unit
    a = coarse.grid[lo : hi + 1]
    b = fine.grid[2 * lo : 2 * hi + 1 : 2]
    rel = float(np.max(np.abs(a - b) / b))
    if rel > 1e-9:
        return False, f"grid halving moved rho by rel {rel:.2e} (limit 1e-9)"
    return True, f"rho(2) exact, rho(3)={r3:.7f}, halving stability rel {rel:.1e}"


_DETERMINISM_COMMANDS = (
    ["brw", "median-bn", "--n", "8", "--reps", "300", "--seed", "42"],
    ["brw", "run", "--n", "6", "--cap", "6.0", "--seed", "3"],
    ["brw", "teps", "--eps", "1e-4", "--reps", "200", "--seed", "5"],
    ["brw", "tails", "--n", "6", "--reps", "400", "--seed", "9", "--format", "csv"],
    ["brw", "rde", "--pop", "2000", "--iters", "2", "--seed", "7"],
    ["hist", "--limit", "20000", "--stat", "H", "--format", "csv"],
)


def _neutral_threads(blob: bytes) -> bytes:
    """Blank out the echoed thread count; the config must report what was
    requested, so it is the one field allowed to differ across runs."""
    return re.sub(rb'("threads": |threads=)\d+', rb"\1*", blob)


def _a11_determinism(ctx: VerifyContext):
    from . import cli  # deferred: cli imports this module

    with tempfile.TemporaryDirectory() as tmp:
        for idx, base in enumerate(_DETERMINISM_COMMANDS):
            blobs = []
            for run, threads in enumerate(("1", "1", "8")):
                path = os.path.join(tmp, f"out-{idx}-{run}")
                code = cli.main(base + ["--threads", threads, "--out", path])
                if code != 0:
                    return False, f"command {' '.join(base)} exited {code}"
                with open(path, "rb") as fh:
                    blobs.append(fh.read())
            if blobs[0] != blobs[1]:
                return False, f"rerun of {' '.join(base)} changed output bytes"
            if _neutral_threads(blobs[0]) != _neutral_threads(blobs[2]):
                return False, f"thread count changed output bytes for {' '.join(base)}"
    return True, f"{len(_DETERMINISM_COMMANDS)} commands byte-stable across reruns and threads 1 vs 8"


# ---------------------------------------------------------------------------
# per-module property suites (claims no acceptance criterion or unit test covers)


def _p_sieve_l_structure(ctx):
    table = ctx.table
    for n in range(1, 20_001):
        l = table.factorize(n).unitary_cofactor()
        if n % l:
            return False, f"l({n}) = {l} does not divide n"
        if any(e != 1 for _, e in table.factorize(n // l).pairs):
            return False, f"n / l(n) not squarefree at n={n}"
    return True, "l(n) divides n with squarefree cofactor for n <= 2e4"


def _p_sieve_bt(ctx):
    table = ctx.table
    for x in (10**4, 10**5):
        qs = table.primes(2, int(math.isqrt(x)))
        for q, count in zip(qs.tolist(), sieve.count_primes_in_aps(x, qs, table).tolist()):
            cap = 2 * x / ((q - 1) * math.log(x / q))
            if count > cap:
                return False, f"progression count {count} above 2x/((q-1)log(x/q)) at x={x}, q={q}"
    return True, "progression counts stay under the sieve bound on the test grid"


def _p_sieve_pi(ctx):
    table = ctx.table
    direct = sum(1 for n in range(2, 10**5 + 1) if sieve.is_prime_u64(n))
    via_table = int(sieve.count_primes_in_aps(10**5, [1], table)[0])
    if direct != via_table:
        return False, f"prime counts disagree: {via_table} vs {direct}"
    return True, f"pi(1e5) = {direct} by two independent methods"


def _p_pratt_phi_iter(ctx):
    table = ctx.table
    if pratt.phi_iterate(1, 5, table) != 1:
        return False, "iterated totient at the fixed point moved"
    if pratt.phi_iterate(7, 1, table) != 6 or pratt.phi_iterate(7, 2, table) != 2:
        return False, "iterated totient of 7 wrong"
    chain_val = 97
    seen = []
    for k in range(6):
        seen.append(pratt.phi_iterate(chain_val, k, table))
    if seen != [97, 96, 32, 16, 8, 4]:
        return False, f"totient chain of 97 came out {seen}"
    frac = pratt.phi_iter_stats(10**4, 2, 0.5, table)
    if not 0.0 <= frac <= 1.0:
        return False, f"smoothness fraction {frac} outside [0,1]"
    return True, "iterated totient values and smoothness fraction behave"


def _p_chains_monotone(ctx):
    table = ctx.table
    counts = [chains.enumerate_from(7, x, table).total for x in (2, 5, 10, 20, 50)]
    if counts != sorted(counts):
        return False, f"chain counts not monotone in x: {counts}"
    return True, f"counts from 7 nondecreasing in x: {counts}"


def _p_chains_partition(ctx):
    enum = chains.enumerate_from(5, 100, ctx.table)
    if sum(enum.counts_by_length().values()) != enum.total:
        return False, "length breakdown does not partition the chain count"
    return True, f"{enum.total} chains partitioned by length"


def _p_chains_ratio(ctx):
    enum = chains.enumerate_from(3, 200, ctx.table)
    for record in enum.chains:
        ps = record.primes
        if len(ps) < 2:
            continue
        ratios = [math.log(ps[i + 1]) / math.log(ps[i]) for i in range(len(ps) - 1)]
        telescoped = math.prod(ratios)
        direct = math.log(ps[-1]) / math.log(ps[0])
        if abs(telescoped - direct) > 1e-12 * direct:
            return False, f"log-ratio telescoping fails for {ps}"
        if direct < min(ratios) ** (len(ps) - 1) - 1e-12:
            return False, f"ratio lower bound fails for {ps}"
    return True, "log-ratio telescoping and lower bound hold for all chains from 3"


def _p_sifted_gcd(ctx):
    for y in (3, 5):
        m = sifted.build_matrix(y, 2.0)
        sums = m.row_sums()
        ds = [math.gcd(b - 1, m.r) if b != 1 else m.r for b in m.units.tolist()]
        if any(d % 2 for d in ds):
            return False, f"odd gcd(b-1, r) appeared at y={y}"
        argmax = int(np.argmax(sums))
        if ds[argmax] != 2:
            return False, f"max row sum not attained at gcd 2 for y={y}"
    return True, "gcd(b-1, r) always even and max row sits at gcd 2"


def _p_singular_size_report(ctx):
    # Monitored only: the comparison constant is unspecified, so this
    # reports the observed range instead of asserting a threshold.
    draws = np.random.default_rng(11)
    ratios = []
    for _ in range(40):
        k = int(draws.integers(2, 7))
        ms = tuple(int(draws.integers(1, 12)) for _ in range(k - 1))
        val = singular.singular_series(ms, prime_cutoff=10**4).value
        if val <= 0:
            continue
        denom = math.log2(4 * math.prod(ms))
        ratios.append(val ** (1.0 / (k - 1)) / denom)
    if not ratios:
        return False, "every sampled system was obstructed; nothing to report"
    lo, hi = min(ratios), max(ratios)
    return True, f"normalized singular values span [{lo:.3f}, {hi:.3f}] over 40 samples (report only)"


def _p_brw_m1(ctx):
    for seed, u in ((420, 1.5), (321, 2.0), (322, 2.5), (421, 3.0)):
        cfg = RunConfig(seed=seed, replicates=200_000, threads=ctx.threads)
        z = brw.replicate_z_counts(1, math.log(u), cfg)
        phat = float(np.mean(z == 0))
        target = dickman.rho(u)
        se = math.sqrt(max(phat * (1 - phat), 1e-12) / len(z))
        if abs(phat - target) > 3 * se:
            return False, f"P(largest fragment <= 1/{u}) = {phat:.5f} vs rho({u}) = {target:.5f}"
    return True, "largest-fragment law matches the rho table at u in {1.5, 2, 2.5, 3}"


def _p_dickman_shape(ctx):
    table = dickman.default_table()
    start = table.per_unit  # u = 1
    vals = table.grid[start:]
    if np.any(vals <= 0):
        return False, "rho hit zero or below on the grid"
    logs = np.log(vals)
    d1 = np.diff(logs)
    if np.any(d1[1:] > 1e-12):
        return False, "log rho rose somewhere past u = 1"
    d2 = np.diff(logs, 2)
    if np.any(d2 > 1e-10):
        return False, "log rho convex somewhere past u = 1"
    return True, "rho positive with concave-decreasing log on the grid"


def _p_rng_oracle(ctx):
    for seed in (1, 9):
        _, first = brw.simulate_run(1, 4.0, RunConfig(seed=seed))
        key = int(rng.replicate_keys(seed, 0, 1)[0])
        direct = np.sort(brw.sample_lpd_offsets(key, 4.0))
        # scalar math.log and the vector kernel may differ in the last bit
        if len(direct) != len(first) or not np.allclose(first, direct, rtol=0.0, atol=1e-12):
            return False, f"engine and scalar sampler disagree for seed {seed}"
    return True, "vector engine reproduces the scalar stick sampler"


def _p_rng_distinct(ctx):
    keys = rng.replicate_keys(5, 0, 100_000)
    if len(np.unique(keys)) != len(keys):
        return False, "replicate keys collided"
    return True, "100000 replicate keys are pairwise distinct"


# Every check in run order, each name unique and saying its suites (_suites):
# "module/..." is in "module" and "properties", A01..A11 in "acceptance".
CHECKS = (
    ("A01-recursion-oracle", _a01_recursion_oracle),
    ("A02-bounds-sweep-1e6", _a02_bounds_sweep),
    ("A03-fermat-heights", _a03_fermat_heights),
    ("A04-counting-identities", _a04_counting_identities),
    ("A05-sifted-matrix", _a05_sifted_matrix),
    ("A06-singular-series", _a06_singular_series),
    ("A07-brw-expectations", _a07_brw_expectations),
    ("A08-minimum-displacement", _a08_minimum_displacement),
    ("A09-z1-tail-bound", _a09_z1_tail),
    ("A10-dickman-rho", _a10_dickman),
    ("A11-determinism", _a11_determinism),
    ("sieve/l-value-structure", _p_sieve_l_structure),
    ("sieve/progression-count-bound", _p_sieve_bt),
    ("sieve/prime-count-crosscheck", _p_sieve_pi),
    ("pratt/iterated-totient", _p_pratt_phi_iter),
    ("chains/monotone-in-x", _p_chains_monotone),
    ("chains/length-partition", _p_chains_partition),
    ("chains/ratio-telescoping", _p_chains_ratio),
    ("sifted/even-gcd-structure", _p_sifted_gcd),
    ("singular/normalized-size-report", _p_singular_size_report),
    ("brw/largest-fragment-law", _p_brw_m1),
    ("dickman/positive-log-concave", _p_dickman_shape),
    ("rng/scalar-oracle", _p_rng_oracle),
    ("rng/distinct-keys", _p_rng_distinct),
)


def _suites(name: str) -> tuple[str, ...]:
    module, slash, _ = name.partition("/")
    return ("all", "properties", module) if slash else ("all", "acceptance")


PROPERTY_SUITES = tuple(dict.fromkeys(name.partition("/")[0] for name, _ in CHECKS if "/" in name))
SUITE_CHOICES = ("all", "properties", "acceptance", *PROPERTY_SUITES)


def _run_check(name: str, fn, ctx: VerifyContext) -> CheckResult:
    t0 = perf_counter()
    try:
        ok, detail = fn(ctx)
    except Exception as exc:  # noqa: BLE001 - a crashing check is a failing check
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(name, ok, detail, perf_counter() - t0)


def _checks(suite: str):
    if suite not in SUITE_CHOICES:
        raise KeyError(f"unknown suite {suite!r}")
    return [(name, fn) for name, fn in CHECKS if suite in _suites(name)]


def acceptance_names() -> list[str]:
    return [name for name, _ in _checks("acceptance")]


def run_one(name: str, ctx: VerifyContext | None = None) -> CheckResult:
    for cand, fn in CHECKS:
        if cand == name:
            return _run_check(cand, fn, ctx or VerifyContext())
    raise KeyError(f"unknown check {name!r}")


def run_suite(suite: str = "all", ctx: VerifyContext | None = None, on_result=None) -> list[CheckResult]:
    """Run a suite in order; ``on_result`` (if given) sees each result as it finishes."""
    ctx = ctx or VerifyContext()
    results = []
    for name, fn in _checks(suite):
        results.append(_run_check(name, fn, ctx))
        if on_result is not None:
            on_result(results[-1])
    return results
