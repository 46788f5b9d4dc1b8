"""Branching random walk built on stick-breaking fragmentation.

One fragment of mass 1 splits into pieces y_1 = U_1,
y_2 = (1 - U_1) U_2, y_3 = (1 - U_1)(1 - U_2) U_3, ... with independent
uniforms, every piece splits again independently, and so on.  Tracking
x = -log(mass) turns generation n fragments into the points of a
branching random walk with displacement law -log of the size-biased
fragment sequence; positions only increase along lineages.

Quantities of interest:

* Z_n(t): number of generation-n points with position <= t (fragments of
  mass >= e^(-t)); its mean is exactly t^n / n!.
* B_n: the minimum position (the largest fragment, log scale).
* T(eps): first generation in which every fragment is <= eps.

All sampling is truncated at a position cap.  Because positions are
monotone along lineages, discarding a point beyond the cap discards only
descendants beyond the cap, so for any query t <= cap the truncated
process agrees exactly with the untruncated one; raising the cap with
the same seed reproduces the surviving points bit for bit (per-node
streams, see rng module).  A generation's minimum is exact whenever the
generation is nonempty; an empty generation means "minimum above the
cap" and is reported as censored.

The minima path prunes further, per replicate.  A cheap beam pass (the
few smallest points of each generation) reaches a real generation-n node,
whose position U_r bounds that replicate's B_n from above.  Every ancestor
of the minimising node lies at or below B_n <= U_r, so the exact pass may
drop any point above U_r, and does, with bound min(cap, U_r).  A node's
position and key come only from its parent's and its own stream, so the
dropped rows change no bit of the minimum.  Z_n(t), T(eps) and single
runs need every point below the cap and keep the cap alone.

Replicates are independent and parallelize freely: replicate i draws its
randomness from the substream keyed by (seed, i), so results do not
depend on batch or thread layout.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, CensoringError, DomainError, NumericalError
from .rng import GOLDEN, RDE_SALT, mix64, mix64_int, replicate_keys, stream_draw, to_unit, uniform_stream

_U64 = np.uint64
_MASK = (1 << 64) - 1
_E = math.e


@dataclass
class RunConfig:
    """Shared Monte Carlo settings.

    ``batch_rows`` caps the number of concurrently materialized points per
    replicate batch; it trades memory for numpy call overhead and has no
    effect on results.
    """

    seed: int = 1
    cap: float = 8.0
    replicates: int = 10_000
    max_generation: int = 20
    threads: int = 1
    batch_rows: int = 4_000_000

    def __post_init__(self):
        if not 0 < self.cap < math.inf:
            raise DomainError("cap must be positive and finite")
        if self.replicates < 1:
            raise DomainError("replicates must be >= 1")
        if self.max_generation < 0:
            raise DomainError("max_generation must be >= 0")
        if self.threads < 1:
            raise DomainError("threads must be >= 1")


@dataclass
class FragmentGeneration:
    """One generation of one replicate: sorted positions <= cap."""

    index: int
    positions: np.ndarray
    cap: float
    censored: bool  # True once the generation is empty (minimum above cap)


def lpd_offsets_from_uniforms(uniforms, cap: float) -> list[float]:
    """Stick-breaking displacements -log y_i <= cap from explicit uniforms.

    Consumes sticks until the remaining mass drops below e^(-cap); every
    later fragment is smaller than that remainder, so the returned
    multiset is exactly the set of offsets <= cap (nothing missed).
    """
    out: list[float] = []
    cum = 0.0
    for u in uniforms:
        v = cum - math.log(u)
        if v <= cap:
            out.append(v)
        cum -= math.log1p(-u)
        if cum >= cap:
            break
    return out


def sample_lpd_offsets(key: int, cap: float) -> np.ndarray:
    """Offsets of the node stream ``key``, in stick order."""
    if cap <= 0:
        return np.zeros(0, dtype=np.float64)
    return np.array(lpd_offsets_from_uniforms(uniform_stream(key), cap), dtype=np.float64)


# ---------------------------------------------------------------------------
# vectorized generation engine


def _next_generation(pos, key, rep, cap, strict, row_guard):
    """Children of all points in (pos, key, rep), truncated at cap.

    ``cap`` is a scalar or an array holding each row's own bound.  Round t
    draws stick t for every still-active parent; parents retire once their
    remaining mass cannot produce another child below their bound.
    """
    per_row = np.ndim(cap) > 0
    out_pos, out_key, out_rep = [], [], []
    cum = np.zeros_like(pos)
    total = 0
    t = 0
    while pos.size:
        u = to_unit(stream_draw(key, 2 * t + 1))
        child_pos = pos + cum - np.log(u)
        keep = child_pos < cap if strict else child_pos <= cap
        if keep.any():
            kept = child_pos[keep]
            total += kept.size
            if total > row_guard:
                raise CapacityError(
                    "generation exceeds the row budget; lower the cap or batch size"
                )
            out_pos.append(kept)
            out_key.append(stream_draw(key[keep], 2 * t + 2))
            out_rep.append(rep[keep])
        cum = cum - np.log1p(-u)
        alive = pos + cum < cap
        if not alive.all():
            pos, key, rep, cum = pos[alive], key[alive], rep[alive], cum[alive]
            if per_row:
                cap = cap[alive]
        t += 1
        if t > 100_000:
            raise NumericalError("stick loop failed to terminate")
    if not out_pos:
        empty = np.zeros(0)
        return empty, np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64)
    return (
        np.concatenate(out_pos),
        np.concatenate(out_key),
        np.concatenate(out_rep),
    )


def _segment_min(rep, values, size):
    out = np.full(size, np.inf)
    if rep.size:
        order = np.argsort(rep, kind="stable")
        r = rep[order]
        v = values[order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = r[1:] != r[:-1]
        starts = np.nonzero(first)[0]
        out[r[starts]] = np.minimum.reduceat(v, starts)
    return out


_BEAM_WIDTH = 16


def _minimum_bounds(key, n: int, cap: float, row_guard: int) -> np.ndarray:
    """Per-replicate bounds U_r >= B_n from a beam pass, capped at cap.

    Each generation keeps the _BEAM_WIDTH smallest children of each
    replicate, so the best survivor at generation n is a real node and its
    position bounds that replicate's minimum.  The bound returned is the
    next float above it: a parent retires only once pos + cum reaches the
    bound, and a child's position never falls below its parent's pos + cum.
    Where the beam dies the bound is the cap itself.

    The width trades beam rows against the pruned pass's rows; measured on
    one core at seed 1 (2000 replicates, n=16, cap 10.42, unpruned 64.3M
    rows in 11.5 s), widths 4/8/16/32 drew 4.1M/4.1M/4.9M/6.7M rows in
    0.96/0.98/1.27/1.91 s.  On the A08 generation-40 run (seed 803, 61
    replicates, cap 17.52), where the pass below the bound dominates, the
    mean of e^(U_r - cap), which tracks its cost, is 0.75/0.59/0.47/0.43,
    with 27/16/4/3 beams ending at the cap.  Width 16 keeps nearly all of
    the small-n saving and most of the large-n one.
    """
    b = key.size
    pos = np.zeros(b)
    rep = np.arange(b, dtype=np.int64)
    for _ in range(n):
        pos, key, rep = _next_generation(pos, key, rep, cap, False, row_guard)
        order = np.lexsort((pos, rep))
        pos, key, rep = pos[order], key[order], rep[order]
        rank = np.arange(rep.size) - np.searchsorted(rep, rep)
        beam = rank < _BEAM_WIDTH
        pos, key, rep = pos[beam], key[beam], rep[beam]
    return np.minimum(cap, np.nextafter(_segment_min(rep, pos, b), np.inf))


def _expected_peak_rows(cap: float, n: int) -> float:
    best = 1.0
    for m in range(1, n + 1):
        best = max(best, math.exp(m * math.log(max(cap, 1e-9)) - math.lgamma(m + 1)))
    return best


def _batch_size(cfg: RunConfig, cap: float, n: int) -> int:
    per_rep = _expected_peak_rows(cap, n) + 1.0
    if per_rep > cfg.batch_rows:
        raise CapacityError(
            f"a single replicate at cap {cap:.2f} expects ~{per_rep:.0f} points, "
            f"above the row budget {cfg.batch_rows}"
        )
    # halve the nominal fit so sampling fluctuations stay inside the guard
    return max(1, min(cfg.replicates, int(cfg.batch_rows / (2.0 * per_rep))))


def _drive(cfg: RunConfig, n: int, cap: float, *, strict=False, want_min=False, z_t=None, want_death=False, death_limit=None):
    """Run all replicates; returns (minima, z_counts, death_gens) arrays.

    With ``want_min`` each replicate is pruned to its own bound (see
    _minimum_bounds), so only the minima are exact and it must not be
    combined with ``z_t`` or ``want_death``, which need every point.
    """
    reps = cfg.replicates
    limit = death_limit if want_death else n
    batch = _batch_size(cfg, cap, limit)
    guard = 4 * cfg.batch_rows
    minima = np.full(reps, np.inf) if want_min else None
    z_counts = np.zeros(reps, dtype=np.int64) if z_t is not None else None
    deaths = np.full(reps, -1, dtype=np.int64) if want_death else None

    def work(lo: int, hi: int):
        b = hi - lo
        key = replicate_keys(cfg.seed, lo, hi)
        pos = np.zeros(b)
        rep = np.arange(b, dtype=np.int64)
        local_death = np.full(b, -1, dtype=np.int64)
        if strict and cap <= 0:
            local_death[:] = 0
            pos = pos[:0]
            key = key[:0]
            rep = rep[:0]
        alive = np.ones(b, dtype=bool) if pos.size else np.zeros(b, dtype=bool)
        bounds = _minimum_bounds(key, n, cap, guard) if want_min else None
        for gen in range(1, limit + 1):
            if not pos.size:
                break
            row_cap = bounds[rep] if want_min else cap
            pos, key, rep = _next_generation(pos, key, rep, row_cap, strict, guard)
            if want_death:
                present = np.zeros(b, dtype=bool)
                present[rep] = True
                newly = alive & ~present
                local_death[newly] = gen
                alive &= present
        if want_min:
            minima[lo:hi] = _segment_min(rep, pos, b)
        if z_t is not None:
            sel = rep[pos <= z_t]
            z_counts[lo:hi] = np.bincount(sel, minlength=b)
        if want_death:
            deaths[lo:hi] = local_death

    ranges = [(lo, min(lo + batch, reps)) for lo in range(0, reps, batch)]
    if cfg.threads == 1 or len(ranges) == 1:
        for lo, hi in ranges:
            work(lo, hi)
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            list(pool.map(lambda rg: work(*rg), ranges))
    return minima, z_counts, deaths


# ---------------------------------------------------------------------------
# public operations


def simulate_run(cfg: RunConfig, replicate: int = 0) -> list[FragmentGeneration]:
    """Generations 0..max_generation of one replicate, truncated at cfg.cap."""
    key = replicate_keys(cfg.seed, replicate, replicate + 1)
    pos = np.zeros(1)
    rep = np.zeros(1, dtype=np.int64)
    gens = [FragmentGeneration(0, np.zeros(1), cfg.cap, censored=False)]
    censored = False
    for gen in range(1, cfg.max_generation + 1):
        if pos.size:
            pos, key, rep = _next_generation(pos, key, rep, cfg.cap, False, cfg.batch_rows)
        if not pos.size:
            censored = True
        gens.append(FragmentGeneration(gen, np.sort(pos.copy()), cfg.cap, censored))
    return gens


def z_count(generation: FragmentGeneration, t: float) -> int:
    """Number of generation points at position <= t (t within the cap)."""
    if t > generation.cap:
        raise CensoringError(f"t={t} beyond the simulation cap {generation.cap}")
    return int(np.count_nonzero(generation.positions <= t))


def replicate_z_counts(n: int, t: float, cfg: RunConfig) -> np.ndarray:
    """Z_n(t) for every replicate, simulated exactly with cap = t."""
    if t <= 0 or n < 1:
        raise DomainError("need t > 0 and n >= 1")
    _, z, _ = _drive(cfg, n, float(t), z_t=float(t))
    return z


def estimate_mean_z(n: int, t: float, cfg: RunConfig) -> tuple[float, float]:
    """(sample mean of Z_n(t), standard error)."""
    z = replicate_z_counts(n, t, cfg)
    mean = float(z.mean())
    se = float(z.std(ddof=1) / math.sqrt(len(z))) if len(z) > 1 else float("inf")
    return mean, se


def predicted_median_bn(n: int) -> float:
    """Leading-order location of the generation-n minimum:
    n/e + (3/(2e)) log n."""
    if n < 1:
        raise DomainError("n must be >= 1")
    return n / _E + 1.5 / _E * math.log(n)


def replicate_minima(n: int, cfg: RunConfig, cap: float) -> np.ndarray:
    """B_n per replicate; +inf where the whole generation exceeded cap."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if not 0 < cap < math.inf:
        raise DomainError("cap must be positive and finite")
    minima, _, _ = _drive(cfg, n, float(cap), want_min=True)
    return minima


@dataclass
class MedianEstimate:
    n: int
    median: float
    cap: float
    censor_rate: float
    replicates: int
    retried: bool


def median_bn_detail(n: int, cfg: RunConfig, margin: float = 4.0, cap: float | None = None) -> MedianEstimate:
    """Median of B_n with censored replicates counted as +infinity.

    The cap defaults to the predicted median plus ``margin``.  The lower
    median order statistic is exact as long as fewer than half of the
    replicates are censored; on >= 50% censoring the run is retried once
    with cap + 2 before giving up.
    """
    if not math.isfinite(margin):
        raise DomainError("margin must be finite")
    chosen = float(cap) if cap is not None else predicted_median_bn(n) + margin
    retried = False
    for attempt in range(2):
        minima = replicate_minima(n, cfg, chosen)
        censor = float(np.mean(np.isinf(minima)))
        if censor < 0.5:
            order = np.sort(minima)
            med = float(order[(len(order) - 1) // 2])
            return MedianEstimate(n, med, chosen, censor, cfg.replicates, retried)
        if attempt == 0:
            chosen += 2.0
            retried = True
    raise CensoringError(
        f"{censor:.0%} of replicates censored at cap {chosen}; raise the margin"
    )


def estimate_median_bn(n: int, cfg: RunConfig, margin: float = 4.0, cap: float | None = None) -> float:
    return median_bn_detail(n, cfg, margin, cap).median


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # At the boundary counts the exact bound is the boundary itself;
    # otherwise sqrt roundoff can leave it a few ulp on the wrong side.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class TailEstimate:
    """Empirical tail profile of B_n around its estimated median."""

    n: int
    replicates: int
    cap: float
    median: float
    censor_rate: float
    offsets: np.ndarray
    left: np.ndarray  # P{B_n <= median - x}
    right: np.ndarray  # P{B_n >= median + x} (conservative beyond the cap)
    left_ci: list[tuple[float, float]]
    right_ci: list[tuple[float, float]]
    left_slope: float  # fitted decay rate of the left tail
    field_note: str = field(default="left tail fitted on log P vs x where counts >= 25")


def estimate_tails(
    n: int,
    cfg: RunConfig,
    margin: float = 4.0,
    grid_step: float = 0.5,
    grid_max: float = 4.0,
) -> TailEstimate:
    if not math.isfinite(margin):
        raise DomainError("margin must be finite")
    if not (0 < grid_step < math.inf and 0 <= grid_max < math.inf):
        raise DomainError("grid step must be positive and grid max non-negative, both finite")
    cap = predicted_median_bn(n) + margin
    minima = replicate_minima(n, cfg, cap)
    censor = float(np.mean(np.isinf(minima)))
    if censor >= 0.5:
        raise CensoringError("tail estimate needs a majority of uncensored replicates")
    order = np.sort(minima)
    med = float(order[(len(order) - 1) // 2])
    reps = len(minima)
    offsets = np.arange(0.0, grid_max + 1e-12, grid_step)
    left = np.empty(len(offsets))
    right = np.empty(len(offsets))
    left_ci, right_ci = [], []
    for i, x in enumerate(offsets):
        lcount = int(np.count_nonzero(minima <= med - x))
        rcount = int(np.count_nonzero(minima >= med + x))  # +inf counts as beyond
        left[i] = lcount / reps
        right[i] = rcount / reps
        left_ci.append(wilson_interval(lcount, reps))
        right_ci.append(wilson_interval(rcount, reps))
    fit_mask = (offsets >= 0.5) & (left * reps >= 25)
    if fit_mask.sum() >= 2:
        slope = float(np.polyfit(offsets[fit_mask], np.log(left[fit_mask]), 1)[0])
        left_slope = -slope
    else:
        left_slope = float("nan")
    return TailEstimate(
        n=n,
        replicates=reps,
        cap=cap,
        median=med,
        censor_rate=censor,
        offsets=offsets,
        left=left,
        right=right,
        left_ci=left_ci,
        right_ci=right_ci,
        left_slope=left_slope,
    )


def t_epsilon(eps: float, cfg: RunConfig, replicate: int = 0) -> int:
    """First generation whose largest fragment is <= eps, exactly.

    Fragments <= eps are discarded at birth (their descendants are smaller
    still), so the process dies exactly at T(eps).  The generation budget
    is cfg.max_generation, floored at a level the process essentially
    never survives; hitting it raises a capacity error.
    """
    if not 0 < eps <= 1:
        raise DomainError("eps must be in (0, 1]")
    if eps == 1.0:
        return 0
    cap = -math.log(eps)
    limit = max(cfg.max_generation, int(6 * cap) + 60)
    key = replicate_keys(cfg.seed, replicate, replicate + 1)
    pos = np.zeros(1)
    rep = np.zeros(1, dtype=np.int64)
    for gen in range(1, limit + 1):
        pos, key, rep = _next_generation(pos, key, rep, cap, True, cfg.batch_rows)
        if not pos.size:
            return gen
    raise CapacityError("generation budget hit before the population died")


def replicate_t_epsilon(eps: float, cfg: RunConfig) -> np.ndarray:
    """T(eps) for every replicate (vectorized across replicates)."""
    if not 0 < eps <= 1:
        raise DomainError("eps must be in (0, 1]")
    if eps == 1.0:
        return np.zeros(cfg.replicates, dtype=np.int64)
    cap = -math.log(eps)
    limit = max(cfg.max_generation, int(6 * cap) + 60)
    _, _, deaths = _drive(cfg, 0, cap, strict=True, want_death=True, death_limit=limit)
    if np.any(deaths < 0):
        raise CapacityError("some replicates outlived the generation budget")
    return deaths


def estimate_mean_t_epsilon(eps: float, cfg: RunConfig) -> tuple[float, float]:
    """(mean of T(eps), standard error)."""
    deaths = replicate_t_epsilon(eps, cfg)
    mean = float(deaths.mean())
    se = float(deaths.std(ddof=1) / math.sqrt(len(deaths))) if len(deaths) > 1 else float("inf")
    return mean, se


# ---------------------------------------------------------------------------
# recursive distributional equation for the centered minimum


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    data = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, data, side="right") / len(a)
    cdf_b = np.searchsorted(b, data, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass
class RdeResult:
    samples: np.ndarray
    ks_trace: list[float]
    mean_trace: list[float]
    diverged: bool


def rde_iterate(pop_size: int, iters: int, cfg: RunConfig) -> RdeResult:
    """Population iteration of X = -1/e + min_i (z_i + X_i).

    The z_i are the offsets of one fresh fragmentation point process per
    sample and the X_i are resampled with replacement from the previous
    population.  Each sample stops peeling sticks once the remaining mass
    cannot beat its current best (cum + min X >= best), which is exact.
    Starting population is identically 0, so one step reproduces
    -1/e + B_1.
    """
    if pop_size < 1000:
        raise DomainError("population must be >= 1000 for a stable iteration")
    if iters < 1:
        raise DomainError("iters must be >= 1")
    x = np.zeros(pop_size)
    base = mix64_int((cfg.seed & _MASK) ^ int(RDE_SALT))
    ks_trace: list[float] = []
    mean_trace: list[float] = []
    for it in range(iters):
        iter_base = mix64_int((base + (it + 1) * int(GOLDEN)) & _MASK)
        keys = mix64(_U64(iter_base) + np.arange(1, pop_size + 1, dtype=np.uint64) * GOLDEN)
        min_x = float(x.min())
        res = np.full(pop_size, np.inf)
        act = np.arange(pop_size)
        cum = np.zeros(pop_size)
        best = np.full(pop_size, np.inf)
        kact = keys
        t = 0
        while act.size:
            u = to_unit(stream_draw(kact, 3 * t + 1))
            pick = (stream_draw(kact, 3 * t + 2) % _U64(pop_size)).astype(np.int64)
            cand = cum - np.log(u) + x[pick]
            np.minimum(best, cand, out=best)
            cum = cum - np.log1p(-u)
            keep = cum + min_x < best
            if not keep.all():
                done = ~keep
                res[act[done]] = best[done]
                act, kact, cum, best = act[keep], kact[keep], cum[keep], best[keep]
            t += 1
            if t > 100_000:
                raise NumericalError("rde stick loop failed to terminate")
        new_x = res - 1.0 / _E
        ks_trace.append(ks_distance(x, new_x))
        x = new_x
        mean_trace.append(float(x.mean()))
    diverged = not math.isfinite(mean_trace[-1]) or abs(mean_trace[-1]) > 100.0
    return RdeResult(samples=x, ks_trace=ks_trace, mean_trace=mean_trace, diverged=diverged)
