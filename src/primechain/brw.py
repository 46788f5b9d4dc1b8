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
runs need every point below the cap and keep the cap alone.  The beam
prunes itself the same way: once a replicate's beam is full, the smaller
of the first two children of each of its parents fixes a bound that every
child the beam keeps lies below, so each generation of the beam is drawn
only up to that bound and the beam does not change.

Replicates are independent and parallelize freely: replicate i draws its
randomness from the substream keyed by (seed, i), so results do not depend
on batch or thread layout.  One driver, ``_drive``, runs every operation
as one reduction ``reduce(key, walk)`` of each batch of a replicate range
[lo, hi): it sizes the batches (_batch_size), refuses before any draw a
replicate whose walk would pass the memory ceiling errors.MAX_BYTES
(_ROW_BYTES a row, _HEADROOM to spare), derives the replicate keys and maps
the batches over as many threads as fit it side by side; the kernel
refuses a generation past that ceiling.  The reductions are the beam
bounds and then the minimum below them (B_n, two _drive calls), a bincount
of the last generation (Z_n(t)), the last non-empty generation (T(eps)), or
a lazy stream of the sorted positions of every generation (a single run,
the range [r, r+1), which holds no generation its consumer has passed).  A
larger beam batch may order two near-equal points of one replicate the
other way (_minimum_bounds), but each bound is still a real node's
position, so no minimum depends on the layout.  Every walk keeps the
memory it frees (_keep_freed_memory), so small batches do not fault their
heap back in each generation.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import sys
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import MAX_BYTES, CapacityError, CensoringError, DomainError, NumericalError, as_int, as_real, check_bytes
from .rng import GOLDEN, RDE_SALT, mix64, mix64_int, replicate_keys, stream_draw, to_unit, uniform_stream

_U64 = np.uint64
_MASK = (1 << 64) - 1
_E = math.e
# Ceiling on RunConfig.threads, the OS threads one _map call may start; the
# walk's numpy kernels gain nothing from more workers than cores.
MAX_THREADS = 256


@dataclass
class RunConfig:
    """Monte Carlo settings of the walk operations.

    ``simulate_run`` runs one replicate, on its caller's thread, and reads
    ``seed`` alone; ``rde_iterate`` runs its own population and reads
    ``seed`` and ``threads``.  ``threads`` is at
    most ``MAX_THREADS``; a walk runs on fewer where fewer of its batches
    fit the memory ceiling side by side (``_drive``), and no layout moves a
    bit.  Fields are stored as Python ints; a seed counts mod 2^64.
    """

    seed: int = 1
    replicates: int = 10_000
    threads: int = 1

    def __post_init__(self):
        self.seed = as_int(self.seed, "seed")
        self.replicates = as_int(self.replicates, "replicates", 1, (1 << 63) - 1)
        self.threads = as_int(self.threads, "threads", 1, MAX_THREADS)


def lpd_offsets_from_uniforms(uniforms, cap: float) -> list[float]:
    """Stick-breaking displacements -log y_i <= cap from explicit uniforms.

    Consumes sticks until the remaining mass drops below e^(-cap); every
    later fragment is smaller than that remainder, so the returned
    multiset is exactly the set of offsets <= cap (nothing missed).
    """
    cap = as_real(cap, "cap")
    out: list[float] = []
    cum = 0.0
    for u in uniforms:
        u = as_real(u, "uniform", 0, 1 - 2**-53, lo_open=True)  # the floats in (0, 1)
        v = cum - math.log(u)
        if v <= cap:
            out.append(v)
        cum -= math.log1p(-u)
        if cum >= cap:
            break
    return out


def sample_lpd_offsets(key: int, cap: float) -> np.ndarray:
    """Offsets of the node stream ``key``, in stick order; cap <= 1e6, as it takes about cap sticks."""
    stream = uniform_stream(key)
    return np.array(lpd_offsets_from_uniforms(stream, as_real(cap, "cap", hi=1e6)), dtype=np.float64)


# ---------------------------------------------------------------------------
# vectorized generation engine

# Rounds a stick loop takes before it is a NumericalError.  A node stops once
# its Exp(1) increments pass its cap, after about cap +- sqrt(cap) rounds, so
# _batch_size refuses a cap above half of this.
_MAX_STICK_ROUNDS = 200_000


def _next_generation(pos, key, rep, cap, strict):
    """Children of all points in (pos, key, rep), truncated at cap.

    ``cap`` is a scalar or an array holding each row's own bound.  Round t
    draws stick t for every still-active parent; parents retire once their
    remaining mass cannot produce another child below their bound.  A round
    hashes one word per active parent and turns it into u in the same
    buffer; that one u gives both the child's offset -log(u) and the mass
    spent, -log1p(-u).  It takes one index array for its kept children and
    one for its surviving parents and gathers every column with them, and
    it does its arithmetic in place on arrays it allocated, so the inputs
    are never written.  It refuses a generation past the memory ceiling.
    """
    ceiling_rows = MAX_BYTES // _ROW_BYTES
    per_row = np.ndim(cap) > 0
    below = np.less if strict else np.less_equal
    out_pos, out_key, out_rep = [], [], []
    cum = np.zeros_like(pos)
    total = 0
    t = 0
    while pos.size:
        raw = stream_draw(key, 2 * t + 1)
        u = to_unit(raw, out=raw)
        child = pos + cum
        child -= np.log(u)
        cum -= np.log1p(np.negative(u, out=u), out=u)
        del raw, u  # freed before the gathers, which set the peak
        kept = below(child, cap).nonzero()[0]
        if kept.size:
            total += kept.size
            if total > ceiling_rows:
                raise CapacityError(f"a generation passes {ceiling_rows} rows, the memory ceiling of one batch; lower the cap")
            out_pos.append(child[kept])
            out_key.append(stream_draw(key[kept], 2 * t + 2))
            out_rep.append(rep[kept])
        alive = (np.add(pos, cum, out=child) < cap).nonzero()[0]
        if alive.size < pos.size:
            pos, key, rep, cum = pos[alive], key[alive], rep[alive], cum[alive]
            if per_row:
                cap = cap[alive]
        t += 1
        if t > _MAX_STICK_ROUNDS:
            raise NumericalError("stick loop failed to terminate")
    if not out_pos:
        return pos, key, rep
    return (
        np.concatenate(out_pos),
        np.concatenate(out_key),
        np.concatenate(out_rep),
    )


def _segment_min(rep, values, size):
    out = np.full(size, np.inf)
    np.minimum.at(out, rep, values)
    return out


_WIDE_BEAM_ROWS = 1e5  # expected rows per replicate above which the beam is wide
_MAX_GENERATIONS = 10_000  # each generation costs numpy passes even when empty
# Rows a call may expect to draw: replicates times the expected peak of one
# (or, for rde, population times iterations); each pass of A08's b40 expects 61 x 3.87e6 ~ 2.4e8.
_MAX_WORK_ROWS = 1 << 40
# Expected rows a full-cap batch holds in one generation: 1 MiB per float64 column.
_CACHE_ROWS = 1 << 17
_EXACT_ROWS = 2_000_000  # rows an exact-pass batch expects a generation at the full cap; it draws fewer
# Bytes a walk holds per row of a batch's largest generation, the unit of its
# memory checks.  A call's tracemalloc peak per row of that generation, at one
# thread: 76.2-77.9 at the full cap (Z_16(16), Z_17(17), Z_8(6), Z_12(10),
# T(1e-6), T(1e-7)), 55.1 in a beam batch, 75.7 and 88.9 in the minima at
# n=16 and of 106 replicates of A08's b20, 87.7-88.7 in each exact-pass
# batch of its b40 (up to 4.16M rows, 347.5 MiB), and 84.1-84.8 in a single
# run read a generation at a time (n = 16-40, caps 12-16).
_ROW_BYTES = 96
# Times its expected rows that the refusal and the worker fit count a batch
# at, so a walk admitted at the edge keeps headroom under its row guard.  A
# replicate's largest generation over its expectation (seed 1) was at most
# 1.37 of 20,000 at n = 40, cap 8, 1.14 of 1,000 at cap 13 and 1.08 of 12 at
# n = 17, cap 17.5 (A08's b40 size, admitted to 4.47M rows); shallow walks
# spread wider, 9.2% of 1,000 above 1.25 at n = 10, cap 15.
_HEADROOM = 1.25
# Rows a replicate's beam is taken to draw in one generation, in beam widths.
# It is above the most any generation drew, so even a beam batch's largest
# generation keeps within _CACHE_ROWS: 3.4/4.4/5.9 widths at n=16 (seed 1)
# and A08's b20 and b40, in the second or third generation while the beam
# fills, and 2.1/2.1/2.6 on average over all generations.
_BEAM_ROWS_PER_WIDTH = 8
# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _beam_caps(pos, key, rep, b: int, cap: float, width: int) -> np.ndarray:
    """Per-replicate cap for the beam's next generation, from its parents.

    A replicate whose beam is full (``width`` parents; it never holds
    more) gets the next float above the largest of its parents' smaller
    first-or-second child, at most cap; every other replicate keeps the
    cap.  Each parent then has a child below that cap, so the replicate's
    ``width`` smallest children all do.  The two children come from
    draws 1 and 3 with the round kernel's own arithmetic, so they are bit
    for bit children the kernel returns; the next float up keeps one that
    lands on its parent's pos + cum, where the kernel retires the parent.
    The beam is ordered by replicate, so a full one's parents are
    consecutive rows.
    """
    bound = np.full(b, cap)
    count = np.bincount(rep, minlength=b)
    rows = np.flatnonzero(count[rep] >= width)
    if rows.size:
        p, k = pos[rows], key[rows]
        u = to_unit(stream_draw(k, 1))
        first = p - np.log(u)
        second = p - np.log1p(-u)
        second -= np.log(to_unit(stream_draw(k, 3)))
        worst = np.minimum(first, second).reshape(-1, width).max(axis=1)
        bound[count >= width] = np.minimum(cap, np.nextafter(worst, np.inf))
    return bound


def _minimum_bounds(key, n: int, cap: float) -> np.ndarray:
    """Per-replicate bounds U_r >= B_n from a beam pass, capped at cap.

    Each generation keeps the _beam_width(cap, n) smallest children of each
    replicate, so the best survivor at generation n is a real node and its
    position bounds that replicate's minimum.  The bound returned is the
    next float above it: a parent retires only once pos + cum reaches the
    bound, and a child's position never falls below its parent's pos + cum.
    Where the beam dies the bound is the cap itself.

    Each generation is drawn below the per-replicate caps of _beam_caps,
    which hold every child the beam keeps, so they cost no bit of the beam;
    at n=16 they cut the beam's rows from 2.47M to 1.07M.  The beam is then
    selected with one argsort of rep * scale + pos, scale a power of two at
    least 2 * cap + 1, in place of a lexsort on (rep, pos): replicates stay
    in order, and within one only positions closer than ulp(b * scale) can
    round to one value and so swap.  The beam gathers only its own rows of
    that order, so a batch's generation costs one sorted index beside its
    children, and it reads pos, never the rounded value, so every survivor
    is still a real node, and B_n below the bound is exact whichever of two
    such children the beam keeps.
    """
    b = key.size
    width = _beam_width(cap, n)
    scale = 2.0 ** math.ceil(math.log2(2.0 * cap + 1.0))
    pos = np.zeros(b)
    rep = np.arange(b, dtype=np.int64)
    for _ in range(n):
        row_cap = _beam_caps(pos, key, rep, b, cap, width)[rep]
        pos, key, rep = _next_generation(pos, key, rep, row_cap, False)
        sort_key = rep * scale
        sort_key += pos
        order = sort_key.argsort()
        del sort_key  # one float column fewer through the gathers below
        # each replicate's children are one run of the order and the beam
        # keeps the first min(count, width) of each: its row j is the order's
        # row j plus the rows skipped in the replicates before
        count = np.bincount(rep, minlength=b)
        kept = np.minimum(count, width)
        skip = count - kept
        order = order[np.arange(kept.sum()) + np.repeat(np.cumsum(skip) - skip, kept)]
        pos, key, rep = pos[order], key[order], rep[order]
    return np.minimum(cap, np.nextafter(_segment_min(rep, pos, b), np.inf))


def _beam_width(cap: float, n: int) -> int:
    """Beam width of the minima pass, from the rows it expects per replicate.

    The width trades beam rows against the pruned pass's rows, and the
    pruned pass costs about e^(U_r - cap) of the unpruned one.  Measured on
    one core of a shared 2-core Xeon, with the beam pass ahead of the exact
    pass in its own batches, both passes timed together in units of
    perfbench's speed probe (five runs at n=16, three at n=20): at seed 1
    (2000 replicates, n=16, cap 10.42, ~4.1e3 expected rows, unpruned 64.3M
    rows in 3.4 s), widths 8/16/32 draw 3.19M/3.55M/4.71M rows
    (0.49M/1.07M/2.32M of them in the beam) in 0.83k-0.89k/1.02k-1.03k/
    1.39k-1.42k probes; A08's generation-20 run (seed 802, 10,000
    replicates, cap 12.01, ~1.9e4) drew 76.3M/69.9M/73.9M/90.1M rows in
    18.5k-19.2k/16.6k-18.2k/18.5k-19.9k/23.5k-25.3k probes at widths
    8/16/32/64.  Width 8 is the faster at n=16, 16 at n=20, where most of
    A08's minima time goes.  On A08's generation-40 run (seed 803, 61
    replicates, cap 17.52, ~3.9e6), the mean of e^(U_r - cap) is
    0.467/0.429/0.388/0.345/0.339 at widths 16/32/64/128/256, with
    4/3/2/1/1 beams ending at the cap, and the call took 83-91 s at width
    16 and 62.6-62.8 s at width 128 (two alternating runs each, bit-equal
    minima).  The step between the two, at _WIDE_BEAM_ROWS, sits far from
    both sides.  B_n is exact at any width, and the width reads only
    (cap, n), so no minimum moves with it.
    """
    return 16 if _expected_peak_rows(cap, n) < _WIDE_BEAM_ROWS else 128


def _expected_peak_rows(cap: float, n: int) -> float:
    """Max of cap^m / m! over 0 <= m <= n, which peaks at m = floor(cap)."""
    m = min(n, math.floor(cap))
    log_peak = m * math.log(cap) - math.lgamma(m + 1)
    return math.exp(log_peak) if log_peak < 700.0 else math.inf


def _replicate_rows(cap: float, n: int, layout: str) -> float:
    """Rows one replicate of a ``layout`` batch expects in its largest generation."""
    rows = _expected_peak_rows(cap, n) + 1.0
    return min(rows, _BEAM_ROWS_PER_WIDTH * _beam_width(cap, n)) if layout == "beam" else rows


def _batch_size(count: int, cap: float, n: int, layout: str) -> int:
    """Replicates per batch of ``count`` for ``n`` generations below ``cap``.

    Refuses, before anything is drawn, a replicate whose walk would pass the
    memory ceiling at _ROW_BYTES a row of _HEADROOM times its expected
    largest generation, a cap above half _MAX_STICK_ROUNDS, and a call
    expected to exceed the work bound.  A full-cap batch expects at most
    _CACHE_ROWS rows in one generation ("cache", the full-cap reductions).
    The minima's exact pass draws far fewer rows than the estimate and is
    sized to _EXACT_ROWS ("exact").  Their beam pass ("beam") is sized like
    a full-cap batch, but takes a replicate at _BEAM_ROWS_PER_WIDTH beam
    widths of rows where that is the smaller: 1,024 replicates a batch at
    width 16, 128 at width 128.

    _CACHE_ROWS keeps a float64 column of a round at most 1 MiB, half of
    L2.  Measured on one core of a 2-core Xeon, each run a fresh process,
    Z_8(6) over 100,000 replicates and T(1e-4) over 2,000 (seed 101)
    summed 12.1k-12.4k/10.8k-11.7k/11.1k-11.6k/11.7k-12.2k units of
    perfbench's speed probe at 2^16/2^17/2^18/2^19 rows, against
    13.3k-13.4k at _EXACT_ROWS, bit-equal, and peaked at 43-44/49-51/63-65/
    88-90 MiB RSS (207-213 at _EXACT_ROWS).  At 2^16 rows they peak below
    rde_iterate over 100,000 samples (45 MiB), which then sets the peak of
    perfbench's walk-full, and they are the slower.  The minima's exact
    pass keeps _EXACT_ROWS: at n=16 (2,000 replicates, cap 10.42) it took
    0.98k-1.01k in 5 batches against 1.60k-1.67k in 32 of 2^18 rows, and
    A08's generation-20 call 16.4k-17.8k in 95 against 33.8k-38.6k in 770.
    Beam batches of _EXACT_ROWS (one each) were no faster, 1.00k-1.04k and
    16.8k-17.7k, but raised the generation-20 call's peak RSS from 46 to
    77 MiB, so a beam batch is sized to the cache.
    """
    per_rep = _expected_peak_rows(cap, n) + 1.0
    check_bytes(_HEADROOM * _ROW_BYTES * per_rep, f"a single replicate at cap {cap:.6g} expects ~{per_rep:.3g} points, so its walk")
    if cap > _MAX_STICK_ROUNDS / 2:
        raise CapacityError(f"cap {cap:.6g} is above {_MAX_STICK_ROUNDS // 2}; a node draws about cap of the {_MAX_STICK_ROUNDS} stick rounds a loop may take")
    if count * per_rep > _MAX_WORK_ROWS:
        raise CapacityError(f"{count} replicates expect ~{count * per_rep:.3g} points, above the work bound {_MAX_WORK_ROWS:.3g}")
    rows = _EXACT_ROWS if layout == "exact" else _CACHE_ROWS
    return max(1, min(count, int(rows / _replicate_rows(cap, n, layout))))


def _nth(generations, n: int):
    """Generation n >= 1 of a walk."""
    return next(itertools.islice(generations, n - 1, None))


@functools.cache
def _keep_freed_memory() -> None:
    """Pin glibc's mmap and trim thresholds at their dynamic maxima.

    Every stick round allocates and frees arrays of 0.1-1 MiB.  glibc
    raises its mmap threshold only to the largest block freed so far and
    trims the heap top beyond twice that, so once no batch frees a 16 MiB
    column, each generation hands its heap back to the OS and faults it in
    again: Z_8(6) over 100,000 replicates in cache-sized batches took 182k
    minor page faults and 0.3-0.45 s of system time in 2.2-2.4 s.  With the
    thresholds pinned at 32 and 64 MiB, the most the dynamic rule reaches
    on 64-bit glibc, it took 3.3k faults and 0.01 s in 1.7-2.1 s, and
    peak RSS did not move.  Other platforms are left as they are.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _drive(
    cfg: RunConfig, lo: int, hi: int, cap: float, depth: int, reduce, layout: str = "cache", bounds=None
) -> list:
    """Reduce the replicates [lo, hi) batch by batch; returns the batch results in order.

    Batches are sized for ``depth`` generations below ``cap`` by
    ``_batch_size`` with ``layout``: "cache" for a full-cap reduction,
    "beam" for the minima's beam pass, "exact" for their exact pass.  They run
    on the fewest of cfg.threads, the batches and the batches whose
    expected rows (below their bounds in the exact pass), _HEADROOM times
    over, fit MAX_BYTES side by side at _ROW_BYTES a row; the thread count
    moves no outcome.  ``bounds``, if given, holds one bound at most ``cap``
    per replicate of [lo, hi).
    ``reduce(key, walk)`` gets the batch's keys and ``walk(strict=False)``:
    an endless iterator over generations 1, 2, ... of the batch as (pos,
    rep) arrays, keeping points at or (if strict) below its slice of
    ``bounds``, else ``cap``.  A reduction may return a lazy iterator over
    ``walk``; its draws then run as its consumer asks, after the refusal
    above.  A single run's does: as one batch of one replicate it gets one
    worker, which ``_map`` runs inline, so it draws on its consumer's thread.
    """
    if depth > _MAX_GENERATIONS:
        raise CapacityError(f"{depth} generations is above the budget of {_MAX_GENERATIONS}")
    batch = _batch_size(hi - lo, cap, depth, layout)
    starts = range(lo, hi, batch)
    rows = batch * _replicate_rows(cap, depth, layout)
    if bounds is not None:
        each = [_expected_peak_rows(b, depth) + 1.0 for b in bounds.tolist()]
        rows = max(math.fsum(each[i : i + batch]) for i in range(0, hi - lo, batch))
    workers = min(cfg.threads, len(starts), int(MAX_BYTES // (_HEADROOM * _ROW_BYTES * rows)))
    _keep_freed_memory()

    def work(start: int):
        stop = min(start + batch, hi)
        key = replicate_keys(cfg.seed, start, stop)
        bound = cap if bounds is None else bounds[start - lo : stop - lo]

        def walk(strict=False):
            pos, k, rep = np.zeros(key.size), key, np.arange(key.size, dtype=np.int64)
            while True:
                row_cap = bound[rep] if np.ndim(bound) else bound
                pos, k, rep = _next_generation(pos, k, rep, row_cap, strict)
                yield pos, rep

        return reduce(key, walk)

    return _map(workers, work, starts)


def _map(threads: int, fn, items) -> list:
    """``[fn(item) for item in items]``, on a pool of ``threads`` workers
    when there is more than one; ``threads`` is at most ``len(items)``."""
    if threads == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# public operations


def simulate_run(n: int, cap: float, cfg: RunConfig, replicate: int = 0) -> Iterator[np.ndarray]:
    """Iterator over the sorted positions <= cap of generations 0..n of one
    replicate; generation 0 is ``[0.0]`` and a censored generation (minimum
    above the cap) is empty.  The call checks its arguments and refuses,
    before any draw, a walk past the memory ceiling (``_drive``); each
    generation is then drawn and sorted only when the consumer asks for it,
    and the iterator holds none it has yielded."""
    n, cap = as_int(n, "n", 0), as_real(cap, "cap", 0, lo_open=True)
    replicate = as_int(replicate, "replicate", 0, (1 << 63) - 2)

    def record(key, walk):
        return (np.sort(pos) for pos, _ in itertools.islice(walk(), n))

    (positions,) = _drive(cfg, replicate, replicate + 1, cap, n, record)
    return itertools.chain([np.zeros(1)], positions)


def replicate_z_counts(n: int, t: float, cfg: RunConfig) -> np.ndarray:
    """Z_n(t) for every replicate, simulated exactly with cap = t."""
    n, t = as_int(n, "n", 1), as_real(t, "t", 0, lo_open=True)

    def count(key, walk):
        _, rep = _nth(walk(), n)
        return np.bincount(rep, minlength=key.size)

    return np.concatenate(_drive(cfg, 0, cfg.replicates, t, n, count))


def mean_and_se(sample: np.ndarray) -> tuple[float, float]:
    """(sample mean, standard error) of a nonempty sample of finite values;
    the error is inf for one sample, which shows no spread."""
    sample = np.asarray(sample, dtype=np.float64)
    if not (sample.size and np.isfinite(sample).all()):
        raise DomainError("the sample must be nonempty and finite")
    with np.errstate(over="raise"):
        try:
            mean = float(sample.mean())
            se = float(sample.std(ddof=1) / math.sqrt(len(sample))) if len(sample) > 1 else math.inf
        except FloatingPointError as exc:
            raise DomainError(f"the sample's moments leave the float range: {exc}") from None
    return mean, se


def estimate_mean_z(n: int, t: float, cfg: RunConfig) -> tuple[float, float]:
    """(sample mean of Z_n(t), standard error)."""
    return mean_and_se(replicate_z_counts(n, t, cfg))


def predicted_median_bn(n: int) -> float:
    """Leading-order location of the generation-n minimum:
    n/e + (3/(2e)) log n."""
    n = as_int(n, "n", 1, sys.float_info.max)
    return n / _E + 1.5 / _E * math.log(n)


def replicate_minima(n: int, cfg: RunConfig, cap: float) -> np.ndarray:
    """B_n per replicate; +inf where the whole generation exceeded cap.

    Two passes over all replicates: the beam bounds U_r first, then the
    exact pass below min(cap, U_r).
    """
    n, cap = as_int(n, "n", 1), as_real(cap, "cap", 0, lo_open=True)

    def beam(key, walk):
        return _minimum_bounds(key, n, cap)

    def lowest(key, walk):
        pos, rep = _nth(walk(), n)
        return _segment_min(rep, pos, key.size)

    bounds = np.concatenate(_drive(cfg, 0, cfg.replicates, cap, n, beam, "beam"))
    return np.concatenate(_drive(cfg, 0, cfg.replicates, cap, n, lowest, "exact", bounds))


@dataclass
class MedianEstimate:
    n: int
    median: float
    cap: float
    censor_rate: float
    replicates: int
    retried: bool


def _censored_minima(n: int, cfg: RunConfig, margin: float, cap: float | None) -> tuple[np.ndarray, MedianEstimate]:
    """Sorted B_n per replicate, censored replicates as +infinity, and their median.

    The cap defaults to the predicted median plus ``margin``.  The lower
    median order statistic is exact as long as fewer than half of the
    replicates are censored; on >= 50% censoring the run is retried once
    with cap + 2 before giving up.
    """
    margin = as_real(margin, "margin")
    chosen = as_real(cap, "cap") if cap is not None else predicted_median_bn(n) + margin
    for retried in (False, True):
        chosen += 2.0 * retried
        minima = np.sort(replicate_minima(n, cfg, chosen))
        censor = float(np.mean(np.isinf(minima)))
        if censor < 0.5:
            med = float(minima[(len(minima) - 1) // 2])
            return minima, MedianEstimate(n, med, chosen, censor, cfg.replicates, retried)
    raise CensoringError(
        f"{censor:.0%} of replicates censored at cap {chosen}; raise the margin"
    )


def median_bn_detail(n: int, cfg: RunConfig, margin: float = 4.0, cap: float | None = None) -> MedianEstimate:
    """Median of B_n, censored replicates counted as +infinity (see ``_censored_minima``)."""
    return _censored_minima(n, cfg, margin, cap)[1]


_WILSON_Z = 1.96  # two-sided 95% normal quantile


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at ``_WILSON_Z``."""
    trials = as_int(trials, "trials", 1)
    successes = as_int(successes, "successes", 0, trials)
    z = _WILSON_Z
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
    left_slope: float  # fitted decay rate of the left tail, on log P vs x where counts >= 25


# Each tail offset costs two binary searches over the minima and one row of output.
_MAX_TAIL_OFFSETS = 100_000


def estimate_tails(
    n: int,
    cfg: RunConfig,
    margin: float = 4.0,
    grid_step: float = 0.5,
    grid_max: float = 4.0,
) -> TailEstimate:
    """Tail profile of B_n around the median, cap and censoring of ``_censored_minima``."""
    grid_step, grid_max = as_real(grid_step, "grid_step", 0, lo_open=True), as_real(grid_max, "grid_max", 0)
    if (grid_max + 1e-12) / grid_step >= _MAX_TAIL_OFFSETS:
        raise CapacityError(f"tail grid of more than {_MAX_TAIL_OFFSETS} offsets; raise grid_step or lower grid_max")
    minima, est = _censored_minima(n, cfg, margin, None)
    reps = len(minima)
    offsets = np.arange(0.0, grid_max + 1e-12, grid_step)
    lcount = np.searchsorted(minima, est.median - offsets, side="right")
    rcount = reps - np.searchsorted(minima, est.median + offsets, side="left")  # +inf counts as beyond
    left = lcount / reps
    right = rcount / reps
    fit_mask = (offsets >= 0.5) & (left * reps >= 25)
    if fit_mask.sum() >= 2:
        slope = float(np.polyfit(offsets[fit_mask], np.log(left[fit_mask]), 1)[0])
        left_slope = -slope
    else:
        left_slope = float("nan")
    return TailEstimate(
        n=n,
        replicates=reps,
        cap=est.cap,
        median=est.median,
        censor_rate=est.censor_rate,
        offsets=offsets,
        left=left,
        right=right,
        left_ci=[wilson_interval(c, reps) for c in lcount.tolist()],
        right_ci=[wilson_interval(c, reps) for c in rcount.tolist()],
        left_slope=left_slope,
    )


def replicate_t_epsilon(eps: float, cfg: RunConfig, max_generation: int = 20) -> np.ndarray:
    """T(eps) of every replicate: the first generation whose largest fragment is <= eps, exactly.

    Fragments <= eps are discarded at birth (their descendants are smaller
    still), so each replicate's process dies exactly at T(eps); T(1) = 0.
    The generation budget is max_generation, floored at a level the process
    essentially never survives; hitting it raises a capacity error.
    """
    max_generation = as_int(max_generation, "max_generation", 0)
    eps = as_real(eps, "eps", 0, 1, lo_open=True)
    if eps == 1.0:
        return np.zeros(cfg.replicates, dtype=np.int64)
    cap = -math.log(eps)
    limit = max(max_generation, int(6 * cap) + 60)

    def last_nonempty(key, walk):
        last = np.zeros(key.size, dtype=np.int64)
        for gen, (pos, rep) in enumerate(itertools.islice(walk(strict=True), limit), 1):
            if not pos.size:
                break
            last[rep] = gen
        return last

    last = np.concatenate(_drive(cfg, 0, cfg.replicates, cap, limit, last_nonempty))
    if np.any(last >= limit):
        raise CapacityError("generation budget hit before the population died")
    return last + 1


def estimate_mean_t_epsilon(eps: float, cfg: RunConfig) -> tuple[float, float]:
    """(mean of T(eps), standard error)."""
    return mean_and_se(replicate_t_epsilon(eps, cfg))


# ---------------------------------------------------------------------------
# recursive distributional equation for the centered minimum


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic of two nonempty samples without nan."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    # np.sort puts any nan last
    if not (a.size and b.size) or np.isnan(a[-1]) or np.isnan(b[-1]):
        raise DomainError("both samples must be nonempty and hold no nan")
    n, m = a.size, b.size
    # A stable argsort of two sorted runs merges them.  The rows up to the
    # last of each run of equal values hold every point of a and of b at
    # most that value, so the statistic is read there, at the values of
    # both samples, as a search for each of them would read it.  Each
    # array is dropped once read, so rde_iterate keeps its peak.
    data = np.concatenate([a, b])
    del a, b
    order = data.argsort(kind="stable")
    data = data[order]
    ends = np.flatnonzero(data[1:] != data[:-1])
    del data
    ends = np.append(ends, n + m - 1)
    count_a = np.cumsum(order < n)[ends]
    del order
    diff = count_a / n
    count_b = ends  # the rows up to each end, less those of a
    count_b += 1
    count_b -= count_a
    del count_a
    diff -= count_b / m
    return float(np.max(np.abs(diff)))


@dataclass
class RdeResult:
    samples: np.ndarray
    ks_trace: list[float]
    mean_trace: list[float]
    diverged: bool


def _rde_minima(keys: np.ndarray, x: np.ndarray) -> np.ndarray:
    """min_i (z_i + X_i) for the samples with stream ``keys``, the X_i
    drawn from the population ``x``."""
    min_x = float(x.min())
    res = np.full(keys.size, np.inf)
    act = np.arange(keys.size)
    cum = np.zeros(keys.size)
    best = np.full(keys.size, np.inf)
    kact = keys
    t = 0
    while act.size:
        u = to_unit(stream_draw(kact, 3 * t + 1))
        pick = stream_draw(kact, 3 * t + 2)
        pick %= _U64(x.size)
        cand = cum - np.log(u)
        cand += x[pick]
        np.minimum(best, cand, out=best)
        cum -= np.log1p(np.negative(u, out=u), out=u)
        keep = np.add(cum, min_x, out=cand) < best
        alive = np.flatnonzero(keep)
        if alive.size < act.size:
            done = np.flatnonzero(~keep)
            res[act[done]] = best[done]
            act, kact, cum, best = act[alive], kact[alive], cum[alive], best[alive]
        t += 1
        if t > _MAX_STICK_ROUNDS:
            raise NumericalError("rde stick loop failed to terminate")
    return res


def rde_iterate(pop_size: int, iters: int, cfg: RunConfig) -> RdeResult:
    """Population iteration of X = -1/e + min_i (z_i + X_i).

    The z_i are the offsets of one fresh fragmentation point process per
    sample and the X_i are resampled with replacement from the previous
    population.  Each sample stops peeling sticks once the remaining mass
    cannot beat its current best (cum + min X >= best), which is exact.
    Starting population is identically 0, so one step reproduces
    -1/e + B_1.  The population is held whole, at 128 bytes a sample
    under the memory ceiling.  Each iteration splits the population into
    cfg.threads chunks; a sample's loop reads only its own key and the
    previous population, so the result does not depend on the split.
    """
    pop_size = as_int(pop_size, "population", 1000)  # smaller ones do not iterate stably
    iters = as_int(iters, "iters", 1)
    check_bytes(128 * pop_size, f"a population of {pop_size} (128 bytes a sample)")
    if pop_size * iters > _MAX_WORK_ROWS:
        raise CapacityError(f"{pop_size} samples x {iters} iterations is above the work bound {_MAX_WORK_ROWS:.3g}")
    _keep_freed_memory()
    x = np.zeros(pop_size)
    base = mix64_int((cfg.seed & _MASK) ^ int(RDE_SALT))
    ks_trace: list[float] = []
    mean_trace: list[float] = []
    for it in range(iters):
        iter_base = mix64_int((base + (it + 1) * int(GOLDEN)) & _MASK)
        keys = mix64(_U64(iter_base) + np.arange(1, pop_size + 1, dtype=np.uint64) * GOLDEN)
        chunks = np.array_split(keys, cfg.threads)
        res = np.concatenate(_map(cfg.threads, lambda k: _rde_minima(k, x), chunks))
        new_x = res - 1.0 / _E
        ks_trace.append(ks_distance(x, new_x))
        x = new_x
        mean_trace.append(float(x.mean()))
    diverged = not math.isfinite(mean_trace[-1]) or abs(mean_trace[-1]) > 100.0
    return RdeResult(samples=x, ks_trace=ks_trace, mean_trace=mean_trace, diverged=diverged)
