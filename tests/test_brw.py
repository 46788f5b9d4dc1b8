import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from primechain import brw
from primechain.errors import MAX_BYTES, CapacityError, CensoringError, DomainError
from primechain.rng import replicate_keys, stream_draw, to_unit


def cfg(**kw):
    base = dict(seed=1, replicates=100)
    base.update(kw)
    return brw.RunConfig(**base)


def guard_rows(monkeypatch, rows):
    """Set _ROW_BYTES so that the kernel guards a generation at ``rows`` rows."""
    monkeypatch.setattr(brw, "_ROW_BYTES", MAX_BYTES // rows)
    assert MAX_BYTES // brw._ROW_BYTES == rows


def small_batches(monkeypatch):
    """Size every batch layout to 1,000 expected rows a generation."""
    monkeypatch.setattr(brw, "_CACHE_ROWS", 1000)
    monkeypatch.setattr(brw, "_EXACT_ROWS", 1000)


class TestStickBreaking:
    def test_forced_uniform_half(self):
        # u = 1/2 repeatedly: offsets log 2, 2 log 2, ... until the
        # remaining mass exits the window.
        out = brw.lpd_offsets_from_uniforms(iter([0.5] * 10), cap=2.0)
        assert out == pytest.approx([math.log(2), 2 * math.log(2)], abs=1e-15)

    def test_immediate_exit(self):
        assert brw.lpd_offsets_from_uniforms(iter([0.5] * 3), cap=0.5) == []

    def test_offsets_in_window(self):
        # Offsets need not be monotone (a tiny stick can precede a large
        # one), but all lie in [0, cap] and are finite.
        offs = brw.sample_lpd_offsets(12345, cap=6.0)
        assert np.all(offs >= 0) and np.all(offs <= 6.0)
        assert np.all(np.isfinite(offs))

    def test_mass_completeness(self):
        # Fragment masses e^{-v} sum to 1 up to the censored residual.
        offs = brw.sample_lpd_offsets(99, cap=30.0)
        assert float(np.sum(np.exp(-offs))) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("key", [-1, 2**64, 1.5])
    @pytest.mark.parametrize("cap", [2.0, 0.0])
    def test_key_outside_u64_is_a_domain_error(self, key, cap):
        with pytest.raises(DomainError):
            brw.sample_lpd_offsets(key, cap=cap)

    def test_mean_count_in_window(self):
        # The point process drops unit-rate offsets: E #[0, c] = c.
        total = 0
        for key in range(400):
            total += len(brw.sample_lpd_offsets(key, cap=2.0))
        assert total / 400 == pytest.approx(2.0, abs=0.25)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            brw.RunConfig(seed=1, replicates=0)
        with pytest.raises(DomainError):
            brw.RunConfig(seed=1, threads=0)
        with pytest.raises(DomainError):
            brw.simulate_run(10, 0.0, cfg())
        with pytest.raises(DomainError):
            brw.simulate_run(-1, 8.0, cfg())
        with pytest.raises(DomainError):
            brw.replicate_t_epsilon(0.5, cfg(), max_generation=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            brw.simulate_run(4, bad, cfg())
        with pytest.raises(DomainError):
            brw.replicate_minima(4, cfg(), cap=bad)
        with pytest.raises(DomainError):
            brw.replicate_z_counts(4, bad, cfg())
        with pytest.raises(DomainError):
            brw.median_bn_detail(4, cfg(), margin=bad)
        with pytest.raises(DomainError):
            brw.median_bn_detail(4, cfg(), cap=bad)
        with pytest.raises(DomainError):
            brw.estimate_tails(4, cfg(), margin=bad)
        with pytest.raises(DomainError):
            brw.estimate_tails(4, cfg(), grid_step=bad)

    @pytest.mark.parametrize("grid_max, grid_step", [(1e18, 0.5), (4.0, 1e-300)])
    def test_tail_grid_size_guard(self, grid_max, grid_step):
        with pytest.raises(CapacityError):
            brw.estimate_tails(4, cfg(), grid_step=grid_step, grid_max=grid_max)

    def test_thread_ceiling(self):
        # built only: no operation runs, so no thread starts
        assert brw.RunConfig(threads=brw.MAX_THREADS).threads == brw.MAX_THREADS
        for threads in (brw.MAX_THREADS + 1, 10**6):
            with pytest.raises(DomainError, match="threads"):
                brw.RunConfig(threads=threads)

    def test_defaults(self):
        c = brw.RunConfig(seed=7)
        assert c.replicates == 10_000 and c.threads == 1
        assert [f.name for f in dataclasses.fields(c)] == ["seed", "replicates", "threads"]


class TestSingleRun:
    def test_generation_zero(self):
        gens = list(brw.simulate_run(10, 8.0, cfg()))
        assert len(gens) == 11
        assert gens[0].tolist() == [0.0]

    def test_positions_sorted_and_capped(self):
        gens = brw.simulate_run(10, 5.0, cfg(seed=3))
        for g in gens:
            assert np.all(np.diff(g) >= 0)
            assert np.all(g <= 5.0)

    def test_determinism(self):
        a = brw.simulate_run(10, 8.0, cfg(seed=11))
        b = brw.simulate_run(10, 8.0, cfg(seed=11))
        for ga, gb in zip(a, b):
            assert np.array_equal(ga, gb)

    def test_replicates_differ(self):
        a = list(brw.simulate_run(10, 8.0, cfg(seed=11), replicate=0))
        b = list(brw.simulate_run(10, 8.0, cfg(seed=11), replicate=1))
        assert not np.array_equal(a[1], b[1])

    def test_truncation_exactness(self):
        # Raising the cap must not move any surviving position by a bit.
        lo = brw.simulate_run(10, 3.0, cfg(seed=5))
        hi = brw.simulate_run(10, 5.0, cfg(seed=5))
        for gen, (gl, gh) in enumerate(zip(lo, hi)):
            assert np.array_equal(gl, gh[gh <= 3.0]), gen

    def test_negative_replicate_rejected(self):
        with pytest.raises(DomainError):
            brw.simulate_run(10, 8.0, cfg(), replicate=-1)

    def test_generations_drawn_as_asked(self, monkeypatch):
        calls = []
        kernel = brw._next_generation
        monkeypatch.setattr(brw, "_next_generation", lambda *a: calls.append(1) or kernel(*a))
        gens = brw.simulate_run(10, 8.0, cfg())
        assert next(gens).tolist() == [0.0] and calls == []
        next(gens)
        assert len(calls) == 1
        assert len(list(gens)) == 9 and len(calls) == 10

    def test_censored_flag_after_death(self):
        gens = list(brw.simulate_run(6, 0.05, cfg(seed=2)))
        died = [gen for gen, g in enumerate(gens) if not g.size]
        assert died, "population should die almost immediately at cap 0.05"
        first = died[0]
        for g in gens[first:]:
            assert g.size == 0


class TestCounting:
    def test_first_generation_exact_law(self):
        # Z_1(t) >= 1 iff some fragment mass is >= e^{-t}; for t <= log 2
        # at most one fragment can be that large, so the probability is
        # exactly t.
        t = 0.4
        z = brw.replicate_z_counts(1, t, cfg(replicates=40_000, seed=21))
        phat = float(np.mean(z >= 1))
        se = math.sqrt(t * (1 - t) / 40_000)
        assert abs(phat - t) <= 4 * se

    def test_mean_z_matches_factorial_law(self):
        # E Z_n(t) = t^n / n!.
        for n, t in ((1, 1.0), (2, 1.0)):
            mean, se = brw.estimate_mean_z(n, t, cfg(replicates=60_000, seed=31 + n))
            want = t**n / math.factorial(n)
            assert abs(mean - want) <= 4 * se + 1e-12, (n, t)

    def test_batch_capacity_guard(self):
        with pytest.raises(CapacityError):
            brw.replicate_z_counts(20, 25.0, cfg(replicates=1))

    def test_refusal_prints_a_huge_cap_in_short(self):
        with pytest.raises(CapacityError, match=r"^a single replicate at cap 1e\+308 expects ~inf points"):
            brw.median_bn_detail(3, cfg(replicates=5), margin=1e308)

    @pytest.mark.parametrize(
        "call",
        [
            # above the walk's edge of about 17.667: the call itself refuses,
            # before its iterator is asked for a generation
            lambda: brw.simulate_run(40, 17.7, brw.RunConfig(replicates=1)),
            lambda: brw.replicate_t_epsilon(1e-9, brw.RunConfig()),
        ],
        ids=["simulate_run", "t_epsilon"],
    )
    def test_single_replicate_refused_before_drawing(self, monkeypatch, call):
        drawn = []
        draw = brw.stream_draw

        def counting(keys, index):
            drawn.append(keys.size)
            return draw(keys, index)

        monkeypatch.setattr(brw, "stream_draw", counting)
        with pytest.raises(CapacityError):
            call()
        assert drawn == []

    def test_cap_past_the_stick_rounds_refused_before_drawing(self, monkeypatch):
        # a node draws about cap stick rounds, so a cap above half the loop's
        # limit is refused before any draw, and one at half runs to its end
        drawn = []
        draw = brw.stream_draw
        monkeypatch.setattr(brw, "stream_draw", lambda keys, index: drawn.append(keys.size) or draw(keys, index))
        monkeypatch.setattr(brw, "_MAX_STICK_ROUNDS", 40)
        with pytest.raises(CapacityError, match="stick rounds"):
            brw.simulate_run(1, 21.0, cfg())
        assert drawn == []
        run = list(brw.simulate_run(1, 20.0, cfg()))
        assert len(run) == 2 and run[1].size and drawn

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            brw.replicate_z_counts(0, 1.0, cfg())
        with pytest.raises(DomainError):
            brw.replicate_z_counts(1, 0.0, cfg())


class TestMinima:
    def test_predicted_median_formula(self):
        assert brw.predicted_median_bn(1) == pytest.approx(1 / math.e, rel=1e-12)
        want = 20 / math.e + 1.5 / math.e * math.log(20)
        assert brw.predicted_median_bn(20) == pytest.approx(want, rel=1e-12)

    def test_replicate_minima_shape(self):
        mins = brw.replicate_minima(3, cfg(seed=8, replicates=500), cap=4.0)
        assert mins.shape == (500,)
        finite = mins[np.isfinite(mins)]
        assert np.all(finite >= 0) and np.all(finite <= 4.0)

    def test_minimum_matches_simulation(self):
        c = cfg(seed=9, replicates=4)
        mins = brw.replicate_minima(4, c, cap=6.0)
        for r in range(4):
            gens = list(brw.simulate_run(4, 6.0, c, replicate=r))
            want = float(gens[4].min()) if gens[4].size else np.inf
            assert mins[r] == want, r

    def test_median_b1_exact_law(self):
        # P{B_1 <= b} = b on [0, log 2] (largest-mass law), so the median
        # of the first-generation minimum is exactly 1/2.
        est = brw.median_bn_detail(1, cfg(seed=13, replicates=20_000), cap=4.0)
        assert est.median == pytest.approx(0.5, abs=0.02)
        assert est.censor_rate < 0.05
        assert not est.retried

    def test_censoring_error(self):
        with pytest.raises(CensoringError):
            brw.median_bn_detail(8, cfg(seed=14, replicates=200), cap=0.5)

    def test_wilson_interval(self):
        lo, hi = brw.wilson_interval(50, 100)
        assert 0.4 < lo < 0.5 < hi < 0.6
        lo0, hi0 = brw.wilson_interval(0, 100)
        assert lo0 == 0.0 and hi0 < 0.05


def _per_parent_children(pos, key, rep, cap, strict):
    """The stick loop run one parent at a time.  Returns the children as
    (round, parent, pos, key, rep) rows, sorted round-major with parents in
    order within a round, and each parent's number of stick draws."""
    caps = np.broadcast_to(cap, pos.shape)
    rows, sticks = [], []
    for i in range(pos.size):
        k, cum, t = key[i : i + 1], np.zeros(1), 0
        while True:
            u = to_unit(stream_draw(k, 2 * t + 1))
            child = (pos[i] + cum) - np.log(u)
            if (child[0] < caps[i]) if strict else (child[0] <= caps[i]):
                rows.append((t, i, child[0], stream_draw(k, 2 * t + 2)[0], rep[i]))
            cum = cum - np.log1p(-u)
            t += 1
            if not pos[i] + cum[0] < caps[i]:
                break
        sticks.append(t)
    return sorted(rows, key=lambda r: r[:2]), sticks


def _nudge(f, target, p):
    """Step p an ulp at a time until the increasing f(p) equals target."""
    for _ in range(16):
        v = f(p)
        if v == target:
            return p
        p = np.nextafter(p, -np.inf if v > target else np.inf)
    raise AssertionError("no float lands on the target")


class TestRoundKernel:
    """_next_generation against the stick loop run one parent at a time:
    the same children, bit for bit, round-major and in parent order within
    a round, from the same number of stick draws."""

    def parents(self, per_row):
        key = replicate_keys(7, 0, 20)
        pos = np.linspace(0.0, 3.8, 20)
        pos[11] = 5.2  # starts above the cap: one stick, no child
        rep = (np.arange(20, dtype=np.int64) * 7) % 5
        u = to_unit(stream_draw(key, 1))
        log_u, spent = np.log(u), -np.log1p(-u)
        # parent 3's first child lands exactly on its bound, and parent 4's
        # pos + cum reaches its bound exactly after its first stick
        if per_row:
            cap = pos + np.linspace(2.0, 4.0, 20)
            cap[3] = pos[3] - log_u[3]
            cap[4] = pos[4] + spent[4]
            cap[11] = 5.0
        else:
            cap = 5.0
            pos[3] = _nudge(lambda p: p - log_u[3], cap, cap + log_u[3])
            pos[4] = _nudge(lambda p: p + spent[4], cap, cap - spent[4])
        return pos, key, rep, cap

    @pytest.mark.parametrize(
        "per_row, strict", [(False, False), (True, False), (False, True)], ids=["scalar", "per-row", "strict"]
    )
    def test_matches_per_parent_loop(self, monkeypatch, per_row, strict):
        pos, key, rep, cap = self.parents(per_row)
        rows, sticks = _per_parent_children(pos, key, rep, cap, strict)
        assert ((0, 3) in [r[:2] for r in rows]) == (not strict)
        assert sticks[4] == 1 and sticks[11] == 1 and sum(sticks) > 60
        drawn = [0]
        draw = brw.stream_draw

        def counting(keys, index):
            if index % 2:
                drawn[0] += keys.size
            return draw(keys, index)

        monkeypatch.setattr(brw, "stream_draw", counting)
        guard_rows(monkeypatch, 10_000)
        got = brw._next_generation(pos.copy(), key.copy(), rep.copy(), np.copy(cap), strict)
        _, _, want_pos, want_key, want_rep = zip(*rows)
        assert got[0].tobytes() == np.array(want_pos).tobytes()
        assert got[1].tobytes() == np.array(want_key, dtype=np.uint64).tobytes()
        assert got[2].tobytes() == np.array(want_rep, dtype=np.int64).tobytes()
        assert drawn[0] == sum(sticks)


    @pytest.mark.parametrize("per_row", [False, True], ids=["scalar", "per-row"])
    def test_inputs_are_not_written(self, monkeypatch, per_row):
        # every round writes into arrays of its own; a per-row cap is gathered, not compacted in place
        pos, key, rep, cap = self.parents(per_row)
        cols = (pos, key, rep, np.asarray(cap))
        before = [c.tobytes() for c in cols]
        guard_rows(monkeypatch, 10_000)
        got = brw._next_generation(pos, key, rep, cap, False)
        assert got[0].size > 20
        assert [c.tobytes() for c in cols] == before

    def test_no_child_gives_empty_columns(self, monkeypatch):
        key = replicate_keys(7, 0, 3)
        guard_rows(monkeypatch, 10)
        got = brw._next_generation(np.full(3, 6.0), key, np.arange(3, dtype=np.int64), 5.0, False)
        assert [(g.size, g.dtype) for g in got] == [(0, np.float64), (0, np.uint64), (0, np.int64)]


class TestPrunedMinima:
    """The minima path prunes each replicate to a beam bound on its own B_n;
    these pin that the pruning is exact and that it actually prunes."""

    def test_matches_simulation_with_censored_and_dead_beams(self, monkeypatch):
        c = cfg(seed=1, replicates=320)
        mins = brw.replicate_minima(10, c, cap=5.0)
        guard_rows(monkeypatch, 1 << 24)
        bounds = brw._minimum_bounds(replicate_keys(1, 0, 320), 10, 5.0)
        assert np.isinf(mins).any(), "grid should include censored replicates"
        assert np.any((bounds == 5.0) & np.isfinite(mins)), "grid should include replicates whose beam dies"
        for r in range(c.replicates):
            last = list(brw.simulate_run(10, 5.0, c, replicate=r))[10]
            want = last.min() if last.size else np.inf
            assert mins[r] == want, r

    def test_lower_cap_agrees_with_higher_cap(self):
        lo = brw.replicate_minima(8, cfg(seed=3, replicates=500), cap=4.0)
        hi = brw.replicate_minima(8, cfg(seed=3, replicates=500), cap=6.0)
        finite = np.isfinite(lo)
        assert 0 < finite.sum() < finite.size
        assert lo[finite].tobytes() == hi[finite].tobytes()

    def test_many_batches_independent_of_threads(self, monkeypatch):
        whole = brw.replicate_minima(6, cfg(seed=29, replicates=600), cap=6.0)
        # 1,000 rows a batch splits 600 replicates into 40 batches
        small_batches(monkeypatch)
        one = brw.replicate_minima(6, cfg(seed=29, replicates=600), cap=6.0)
        four = brw.replicate_minima(6, cfg(seed=29, replicates=600, threads=4), cap=6.0)
        assert one.tobytes() == four.tobytes() == whole.tobytes()

    def test_bound_admits_a_child_on_its_parents_mass(self, monkeypatch):
        # 200 sticks at u ~ 0.01 spend the root's mass down to cum ~ 2.01;
        # the next stick has u = 1 - 2^-53, so its child lands exactly on
        # cum and is the minimum.  The bound must sit strictly above it, or
        # the exact pass retires the root before drawing that child.
        draw = brw.stream_draw
        small = np.uint64(int(0.01 * 2**52) << 12)

        def forced(keys, index):
            if index % 2 == 0:
                return draw(keys, index)
            return np.full(keys.shape, small if index < 400 else np.uint64(2**64 - 1))

        monkeypatch.setattr(brw, "stream_draw", forced)
        c = cfg(seed=1, replicates=1)
        _, first = brw.simulate_run(1, 6.0, c)
        want = first.min()
        assert 2.0 < want < 2.1
        assert brw.replicate_minima(1, c, cap=6.0)[0] == want

    def test_draws_fewer_rows_than_full_cap(self, monkeypatch):
        rows = []
        draw = brw.stream_draw

        def counting(keys, index):
            if index % 2 == 0:  # even draws derive child keys: one per row
                rows[-1] += keys.size
            return draw(keys, index)

        monkeypatch.setattr(brw, "stream_draw", counting)
        c = cfg(seed=30, replicates=100)
        rows.append(0)
        brw.replicate_minima(10, c, cap=8.0)
        rows.append(0)
        brw.replicate_z_counts(10, 8.0, c)
        pruned, full = rows
        assert 0 < pruned < full / 3, (pruned, full)

    @staticmethod
    def unbounded_beam(key, n, cap, width):
        """The beam drawn below the cap alone and selected with a lexsort."""
        b = key.size
        pos, rep = np.zeros(b), np.arange(b, dtype=np.int64)
        for _ in range(n):
            pos, key, rep = brw._next_generation(pos, key, rep, cap, False)
            order = np.lexsort((pos, rep))
            pos, key, rep = pos[order], key[order], rep[order]
            beam = np.arange(rep.size) - np.searchsorted(rep, rep) < width
            pos, key, rep = pos[beam], key[beam], rep[beam]
        return np.minimum(cap, np.nextafter(brw._segment_min(rep, pos, b), np.inf))

    # the first grid is test_matches_simulation_with_censored_and_dead_beams';
    # the last expects ~2.1e5 rows per replicate, so its beam is 128 wide
    @pytest.mark.parametrize(
        "seed, n, cap, reps", [(1, 10, 5.0, 320), (3, 9, 6.0, 300), (7, 12, 6.5, 200), (11, 14, 14.5, 12)]
    )
    def test_bounded_beam_matches_unbounded_beam(self, monkeypatch, seed, n, cap, reps):
        rows = [0]
        draw = brw.stream_draw

        def counting(keys, index):
            if index % 2 == 0:  # even draws derive child keys: one per row
                rows[-1] += keys.size
            return draw(keys, index)

        monkeypatch.setattr(brw, "stream_draw", counting)
        key = replicate_keys(seed, 0, reps)
        guard_rows(monkeypatch, 1 << 24)
        got = brw._minimum_bounds(key, n, cap)
        rows.append(0)
        want = self.unbounded_beam(key, n, cap, brw._beam_width(cap, n))
        assert got.tobytes() == want.tobytes()
        assert np.any(got < cap)
        bounded, unbounded = rows
        assert 0 < bounded < unbounded, (bounded, unbounded)

    def test_every_beam_cap_sits_just_above_a_real_child(self, monkeypatch):
        # a cap one ulp off the pre-pass's child would silently drop it
        reps, cap = 300, 7.0
        tight = []
        kernel = brw._next_generation

        def checking(pos, key, rep, row_cap, strict):
            out_pos, out_key, out_rep = kernel(pos, key, rep, row_cap, strict)
            bound = np.full(reps, cap)
            bound[rep] = row_cap
            child = np.nextafter(bound, -np.inf)
            hit = np.zeros(reps, dtype=bool)
            hit[out_rep[out_pos == child[out_rep]]] = True
            assert np.all(hit[bound < cap])
            tight.append(int(np.sum(bound < cap)))
            return out_pos, out_key, out_rep

        monkeypatch.setattr(brw, "_next_generation", checking)
        guard_rows(monkeypatch, 1 << 24)
        brw._minimum_bounds(replicate_keys(5, 0, reps), 12, cap)
        assert len(tight) == 12 and tight[0] == 0 and sum(tight) > 5 * reps, tight

    def test_width_steps_with_expected_rows(self):
        # walk-minima (n=16) and A08's b20 expect 4.1e3 and 1.9e4 rows per
        # replicate, A08's b40 3.9e6
        assert brw._beam_width(brw.predicted_median_bn(16) + 3.0, 16) == 16
        assert brw._beam_width(12.01, 20) == 16
        assert brw._beam_width(17.518, 40) == 128


class TestTails:
    def test_tail_profile_structure(self):
        est = brw.estimate_tails(6, cfg(seed=15, replicates=3000), margin=3.0)
        assert est.offsets[0] == 0.0
        assert np.all(np.diff(est.left) <= 0)
        assert np.all(np.diff(est.right) <= 0)
        assert 0.45 <= est.left[0] <= 0.55
        for (lo, hi), p in zip(est.left_ci, est.left):
            assert lo <= p <= hi

    def test_retries_at_the_cap_median_bn_uses(self):
        # margin -1.5 censors most replicates at the first cap, so both
        # estimates must retry once at cap + 2 and agree on what they found.
        c = brw.RunConfig(seed=14, replicates=200)
        tails = brw.estimate_tails(8, c, margin=-1.5)
        median = brw.median_bn_detail(8, c, margin=-1.5)
        assert median.retried
        assert (tails.cap, tails.median, tails.censor_rate) == (median.cap, median.median, median.censor_rate)


class TestExtinction:
    def test_eps_one(self):
        assert brw.replicate_t_epsilon(1.0, cfg(replicates=1)).tolist() == [0]
        assert np.all(brw.replicate_t_epsilon(1.0, cfg(replicates=16)) == 0)

    def test_monotone_in_eps(self):
        # Same lineage randomness: shrinking eps can only delay death.
        c = cfg(seed=17)
        ts = np.array([brw.replicate_t_epsilon(e, c) for e in (0.5, 0.1, 0.01, 1e-4)])
        assert np.all(np.diff(ts, axis=0) >= 0)
        assert np.all(ts[0] >= 1)

    def test_generation_budget_error(self, monkeypatch):
        # u = 1 - 2^-53 on every stick: each node's first child lands on its
        # parent's position and its remaining mass leaves the window, so the
        # population never dies and the budget must stop it.  Each
        # generation is one stick round, so the rounds count the budget:
        # max_generation, floored at int(6 log 2) + 60 = 64 for eps = 1/2.
        draw = brw.stream_draw
        rounds = []

        def forced(keys, index):
            if index % 2 == 0:
                return draw(keys, index)
            rounds.append(index)
            return np.full(keys.shape, np.uint64(2**64 - 1))

        monkeypatch.setattr(brw, "stream_draw", forced)
        for budget, want in ((20, 64), (100, 100)):
            rounds.clear()
            with pytest.raises(CapacityError, match="generation budget"):
                brw.replicate_t_epsilon(0.5, brw.RunConfig(replicates=4), max_generation=budget)
            assert rounds == [1] * want

    def test_one_replicate_batches_agree(self, monkeypatch):
        # eps = 0.05 (cap 3) expects ~5.5 rows a replicate in its largest
        # generation, so all 50 replicates take one batch; at one row, one each
        c = cfg(seed=18, replicates=50)
        whole = brw.replicate_t_epsilon(0.05, c)
        starts = []
        keys = brw.replicate_keys
        monkeypatch.setattr(brw, "replicate_keys", lambda seed, lo, hi: starts.append((lo, hi)) or keys(seed, lo, hi))
        monkeypatch.setattr(brw, "_CACHE_ROWS", 1)
        assert brw.replicate_t_epsilon(0.05, c).tobytes() == whole.tobytes()
        assert starts == [(r, r + 1) for r in range(50)]

    def test_mean_estimate(self):
        mean, se = brw.estimate_mean_t_epsilon(0.05, cfg(seed=19, replicates=2000))
        assert mean > 1 and se < 1

    def test_domain(self):
        with pytest.raises(DomainError):
            brw.replicate_t_epsilon(0.0, cfg())
        with pytest.raises(DomainError):
            brw.replicate_t_epsilon(1.5, cfg())


class TestThreadInvariance:
    def test_minima_independent_of_threads(self):
        base = cfg(seed=23, replicates=800)
        one = brw.replicate_minima(5, base, cap=5.0)
        four = brw.replicate_minima(5, cfg(seed=23, replicates=800, threads=4), cap=5.0)
        assert one.tobytes() == four.tobytes()

    def test_z_counts_independent_of_threads(self):
        one = brw.replicate_z_counts(3, 2.0, cfg(seed=24, replicates=1200))
        two = brw.replicate_z_counts(3, 2.0, cfg(seed=24, replicates=1200, threads=8))
        assert np.array_equal(one, two)

    def test_t_epsilon_independent_of_threads(self):
        # eps = 1e-3 fits 862 replicates in a cache-sized batch: 3 batches
        one = brw.replicate_t_epsilon(1e-3, cfg(seed=25, replicates=2000))
        four = brw.replicate_t_epsilon(1e-3, cfg(seed=25, replicates=2000, threads=4))
        assert one.tobytes() == four.tobytes()

    def test_exact_pass_starts_no_more_workers_than_fit(self, monkeypatch):
        pools = []

        class CountingPool(brw.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(brw, "ThreadPoolExecutor", CountingPool)
        cap = brw.predicted_median_bn(16) + 3.0
        one = brw.replicate_minima(16, cfg(replicates=2000), cap)
        assert pools == []
        # the beam pass's two batches run on two workers; the exact pass's
        # five batches of 482 expect ~2e6 rows each at the cap but at most
        # 90,884 below their bounds, so all four workers asked fit the ceiling
        four = brw.replicate_minima(16, cfg(replicates=2000, threads=4), cap)
        assert pools == [2, 4]
        # at 1,600 bytes a row, 1.25 x 1,600 x 90,884 bytes fit twice, and
        # so do the beam batches' 2^17 rows
        monkeypatch.setattr(brw, "_ROW_BYTES", 1600)
        fitted = brw.replicate_minima(16, cfg(replicates=2000, threads=4), cap)
        assert pools == [2, 4, 2, 2]
        assert one.tobytes() == four.tobytes() == fitted.tobytes()

    def test_row_guard_independent_of_threads(self):
        # Z_14(14) expects ~1.27e5 rows a replicate, so its cache batches
        # hold one; at 21 threads its six batches run on six workers,
        # each guarded at the whole ceiling by the kernel itself
        one = brw.replicate_z_counts(14, 14.0, cfg(seed=4, replicates=6))
        many = brw.replicate_z_counts(14, 14.0, cfg(seed=4, replicates=6, threads=21))
        assert one.tobytes() == many.tobytes()


class TestBatchLayout:
    """The full-cap reductions run in cache-sized batches; the minima run
    their beam pass in batches sized to the beam, then their exact pass in
    batches sized to _EXACT_ROWS.  Batches are concatenated in replicate
    order and each node keeps its own key, so no layout moves a bit."""

    def test_batch_size(self, monkeypatch):
        # Z_8(6) expects 65.8 rows per replicate: 2^17 / 65.8 against the
        # exact pass's 2e6 / 65.8
        assert brw._batch_size(100_000, 6.0, 8, "cache") == 1991
        assert brw._batch_size(100_000, 6.0, 8, "exact") == 30_395
        # T(1e-4): cap 9.21 over 115 generations, ~1.3e3 rows per replicate
        assert brw._batch_size(2000, -math.log(1e-4), 115, "cache") == 99
        assert brw._batch_size(2000, -math.log(1e-4), 115, "exact") == 1520
        # the beam is sized to the cache at 8 widths of rows per replicate,
        # where that is fewer: n=16 at cap 10.42 expects ~4.1e3 rows per
        # replicate and A08's b20 ~1.9e4, so each takes 2^17 / (8 * 16)
        # replicates a beam batch; Z_8(6)'s 65.8 rows are below 8 widths
        cap16 = brw.predicted_median_bn(16) + 3.0
        assert brw._batch_size(2000, cap16, 16, "exact") == 482
        assert brw._batch_size(2000, cap16, 16, "beam") == 1024
        assert brw._batch_size(10_000, 12.01, 20, "exact") == 106
        assert brw._batch_size(10_000, 12.01, 20, "beam") == 1024
        assert brw._batch_size(100_000, 6.0, 8, "beam") == 1991
        # A08's b40 (cap 17.518) takes all 61 replicates a beam batch and one an exact-pass batch
        assert brw._batch_size(61, 17.518, 40, "beam") == 61
        assert brw._batch_size(61, 17.518, 40, "exact") == 1
        sized = []
        size = brw._batch_size
        monkeypatch.setattr(brw, "_batch_size", lambda *a: sized.append(a[-1]) or size(*a))
        brw.replicate_z_counts(2, 1.0, cfg())
        brw.replicate_t_epsilon(0.5, cfg())
        brw.simulate_run(2, 1.0, cfg())
        brw.replicate_minima(2, cfg(), cap=2.0)
        assert sized == ["cache", "cache", "cache", "beam", "exact"]
        # smaller targets bound all three
        small_batches(monkeypatch)
        for layout in ("cache", "exact", "beam"):
            assert size(600, 6.0, 6, layout) == 15

    @staticmethod
    def batches(monkeypatch, call):
        """(result of call(), batches it ran)."""
        starts = []
        keys = brw.replicate_keys
        with monkeypatch.context() as m:
            m.setattr(brw, "replicate_keys", lambda seed, lo, hi: starts.append(lo) or keys(seed, lo, hi))
            return call(), len(starts)

    # _EXACT_ROWS would fit each call in one batch; the cache target splits it
    @pytest.mark.parametrize(
        "call, count",
        [
            (lambda: brw.replicate_z_counts(6, 5.0, cfg(seed=41, replicates=20_000)), 5),
            (lambda: brw.replicate_t_epsilon(1e-3, cfg(seed=42, replicates=2000)), 3),
        ],
        ids=["z_counts", "t_epsilon"],
    )
    def test_cache_batches_match_one_batch(self, monkeypatch, call, count):
        split, many = self.batches(monkeypatch, call)
        monkeypatch.setattr(brw, "_CACHE_ROWS", brw._EXACT_ROWS)
        whole, one = self.batches(monkeypatch, call)
        assert (many, one) == (count, 1)
        assert split.tobytes() == whole.tobytes()

    def test_budget_batches_match_one_batch(self, monkeypatch):
        def minima(**kw):
            return lambda: brw.replicate_minima(6, cfg(seed=43, replicates=600, **kw), cap=6.0)

        # each of the two passes, the beam's and the exact one, runs one
        # batch at the default targets and 40 at 1,000 rows
        whole, one = self.batches(monkeypatch, minima())
        small_batches(monkeypatch)
        split, many = self.batches(monkeypatch, minima())
        assert (many, one) == (2 * 40, 2 * 1)
        assert split.tobytes() == whole.tobytes()

    def test_one_beam_batch_then_the_budget_batches(self, monkeypatch):
        # 2,000 replicates at n=16 expect ~4.1e3 rows each: two beam batches
        # of up to 1,024, then the exact pass's five batches of 482
        beams, spans = [], []
        bounds, keys = brw._minimum_bounds, brw.replicate_keys
        monkeypatch.setattr(brw, "_minimum_bounds", lambda key, *a: beams.append(key.size) or bounds(key, *a))
        monkeypatch.setattr(brw, "replicate_keys", lambda seed, lo, hi: spans.append((lo, hi)) or keys(seed, lo, hi))
        est = brw.median_bn_detail(16, cfg(replicates=2000), margin=3.0)
        assert beams == [1024, 976]
        assert spans == [(0, 1024), (1024, 2000), (0, 482), (482, 964), (964, 1446), (1446, 1928), (1928, 2000)]
        assert not est.retried and est.censor_rate < 0.5

    def test_two_passes_match_across_threads_and_budgets(self, monkeypatch):
        # n=10 at cap 5 expects 27 rows per replicate: each pass runs one
        # batch at the default targets and 28 at 1,000 rows
        def minima(threads=1):
            return brw.replicate_minima(10, cfg(seed=44, replicates=1000, threads=threads), cap=5.0)

        one = minima()
        assert np.isinf(one).any() and np.isfinite(one).any()
        assert minima(threads=4).tobytes() == one.tobytes()
        small_batches(monkeypatch)
        for threads in (1, 4):
            assert minima(threads).tobytes() == one.tobytes(), threads

    def test_z_counts_digest(self):
        # SHA-256 recorded with one batch of 20,000, as _EXACT_ROWS sizes them
        z = brw.replicate_z_counts(6, 5.0, cfg(seed=41, replicates=20_000))
        assert hashlib.sha256(z.astype(np.int64).tobytes()).hexdigest() == (
            "a80090685d212b5feb04c4804c834dc945a929ca8db68e6c0fa520c51d823d67"
        )


class TestMemoryCeiling:
    """The walk's one memory check: _ROW_BYTES a row of a batch's largest
    generation, under errors.MAX_BYTES; a walk is admitted with _HEADROOM
    times its expected rows to spare."""

    @staticmethod
    def edge_cap(n: int) -> float:
        """The largest cap whose one replicate fits the ceiling over n generations."""
        def fits(cap):
            return brw._HEADROOM * brw._ROW_BYTES * (brw._expected_peak_rows(cap, n) + 1.0) <= MAX_BYTES

        lo, hi = 1.0, 40.0
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if fits(mid) else (lo, mid)
        return lo

    @pytest.mark.parametrize(
        "call",
        [
            lambda n, cap: brw.replicate_z_counts(n, cap, cfg(replicates=1)),
            lambda n, cap: brw.replicate_minima(n, cfg(replicates=1), cap),
            lambda n, cap: list(brw.simulate_run(n, cap, cfg())),
        ],
        ids=["z_counts", "minima", "simulate_run"],
    )
    def test_replicate_ceiling(self, monkeypatch, call):
        class Drawn(Exception):
            pass

        drawn = []

        def drawing(keys, index):
            drawn.append(keys.size)
            raise Drawn

        n = 40
        edge = self.edge_cap(n)
        # A08's b40 expects 3.87e6 rows a replicate and its largest generation held 4,156,485
        assert 17.666 < edge < 17.667 and 4_156_485 < MAX_BYTES // brw._ROW_BYTES
        monkeypatch.setattr(brw, "stream_draw", drawing)
        with pytest.raises(CapacityError, match="ceiling"):
            call(n, math.nextafter(edge, math.inf))
        assert drawn == []
        with pytest.raises(Drawn):
            call(n, edge)

    def test_walks_admitted_at_the_edge_finish(self, monkeypatch):
        # At 1/60,000 of the ceiling a row, the edge cap over 40 generations
        # is about 13 (48,000 rows a replicate, one a batch).  Forty such
        # walks all stay under the guard of 60,005 rows; counted at their
        # expectation alone, admitted at the guard, the call is refused midway.
        monkeypatch.setattr(brw, "_ROW_BYTES", MAX_BYTES // 60_000)
        monkeypatch.setattr(brw, "_CACHE_ROWS", 1)
        z = brw.replicate_z_counts(40, self.edge_cap(40), cfg(replicates=40))
        assert z.size == 40
        monkeypatch.setattr(brw, "_HEADROOM", 1.0)
        with pytest.raises(CapacityError, match=f"a generation passes {MAX_BYTES // brw._ROW_BYTES} rows"):
            brw.replicate_z_counts(40, self.edge_cap(40), cfg(replicates=40))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: brw.replicate_z_counts(14, 14.0, cfg(replicates=1)),
            lambda: brw.replicate_t_epsilon(1e-5, cfg(seed=3, replicates=20)),
            lambda: brw.replicate_minima(20, cfg(seed=802, replicates=106), 12.01),
            # one generation at a time, each held while the next is drawn, as `brw run` reads it
            lambda: [pos.size for pos in brw.simulate_run(16, 14.0, cfg(seed=5))],
        ],
        ids=["z_counts", "t_epsilon", "minima", "simulate_run"],
    )
    def test_peak_within_row_bytes(self, monkeypatch, call):
        largest = [0]
        kernel = brw._next_generation

        def watching(*args):
            out = kernel(*args)
            largest[0] = max(largest[0], out[0].size)
            return out

        monkeypatch.setattr(brw, "_next_generation", watching)
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert largest[0] > 50_000
        assert peak <= brw._ROW_BYTES * largest[0]


def searched_ks(a, b):
    """The KS statistic by two searches of the sorted samples, the reference
    the merge in ``brw.ks_distance`` must equal to the bit."""
    a, b = np.sort(np.asarray(a, dtype=np.float64)), np.sort(np.asarray(b, dtype=np.float64))
    data = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, data, side="right") / len(a)
    cdf_b = np.searchsorted(b, data, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


class TestKsDistance:
    @pytest.mark.parametrize(
        "a, b",
        [
            ([0.0, 1.0, 1.0, 2.0, 2.0, 2.0], [1.0, 2.0, 2.0, 3.0]),
            ([-math.inf, 0.0, math.inf, math.inf], [math.inf, -math.inf, -math.inf]),
            ([-math.inf, -math.inf], [math.inf]),
            (np.arange(7.0), np.arange(3.0) * 2.5),
            ([0.5], [0.25]),
            ([0.5], [0.5]),
            ([0.3, 0.1, 0.2], [0.2, 0.3, 0.1]),
            (np.zeros(4), np.ones(5)),
            (np.ones(5), np.zeros(4)),
        ],
        ids=[
            "ties", "infinities", "infinities-apart", "unequal-sizes", "one-each",
            "one-each-equal", "identical", "disjoint", "disjoint-reversed",
        ],
    )
    def test_merge_equals_searches(self, a, b):
        assert brw.ks_distance(a, b) == searched_ks(a, b)

    def test_merge_equals_searches_on_drawn_samples(self):
        rng = np.random.default_rng(5)
        for n, m in ((1000, 1000), (999, 17), (1, 400)):
            a, b = rng.normal(size=n), rng.normal(0.05, size=m)
            assert brw.ks_distance(a, b) == searched_ks(a, b)
            # a coarse grid ties most values within and across the samples
            a, b = np.round(a, 1), np.round(b, 1)
            assert brw.ks_distance(a, b) == searched_ks(a, b)

    def test_peak_memory(self):
        # two samples of 100,000: the searches peaked at 9.16 MiB, the merge
        # at 6.3 MiB
        rng = np.random.default_rng(6)
        a, b = rng.normal(size=100_000), rng.normal(size=100_000)
        tracemalloc.start()
        try:
            brw.ks_distance(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 9 << 20

    def test_identical_samples(self):
        a = np.array([0.1, 0.5, 0.9])
        assert brw.ks_distance(a, a) == 0.0

    def test_disjoint_samples(self):
        assert brw.ks_distance(np.zeros(4), np.ones(4)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=100), rng.normal(0.3, size=80)
        assert brw.ks_distance(a, b) == brw.ks_distance(b, a)

    # a lone nan against a number is the named case ks-nan-sample of test_api_boundary
    @pytest.mark.parametrize("a, b", [([math.nan, math.nan], [math.nan]), ([0.5, math.nan], [1.0])])
    def test_nan_refused(self, a, b):
        # it answered 0.0 and 0.5
        with pytest.raises(DomainError, match="nan"):
            brw.ks_distance(a, b)


class TestRdeIteration:
    def test_one_step_is_centered_first_minimum(self):
        # From the zero population one step gives -1/e + B_1 >= -1/e.
        res = brw.rde_iterate(2000, 1, cfg(seed=25))
        assert res.samples.min() >= -1 / math.e - 1e-12
        assert not res.diverged
        assert len(res.ks_trace) == 1 and len(res.mean_trace) == 1

    def test_determinism(self):
        a = brw.rde_iterate(1500, 3, cfg(seed=26))
        b = brw.rde_iterate(1500, 3, cfg(seed=26))
        assert a.samples.tobytes() == b.samples.tobytes()
        assert a.ks_trace == b.ks_trace

    def test_threads_split_the_population_without_moving_a_bit(self, monkeypatch):
        pools = []

        class CountingPool(brw.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(brw, "ThreadPoolExecutor", CountingPool)
        one = brw.rde_iterate(2001, 3, cfg(seed=28, threads=1))
        assert pools == []
        four = brw.rde_iterate(2001, 3, cfg(seed=28, threads=4))
        assert pools == [4, 4, 4]  # one pool per iteration
        assert one.samples.tobytes() == four.samples.tobytes()
        assert one.ks_trace == four.ks_trace and one.mean_trace == four.mean_trace

    def test_ks_trace_settles(self):
        res = brw.rde_iterate(4000, 8, cfg(seed=27))
        assert not res.diverged
        # Later iterates should move less than the first one did.
        assert min(res.ks_trace[-3:]) <= res.ks_trace[0]

    def test_population_guard(self, monkeypatch):
        with pytest.raises(DomainError):
            brw.rde_iterate(100, 2, cfg())
        with pytest.raises(DomainError):
            brw.rde_iterate(2000, 0, cfg())
        # the whole population, 128 bytes a sample, must fit the memory
        # ceiling: refused above the edge, admitted at it
        edge = MAX_BYTES // 128
        with pytest.raises(CapacityError, match="ceiling"):
            brw.rde_iterate(edge + 1, 1, cfg())

        class Admitted(Exception):
            pass

        def admitted():
            raise Admitted

        monkeypatch.setattr(brw, "_keep_freed_memory", admitted)
        with pytest.raises(Admitted):
            brw.rde_iterate(edge, 1, cfg())
