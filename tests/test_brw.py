import math

import numpy as np
import pytest

from primechain import brw
from primechain.errors import CapacityError, CensoringError, DomainError
from primechain.rng import replicate_keys


def cfg(**kw):
    base = dict(seed=1, cap=8.0, replicates=100, max_generation=10)
    base.update(kw)
    return brw.RunConfig(**base)


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

    def test_mean_count_in_window(self):
        # The point process drops unit-rate offsets: E #[0, c] = c.
        total = 0
        for key in range(400):
            total += len(brw.sample_lpd_offsets(key, cap=2.0))
        assert total / 400 == pytest.approx(2.0, abs=0.25)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            brw.RunConfig(seed=1, cap=0.0)
        with pytest.raises(DomainError):
            brw.RunConfig(seed=1, replicates=0)
        with pytest.raises(DomainError):
            brw.RunConfig(seed=1, threads=0)
        with pytest.raises(DomainError):
            brw.RunConfig(seed=1, max_generation=-1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            brw.RunConfig(seed=1, cap=bad)
        with pytest.raises(DomainError):
            brw.replicate_minima(4, cfg(), cap=bad)
        with pytest.raises(DomainError):
            brw.median_bn_detail(4, cfg(), margin=bad)
        with pytest.raises(DomainError):
            brw.median_bn_detail(4, cfg(), cap=bad)
        with pytest.raises(DomainError):
            brw.estimate_tails(4, cfg(), margin=bad)
        with pytest.raises(DomainError):
            brw.estimate_tails(4, cfg(), grid_step=bad)

    def test_defaults(self):
        c = brw.RunConfig(seed=7)
        assert c.cap == 8.0 and c.replicates == 10_000 and c.threads == 1


class TestSingleRun:
    def test_generation_zero(self):
        gens = brw.simulate_run(cfg())
        assert gens[0].index == 0
        assert gens[0].positions.tolist() == [0.0]
        assert not gens[0].censored

    def test_positions_sorted_and_capped(self):
        gens = brw.simulate_run(cfg(seed=3, cap=5.0))
        for g in gens:
            assert np.all(np.diff(g.positions) >= 0)
            assert np.all(g.positions <= 5.0)

    def test_determinism(self):
        a = brw.simulate_run(cfg(seed=11))
        b = brw.simulate_run(cfg(seed=11))
        for ga, gb in zip(a, b):
            assert np.array_equal(ga.positions, gb.positions)

    def test_replicates_differ(self):
        a = brw.simulate_run(cfg(seed=11), replicate=0)
        b = brw.simulate_run(cfg(seed=11), replicate=1)
        assert not np.array_equal(a[1].positions, b[1].positions)

    def test_truncation_exactness(self):
        # Raising the cap must not move any surviving position by a bit.
        lo = brw.simulate_run(cfg(seed=5, cap=3.0))
        hi = brw.simulate_run(cfg(seed=5, cap=5.0))
        for gl, gh in zip(lo, hi):
            kept = gh.positions[gh.positions <= 3.0]
            assert np.array_equal(gl.positions, kept), gl.index

    def test_censored_flag_after_death(self):
        gens = brw.simulate_run(cfg(seed=2, cap=0.05, max_generation=6))
        died = [g.index for g in gens if g.censored]
        assert died, "population should die almost immediately at cap 0.05"
        first = died[0]
        for g in gens[first:]:
            assert g.censored and g.positions.size == 0


class TestCounting:
    def test_z_count_respects_cap(self):
        gens = brw.simulate_run(cfg(seed=4, cap=3.0))
        with pytest.raises(CensoringError):
            brw.z_count(gens[1], 3.5)
        assert brw.z_count(gens[0], 3.0) == 1

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
        big = cfg(replicates=1, batch_rows=1000)
        with pytest.raises(CapacityError):
            brw.replicate_z_counts(20, 25.0, big)

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
        c = cfg(seed=9, replicates=4, cap=6.0, max_generation=4)
        mins = brw.replicate_minima(4, c, cap=6.0)
        for r in range(4):
            gens = brw.simulate_run(c, replicate=r)
            want = float(gens[4].positions.min()) if gens[4].positions.size else np.inf
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


class TestPrunedMinima:
    """The minima path prunes each replicate to a beam bound on its own B_n;
    these pin that the pruning is exact and that it actually prunes."""

    def test_matches_simulation_with_censored_and_dead_beams(self):
        c = cfg(seed=1, replicates=320, cap=5.0, max_generation=10)
        mins = brw.replicate_minima(10, c, cap=5.0)
        bounds = brw._minimum_bounds(replicate_keys(1, 0, 320), 10, 5.0, c.batch_rows)
        assert np.isinf(mins).any(), "grid should include censored replicates"
        assert np.any((bounds == 5.0) & np.isfinite(mins)), "grid should include replicates whose beam dies"
        for r in range(c.replicates):
            last = brw.simulate_run(c, replicate=r)[10].positions
            want = last.min() if last.size else np.inf
            assert mins[r] == want, r

    def test_lower_cap_agrees_with_higher_cap(self):
        lo = brw.replicate_minima(8, cfg(seed=3, replicates=500), cap=4.0)
        hi = brw.replicate_minima(8, cfg(seed=3, replicates=500), cap=6.0)
        finite = np.isfinite(lo)
        assert 0 < finite.sum() < finite.size
        assert lo[finite].tobytes() == hi[finite].tobytes()

    def test_many_batches_independent_of_threads(self):
        # batch_rows 2000 splits 600 replicates into 40 batches
        one = brw.replicate_minima(6, cfg(seed=29, replicates=600, batch_rows=2000), cap=6.0)
        four = brw.replicate_minima(6, cfg(seed=29, replicates=600, batch_rows=2000, threads=4), cap=6.0)
        whole = brw.replicate_minima(6, cfg(seed=29, replicates=600), cap=6.0)
        assert one.tobytes() == four.tobytes() == whole.tobytes()

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


class TestTails:
    def test_tail_profile_structure(self):
        est = brw.estimate_tails(6, cfg(seed=15, replicates=3000), margin=3.0)
        assert est.offsets[0] == 0.0
        assert np.all(np.diff(est.left) <= 0)
        assert np.all(np.diff(est.right) <= 0)
        assert 0.45 <= est.left[0] <= 0.55
        for (lo, hi), p in zip(est.left_ci, est.left):
            assert lo <= p <= hi


class TestExtinction:
    def test_eps_one(self):
        assert brw.t_epsilon(1.0, cfg()) == 0
        assert np.all(brw.replicate_t_epsilon(1.0, cfg(replicates=16)) == 0)

    def test_monotone_in_eps(self):
        # Same lineage randomness: shrinking eps can only delay death.
        c = cfg(seed=17)
        ts = [brw.t_epsilon(e, c) for e in (0.5, 0.1, 0.01, 1e-4)]
        assert all(a <= b for a, b in zip(ts, ts[1:]))
        assert ts[0] >= 1

    def test_vector_agrees_with_scalar(self):
        c = cfg(seed=18, replicates=50)
        vec = brw.replicate_t_epsilon(0.05, c)
        for r in (0, 7, 23):
            assert vec[r] == brw.t_epsilon(0.05, c, replicate=r)

    def test_mean_estimate(self):
        mean, se = brw.estimate_mean_t_epsilon(0.05, cfg(seed=19, replicates=2000))
        assert mean > 1 and se < 1

    def test_domain(self):
        with pytest.raises(DomainError):
            brw.t_epsilon(0.0, cfg())
        with pytest.raises(DomainError):
            brw.t_epsilon(1.5, cfg())


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


class TestKsDistance:
    def test_identical_samples(self):
        a = np.array([0.1, 0.5, 0.9])
        assert brw.ks_distance(a, a) == 0.0

    def test_disjoint_samples(self):
        assert brw.ks_distance(np.zeros(4), np.ones(4)) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=100), rng.normal(0.3, size=80)
        assert brw.ks_distance(a, b) == brw.ks_distance(b, a)


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

    def test_ks_trace_settles(self):
        res = brw.rde_iterate(4000, 8, cfg(seed=27))
        assert not res.diverged
        # Later iterates should move less than the first one did.
        assert min(res.ks_trace[-3:]) <= res.ks_trace[0]

    def test_population_guard(self):
        with pytest.raises(DomainError):
            brw.rde_iterate(100, 2, cfg())
        with pytest.raises(DomainError):
            brw.rde_iterate(2000, 0, cfg())
