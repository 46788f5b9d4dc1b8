import math

import numpy as np
import pytest

from primechain import dickman
from primechain.errors import CapacityError, DomainError

# Reference values of the smooth-density function, 16 digits.
RHO3 = 0.0486083882911316
RHO4 = 0.0049109256477608
RHO5 = 0.0003547247004560


@pytest.fixture(scope="module")
def tab():
    return dickman.default_table()


class TestClosedForms:
    def test_flat_start(self, tab):
        for u in (0.0, 0.25, 0.5, 1.0):
            assert tab.rho(u) == 1.0

    def test_log_band_exact_at_two(self, tab):
        # rho(2) = 1 - log 2 falls out of the quadrature exactly because
        # the band [1, 2] is resolved in closed form.
        assert tab.rho(2.0) == 1.0 - math.log(2.0)

    def test_log_band_values(self, tab):
        for u in (1.25, 1.5, 1.75):
            assert tab.rho(u) == pytest.approx(1.0 - math.log(u), abs=1e-12)


class TestTableValues:
    def test_published_checkpoints(self, tab):
        assert tab.rho(3.0) == pytest.approx(RHO3, abs=1e-9)
        assert tab.rho(4.0) == pytest.approx(RHO4, abs=1e-9)
        assert tab.rho(5.0) == pytest.approx(RHO5, abs=1e-9)

    def test_against_independent_integrator(self, tab):
        for u in (2.5, 3.0, 3.5, 3.7, 4.25, 5.0):
            want = dickman.rho_independent(u, tol=1e-12)
            assert tab.rho(u) == pytest.approx(want, rel=1e-8), u

    def test_deep_tail_magnitude(self, tab):
        # rho(10) ~ 2.77e-11; check order of magnitude and positivity.
        v = tab.rho(10.0)
        assert 2.5e-11 < v < 3.0e-11

    def test_positive_and_decreasing(self, tab):
        grid = np.linspace(1.0, float(tab.u_max), 1500)
        vals = np.array([tab.rho(float(u)) for u in grid])
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) <= 0)

    def test_delay_identity_residual(self, tab):
        # u rho(u) = integral of rho over [u-1, u]; evaluate the right
        # side by fine Simpson over table lookups.
        for u in (2.2, 3.0, 4.5, 6.0, 8.0):
            n = 400
            ts = np.linspace(u - 1.0, u, 2 * n + 1)
            vals = np.array([tab.rho(float(t)) for t in ts])
            w = np.ones(2 * n + 1)
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            integral = float(np.dot(w, vals)) * (1.0 / (2 * n)) / 3.0
            assert u * tab.rho(float(u)) == pytest.approx(integral, rel=1e-6), u


class TestGridRefinement:
    def test_halving_agreement(self):
        coarse = dickman.RhoTable(step=2.0**-8, u_max=8.0)
        fine = dickman.RhoTable(step=2.0**-9, u_max=8.0)
        lo = 2 * coarse.per_unit
        hi = 8 * coarse.per_unit
        c = coarse.grid[lo : hi + 1]
        f = fine.grid[2 * lo : 2 * hi + 1 : 2]
        rel = np.max(np.abs(c - f) / c)
        assert rel < 1e-9

    def test_interpolation_consistency(self, tab):
        # Off-node queries stay within the bracketing node values.
        u = 3.0 + 0.37 * tab.step
        lo = tab.rho(3.0 + tab.step)
        hi = tab.rho(3.0)
        assert lo <= tab.rho(u) <= hi


class TestIndependentIntegrator:
    def test_closed_forms(self):
        assert dickman.rho_independent(1.0) == 1.0
        assert dickman.rho_independent(2.0) == pytest.approx(1 - math.log(2), abs=1e-12)
        assert dickman.rho_independent(3.0) == pytest.approx(RHO3, abs=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            dickman.rho_independent(-0.5)
        with pytest.raises(DomainError):
            dickman.rho_independent(5.5)

    def test_nan_rejected(self, tab):
        with pytest.raises(DomainError):
            dickman.rho_independent(math.nan)
        with pytest.raises(DomainError):
            tab.rho(math.nan)


class TestAsymptoticScale:
    def test_positive_and_decreasing_in_u(self):
        a = dickman.rho_n_asymptotic(2, 100.0)
        b = dickman.rho_n_asymptotic(2, 120.0)
        assert 0 < b < a

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            dickman.rho_n_asymptotic(0, 10.0)
        with pytest.raises(DomainError):
            dickman.rho_n_asymptotic(2, 1.5)


class TestTableConstruction:
    def test_step_validation(self):
        with pytest.raises(DomainError):
            dickman.RhoTable(step=0.3)
        with pytest.raises(DomainError):
            dickman.RhoTable(step=1.0 / 999.0)
        with pytest.raises(DomainError):
            dickman.RhoTable(u_max=2.0)

    @pytest.mark.parametrize("step", [0.0, -2.0**-10, math.nan, math.inf, 5e-324, 0.25])
    def test_bad_step_is_a_domain_error(self, step):
        with pytest.raises(DomainError, match="step"):
            dickman.RhoTable(step=step)

    @pytest.mark.parametrize("u_max", [math.nan, math.inf, 201.0])
    def test_bad_u_max_is_a_domain_error(self, u_max):
        with pytest.raises(DomainError, match="u_max"):
            dickman.RhoTable(u_max=u_max)

    def test_work_budget_refuses_before_allocating(self, monkeypatch):
        class Allocated(Exception):
            pass

        def allocated(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(dickman.np, "empty", allocated)
        # 8.5e11 multiply-adds at step 2**-16 (minutes), 2.2e14 at 2**-20 (days)
        for step in (2.0**-16, 2.0**-20):
            with pytest.raises(CapacityError):
                dickman.RhoTable(step=step, u_max=200)
        # (n - 2 inv) * inv = 2**17 * 2**16 is the budget itself; one grid point more passes it
        with pytest.raises(Allocated):
            dickman.RhoTable(step=2.0**-16, u_max=4)
        with pytest.raises(CapacityError):
            dickman.RhoTable(step=2.0**-16, u_max=4 + 2.0**-16)
        # the default grid and the finest grids in use are admitted
        for step, u_max in ((dickman.DEFAULT_STEP, dickman.DEFAULT_UMAX), (2.0**-11, 12), (2.0**-12, 20)):
            with pytest.raises(Allocated):
                dickman.RhoTable(step=step, u_max=u_max)

    def test_range_guards(self, tab):
        with pytest.raises(DomainError):
            tab.rho(-1.0)
        with pytest.raises(DomainError):
            tab.rho(tab.u_max + 1.0)

    def test_module_level_default(self):
        assert dickman.rho(2.0) == 1.0 - math.log(2.0)
        assert dickman.default_table() is dickman.default_table()
