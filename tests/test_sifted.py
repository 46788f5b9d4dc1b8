import math
import tracemalloc

import numpy as np
import pytest

from primechain import chains, sifted
from primechain.errors import MAX_BYTES, CapacityError, DomainError, InfeasibleError, NumericalError


def two_matvec_perron(m, tol=1e-12, max_iter=10_000):
    """Power iteration with a fresh m @ v and m @ w at every step."""
    v = np.full(m.shape[0], 1.0 / m.shape[0])
    lam = 0.0
    for _ in range(max_iter):
        w = m @ v
        w /= float(np.linalg.norm(w))
        new_lam = float(w @ (m @ w))
        if abs(new_lam - lam) < tol:
            return new_lam
        lam = new_lam
        v = w
    raise NumericalError("power iteration did not converge")


class TestHurwitzZeta:
    def test_closed_forms(self):
        assert sifted.hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)
        assert sifted.hurwitz_zeta(2.0, 0.5) == pytest.approx(math.pi**2 / 2, rel=1e-12)
        assert sifted.hurwitz_zeta(4.0, 1.0) == pytest.approx(math.pi**4 / 90, rel=1e-12)

    def test_against_scipy(self):
        special = pytest.importorskip("scipy.special")
        for s in (1.2, 1.5, 2.0, 2.7, 3.0):
            for a in (0.1, 0.25, 0.5, 1.0, 1.75):
                want = float(special.zeta(s, a))
                assert sifted.hurwitz_zeta(s, a) == pytest.approx(want, rel=1e-11)

    def test_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        got = sifted.hurwitz_zeta(1.5, 1.0 / 3.0)
        want = float(mp.zeta(1.5, mp.mpf(1) / 3))
        assert got == pytest.approx(want, rel=1e-11)

    def test_vector_matches_scalar(self):
        avals = np.linspace(0.05, 2.0, 17)
        vec = sifted.hurwitz_zeta(1.7, avals)
        for a, v in zip(avals.tolist(), vec.tolist()):
            assert sifted.hurwitz_zeta(1.7, a) == pytest.approx(v, rel=1e-13)

    def test_guards(self):
        with pytest.raises(DomainError):
            sifted.hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            sifted.hurwitz_zeta(2.0, 0.0)


class TestEulerFactorTail:
    def test_odd_zeta(self):
        # Sum over odd n of n^(-2) is pi^2 / 8.
        assert sifted.euler_factor_tail(2.0, 2) == pytest.approx(math.pi**2 / 8, rel=1e-12)

    def test_direct_sum_crosscheck(self):
        # Tail product over p > 5 equals the sum of n^(-s) over n coprime
        # to 30, up to truncation error.
        s = 2.5
        n = np.arange(1, 2_000_000, dtype=np.float64)
        mask = np.ones(n.size, dtype=bool)
        for p in (2, 3, 5):
            mask[p - 1 :: p] = False
        direct = float(np.sum(n[mask] ** (-s)))
        assert sifted.euler_factor_tail(s, 5) == pytest.approx(direct, rel=1e-8)

    def test_guard(self):
        with pytest.raises(DomainError):
            sifted.euler_factor_tail(2.0, 4)


class TestResidueMatrix:
    def test_shapes(self):
        m2 = sifted.build_matrix(2, 2.0)
        assert m2.r == 2 and m2.dimension == 1 and m2.units.tolist() == [1]
        m3 = sifted.build_matrix(3, 2.0)
        assert m3.r == 6 and m3.dimension == 2 and m3.units.tolist() == [1, 5]
        m5 = sifted.build_matrix(5, 1.5)
        assert m5.r == 30 and m5.dimension == 8

    def test_entries_positive(self):
        m = sifted.build_matrix(5, 2.0)
        assert np.all(m.rows(0, m.dimension) > 0)

    def test_entry_against_direct_series(self):
        m = sifted.build_matrix(3, 2.0)
        dense = m.rows(0, m.dimension)
        for i, b in enumerate(m.units.tolist()):
            for j, a in enumerate(m.units.tolist()):
                want = sifted.link_series_direct(a, b, 3, 2.0)
                assert dense[i, j] == pytest.approx(want, rel=1e-9), (a, b)

    def test_row_sums_match_closed_form(self):
        for y in (2, 3, 5):
            for s in (1.5, 2.0):
                m = sifted.build_matrix(y, s)
                sums = m.row_sums()
                for i, b in enumerate(m.units.tolist()):
                    want = m.row_sum_closed_form(b)
                    assert sums[i] == pytest.approx(want, rel=1e-8), (y, s, b)

    @pytest.mark.parametrize("y", [2, 3, 5, 7])
    def test_entries_match_masked_gather(self, y):
        s = 2.0
        m = sifted.build_matrix(y, s)
        r = m.r
        zvals = sifted.hurwitz_zeta(s, np.arange(1, r + 1, dtype=np.float64) / r)
        inv = np.array([pow(int(a), -1, r) for a in m.units.tolist()], dtype=np.int64)
        dense = m.rows(0, m.dimension)
        for i, b in enumerate(m.units.tolist()):
            m0 = (b - 1) * inv % r
            want = float(r) ** (-s) * zvals[np.where(m0 == 0, r, m0) - 1]
            assert dense[i].tobytes() == want.tobytes(), b
            assert m.rows(i, i + 1).tobytes() == want.tobytes(), b

    @pytest.mark.parametrize("y", [11, 13])
    def test_narrow_residues_gather_the_int64_rows(self, y):
        m = sifted.build_matrix(y, 2.0)
        assert m.units.dtype == m.inverses.dtype == np.int32 and (m.r - 1) ** 2 < 2**31
        units, inv = m.units.astype(np.int64), m.inverses.astype(np.int64)
        for lo in (0, m.dimension // 2, m.dimension - 3):
            idx = (np.multiply.outer(units[lo : lo + 3] - 1, inv) - 1) % m.r
            assert m.rows(lo, lo + 3).tobytes() == m.entries[idx].tobytes()

    def test_one_hurwitz_tail_per_matrix(self, monkeypatch):
        calls = []
        real = sifted.hurwitz_zeta

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sifted, "hurwitz_zeta", counted)
        m = sifted.build_matrix(11, 2.0)
        sums = [m.row_sum_closed_form(b) for b in m.units.tolist()]
        assert len(sums) == 480 and len(calls) <= 2

    def test_direct_series_guard(self):
        with pytest.raises(DomainError):
            sifted.link_series_direct(2, 1, 3, 2.0)

    @pytest.mark.parametrize("y", [7, 11, 13])
    def test_blocked_row_sums_match_dense_rows(self, y):
        m = sifted.build_matrix(y, 2.0)
        assert m.row_sums().tobytes() == m.rows(0, m.dimension).sum(axis=1).tobytes()

    def test_blocks_cover_every_row_once(self):
        # 22 rows of 5760 per block: 261 full blocks and a short one of 18
        m = sifted.build_matrix(13, 2.0)
        spans = [(lo, len(block)) for lo, block in m.blocks()]
        assert spans[0] == (0, 22) and spans[-1] == (5742, 18)
        assert [lo for lo, _ in spans] == list(range(0, 5760, 22))

    def test_row_sums_hold_one_block_at_a_time(self):
        # the dense y = 13 matrix alone is 253 MiB
        tracemalloc.start()
        try:
            sifted.build_matrix(13, 2.0).row_sums()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_capacity_guard(self):
        # the dense Perron copy is 8 dim^2 bytes: 265 MB at y = 13 fits the
        # ceiling, 68 GB at y = 17 does not
        assert 8 * sifted.build_matrix(13, 2.0).dimension ** 2 == 265_420_800 <= MAX_BYTES
        # refused before the r-sized unit mask (223 MB at y = 23) is made
        for y in (17, 19, 23):
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError):
                    sifted.build_matrix(y, 2.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, y


class TestRowSumMaximum:
    def test_known_value_pi_squared_over_27(self):
        direct = sifted.build_matrix(3, 2.0).row_sums().max()
        closed = sifted.max_row_sum_value(3, 2.0)
        assert closed == pytest.approx(math.pi**2 / 27, rel=1e-12)
        assert direct == pytest.approx(closed, rel=1e-10)

    def test_y2_value(self):
        # Single unit b = 1: row sum is zeta(s) * 2^(-s), and the closed
        # maximum (pi^2 / 8) / 3 agrees at s = 2.
        direct = sifted.build_matrix(2, 2.0).row_sums().max()
        closed = sifted.max_row_sum_value(2, 2.0)
        assert closed == pytest.approx(math.pi**2 / 24, rel=1e-12)
        assert direct == pytest.approx(closed, rel=1e-12)

    def test_no_row_exceeds_maximum(self):
        for y in (2, 3, 5):
            for s in (1.2, 1.5, 2.0, 3.0):
                m = sifted.build_matrix(y, s)
                assert float(m.row_sums().max()) <= sifted.max_row_sum_value(y, s) + 1e-12

    def test_decreasing_in_s(self):
        vals = [sifted.max_row_sum_value(5, s) for s in (1.2, 1.5, 2.0, 2.5)]
        assert vals == sorted(vals, reverse=True)


class TestPerron:
    def test_below_max_row_sum(self):
        for y in (2, 3, 5):
            m = sifted.build_matrix(y, 2.0)
            lam = sifted.perron_eigenvalue(m)
            assert 0 < lam <= sifted.max_row_sum_value(y, 2.0) + 1e-9

    def test_against_dense_eigensolver(self):
        for y, s in ((3, 1.5), (5, 2.0), (7, 2.0)):
            m = sifted.build_matrix(y, s)
            lam = sifted.perron_eigenvalue(m)
            dense = float(np.max(np.abs(np.linalg.eigvals(m.rows(0, m.dimension)))))
            assert lam == pytest.approx(dense, rel=1e-8), (y, s)

    @pytest.mark.parametrize("y", [2, 3, 5, 7])
    @pytest.mark.parametrize("s", [1.5, 2.0])
    def test_matches_two_matvec_loop(self, y, s):
        m = sifted.build_matrix(y, s)
        assert sifted.perron_eigenvalue(m).hex() == two_matvec_perron(m.rows(0, m.dimension)).hex()

    def test_scalar_case(self):
        m = sifted.build_matrix(2, 2.0)
        assert sifted.perron_eigenvalue(m) == pytest.approx(float(m.rows(0, 1)[0, 0]), rel=1e-10)


class TestChainCountBound:
    def test_structure(self):
        rec = sifted.chain_count_bound(1000.0, 5)
        assert rec.r == 30 and rec.phi_r == 8
        assert 1.0 < rec.s_star <= 3.0
        assert 0.0 < rec.row_sum_bound < 1.0
        assert rec.bound >= rec.phi_r * 1000.0 ** rec.s_star

    def test_dominates_brute_force(self, table):
        # the bound holds for every start p > y, so sweep the starts too
        for x in (50.0, 100.0, 200.0, 1000.0):
            rec = sifted.chain_count_bound(x, 5)
            for p in table.primes(7, 50).tolist():
                brute = chains.enumerate_from(p, x, table).total
                assert brute <= rec.bound, (p, x)

    def test_monotone_in_x(self):
        b1 = sifted.chain_count_bound(10.0, 3).bound
        b2 = sifted.chain_count_bound(100.0, 3).bound
        assert b1 < b2

    def test_infeasible_grid(self):
        # A one-point grid lands at s = 1.001 where the row sum blows up.
        with pytest.raises(InfeasibleError):
            sifted.chain_count_bound(10.0, 2, grid_size=1)

    def test_guards(self):
        with pytest.raises(DomainError):
            sifted.chain_count_bound(0.5, 3)
        with pytest.raises(DomainError):
            sifted.chain_count_bound(math.nan, 3)
        with pytest.raises(DomainError):
            sifted.chain_count_bound(10.0, 6)
        for grid_size in (0, -3):
            with pytest.raises(DomainError):
                sifted.chain_count_bound(10.0, 3, grid_size=grid_size)
