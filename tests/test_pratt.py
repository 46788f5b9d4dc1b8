import math
import tracemalloc
import types

import numpy as np
import pytest

from primechain import chains, pratt, sieve
from primechain.errors import MAX_BYTES, CapacityError, DomainError, IntegrityError
from primechain.verify import naive_f, naive_h
from test_sieve import trial_pairs


def naive_g(p, table):
    if p == 2:
        return 1
    return sum(naive_g(q, table) for q in table.factorize(p - 1).distinct_primes())


def trial_tree(p):
    """(f, H, g) of p by recursion over the prime divisors of p - 1 found by
    plain trial division, with no factor table."""
    if p == 2:
        return 1, 1, 1
    kids = [trial_tree(q) for q, _ in trial_pairs(p - 1)]
    return 1 + sum(k[0] for k in kids), 1 + max(k[1] for k in kids), sum(k[2] for k in kids)


def naive_mass(p, table):
    """(den, num, lprod) of p by recursion over the children, with both the
    children and l(q - 1) taken from ``factorize``."""
    fac = table.factorize(p - 1)
    lp = fac.unitary_cofactor()
    den, num = p - 1, p * lp
    for q in fac.distinct_primes():
        d, n, l = naive_mass(q, table)
        den, num, lp = den * d, num * n, lp * l
    return den, num, lp


def assert_matches_naive(dag, table, primes):
    mass = pratt.MassProducts(table, dag)
    for p in primes:
        assert dag.f_of(p) == naive_f(p, table), p
        assert dag.h_of(p) == naive_h(p, table), p
        assert dag.g_of(p) == naive_g(p, table), p
        assert dag.children(p) == table.factorize(p - 1).distinct_primes(), p
        assert (mass.den(p), mass.num(p), mass.lprod(p)) == naive_mass(p, table), p


class TestNodeFunctionals:
    def test_hand_checked_values(self, dag):
        # (p, f, h, g) worked out by expanding the certification tree.
        cases = [
            (2, 1, 1, 1),
            (3, 2, 2, 1),
            (5, 2, 2, 1),
            (7, 4, 3, 2),
            (13, 4, 3, 2),
            (23, 6, 4, 3),
            (65537, 2, 2, 1),
        ]
        for p, f, h, g in cases:
            assert dag.f_of(p) == f
            assert dag.h_of(p) == h
            assert dag.g_of(p) == g

    def test_matches_naive_recursion(self, dag, table):
        for p in table.primes(2, 2000).tolist():
            assert dag.f_of(p) == naive_f(p, table)
            assert dag.h_of(p) == naive_h(p, table)
            assert dag.g_of(p) == naive_g(p, table)

    def test_parity_and_halving(self, dag, table):
        for p in table.primes(3, 20_000).tolist():
            f = dag.f_of(p)
            assert f % 2 == 0
            assert 2 * dag.g_of(p) == f

    def test_logarithmic_bounds(self, dag, table):
        for p in table.primes(2, 50_000).tolist():
            lg = math.log2(p)
            assert dag.f_of(p) <= 2 * lg - 1 + 1e-9
            assert dag.h_of(p) <= lg + 1 + 1e-9

    def test_children(self, dag):
        assert dag.children(2) == ()
        assert dag.children(7) == (2, 3)
        assert dag.children(13) == (2, 3)
        assert dag.children(23) == (2, 11)

    def test_composite_rejected(self, dag):
        with pytest.raises(DomainError):
            dag.f_of(9)


class TestLevelProfiles:
    def test_small_profiles(self, dag):
        assert dag.level_counts(2) == [1]
        assert dag.level_counts(3) == [1, 1]
        assert dag.level_counts(7) == [1, 2, 1]
        assert dag.level_counts(23) == [1, 2, 2, 1]

    def test_profile_consistency(self, dag, table):
        for p in table.primes(2, 5000).tolist():
            prof = dag.level_counts(p)
            assert len(prof) == dag.h_of(p)
            assert sum(prof) == dag.f_of(p)
            assert prof[0] == 1
            assert all(c >= 1 for c in prof)


class TestFermatDetection:
    def test_known_fermat_primes(self):
        for p in (3, 5, 17, 257, 65537):
            assert pratt.is_fermat_prime(p)

    def test_non_fermat(self):
        for p in (2, 7, 13, 97, 641, 6700417):
            assert not pratt.is_fermat_prime(p)

    def test_height_two_iff_fermat(self, dag, table):
        for p in table.primes(3, 100_000).tolist():
            assert (dag.h_of(p) == 2) == pratt.is_fermat_prime(p)


class TestRangeStats:
    def test_counts_at_100(self, table, dag):
        st = pratt.range_stats(100, table, dag)
        assert st.prime_count == 25
        assert sum(st.h_hist.values()) == 25
        assert sum(st.f_hist.values()) == 25
        assert st.h_hist[1] == 1  # only p = 2
        assert st.h_hist[2] == 3  # 3, 5, 17
        assert st.n_total == sum(dag.f_of(p) for p in table.primes(2, 100).tolist())

    def test_extremes_are_attained(self, table, dag):
        st = pratt.range_stats(10_000, table, dag)
        assert dag.h_of(st.max_h_prime) == st.max_h
        assert dag.f_of(st.max_f_prime) == st.max_f
        assert all(dag.h_of(p) <= st.max_h for p in table.primes(2, 10_000).tolist())

    def test_rows_shape(self, table, dag):
        st = pratt.range_stats(1000, table, dag)
        rows = st.rows("H")
        assert rows[0][0] == "H"
        assert sum(r[2] for r in rows) == st.prime_count


class TestBlockArrays:
    def test_both_sides_of_every_power_of_two(self, table):
        dag = pratt.PrattDag(table)
        cases = {65521, 65537, 131071, 999_983}
        for k in range(2, 18):
            cases.add(int(table.primes(2, (1 << k) - 1)[-1]))
            cases.add(int(table.primes((1 << k) + 1, 1 << (k + 1))[0]))
        assert_matches_naive(dag, table, sorted(cases))

    def test_pieces_cut_inside_a_dyadic_block(self):
        # [2^21, 2^22) is filled in pieces of _BLOCK_WIDTH = 2^20 integers
        # from its first prime, so that prime + 2^20 and the limit cut it.
        table = sieve.SpfTable(3 * 2**20 + 100)
        dag = pratt.PrattDag(table)
        cases = {int(table.primes(2, table.limit)[-1])}
        for cut in (2**20, 2**21, int(table.primes(2**21, table.limit)[0]) + 2**20):
            cases.add(int(table.primes(2, cut - 1)[-1]))
            cases.add(int(table.primes(cut, table.limit)[0]))
        assert_matches_naive(dag, table, sorted(cases))

    def test_children_above_the_rank_table(self):
        # 2097779 - 1 = 2 * 1048889 and 4195229 - 1 = 4 * 1048807: children
        # above 2^20, found by binary search instead of the rank table
        p, q = 2097779, 4195229
        table = sieve.SpfTable(q + 1)
        assert max(table.factorize(p - 1).distinct_primes()) > pratt._BLOCK_WIDTH
        assert_matches_naive(pratt.PrattDag(table), table, [p, q])
        assert_matches_naive(pratt.PrattDag(table, pratt.tree_primes(q, table)), table, [q])

    @pytest.mark.parametrize("limit", [10**6, 3 * 2**20 + 100])
    def test_links_are_the_prime_divisors(self, table, limit):
        # every parent's kids, over all yields, are the prime divisors of
        # p - 1 in increasing order, and no parent repeats within a yield
        if limit != table.limit:
            table = sieve.SpfTable(limit)
        primes = table.primes()
        kids = [[] for _ in primes.tolist()]
        for up, kid in pratt._links(table, primes, pratt._rank_table(primes)):
            assert np.unique(up).size == up.size
            for i, q in zip(up.tolist(), primes[kid].tolist()):
                kids[i].append(q)
        for p, qs in zip(primes.tolist(), kids):
            assert tuple(qs) == table.factorize(p - 1).distinct_primes(), p

    @pytest.mark.parametrize("limit", [10**6, 2 * 10**7])
    def test_fill_peak_within_footprint(self, limit):
        table = sieve.SpfTable(limit)
        tracemalloc.start()
        try:
            pratt.PrattDag(table).values(limit)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= pratt.footprint_bytes(limit) - sieve.table_bytes(limit)

    @pytest.mark.parametrize("limit", [10**6, 5 * 10**7])
    def test_range_stats_peak_within_footprint(self, limit):
        # hist's path: the same fill, then the histograms; the model's slack
        # below 5e7 would hide a second int64 per prime
        table = sieve.SpfTable(limit)
        tracemalloc.start()
        try:
            pratt.range_stats(limit, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= pratt.footprint_bytes(limit) - sieve.table_bytes(limit)

    def test_label_fill_peak_is_fixed(self):
        # one tree from a 2^16 table, even that of the largest prime below
        # 2^32: the rank table (4 MiB) and a few small pieces
        table = sieve.SpfTable(2**16)
        p = 2**32 - 5
        tracemalloc.start()
        try:
            pratt.PrattDag(table, pratt.tree_primes(p, table)).f_of(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 << 20

    def test_range_fills_read_only_cells(self, monkeypatch):
        # the trial division above a table's limit goes through the scalar
        # spf; a fill over the table's own primes never calls it
        def no_spf(self, n):
            raise AssertionError("a range fill called the scalar spf")

        table = sieve.SpfTable(10**5)
        monkeypatch.setattr(sieve.SpfTable, "spf", no_spf)
        dag = pratt.PrattDag(table)
        pratt.MassProducts(table, dag)
        pratt.range_stats(table.limit, table, dag)

    def test_extremes_are_first_primes_attaining_them(self, table):
        x = 100_000
        dag = pratt.PrattDag(table)
        st = pratt.range_stats(x, table, dag)
        primes = table.primes(2, x).tolist()
        assert st.max_h_prime == next(p for p in primes if dag.h_of(p) == st.max_h)
        assert st.max_f_prime == next(p for p in primes if dag.f_of(p) == st.max_f)
        assert st.n_total == sum(dag.f_of(p) for p in primes)

    def test_values_guard(self, table):
        with pytest.raises(DomainError):
            pratt.PrattDag(table).values(table.limit + 1)


class TestPrimeSets:
    def test_tree_closure_matches_full_fill(self, table, dag):
        for p in [2, 3, 7, 65537, 999_983] + table.primes(2, 3000).tolist()[::7]:
            labels = pratt.tree_primes(p, table)
            assert labels[-1] == p and labels.size <= dag.f_of(p) <= 2 * math.log2(p) - 1 + 1e-9
            sub = pratt.PrattDag(table, labels)
            assert (sub.f_of(p), sub.h_of(p), sub.g_of(p)) == (dag.f_of(p), dag.h_of(p), dag.g_of(p)), p

    def test_small_table_trees_match_a_full_fill(self):
        # a 2^9 table factors every p - 1 below 2^18 > 2e5, above 512 by
        # trial division
        full = sieve.SpfTable(2 * 10**5)
        dag = pratt.PrattDag(full)
        small = sieve.SpfTable(2**9)
        for p in full.primes()[::7].tolist():
            sub = pratt.PrattDag(small, pratt.tree_primes(p, small))
            assert (sub.f_of(p), sub.h_of(p), sub.g_of(p)) == (dag.f_of(p), dag.h_of(p), dag.g_of(p)), p
        assert_matches_naive(sub, small, [p])

    def test_primes_up_to_x(self, table, dag):
        for x in (2, 3, 100, 4099, 10**5):
            assert pratt.range_stats(x, table) == pratt.range_stats(x, table, dag), x
            sub = pratt.PrattDag(table, table.primes(2, x))
            assert all(a.tolist() == b.tolist() for a, b in zip(sub.values(x), dag.values(x)))

    def test_values_stop_where_the_set_stops_being_complete(self, table, dag):
        # the tree of 997 has labels 2, 3, 5, 41, 83, 997: every prime up to
        # 6, so it answers 2..6 exactly as the full dag does, and no x >= 7
        sub = pratt.PrattDag(table, pratt.tree_primes(997, table))
        for x in (2, 4, 6):
            assert all(a.tolist() == b.tolist() for a, b in zip(sub.values(x), dag.values(x))), x
            assert pratt.range_stats(x, table, sub) == pratt.range_stats(x, table, dag), x
        for x in (7, 100, 997, 1000):
            with pytest.raises(DomainError):
                sub.values(x)
            with pytest.raises(DomainError):
                pratt.range_stats(x, table, sub)
        # the tree of 3 is {2, 3}: complete up to 4
        three = pratt.PrattDag(table, pratt.tree_primes(3, table))
        assert three.values(4)[0].tolist() == [2, 3]
        with pytest.raises(DomainError):
            three.values(5)
        # the primes up to x answer up to one below the next prime
        for x, nxt in ((2, 3), (3, 5), (100, 101), (4099, 4111)):
            prefix = pratt.PrattDag(table, table.primes(2, x))
            assert prefix.values(nxt - 1)[0].tolist() == table.primes(2, x).tolist()
            with pytest.raises(DomainError):
                prefix.values(nxt)
        assert dag.values(table.limit)[0].size == table.prime_count(table.limit)

    def test_upto_is_the_dag_of_the_primes_up_to_x(self, table):
        for x in (2, 100, table.limit - 1, table.limit):
            sub = pratt.PrattDag.upto(table, x)
            assert sub.values(x)[0].tolist() == table.primes(2, x).tolist(), x

    def test_set_without_a_child_is_refused(self):
        # 7 - 1 = 2 * 3 and 3 is missing; 2 is missing under 3; the child
        # 1048889 of 2097779 lies above the rank table
        table = sieve.SpfTable(2097779)
        for primes in ([2, 7], [3], [2, 2097779]):
            with pytest.raises(IntegrityError):
                pratt.PrattDag(table, np.array(primes))

    def test_bad_sets_and_lookups(self, table):
        for primes in ([3, 2], [2, 2], [1, 2], [2, 9], [2, 3, table.limit + 2]):
            with pytest.raises(DomainError):
                pratt.PrattDag(table, np.array(primes))
        sub = pratt.PrattDag(table, pratt.tree_primes(13, table))
        for p in (5, 9, 13 + table.limit):
            with pytest.raises(DomainError):
                sub.f_of(p)
        for p in (1, 9, table.limit + 2):
            with pytest.raises(DomainError):
                pratt.tree_primes(p, table)


class TestMassProducts:
    def test_identity_holds_everywhere(self, vctx, table):
        mass = vctx.mass
        for p in table.primes(2, 20_000).tolist():
            assert mass.mass_identity_holds(p), p

    def test_den_num_small(self, vctx):
        mass = vctx.mass
        # p = 7: tree nodes 7, 2, 3, 2; D = 6 * 1 * 2 * 1 = 12.
        assert mass.den(7) == 12
        assert mass.num(7) == 7 * mass.den(7)
        assert mass.lprod(7) == 1
        # p = 17: 16 = 2^4 so l(16) = 8.
        assert mass.lprod(17) == 8

    def test_lprod_bound(self, vctx, table, dag):
        for p in table.primes(2, 20_000).tolist():
            lp = vctx.mass.lprod(p)
            assert lp * lp * (1 << dag.f_of(p)) <= p * p, p


class TestTotientIteration:
    def test_phi_iterate_values(self, table):
        assert pratt.phi_iterate(7, 0, table) == 7
        assert pratt.phi_iterate(7, 1, table) == 6
        assert pratt.phi_iterate(7, 2, table) == 2
        assert pratt.phi_iterate(7, 3, table) == 1
        assert pratt.phi_iterate(97, 1, table) == 96
        assert pratt.phi_iterate(97, 2, table) == 32
        assert pratt.phi_iterate(1, 5, table) == 1

    def test_phi_iter_stats_stops_once_every_iterate_is_one(self, table):
        # every phi_k(n) with n <= 300 is 1 by k = 20, so k = 10^12 answers
        # at once, as k = 20 does; each k matches phi_iterate's iterates
        x, eps = 300, 0.5

        def naive(k):
            iterates = (pratt.phi_iterate(n, k, table) for n in range(1, x + 1))
            return sum(m == 1 or table.factorize(m).pairs[-1][0] <= x**eps for m in iterates) / x

        assert [pratt.phi_iter_stats(x, k, eps, table) for k in range(21)] == [naive(k) for k in range(21)]
        assert pratt.phi_iter_stats(x, 10**12, eps, table) == naive(20) == 1.0

    def test_phi_iter_stats_bounds(self, table):
        lo = pratt.phi_iter_stats(2000, 1, 0.5, table)
        hi = pratt.phi_iter_stats(2000, 1, 1.0, table)
        assert 0.0 <= lo <= hi <= 1.0
        # eps = 1 means every iterate is smooth by definition.
        assert hi == 1.0

    def test_guards(self, table):
        with pytest.raises(DomainError):
            pratt.phi_iterate(0, 1, table)
        with pytest.raises(DomainError):
            pratt.phi_iter_stats(100, 1, 0.0, table)

    def test_phi_iter_stats_memory_ceiling(self, monkeypatch):
        class Allocated(Exception):
            pass

        def allocated(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(pratt.np, "arange", allocated)
        # a stand-in for the largest table SpfTable admits, limit 2**29
        largest = types.SimpleNamespace(limit=MAX_BYTES)
        x = MAX_BYTES // 24 - 1  # three int64 arrays of x + 1 entries fit
        with pytest.raises(Allocated):
            pratt.phi_iter_stats(x, 1, 0.5, largest)
        for big in (x + 1, largest.limit):
            with pytest.raises(CapacityError):
                pratt.phi_iter_stats(big, 1, 0.5, largest)


class TestLinnikChain:
    def test_greedy_chain_prefix(self, table):
        assert pratt.linnik_chain(6, table) == [2, 3, 7, 29, 59, 709]

    def test_chain_property(self, table):
        chain = pratt.linnik_chain(8, table)
        for a, b in zip(chain, chain[1:]):
            assert b % a == 1
            assert sieve.is_prime_u64(b)

    def test_guard(self, table):
        with pytest.raises(DomainError):
            pratt.linnik_chain(0, table)


@pytest.mark.parametrize(
    "call",
    [
        lambda table, dag, p: dag.children(p),
        lambda table, dag, p: dag.level_counts(p),
        lambda table, dag, p: table.factorize(p),
        lambda table, dag, p: chains.chains_ending_at(p, table),
        lambda table, dag, p: chains.f_oracle(p, table),
        lambda table, dag, p: pratt.phi_iterate(p, 2, table),
        lambda table, dag, p: pratt.is_fermat_prime(p),
    ],
    ids=["children", "level_counts", "factorize", "chains_ending_at", "f_oracle", "phi_iterate", "is_fermat_prime"],
)
def test_numpy_integer_primes(table, dag, call):
    # the int64 primes of table.primes() answer as Python ints do
    for p in np.concatenate([table.primes(2, 7), table.primes(250, 260)]):
        assert isinstance(p, np.int64)
        assert call(table, dag, p) == call(table, dag, int(p)), p
