import itertools

import pytest

from primechain import chains, pratt, sieve
from primechain.errors import CapacityError, DomainError, IntegrityError


def dfs_chains(p, x, table, bound=10**9, include_trivial=True):
    """Reference enumeration: depth-first, multipliers increasing, one
    ``is_prime`` per candidate, the capacity check after every chain."""
    ceiling = int(p * x)
    found = [(p,)] if include_trivial else []

    def extend(prefix):
        step = sieve.progression_step(prefix[-1])
        for cand in range(1 + step, ceiling + 1, step):
            if table.is_prime(cand):
                found.append(prefix + (cand,))
                if len(found) > bound:
                    raise CapacityError("bound")
                extend(found[-1])

    extend((p,))
    return found


class TestChainRecord:
    def test_valid(self):
        c = chains.ChainRecord((2, 3, 7))
        assert len(c) == 3

    def test_link_violation(self):
        with pytest.raises(IntegrityError):
            chains.ChainRecord((3, 5))

    def test_empty(self):
        with pytest.raises(DomainError):
            chains.ChainRecord(())


class TestEnumerateFrom:
    def test_from_two_ratio_five(self, table):
        # Ceiling 10: chains are (2), (2,3), (2,3,7), (2,5), (2,7).
        enum = chains.enumerate_from(2, 5, table)
        got = [c.primes for c in enum.chains]
        assert got == [(2,), (2, 3), (2, 3, 7), (2, 5), (2, 7)]
        assert enum.total == 5
        assert enum.counts_by_length() == {1: 1, 2: 3, 3: 1}

    def test_from_seven_ratio_ten(self, table):
        # Ceiling 70: (7), (7,29), (7,29,59), (7,43).
        enum = chains.enumerate_from(7, 10, table)
        got = [c.primes for c in enum.chains]
        assert got == [(7,), (7, 29), (7, 29, 59), (7, 43)]

    def test_trivial_toggle(self, table):
        with_triv = chains.enumerate_from(7, 10, table).total
        without = chains.enumerate_from(7, 10, table, include_trivial=False).total
        assert with_triv == without + 1

    def test_sorted_and_bounded(self, table):
        enum = chains.enumerate_from(3, 300, table)
        got = [c.primes for c in enum.chains]
        assert got == sorted(got)
        for c in enum.chains:
            assert c.primes[-1] <= 900

    def test_two_link_count_is_ap_count(self, table):
        # Chains of length exactly 2 from p correspond to primes
        # q <= ceiling with q = 1 (mod p).
        for p, x in ((3, 50), (3, 100), (5, 200), (7, 50), (7, 100), (11, 50), (11, 100)):
            enum = chains.enumerate_from(p, x, table)
            two = enum.counts_by_length().get(2, 0)
            want = sieve.count_primes_in_aps(p * x, [p], table)[0]
            assert two == want, (p, x)

    def test_guards(self, table):
        with pytest.raises(DomainError):
            chains.enumerate_from(9, 10, table)
        with pytest.raises(DomainError):
            chains.enumerate_from(2, 0.5, table)
        with pytest.raises(CapacityError):
            chains.enumerate_from(2, 1000, table, bound=10)

    def test_matches_depth_first_walk(self):
        # a 1000 table, so every ceiling above it runs the Miller-Rabin branch
        small = sieve.build_spf(1000)
        for p, x, trivial in itertools.product((2, 3, 5, 7, 11, 101, 997), (1, 1.5, 7, 40, 600), (True, False)):
            got = [c.primes for c in chains.enumerate_from(p, x, small, include_trivial=trivial).chains]
            assert got == dfs_chains(p, x, small, include_trivial=trivial), (p, x, trivial)

    def test_bound_fires_at_the_depth_first_totals(self, table):
        grid = list(itertools.product((2, 7, 13), (5, 30, 200), (True, False))) + [(11, 1.5, True), (11, 1.5, False)]
        for p, x, trivial in grid:  # 11 at ratio 1.5 has no link: no bound is ever exceeded
            total = len(dfs_chains(p, x, table, include_trivial=trivial))
            for bound in range(-1, total + 2):
                try:
                    dfs_chains(p, x, table, bound=bound, include_trivial=trivial)
                    want = False
                except CapacityError:
                    want = True
                try:
                    chains.enumerate_from(p, x, table, bound=bound, include_trivial=trivial)
                    got = False
                except CapacityError:
                    got = True
                assert got == want, (p, x, trivial, bound)

    def test_huge_ceiling_is_refused_before_work(self, table):
        with pytest.raises(CapacityError):
            chains.enumerate_from(2, 1e300, table)
        with pytest.raises(CapacityError):
            chains.enumerate_from(3, 1e100, table, bound=10)
        # the one candidate 1 + 2p lies in [2**63, 2**64): prime for p, not for q
        p, q = 2**63 - 10000000000659, 2**63 - 10000000000041
        assert [c.primes for c in chains.enumerate_from(p, 2.000001, table).chains] == [(p,), (p, 2 * p + 1)]
        assert [c.primes for c in chains.enumerate_from(q, 2.000001, table).chains] == [(q,)]
        for start in (p, q):
            assert [c.primes for c in chains.enumerate_from(start, 2.000001, table).chains] == dfs_chains(start, 2.000001, table)

    @pytest.mark.parametrize("x", [1, 1.5])
    def test_tips_above_two_to_the_63(self, table, x):
        # 2p overflows 64 bits; a wrapped step would walk candidates below p
        p = 2**63 + 29  # the least prime above 2**63
        assert sieve.is_prime_u64(p)
        assert [c.primes for c in chains.enumerate_from(p, x, table).chains] == dfs_chains(p, x, table) == [(p,)]

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf")])
    def test_non_finite_ratio(self, table, ratio):
        with pytest.raises(DomainError):
            chains.enumerate_from(2, ratio, table)


class TestChainsEndingAt:
    def test_terminal_seven(self, table):
        got = sorted(c.primes for c in chains.chains_ending_at(7, table))
        assert got == [(2, 3, 7), (2, 7), (3, 7), (7,)]

    def test_terminal_two(self, table):
        assert [c.primes for c in chains.chains_ending_at(2, table)] == [(2,)]

    def test_f_and_g_oracles(self, table, dag):
        for p in table.primes(2, 500).tolist():
            assert chains.f_oracle(p, table) == dag.f_of(p)
            assert chains.g_oracle(p, table) == dag.g_of(p)

    def test_size_cap(self, table):
        # f(23) = 6 recursive visits, above a cap of 4.
        with pytest.raises(CapacityError):
            chains.chains_ending_at(23, table, size_cap=4)


class TestLinkVectorDuality:
    def test_known_vector(self):
        vec = chains.link_vector(chains.ChainRecord((2, 3, 7)))
        assert vec.base == 2
        assert vec.multipliers == (1, 2)

    def test_roundtrip(self, table):
        enum = chains.enumerate_from(2, 60, table)
        for c in enum.chains:
            vec = chains.link_vector(c)
            back = chains.rebuild(vec, table)
            assert back.primes == c.primes

    def test_rebuild_rejects_composite(self, table):
        with pytest.raises(IntegrityError):
            chains.rebuild(chains.LinkVector(2, (4,)), table)  # 9 = 3 * 3

    def test_rebuild_rejects_bad_base(self, table):
        with pytest.raises(IntegrityError):
            chains.rebuild(chains.LinkVector(8, ()), table)

    def test_vector_accepts_tuple(self):
        vec = chains.link_vector((7, 29, 59))
        assert vec.base == 7
        assert vec.multipliers == (4, 2)


class TestNodeCountIdentity:
    def test_value_at_ten(self, table, dag):
        total = sum(dag.f_of(p) for p in table.primes(2, 10).tolist())
        assert total == 9

    def test_identity_small_ranges(self, table, dag):
        for x in (10, 100, 1000):
            assert chains.n_identity_check(x, table, dag)

    def test_identity_catches_a_wrong_f(self, table):
        dag = pratt.PrattDag(table, table.primes(2, 1000))
        dag._f[dag._index(997)] += 2  # a wrong f moves the left side, not the counts from the table
        assert not chains.n_identity_check(1000, table, dag)

    def test_identity_refuses_an_incomplete_dag(self, table):
        dag = pratt.PrattDag(table, pratt.tree_primes(997, table))
        with pytest.raises(DomainError):
            chains.n_identity_check(1000, table, dag)

    def test_identity_fills_only_the_primes_up_to_x(self, table):
        for x in (2, 3, 4, 100, 10**4 + 1):
            assert chains.n_identity_check(x, table)
