import itertools

import pytest

from primechain import chains, pratt, sieve
from primechain.errors import CapacityError, DomainError, IntegrityError


def dfs_chains(p, x, table, bound=10**9, include_trivial=True):
    """Reference enumeration: depth-first, multipliers increasing, one
    ``is_prime`` per candidate, the capacity check after every chain."""
    ceiling = int(p * x)
    found = [(p,)] if include_trivial else []
    if len(found) > bound:
        raise CapacityError("bound")

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

    def test_enumerated_records_pass_the_checking_path(self, table):
        # enumerate_from builds its records without the link check
        for p, x in ((2, 1e3), (3, 300), (7, 1e3), (101, 60), (997, 5)):
            enum = chains.enumerate_from(p, x, table)
            assert [chains.ChainRecord(c.primes) for c in enum.chains] == enum.chains
            assert [c.primes for c in enum.chains] == dfs_chains(p, x, table), (p, x)


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
        with pytest.raises(DomainError):
            chains.enumerate_from(2, 5, table, bound=-1)

    def test_trivial_chain_counts_against_the_bound(self, table):
        # 7 at ratio 1 has no link; its one chain [7] counts like any other
        with pytest.raises(CapacityError):
            chains.enumerate_from(7, 1.0, table, bound=0)
        assert [c.primes for c in chains.enumerate_from(7, 1.0, table, bound=1).chains] == [(7,)]
        assert chains.enumerate_from(7, 1.0, table, bound=0, include_trivial=False).chains == []

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
            for bound in range(total + 2):
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

    def test_candidate_budget_is_checked_before_any_test(self, monkeypatch):
        calls = []
        are_prime = sieve.SpfTable.are_prime

        def counted(self, ns):
            calls.append(len(ns))
            return are_prime(self, ns)

        monkeypatch.setattr(sieve.SpfTable, "are_prime", counted)
        small = sieve.build_spf(1000)
        # from 3 up to 9e6, the first length alone has 1,499,833 candidates above 1000
        with pytest.raises(CapacityError, match="1499833 candidates"):
            chains.enumerate_from(3, 3e6, small)
        assert calls == []
        # from 2 up to 1200, the lengths have 100, 169, 137, 60, 20, 2 and 0
        # candidates above 1000: the budget holds per length, and a length
        # over it is refused after the lengths before it, before its own tests:
        # one call, on the first length's 599 candidates
        monkeypatch.setattr(sieve, "MAX_AP_CANDIDATES", 168)
        with pytest.raises(CapacityError, match="169 candidates"):
            chains.enumerate_from(2, 600, small)
        assert calls == [599]
        monkeypatch.setattr(sieve, "MAX_AP_CANDIDATES", 169)
        assert [c.primes for c in chains.enumerate_from(2, 600, small).chains] == dfs_chains(2, 600, small)

    def test_same_2_64_refusal_as_the_progression_counts(self, table):
        # p * x = 2**64 exactly; both read primes_in_aps and refuse alike
        with pytest.raises(CapacityError) as counted:
            sieve.count_primes_in_aps(2**64, [2], table)
        with pytest.raises(CapacityError) as enumerated:
            chains.enumerate_from(2, 2.0**63, table)
        assert str(enumerated.value) == str(counted.value)
        assert "2**64" in str(counted.value)

    def test_ceiling_is_exact_past_two_to_the_53(self, table):
        # float(p) = p + 1, so a float p * 2 would admit the prime 2p + 1 above it
        p = 9007199254741931
        assert sieve.is_prime_u64(2 * p + 1) and float(p) == p + 1
        assert [c.primes for c in chains.enumerate_from(p, 2.0, table).chains] == [(p,)]

    def test_ceiling_of_the_largest_prime_below_two_to_the_64(self, table):
        # a float p * 1 rounds up to 2**64, which primes_in_aps refuses
        p = 18446744073709551557
        assert [c.primes for c in chains.enumerate_from(p, 1.0, table).chains] == [(p,)]

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

    def test_outside_the_table_is_a_domain_error(self, table):
        # the factor range (to 1000^2 here) is checked before primality, so
        # 2**64 + 13 never reaches the witness set's ceiling; inside it, a
        # prime above the table's limit is factored by trial division
        small = sieve.build_spf(1000)
        assert chains.chains_ending_at(1009, small) == chains.chains_ending_at(1009, table)
        for p in (1_000_003, 2**63 + 29, 2**64 + 13):
            with pytest.raises(DomainError, match="outside 2..1000000"):
                chains.chains_ending_at(p, small)
        with pytest.raises(DomainError, match="not prime"):
            chains.chains_ending_at(999, small)

    def test_size_cap(self, table, monkeypatch):
        # f(23) = 6 recursive visits: admitted at a cap of 6, refused at 5
        monkeypatch.setattr(chains, "_ENDING_CAP", 6)
        assert len(chains.chains_ending_at(23, table)) == 6
        monkeypatch.setattr(chains, "_ENDING_CAP", 5)
        with pytest.raises(CapacityError):
            chains.chains_ending_at(23, table)


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
