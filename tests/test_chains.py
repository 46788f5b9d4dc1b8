import pytest

from primechain import chains, sieve
from primechain.errors import CapacityError, DomainError, IntegrityError


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
            want = sieve.count_primes_in_ap(p * x, p, table)
            assert two == want, (p, x)

    def test_guards(self, table):
        with pytest.raises(DomainError):
            chains.enumerate_from(9, 10, table)
        with pytest.raises(DomainError):
            chains.enumerate_from(2, 0.5, table)
        with pytest.raises(CapacityError):
            chains.enumerate_from(2, 1000, table, bound=10)

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
