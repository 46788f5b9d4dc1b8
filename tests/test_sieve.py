import math

import numpy as np
import pytest

from primechain import sieve
from primechain.errors import CapacityError, DomainError


def naive_primes(n):
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags)


def naive_ap_counts(x, qs):
    """pi(x; q, 1) for every q of ``qs``: strided slices of naive sieve flags."""
    flags = np.zeros(x + 1, dtype=bool)
    flags[naive_primes(x)] = True
    return [int(np.count_nonzero(flags[1 + q :: q])) for q in qs]


def naive_spf(n):
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            return p
    return n


class TestMillerRabin:
    def test_matches_sieve_to_1e4(self):
        flags = np.zeros(10_001, dtype=bool)
        flags[naive_primes(10_000)] = True
        for n in range(10_001):
            assert sieve.is_prime_u64(n) == bool(flags[n]), n

    def test_known_large_primes(self):
        assert sieve.is_prime_u64((1 << 61) - 1)  # Mersenne
        assert sieve.is_prime_u64(2_147_483_647)
        assert sieve.is_prime_u64(18_446_744_073_709_551_557)  # largest < 2^64

    def test_known_composites_and_pseudoprimes(self):
        # Carmichael numbers and strong pseudoprimes to small bases.
        for n in (561, 1105, 41041, 3215031751, 3825123056546413051):
            assert not sieve.is_prime_u64(n), n
        assert not sieve.is_prime_u64((1 << 61) - 3)

    def test_range_guard(self):
        with pytest.raises(DomainError):
            sieve.is_prime_u64(-1)
        with pytest.raises(CapacityError):
            sieve.is_prime_u64(1 << 64)
        with pytest.raises(CapacityError):
            sieve.build_spf(1000).is_prime(1 << 64)


class TestSpfTable:
    def test_spf_matches_trial_division(self):
        t = sieve.build_spf(5000)
        for n in range(2, 5001):
            assert t.spf(n) == naive_spf(n), n

    def test_segment_boundaries(self):
        # Three full segments and a short fourth; check each join.
        w = sieve.SEGMENT_WIDTH
        t = sieve.build_spf(3 * w + 100)
        assert [s.size for s in t.segments] == [w, w, w, 101]
        for join in (w, 2 * w, 3 * w):
            ns = range(join - 500, min(join + 500, t.limit + 1))
            for n in ns:
                assert t.is_prime(n) == sieve.is_prime_u64(n), n
                assert t.spf(n) == naive_spf(n), n
            assert t.primes(ns[0], ns[-1]).tolist() == [n for n in ns if sieve.is_prime_u64(n)]
            assert t.prime_count(join) == naive_primes(join).size
        assert t.prime_count(t.limit) == naive_primes(t.limit).size

    def test_prime_count_checkpoints(self, table):
        assert table.prime_count(10) == 4
        assert table.prime_count(100) == 25
        assert table.prime_count(10_000) == 1229
        assert table.prime_count(100_000) == 9592
        assert table.prime_count(1_000_000) == 78498

    def test_primes_slice(self, table):
        ps = table.primes(90, 120)
        assert ps.tolist() == [97, 101, 103, 107, 109, 113]
        assert ps.dtype == np.int64
        assert table.primes(0, 12).tolist() == [2, 3, 5, 7, 11]
        assert table.primes(-5, 1).size == 0 and table.primes(20, 10).size == 0
        assert table.primes(table.limit - 100).tolist() == table.primes(table.limit - 100, 10**12).tolist()

    def test_limit_guards(self):
        with pytest.raises(DomainError):
            sieve.SpfTable(1)
        with pytest.raises(CapacityError):
            sieve.SpfTable(1 << 32)

    def test_memory_ceiling_before_allocation(self, monkeypatch):
        def no_sieving(n):
            raise AssertionError("the table started sieving")

        monkeypatch.setattr(sieve, "_simple_prime_array", no_sieving)
        limit = 10**9
        assert sieve.table_bytes(limit) > sieve.MAX_TABLE_BYTES
        with pytest.raises(CapacityError):
            sieve.SpfTable(limit)


class TestPrimeDivisors:
    def test_matches_factorize(self, table):
        ns = np.array(list(range(1, 3000)) + [2**19, 3**12, 720_720, 999_983, 1_000_000], dtype=np.int64)
        rows, primes = table.prime_divisors(ns)
        got = [[] for _ in ns]
        for r, p in zip(rows.tolist(), primes.tolist()):
            got[r].append(p)
        assert rows.tolist() == sorted(rows.tolist())
        for n, ps in zip(ns.tolist(), got):
            assert tuple(ps) == table.factorize(n).distinct_primes(), n

    def test_empty_and_guard(self, table):
        rows, primes = table.prime_divisors(np.ones(3, dtype=np.int64))
        assert rows.size == 0 and primes.size == 0
        with pytest.raises(DomainError):
            table.prime_divisors(np.array([0]))
        with pytest.raises(DomainError):
            table.prime_divisors(np.array([table.limit + 1]))


class TestUnitaryCofactors:
    def test_matches_factorize_to_2_17(self):
        t = sieve.build_spf(1 << 17)
        ns = np.arange(1, (1 << 17) + 1)
        got = t.unitary_cofactors(ns).tolist()
        assert got == [t.factorize(n).unitary_cofactor() for n in ns.tolist()]

    def test_guard(self, table):
        assert table.unitary_cofactors(np.zeros(0, dtype=np.int64)).size == 0
        with pytest.raises(DomainError):
            table.unitary_cofactors(np.array([0]))
        with pytest.raises(DomainError):
            table.unitary_cofactors(np.array([table.limit + 1]))


class TestArrayPrimality:
    def test_matches_scalar_across_the_limit(self):
        small = sieve.build_spf(1000)
        ns = np.array(list(range(0, 3000)) + [2**61 - 1, 2**64 - 59, 2**64 - 57], dtype=np.uint64)
        assert small.are_prime(ns).tolist() == [small.is_prime(n) for n in ns.tolist()]

    def test_negative_zero_one_and_above_limit(self):
        t = sieve.build_spf(10**4)
        ns = np.array([-9999, -10**4 - 7, -2, -1, 0, 1, 2, 3, 9973, 10**4, 10007, 10**4 + 9])
        assert t.are_prime(ns).tolist() == [t.is_prime(n) for n in ns.tolist()]


class TestFactorization:
    def test_roundtrip_product(self, table):
        for n in range(1, 3000):
            fac = table.factorize(n)
            prod = 1
            for p, e in fac.pairs:
                prod *= p**e
            assert prod == n

    def test_totient_radical_cofactor(self, table):
        for n in range(1, 2000):
            fac = table.factorize(n)
            phi = sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)
            assert fac.totient() == phi, n
            rad = 1
            for p in fac.distinct_primes():
                rad *= p
            assert fac.radical() == rad
            assert fac.unitary_cofactor() * rad == n

    def test_l_value_fixed_points(self, table):
        # l(n) = n / rad(n): squarefree n give 1, prime powers give p^(e-1).
        for n, l in ((1, 1), (12, 2), (8, 4), (30, 1), (720, 24)):
            assert table.factorize(n).unitary_cofactor() == l, n
        with pytest.raises(DomainError):
            table.factorize(0)

    def test_largest_prime_factor(self, table):
        assert table.factorize(97).largest_prime_factor() == 97
        assert table.factorize(96).largest_prime_factor() == 3
        assert table.factorize(1).largest_prime_factor() == 1


class TestPrimesInProgression:
    def test_degenerate_modulus(self, table):
        assert sieve.count_primes_in_aps(1_000, [1], table)[0] == 168

    def test_against_direct_loop(self, table):
        qs = (2, 3, 4, 6, 9, 10, 15)
        want = [sum(1 for p in naive_primes(20_000).tolist() if p % q == 1) for q in qs]
        assert sieve.count_primes_in_aps(20_000, qs, table).tolist() == want

    def test_beyond_table_limit(self):
        small = sieve.build_spf(1000)
        # x above the table limit falls back to Miller-Rabin per candidate.
        # q = 499 strides by 998: the composite 999 below the limit, the prime 1997 above it
        for q in (7, 499):
            want = sum(1 for p in naive_primes(5000).tolist() if p % q == 1)
            assert sieve.count_primes_in_aps(5000, [q], small)[0] == want, q
        assert sieve.count_primes_in_aps(5000, [1], small)[0] == 669
        # many moduli at once, their candidates on both sides of the limit;
        # the odd q above 2**63 have wrapped strides and no candidate
        qs = [1, 2, 3, 7, 333, 499, 500, 999, 1000, 1001, 2499, 2500, 4999, 5000, 2**63 + 1, 2**64 - 1]
        assert sieve.count_primes_in_aps(5000, qs, small).tolist() == naive_ap_counts(5000, qs)

    def test_guards(self, table):
        assert sieve.count_primes_in_aps(1, [3], table)[0] == 0
        # too many candidates above the limit: refused before any test
        for x, q in ((10**18, 3), (2**63, 2)):
            with pytest.raises(CapacityError):
                sieve.count_primes_in_aps(x, [q], table)
        with pytest.raises(CapacityError):
            sieve.count_primes_in_aps(2**64 + 5, [2**62], table)

    def test_refusals_come_before_any_test(self, monkeypatch):
        class Tested(Exception):
            pass

        def tested(n):
            raise Tested(n)

        monkeypatch.setattr(sieve, "is_prime_u64", tested)
        small = sieve.build_spf(1000)
        # one modulus 3 has 333,166 candidates above the limit, so testing starts;
        # four share the MAX_AP_CANDIDATES budget and exceed it
        with pytest.raises(Tested):
            sieve.count_primes_in_aps(2 * 10**6, [3], small)
        with pytest.raises(CapacityError):
            sieve.count_primes_in_aps(2 * 10**6, [3, 3, 3, 3], small)
        # three candidates 1 + k * 2**62 lie below 2**64; x = 2**64 is refused
        with pytest.raises(Tested):
            sieve.count_primes_in_aps(2**64 - 1, [2**62], small)
        with pytest.raises(CapacityError):
            sieve.count_primes_in_aps(2**64, [2**62], small)

    @pytest.mark.parametrize("x", [2, 3, 100, 10**4 + 1, 2**20 + 3])
    def test_batched_counts_match_scalar(self, x):
        t = sieve.build_spf(max(x, 2))
        qs = t.primes(2, x // 2)
        assert sieve.count_primes_in_aps(x, qs, t).tolist() == naive_ap_counts(x, qs.tolist())

    def test_batched_counts_guard(self, table):
        qs = [1, 4, 6, 9, 1000]
        assert sieve.count_primes_in_aps(1000, np.array(qs), table).tolist() == naive_ap_counts(1000, qs)
        assert sieve.count_primes_in_aps(1000, np.array([1]), table)[0] == 168
        # x above the limit is counted, its candidates above it by Miller-Rabin
        x = table.limit + 100
        assert sieve.count_primes_in_aps(x, np.array([3]), table).tolist() == naive_ap_counts(x, [3])
        for qs in ([0], [-3], [3, 0]):
            with pytest.raises(DomainError):
                sieve.count_primes_in_aps(1000, np.array(qs), table)


class TestProgressionCandidates:
    def test_step_takes_arrays(self):
        qs = np.arange(1, 200)
        assert sieve.progression_step(qs).tolist() == [sieve.progression_step(q) for q in qs.tolist()]

    @pytest.mark.parametrize("width", [1, 7, 64, sieve.PROGRESSION_CHUNK])
    def test_chunks_list_every_candidate_once(self, width):
        qs = np.array([1, 2, 3, 5, 97, 499, 500, 10**4], dtype=np.uint64)
        ceiling = 2000
        want = [(i, n) for i, q in enumerate(qs.tolist()) for n in range(1 + sieve.progression_step(q), ceiling + 1, sieve.progression_step(q))]
        got = []
        for rows, cands in sieve.progression_candidates(qs, ceiling, width):
            assert rows.size == cands.size <= width
            assert cands.dtype == np.uint64
            got += zip(rows.tolist(), cands.tolist())
        assert got == want

    def test_near_2_64(self):
        q = 2**62 + 135  # 1 + 2q lies in [2**63, 2**64), 1 + 4q above the ceiling
        chunks = list(sieve.progression_candidates(np.array([q], dtype=np.uint64), 2**64 - 1))
        assert [c.tolist() for _, c in chunks] == [[1 + 2 * q]]
