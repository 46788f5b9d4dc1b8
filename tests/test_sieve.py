import math
import tracemalloc

import numpy as np
import pytest

from primechain import sieve
from primechain.errors import MAX_BYTES, CapacityError, DomainError


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


def trial_pairs(n):
    """(prime, exponent) pairs of n >= 1 by plain trial division."""
    pairs = []
    while n > 1:
        p, e = naive_spf(n), 0
        while n % p == 0:
            n, e = n // p, e + 1
        pairs.append((p, e))
    return tuple(pairs)


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
        # One cell per odd integer: a full segment for 1..2w - 1 and a short
        # second; check around its join at 2w and at w and 3w.
        w = sieve.SEGMENT_WIDTH
        t = sieve.build_spf(3 * w + 100)
        assert [s.size for s in t.segments] == [w, w // 2 + 50]
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

    def test_prime_count_bound(self):
        # pi(x) < bound, and x from 2^64 on (past a float at 2^1024) is refused
        for x, pi in ((2, 1), (100, 25), (10**6, 78_498)):
            assert pi < sieve.prime_count_bound(x)
        assert sieve.prime_count_bound(1) == 0.0
        assert sieve.prime_count_bound((1 << 64) - 1) > 0
        for x in (1 << 64, 10**400, 1e300, math.inf):
            with pytest.raises(CapacityError):
                sieve.prime_count_bound(x)
        with pytest.raises(DomainError):
            sieve.prime_count_bound(math.nan)

    def test_memory_ceiling_before_allocation(self, monkeypatch):
        def no_sieving(n):
            raise AssertionError("the table started sieving")

        monkeypatch.setattr(sieve, "_simple_prime_array", no_sieving)
        limit = 10**9
        assert sieve.table_bytes(limit) > MAX_BYTES
        with pytest.raises(CapacityError):
            sieve.SpfTable(limit)


class TestOddCells:
    """One cell per odd integer; every even n is answered by its parity."""

    def check(self, t, ns):
        for n in ns:
            assert t.spf(n) == naive_spf(n), n
            assert t.is_prime(n) == sieve.is_prime_u64(n), n
        assert t.are_prime(np.array(ns, dtype=np.int64)).tolist() == [sieve.is_prime_u64(n) for n in ns]

    def check_range(self, t, lo, hi):
        """spf, is_prime, are_prime and primes on lo..hi, clipped to 2..limit."""
        ns = list(range(max(lo, 2), min(hi, t.limit) + 1))
        self.check(t, ns)
        assert t.primes(lo, hi).tolist() == [n for n in ns if sieve.is_prime_u64(n)]

    def test_small_and_even_n(self, table):
        for n in (0, 1):
            assert not table.is_prime(n)
            with pytest.raises(DomainError):
                table.spf(n)
        assert table.are_prime(np.arange(5)).tolist() == [False, False, True, True, False]
        assert [table.spf(n) for n in (2, 3, 4)] == [2, 3, 2]
        self.check(table, list(range(2, 3000, 2)) + [2**19, 2 * 499_979, table.limit])
        self.check_range(table, 0, 3000)
        assert [table.factorize(n).pairs for n in (2, 4, 96, 2**19)] == [((2, 1),), ((2, 2),), ((2, 5), (3, 1)), ((2, 19),)]

    @pytest.mark.parametrize("limit", [2, 3, 4, 5, 2 * sieve.SEGMENT_WIDTH, 2 * sieve.SEGMENT_WIDTH + 1])
    def test_limits_of_both_parities(self, limit):
        t = sieve.build_spf(limit)
        assert sum(s.nbytes for s in t.segments) == sieve.table_bytes(limit) == 2 * ((limit + 1) // 2)
        assert t.primes().tolist() == naive_primes(limit).tolist()
        assert t.prime_count(limit) == naive_primes(limit).size
        self.check_range(t, limit - 300, limit + 300)
        # n = limit + 1 and above go to Miller-Rabin, whatever their parity
        above = np.arange(limit - 3, limit + 40)
        assert t.are_prime(above).tolist() == [n >= 0 and sieve.is_prime_u64(n) for n in above.tolist()]

    def test_every_segment_join(self):
        w = sieve.SEGMENT_WIDTH
        limit = 6 * w + 201
        t = sieve.build_spf(limit)
        assert [s.size for s in t.segments] == [w, w, w, 101]
        assert sum(s.nbytes for s in t.segments) == sieve.table_bytes(limit)
        for join in (2 * w, 4 * w, 6 * w):  # the first integer of each new segment is join + 1
            self.check_range(t, join - 300, join + 300)
            assert t.prime_count(join) == naive_primes(join).size
        assert t.primes().tolist() == naive_primes(limit).tolist()


class TestPrimeChunks:
    """The segment walk streamed: each segment's primes, a chunk at a time."""

    C, W = sieve.PRIME_CHUNK, sieve.SEGMENT_WIDTH
    # around the edges of chunks (2C integers) and of segments (2W integers);
    # 2W + 1 ends in a last segment of a single cell
    EDGES = [2 * k * w + d for k, w in ((1, C), (3, C), (1, W), (2, W)) for d in (-1, 0, 1, 2)]

    @pytest.mark.parametrize("limit", [2, 3, 4, 99, 10**6, *EDGES])
    def test_matches_the_table(self, limit):
        chunks = list(sieve.prime_chunks(limit))
        assert len(chunks) == -(-((limit + 1) // 2) // self.C)  # one array per chunk of cells
        for i, primes in enumerate(chunks):
            assert primes.dtype == np.int64
            assert np.all(np.diff(primes) > 0)
            assert np.all((2 * i * self.C <= primes) & (primes < 2 * (i + 1) * self.C))
        assert np.concatenate(chunks).tolist() == sieve.SpfTable(limit).primes().tolist()

    def test_keeps_no_cells(self):
        limit = 2 * 10**7  # a table of 19 MiB
        count = 0
        tracemalloc.start()
        try:
            for primes in sieve.prime_chunks(limit):
                count += primes.size
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 1_270_607
        assert peak < 2 * self.W + 8 * self.C < sieve.table_bytes(limit) / 4

    @pytest.mark.parametrize("limit", [1, 0, -5, 2**32, 10**30, 1.5, 100.0, math.nan, math.inf])
    def test_bad_limit_refused_before_sieving(self, monkeypatch, limit):
        def no_sieving(*args):
            raise AssertionError("the stream started sieving")

        monkeypatch.setattr(sieve, "_simple_prime_array", no_sieving)
        monkeypatch.setattr(sieve, "_sieve_segment", no_sieving)
        with pytest.raises((DomainError, CapacityError)):
            next(sieve.prime_chunks(limit))


def _no_scalar_spf(self, n):
    raise AssertionError(f"scalar spf of {n}")


class TestSpfRounds:
    def test_matches_factorize(self, table):
        ns = np.array(list(range(1, 3000)) + [2**19, 3**12, 720_720, 999_983, 1_000_000], dtype=np.int64)
        got = [[2] if n % 2 == 0 else [] for n in ns.tolist()]
        for rows, s, new in table.spf_rounds(ns):
            assert np.unique(rows[new]).size == np.count_nonzero(new)  # one new factor per row and round
            for r, q in zip(rows[new].tolist(), s[new].tolist()):
                got[r].append(q)
        for n, ps in zip(ns.tolist(), got):
            assert tuple(ps) == table.factorize(n).distinct_primes(), n

    def test_odd_parts_in_the_cells_read_only_cells(self, monkeypatch):
        # n up to the limit, and the even n above it up to 2 limit + 1: every
        # odd part lies in the cells, so no entry takes the scalar path
        t = sieve.SpfTable(1 << 10)
        ns = np.concatenate((np.arange(1, t.limit + 1), np.arange(t.limit + 2, 2 * t.limit + 2, 2)))
        want = [t.factorize(n).distinct_primes() for n in ns.tolist()]
        monkeypatch.setattr(sieve.SpfTable, "_spf", _no_scalar_spf)
        got = [[2] if n % 2 == 0 else [] for n in ns.tolist()]
        for rows, s, new in t.spf_rounds(ns):
            for r, q in zip(rows[new].tolist(), s[new].tolist()):
                got[r].append(q)
        assert list(map(tuple, got)) == want

    def test_only_odd_parts_above_the_limit_take_the_scalar_path(self, monkeypatch):
        # the even n in (2^16, 2^17] have odd parts in the cells; 2^16 + 1 is
        # prime and above the limit, the one entry that needs trial division
        t = sieve.SpfTable(1 << 16)
        ns = np.append(np.arange(t.limit + 2, 2 * t.limit + 1, 2), t.limit + 1)
        calls = []
        scalar = sieve.SpfTable._spf
        monkeypatch.setattr(sieve.SpfTable, "_spf", lambda self, n: calls.append(n) or scalar(self, n))
        got = [tuple(a.tolist() for a in r) for r in t.spf_rounds(ns)]
        assert calls == [t.limit + 1]
        monkeypatch.undo()
        # the same rounds as the cells of a table that covers every n
        assert got == [tuple(a.tolist() for a in r) for r in sieve.SpfTable(2 * t.limit + 1).spf_rounds(ns)]

    def test_empty_and_guard(self, table):
        assert list(table.spf_rounds(np.ones(3, dtype=np.int64))) == []
        assert list(table.spf_rounds(np.array([2**19]))) == []
        with pytest.raises(DomainError):
            next(table.spf_rounds(np.array([0])))
        # the factor range ends at min(limit^2, 2^32 - 1)
        small = sieve.SpfTable(100)
        for t, top in ((table, 2**32 - 1), (small, 10_000)):
            assert t.factor_limit == top
            with pytest.raises(DomainError):
                next(t.spf_rounds(np.array([3, top + 1])))


class TestFactorRange:
    """Above its limit, up to min(limit^2, 2^32 - 1), a table factors by
    trial division by its own primes."""

    def test_2_16_table_to_2_32(self):
        t = sieve.SpfTable(2**16)
        rng = np.random.default_rng(26)
        ns = rng.integers(2**16, 2**32, size=100).tolist() + [2**31, 65521**2, 65521 * 65537, 2**32 - 5, 2**32 - 1]
        want = [trial_pairs(n) for n in ns]
        assert [t.factorize(n).pairs for n in ns] == want
        assert [t.spf(n) for n in ns] == [w[0][0] for w in want]
        got = [[2] if n % 2 == 0 else [] for n in ns]
        for rows, s, new in t.spf_rounds(np.array(ns)):
            for r, q in zip(rows[new].tolist(), s[new].tolist()):
                got[r].append(q)
        assert got == [[p for p, _ in w] for w in want]
        assert t.unitary_cofactors(np.array(ns)).tolist() == [math.prod(p ** (e - 1) for p, e in w) for w in want]

    def test_small_table_to_its_square(self):
        t = sieve.SpfTable(1000)
        ns = [1001, 991 * 997, 999_983, 10**6] + list(range(10**6 - 300, 10**6))
        assert [t.factorize(n).pairs for n in ns] == [trial_pairs(n) for n in ns]
        for query in (t.spf, t.factorize):
            with pytest.raises(DomainError):
                query(10**6 + 1)

    def test_trial_primes_listed_once_per_table(self, monkeypatch):
        calls = []
        listed = sieve.SpfTable._primes

        def recorded(table, lo, hi):
            calls.append((lo, hi))
            return listed(table, lo, hi)

        small, whole = sieve.SpfTable(1000), sieve.SpfTable(10**6)
        ns = np.arange(10**6 - 1999, 10**6, 2)
        monkeypatch.setattr(sieve.SpfTable, "_primes", recorded)
        for _ in range(2):
            got = [tuple(a.tolist() for a in r) for r in small.spf_rounds(ns)]
            assert calls == [(3, 1000)]
        # the same rounds as the cells of a table that covers every n
        assert got == [tuple(a.tolist() for a in r) for r in whole.spf_rounds(ns)]


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
            table.unitary_cofactors(np.array([table.factor_limit + 1]))


class TestArrayPrimality:
    def test_matches_scalar_across_the_limit(self):
        small = sieve.build_spf(1000)
        ns = np.array(list(range(0, 3000)) + [2**61 - 1, 2**64 - 59, 2**64 - 57], dtype=np.uint64)
        assert small.are_prime(ns).tolist() == [small.is_prime(n) for n in ns.tolist()]

    def test_refused_from_2_64(self, table):
        # a Python int past uint64 is refused as is_prime_u64 refuses it, and
        # so is such a modulus in the progression counts
        for ns in ([10**30], [7, 2**64], np.array([2**64 + 13], dtype=object)):
            with pytest.raises(CapacityError, match="below 2\\*\\*64"):
                table.are_prime(ns)
        for qs in ([10**30], [3, 2**64]):
            with pytest.raises(CapacityError):
                sieve.count_primes_in_aps(1000, qs, table)

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

        monkeypatch.setattr(sieve, "_miller_rabin", tested)
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

    def test_primes_in_aps_lists_each_prime_once(self):
        small = sieve.build_spf(1000)
        qs = [1, 2, 3, 7, 499, 500, 1000, 2**63 + 1]
        got = []
        for rows, primes in sieve.primes_in_aps(qs, 5000, small):
            assert rows.size == primes.size and primes.dtype == np.uint64
            got += zip(rows.tolist(), primes.tolist())
        assert got == [(i, p) for i, q in enumerate(qs) for p in naive_primes(5000).tolist() if (p - 1) % q == 0]

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
    def test_chunks_list_every_candidate_once(self, width, monkeypatch):
        monkeypatch.setattr(sieve, "PROGRESSION_CHUNK", width)
        qs = np.array([1, 2, 3, 5, 97, 499, 500, 10**4], dtype=np.uint64)
        ceiling = 2000
        want = [(i, n) for i, q in enumerate(qs.tolist()) for n in range(1 + sieve.progression_step(q), ceiling + 1, sieve.progression_step(q))]
        got = []
        for rows, cands in sieve.progression_candidates(qs, ceiling):
            assert rows.size == cands.size <= width
            assert cands.dtype == np.uint64
            got += zip(rows.tolist(), cands.tolist())
        assert got == want

    def test_moduli_below_1_are_refused(self):
        # 0 would divide by zero; -3 as int64 would wrap to 2**64 - 3
        for qs in (np.array([0, 3]), np.array([-3], dtype=np.int64)):
            with pytest.raises(DomainError):
                list(sieve.progression_candidates(qs, 100))

    def test_near_2_64(self):
        q = 2**62 + 135  # 1 + 2q lies in [2**63, 2**64), 1 + 4q above the ceiling
        chunks = list(sieve.progression_candidates(np.array([q], dtype=np.uint64), 2**64 - 1))
        assert [c.tolist() for _, c in chunks] == [[1 + 2 * q]]
