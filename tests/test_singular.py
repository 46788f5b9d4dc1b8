import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from primechain import sieve, singular
from primechain.errors import MAX_BYTES, CapacityError, DomainError

# High-precision value of 2 * prod_{p>2} (1 - 1/(p-1)^2), the density
# constant shared by the one-link system (n, 2n+1).
TWIN_CONSTANT = 1.3203236316937390


def xi_by_scan(p, system):
    count = 0
    for n in range(p):
        prod = 1
        for a, b in zip(system.a, system.b):
            prod = prod * ((a * n + b) % p) % p
        if prod == 0:
            count += 1
    return count


def xi_by_python_ints(p, multipliers):
    """xi(p) from the form coefficients in unbounded Python ints."""
    a, b = [1], [0]
    for m in multipliers:
        a.append(a[-1] * m)
        b.append(b[-1] * m + 1)
    return xi_by_scan(p, SimpleNamespace(a=a, b=b))


class TestFormSystem:
    def test_coefficient_recursion(self):
        sys = singular.forms_from_links((2, 4))
        assert sys.k == 3
        assert sys.a == (1, 2, 8)
        assert sys.b == (0, 1, 5)

    def test_single_form(self):
        sys = singular.forms_from_links(())
        assert sys.k == 1
        assert sys.a == (1,) and sys.b == (0,)

    def test_zero_multiplier_admitted(self):
        # Residue-box scans range multipliers over [0, p), so the
        # constructor accepts zeros; only negatives are rejected.
        sys = singular.forms_from_links((0, 2))
        assert sys.a == (1, 0, 0) and sys.b == (0, 1, 3)
        with pytest.raises(DomainError):
            singular.forms_from_links((-1, 2))


class TestXi:
    def test_hand_counts_one_link(self):
        sys = singular.forms_from_links((2,))
        assert singular.xi(2, sys) == 1
        assert singular.xi(3, sys) == 2
        assert singular.xi(5, sys) == 2

    def test_matches_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            k = int(rng.integers(1, 5))
            ms = tuple(int(m) for m in rng.integers(1, 9, size=k - 1))
            sys = singular.forms_from_links(ms)
            for p in (2, 3, 5, 7, 11, 13):
                assert singular.xi(p, sys) == xi_by_scan(p, sys), (p, ms)
        # p above 2^21, where a residue scan would be out of reach: the
        # three roots 0, -1/2 and -(1 + 1_500_001)/(2 * 1_500_001) are distinct
        sys, p = singular.forms_from_links((2, 1_500_001)), 3_000_017
        roots = {-b * pow(a, -1, p) % p for a, b in zip(sys.a, sys.b)}
        assert singular.xi(p, sys) == len(roots) == 3

    @pytest.mark.parametrize(
        "seed, systems, top, primes",
        [(11, 30, 20, (2, 3, 5, 7, 11)), (7, 200, 9, (2, 3, 5, 7, 11, 13, 17, 37))],
        ids=["seed11", "seed7"],
    )
    def test_range(self, seed, systems, top, primes):
        rng = np.random.default_rng(seed)
        for _ in range(systems):
            k = int(rng.integers(1, 6))
            ms = tuple(int(rng.integers(1, top)) for _ in range(k - 1))
            sys = singular.forms_from_links(ms)
            for p in primes:
                x = singular.xi(p, sys)
                degenerate = any(
                    a % p == 0 and b % p == 0 for a, b in zip(sys.a, sys.b)
                )
                if degenerate:
                    assert x == p
                else:
                    assert 1 <= x <= min(sys.k, p)

    def test_roots_at_any_prime(self):
        # O(k) at any prime below 2^64; a composite modulus is refused
        sys = singular.forms_from_links((2, 4))
        assert singular.xi(2**61 - 1, sys) == sys.k
        with pytest.raises(DomainError):
            singular.xi(9, sys)

    def test_obstructed_one_link(self):
        # n and n + 1 cover both residues mod 2
        assert singular.xi(2, singular.forms_from_links((1,))) == 2

    def test_degenerate_form(self):
        # Multipliers (7, 6): third form is 42n + 7, identically 0 mod 7.
        sys = singular.forms_from_links((7, 6))
        assert singular.xi(7, sys) == 7

    def test_generic_prime_shortcut(self):
        # p coprime to the discriminant product must give xi = k.
        sys = singular.forms_from_links((2, 4))
        bigN = singular.discriminant_product(sys)
        for p in (3, 7, 11, 13):
            if bigN % p:
                assert singular.xi(p, sys) == sys.k


class TestDiscriminantProduct:
    def test_values(self):
        assert singular.discriminant_product(singular.forms_from_links((2,))) == 2
        # (2, 4): 2*4 * |1*1-2*0| * |1*5-8*0| * |2*5-8*1| = 8 * 1 * 5 * 2.
        assert singular.discriminant_product(singular.forms_from_links((2, 4))) == 80

    def test_single_form_unit(self):
        assert singular.discriminant_product(singular.forms_from_links(())) == 1


class TestSingularSeries:
    def test_twin_value(self):
        sv = singular.singular_series((2,))
        assert sv.value == pytest.approx(TWIN_CONSTANT, abs=1e-6)
        assert sv.lower <= TWIN_CONSTANT <= sv.upper

    def test_interval_ordering(self):
        sv = singular.singular_series((4, 2), prime_cutoff=10_000)
        assert sv.lower <= sv.value <= sv.upper
        assert sv.value > 0

    def test_vanishing_systems(self):
        # (1 -> n, n+1) and (3 -> n, 3n+1) are blocked mod 2; (2, 4) is
        # blocked mod 3 (its three forms cover all residues).
        assert singular.singular_series((1,), prime_cutoff=1000).value == 0.0
        assert singular.singular_series((3,), prime_cutoff=1000).value == 0.0
        assert singular.singular_series((2, 4), prime_cutoff=1000).value == 0.0

    def test_odd_multiplier_is_zero_before_the_discriminant(self, monkeypatch):
        # an odd m makes xi(2) = 2; the answer comes before N or any prime is sieved
        monkeypatch.setattr(singular, "discriminant_product", None)
        monkeypatch.setattr(singular, "prime_chunks", None)
        for ms in ((3,), (2, 5), (4, 2, 7)):
            sv = singular.singular_series(ms, prime_cutoff=1000)
            assert sv == singular.SingularValue(0.0, 0.0, 0.0, 1000, len(ms) + 1)

    def test_trivial_system_is_one(self):
        sv = singular.singular_series((), prime_cutoff=1000)
        assert sv.value == 1.0

    def test_generic_factor_against_full_scan(self, table):
        # Same product computed without the generic-prime shortcut: scan
        # xi(p) directly at every prime up to the cutoff.
        cutoff = 2000
        for ms in ((2,), (2, 4), (4, 2), (2, 2)):
            sv = singular.singular_series(ms, prime_cutoff=cutoff)
            sys = singular.forms_from_links(ms)
            log_total = 0.0
            vanished = False
            for p in table.primes(2, cutoff).tolist():
                x = xi_by_scan(p, sys)
                if x == p:
                    vanished = True
                    break
                log_total += math.log1p(-x / p) - sys.k * math.log1p(-1.0 / p)
            if vanished:
                assert sv.value == 0.0
            else:
                assert sv.value == pytest.approx(math.exp(log_total), rel=1e-12), ms

    @staticmethod
    def whole_array_series(ms, cutoff):
        """(value, lower, upper) with every prime up to the cutoff in one array:
        the remainders of N and the generic terms taken at once."""
        system = singular.forms_from_links(ms)
        k, big_n = system.k, singular.discriminant_product(system)
        primes = sieve.SpfTable(cutoff).primes()
        rem = np.array([big_n % p for p in primes.tolist()])
        special = primes[rem == 0].tolist()
        log_exact = 0.0
        for p in special:
            x = singular.xi(p, system)
            if x == p:
                return 0.0, 0.0, 0.0
            log_exact += math.log1p(-x / p) - k * math.log1p(-1.0 / p)
        generic = primes[rem != 0].astype(np.float64)
        if generic.size and generic.min() <= k:
            return 0.0, 0.0, 0.0
        log_exact += float(np.sum(np.log1p(-k / generic) - k * np.log1p(-1.0 / generic)))
        residue = big_n
        for p in special:
            while residue % p == 0:
                residue //= p
        unknown = int(math.log(residue) / math.log(cutoff)) + 1 if residue > 1 else 0
        value, P = math.exp(log_exact), float(cutoff)
        tau = k * k / (2.0 * P) / (1.0 - (k + 1) / P)
        lower = value * math.exp(-tau) * (1.0 - k / P) ** unknown
        upper = value * math.exp(tau) * (1.0 - 1.0 / P) ** (-k * unknown)
        return value, lower, upper

    # cutoffs inside the first chunk of the prime stream (2^18 cells, the
    # integers below 2^19), on both sides of its edge and of the first
    # segment's (2^20 cells, 2^21 integers); the primes 524341 and 999983
    # divide N in the second chunk, and (2, 2 * 1000003, 1000002) vanishes
    # first at 1000003, in the second: its fourth form is 0 n + 0 mod 1000003
    @pytest.mark.parametrize(
        "links, cutoff, vanishes",
        [
            ((2,), 262_143, False),
            ((2,), 262_144, False),
            ((2, 6, 10), 524_289, False),
            ((2, 6, 6, 10), 1_000_000, False),
            ((2, 2 * 524_341), 600_000, False),
            ((2 * 999_983,), 1_000_000, False),
            ((2, 2 * 1_000_003, 1_000_002), 1_100_000, True),
            ((2, 4), 1000, True),
            ((2,), 524_287, False),
            ((2, 6, 10), 524_288, False),
            ((2,), 2_097_151, False),
            ((2, 6, 6, 10), 2_097_153, False),
        ],
    )
    def test_chunks_match_one_whole_array(self, links, cutoff, vanishes):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the zero returns come before any log1p(-1)
            sv = singular.singular_series(links, prime_cutoff=cutoff)
        want = self.whole_array_series(links, cutoff)
        assert (sv.value, sv.lower, sv.upper) == want
        assert (sv.value == 0.0) == vanishes

    def test_primes_come_from_the_shared_marking_loop(self, monkeypatch):
        # no factor table: the stream's segments pass through the one
        # marking loop that the table's do, into one reused buffer
        def no_table(*args, **kwargs):
            raise AssertionError("a factor table was built")

        marked = []
        mark = sieve._sieve_segment

        def recorded(seg, lo, base):
            marked.append((lo, seg.size, seg.base))
            mark(seg, lo, base)

        monkeypatch.setattr(sieve.SpfTable, "__init__", no_table)
        monkeypatch.setattr(sieve, "_sieve_segment", recorded)
        w = sieve.SEGMENT_WIDTH
        cutoff = 2 * w + 2001  # two segments, the second of 1001 cells
        sv = singular.singular_series((2,), prime_cutoff=cutoff)
        assert [(lo, size) for lo, size, _ in marked] == [(0, w), (w, 1001)]
        buffer = marked[0][2]
        assert marked[1][2] is buffer and buffer.size == w  # one segment's cells, reused
        assert sv.lower <= TWIN_CONSTANT <= sv.upper

    # 2 * 999983 makes the largest prime below 1e6 divide N, so xi runs there
    @pytest.mark.parametrize("cutoff, links", [(10**6, (2,)), (10**7, (2,)), (10**6, (2 * 999_983,))])
    def test_peak_within_footprint(self, cutoff, links):
        tracemalloc.start()
        try:
            singular.singular_series(links, prime_cutoff=cutoff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= singular._footprint_bytes(cutoff)

    def test_cutoff_ceiling(self, monkeypatch):
        class Allocated(Exception):
            pass

        def allocated(*args, **kwargs):
            raise Allocated

        edge = 1_072_753_319  # the largest cutoff whose terms and the stream's segment and chunks fit
        assert singular._footprint_bytes(edge) <= MAX_BYTES < singular._footprint_bytes(edge + 1)
        assert edge < 2**32  # the stream's limit, and the Horner step's p < 2^32
        assert singular._footprint_bytes(10**8) <= MAX_BYTES
        for name in ("array", "arange", "ones", "zeros", "empty"):
            monkeypatch.setattr(singular.np, name, allocated)
        with pytest.raises(Allocated):
            singular.singular_series((2,), prime_cutoff=edge)
        # refused before the odd-multiplier shortcut answers
        for ms in ((2,), (3,)):
            for cutoff in (edge + 1, 2**40, 10**400, 1e300, math.inf):
                with pytest.raises(CapacityError):
                    singular.singular_series(ms, prime_cutoff=cutoff)
            with pytest.raises(DomainError):
                singular.singular_series(ms, prime_cutoff=math.nan)

    def test_tail_shrinks_with_cutoff(self):
        small = singular.singular_series((2,), prime_cutoff=1000)
        large = singular.singular_series((2,), prime_cutoff=100_000)
        assert (large.upper - large.lower) < (small.upper - small.lower)
        assert small.lower <= large.value <= small.upper

    def test_guards(self):
        with pytest.raises(DomainError):
            singular.singular_series((0,))
        with pytest.raises(DomainError):
            singular.singular_series((2,), prime_cutoff=10)


class TestResidueBox:
    def test_hand_total(self):
        # p = 3, k = 2, one free multiplier: xi totals 1 + 2 + 2 = 5 and
        # the target is 3^2 - 2^2 = 5, so the bound is tight here.
        total, target = singular.rhopm_total(3, 2, (1,))
        assert (total, target) == (5, 5)
        # 25 fixed multipliers: a_26 = 9 * 8 * ... * 6 is far above 2^63,
        # and the exact count is 10 (an int64 recursion wraps and gets 11)
        ms = (9, 8, 5, 3, 3, 6, 7, 8, 7, 7, 8, 10, 3, 5, 8, 7, 10, 9, 7, 3, 9, 7, 2, 5, 6)
        fixed = dict(enumerate(ms, 1))
        assert singular.rhopm_total(11, 26, (), fixed)[0] == xi_by_python_ints(11, ms) == 10
        # fixed values count only mod p, however large
        fixed[1] += 11 * 2**64
        assert singular.rhopm_total(11, 26, (), fixed)[0] == 10

    def test_box_matches_scan(self):
        # each row's xi against the residue scan over unbounded ints
        p, fixed = 13, {2: 7}
        scans = sum(xi_by_python_ints(p, (m1, 7, m3)) for m1 in range(p) for m3 in range(p))
        assert singular.rhopm_total(p, 4, (1, 3), fixed) == (scans, p**3 - (p - 1) ** 3)

    def test_box_memory_is_per_row(self):
        # k = 2: m = 0 leaves the root 0 of n, every other m adds -1/m, so
        # the total is 1 + 2(p - 1) = p^2 - (p - 1)^2; a scan of all p
        # residues per row would take about 16 p^2 bytes (1.6 GB here)
        p = 10_007
        tracemalloc.start()
        try:
            total = singular.rhopm_total(p, 2, (1,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total == (2 * p - 1, 2 * p - 1)
        assert peak < 1 << 16

    def test_no_free_indices(self):
        assert singular.rhopm_check(5, 3, ())

    def test_exhaustive_small(self):
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3, 4):
                idx = tuple(range(1, k))
                for r in range(1 << len(idx)):
                    free = tuple(i for j, i in enumerate(idx) if r >> j & 1)
                    assert singular.rhopm_check(p, k, free), (p, k, free)

    def test_random_fixed_assignments(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = int(rng.choice([2, 3, 5, 7, 11]))
            k = int(rng.integers(2, 5))
            idx = list(range(1, k))
            rng.shuffle(idx)
            cut = int(rng.integers(0, k))
            free = tuple(idx[:cut])
            fixed = {i: int(rng.integers(0, p)) for i in idx[cut:]}
            assert singular.rhopm_check(p, k, free, fixed)

    def test_box_capacity(self):
        with pytest.raises(CapacityError):
            singular.rhopm_check(37, 6, (1, 2, 3, 4, 5))

    def test_guards(self):
        with pytest.raises(DomainError):
            singular.rhopm_check(1, 2, ())
        with pytest.raises(DomainError):
            singular.rhopm_check(3, 2, (2,))
        with pytest.raises(DomainError):
            singular.rhopm_check(5, 3, (1,), {1: 0})
        # rhopm_total shares the validation: no raw IndexError, no result for p < 2
        with pytest.raises(DomainError):
            singular.rhopm_total(3, 2, (2,))
        with pytest.raises(DomainError):
            singular.rhopm_total(1, 2, ())
        with pytest.raises(DomainError):
            singular.rhopm_total(5, 3, (), {1: -1})
        # xi is a count at primes: a composite modulus is refused
        with pytest.raises(DomainError):
            singular.rhopm_total(4, 2, (1,))
