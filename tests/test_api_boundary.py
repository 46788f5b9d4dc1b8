"""Property test at the library boundary.

Every public callable of the eight library modules (functions, classes and
the public methods of those classes) is called with drawn arguments: ints,
floats, nan, +-inf, 10**30, 2**64 and numpy scalars, and for array
arguments lists and arrays of them.  Each call must end in a result or a
``PrimechainError``; a generator counts as ended after its first chunks.
The arguments that set the amount of work (table limits, replicates,
populations, cutoffs, walk caps) are drawn small, or huge enough to be
refused before any work, and the module constants that set it are drawn at
their defaults or small, so the whole test runs in seconds.  A value
that is not a number (None, a string) is a TypeError by design and is not
drawn, and neither is a thread count above 2, which would start threads.
``mix64`` and ``to_unit`` hash uint64 words, not numbers, so they are
drawn any uint64 array.  ``test_every_public_callable_has_a_strategy``
fails when a public callable is added without a strategy here.

The named cases below each failed at the commit before the shared checks
of ``primechain.errors``: an untyped error, a spin, or a silent answer.
"""

import inspect
import itertools
import math
import time
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primechain import brw, chains, dickman, pratt, rng, sieve, sifted, singular
from primechain.errors import CapacityError, DomainError, PrimechainError

MODULES = (sieve, pratt, chains, sifted, singular, brw, dickman, rng)

TABLE = sieve.SpfTable(1000)
TABLE16 = sieve.SpfTable(1 << 16)
DAG = pratt.PrattDag(TABLE)
MASS = pratt.MassProducts(TABLE, DAG)
STATS = pratt.range_stats(1000, TABLE, DAG)
FACTORS = TABLE.factorize(720)
ENUM = chains.enumerate_from(2, 100.0, TABLE)
MATRIX = sifted.build_matrix(3, 2.0)
TWIN = singular.forms_from_links((2,))
RHO = dickman.RhoTable(step=2.0**-5, u_max=6.0)


def mixed(usual, hostile):
    """Mostly ``usual`` values; one draw in three comes from ``hostile``."""
    return st.integers(0, 2).flatmap(lambda i: hostile if i == 0 else usual)


def as_numpy(values):
    """Each value, or one time in two its numpy scalar (int64 or float64)."""
    return values.flatmap(lambda v: st.sampled_from([v, _numpy_scalar(v)]))


def _numpy_scalar(v):
    if isinstance(v, float):
        return np.float64(v)
    return np.int64(v) if -(2**63) <= v < 2**63 else v


_NUMPY = [np.int64(7), np.uint64(2**64 - 1), np.int32(-3), np.uint8(7), np.float64(2.5), np.float32(1.5), np.float64(math.nan)]
HOSTILE = st.sampled_from(
    [math.nan, math.inf, -math.inf, 10**30, -(10**30), 2**63, 2**64, 2**64 + 13, 1e300, -1e300, 7.0, 2.5, -0.0, 5e-324, 0, -1, *_NUMPY]
)
HUGE = st.sampled_from([10**30, 2**63, 2**64, 10**12, 1e300, math.inf])


def ints(lo: int, hi: int):
    """An integer argument: usually in [lo, hi], as int or numpy int."""
    return mixed(as_numpy(st.integers(lo, hi)), HOSTILE)


def reals(lo: float, hi: float):
    """A real argument: usually in [lo, hi], as int, float or numpy float."""
    return mixed(as_numpy(st.one_of(st.floats(lo, hi), st.integers(math.ceil(lo), math.floor(hi)))), HOSTILE)


def work(hi: int):
    """A work-sizing integer: small, or huge enough to be refused first."""
    return mixed(as_numpy(st.integers(-2, hi)), st.one_of(HOSTILE, HUGE))


def seqs(values, max_size: int = 4):
    """A tuple of ``values`` or an array built from one."""
    return st.lists(values, max_size=max_size).flatmap(lambda xs: st.sampled_from([tuple(xs), _array(xs)]))


def _array(xs):
    try:
        return np.array(xs)
    except (OverflowError, ValueError):  # numpy cannot hold the mix; the tuple is drawn instead
        return tuple(xs)


NUM = ints(-50, 1100)
PRIME = mixed(st.sampled_from([2, 3, 5, 7, 11, 13, 97, 101, 997, 65537, 1_000_003]), st.one_of(HOSTILE, st.sampled_from([4, 1, 2**61 - 1, 4294967291])))
CAP = reals(-2.0, 4.0)
WORDS = st.lists(st.integers(0, 2**64 - 1), max_size=5).map(lambda xs: np.array(xs, dtype=np.uint64))
CFG = st.builds(
    brw.RunConfig,
    seed=mixed(as_numpy(st.integers(-(2**70), 2**70)), HOSTILE),
    replicates=mixed(st.integers(1, 20), st.sampled_from([0, -1, 2.5, math.nan, np.int64(5), 2**63])),
    threads=mixed(st.sampled_from([1, 2, np.int64(1)]), st.sampled_from([0, -1, 1.5, math.nan])),
)
# case-name prefix -> (drawn values, the module constants set to one): None
# keeps the defaults; small values make a walk run many batches (in every
# layout) and a progression many chunks, and cap chains_ending_at's chains
# and link_series_direct's terms.
CONSTANTS = {
    "brw.": (st.sampled_from([None, 5_000, 50]), [(brw, "_CACHE_ROWS"), (brw, "_EXACT_ROWS")]),
    "sieve.progression_candidates": (st.sampled_from([None, 1, 7, 1000]), [(sieve, "PROGRESSION_CHUNK")]),
    "chains.chains_ending_at": (st.sampled_from([None, 0, 1, 50]), [(chains, "_ENDING_CAP")]),
    "sifted.link_series_direct": (st.sampled_from([None, 1, 1000]), [(sifted, "_DIRECT_TERMS")]),
}


# name -> (callable, strategies of its positional arguments)
CASES = {
    # sieve
    "sieve.is_prime_u64": (sieve.is_prime_u64, NUM),
    "sieve.table_bytes": (sieve.table_bytes, NUM),
    "sieve.prime_count_bound": (sieve.prime_count_bound, reals(-10, 1e6)),
    "sieve.Factorization": (sieve.Factorization, NUM, st.just(((2, 1),))),
    "sieve.Factorization.distinct_primes": (FACTORS.distinct_primes,),
    "sieve.Factorization.largest_prime_factor": (FACTORS.largest_prime_factor,),
    "sieve.Factorization.totient": (FACTORS.totient,),
    "sieve.Factorization.radical": (FACTORS.radical,),
    "sieve.Factorization.unitary_cofactor": (FACTORS.unitary_cofactor,),
    "sieve.prime_chunks": (sieve.prime_chunks, work(5000)),
    "sieve.SpfTable": (sieve.SpfTable, work(5000)),
    "sieve.SpfTable.spf": (TABLE.spf, NUM),
    "sieve.SpfTable.is_prime": (TABLE.is_prime, NUM),
    "sieve.SpfTable.are_prime": (TABLE.are_prime, seqs(NUM)),
    "sieve.SpfTable.factorize": (TABLE.factorize, NUM),
    "sieve.SpfTable.spf_rounds": (TABLE.spf_rounds, seqs(NUM)),
    "sieve.SpfTable.unitary_cofactors": (TABLE.unitary_cofactors, seqs(NUM)),
    "sieve.SpfTable.primes": (TABLE.primes, NUM, NUM),
    "sieve.SpfTable.prime_count": (TABLE.prime_count, NUM),
    "sieve.build_spf": (sieve.build_spf, work(5000)),
    "sieve.progression_step": (sieve.progression_step, st.one_of(NUM, seqs(NUM))),
    "sieve.progression_candidates": (sieve.progression_candidates, seqs(NUM), work(10**6)),
    "sieve.primes_in_aps": (sieve.primes_in_aps, seqs(NUM), work(5000), st.just(TABLE)),
    "sieve.count_primes_in_aps": (sieve.count_primes_in_aps, work(5000), seqs(NUM), st.just(TABLE)),
    # pratt
    "pratt.footprint_bytes": (pratt.footprint_bytes, work(10**6)),
    "pratt.tree_primes": (pratt.tree_primes, PRIME, st.sampled_from([TABLE, TABLE16])),
    "pratt.PrattDag": (pratt.PrattDag, st.just(TABLE), st.one_of(st.none(), seqs(PRIME), st.just([2, 3, 7, 43]))),
    "pratt.PrattDag.upto": (pratt.PrattDag.upto, st.just(TABLE), work(1000)),
    "pratt.PrattDag.values": (DAG.values, NUM),
    "pratt.PrattDag.children": (DAG.children, PRIME),
    "pratt.PrattDag.f_of": (DAG.f_of, PRIME),
    "pratt.PrattDag.h_of": (DAG.h_of, PRIME),
    "pratt.PrattDag.g_of": (DAG.g_of, PRIME),
    "pratt.PrattDag.level_counts": (DAG.level_counts, PRIME),
    "pratt.is_fermat_prime": (pratt.is_fermat_prime, st.one_of(NUM, st.sampled_from([65537, 2**32 + 1, 2**64 + 1]))),
    "pratt.RangeStats": (pratt.RangeStats, *[NUM] * 9),
    "pratt.RangeStats.rows": (STATS.rows, st.sampled_from(["H", "f", "g"])),
    "pratt.range_stats": (pratt.range_stats, work(1000), st.just(TABLE)),
    "pratt.MassProducts": (pratt.MassProducts, st.just(TABLE), st.just(DAG)),
    "pratt.MassProducts.den": (MASS.den, PRIME),
    "pratt.MassProducts.num": (MASS.num, PRIME),
    "pratt.MassProducts.lprod": (MASS.lprod, PRIME),
    "pratt.MassProducts.mass_identity_holds": (MASS.mass_identity_holds, PRIME),
    "pratt.phi_iterate": (pratt.phi_iterate, NUM, work(50), st.just(TABLE)),
    "pratt.phi_iter_stats": (pratt.phi_iter_stats, NUM, work(50), reals(-1, 2), st.just(TABLE)),
    "pratt.linnik_chain": (pratt.linnik_chain, work(8), st.just(TABLE)),
    # chains
    "chains.ChainRecord": (chains.ChainRecord, seqs(PRIME).map(tuple)),
    "chains.LinkVector": (chains.LinkVector, PRIME, seqs(NUM).map(tuple)),
    "chains.ChainEnumeration": (chains.ChainEnumeration, NUM, reals(0, 10)),
    "chains.ChainEnumeration.counts_by_length": (ENUM.counts_by_length,),
    "chains.enumerate_from": (chains.enumerate_from, PRIME, reals(-1, 300), st.just(TABLE), work(50), st.booleans()),
    "chains.chains_ending_at": (chains.chains_ending_at, PRIME, st.just(TABLE)),
    "chains.f_oracle": (chains.f_oracle, PRIME, st.just(TABLE)),
    "chains.g_oracle": (chains.g_oracle, PRIME, st.just(TABLE)),
    "chains.link_vector": (chains.link_vector, seqs(PRIME).map(tuple)),
    "chains.rebuild": (lambda base, ms: chains.rebuild(chains.LinkVector(base, ms), TABLE), PRIME, seqs(NUM).map(tuple)),
    "chains.n_identity_check": (chains.n_identity_check, work(1000), st.just(TABLE)),
    # sifted
    "sifted.hurwitz_zeta": (sifted.hurwitz_zeta, reals(0.5, 6), st.one_of(reals(-1, 10), seqs(reals(-1, 10)))),
    "sifted.euler_factor_tail": (sifted.euler_factor_tail, reals(0.5, 6), ints(0, 30)),
    "sifted.ResidueMatrix": (sifted.ResidueMatrix, NUM, reals(0, 3), NUM, *[st.just(np.zeros(0))] * 3, reals(0, 3)),
    "sifted.ResidueMatrix.rows": (MATRIX.rows, ints(-3, 10), ints(-3, 10)),
    "sifted.ResidueMatrix.blocks": (MATRIX.blocks,),
    "sifted.ResidueMatrix.row_sums": (MATRIX.row_sums,),
    "sifted.ResidueMatrix.row_sum_closed_form": (MATRIX.row_sum_closed_form, NUM),
    "sifted.build_matrix": (sifted.build_matrix, ints(0, 20), reals(0.5, 6)),
    "sifted.link_series_direct": (sifted.link_series_direct, NUM, NUM, ints(0, 8), reals(0.5, 6)),
    "sifted.max_row_sum_value": (sifted.max_row_sum_value, ints(0, 20), reals(0.5, 6)),
    "sifted.perron_eigenvalue": (sifted.perron_eigenvalue, st.sampled_from([MATRIX, sifted.build_matrix(2, 1.5)])),
    "sifted.ChainCountBound": (sifted.ChainCountBound, *[NUM] * 9),
    "sifted.chain_count_bound": (sifted.chain_count_bound, reals(-1, 1e6), ints(0, 20), work(64)),
    # singular
    "singular.FormSystem": (singular.FormSystem, seqs(NUM).map(tuple), st.just((1,)), st.just((0,))),
    "singular.forms_from_links": (singular.forms_from_links, seqs(NUM)),
    "singular.xi": (singular.xi, PRIME, st.sampled_from([TWIN, singular.forms_from_links((7, 6)), singular.forms_from_links(())])),
    "singular.discriminant_product": (singular.discriminant_product, st.sampled_from([TWIN, singular.forms_from_links((0, 2))])),
    "singular.SingularValue": (singular.SingularValue, *[NUM] * 5),
    "singular.singular_series": (singular.singular_series, seqs(ints(-2, 12)), work(20_000)),
    "singular.rhopm_total": (singular.rhopm_total, PRIME, work(5), seqs(ints(-1, 5)), st.dictionaries(ints(-1, 5), NUM, max_size=3)),
    "singular.rhopm_check": (singular.rhopm_check, PRIME, work(5), seqs(ints(-1, 5))),
    # brw
    "brw.RunConfig": (brw.RunConfig, NUM, work(20), ints(1, 2)),
    "brw.lpd_offsets_from_uniforms": (brw.lpd_offsets_from_uniforms, st.lists(reals(0, 1), max_size=6), CAP),
    "brw.sample_lpd_offsets": (brw.sample_lpd_offsets, NUM, CAP),
    "brw.simulate_run": (brw.simulate_run, work(6), CAP, CFG, work(100)),
    "brw.replicate_z_counts": (brw.replicate_z_counts, work(6), CAP, CFG),
    "brw.mean_and_se": (brw.mean_and_se, seqs(reals(-1e30, 1e30))),
    "brw.estimate_mean_z": (brw.estimate_mean_z, work(6), CAP, CFG),
    "brw.predicted_median_bn": (brw.predicted_median_bn, st.one_of(NUM, st.just(10**400))),
    "brw.replicate_minima": (brw.replicate_minima, work(6), CFG, CAP),
    "brw.MedianEstimate": (brw.MedianEstimate, *[NUM] * 6),
    "brw.median_bn_detail": (brw.median_bn_detail, work(6), CFG, reals(-30, 2), st.one_of(st.none(), CAP)),
    "brw.wilson_interval": (brw.wilson_interval, ints(-2, 30), ints(-2, 30)),
    "brw.TailEstimate": (brw.TailEstimate, *[NUM] * 11),
    "brw.estimate_tails": (brw.estimate_tails, work(6), CFG, reals(-30, 2), reals(-1, 2), reals(-1, 5)),
    "brw.replicate_t_epsilon": (brw.replicate_t_epsilon, reals(1e-3, 1.5), CFG, work(60)),
    "brw.estimate_mean_t_epsilon": (brw.estimate_mean_t_epsilon, reals(1e-3, 1.5), CFG),
    "brw.ks_distance": (brw.ks_distance, seqs(reals(-1e30, 1e30)), seqs(reals(-1e30, 1e30))),
    "brw.RdeResult": (brw.RdeResult, *[NUM] * 4),
    "brw.rde_iterate": (brw.rde_iterate, st.sampled_from([999, 1000, 1500, 1000.5, 10**12, math.nan, np.int64(1000)]), work(2), CFG),
    # dickman
    "dickman.RhoTable": (dickman.RhoTable, st.one_of(st.sampled_from([2.0**-3, 2.0**-5, 0.1, 2.0**-20]), HOSTILE), reals(-1, 10)),
    "dickman.RhoTable.rho": (RHO.rho, reals(-1, 8)),
    "dickman.default_table": (dickman.default_table,),
    "dickman.rho": (dickman.rho, reals(-1, 25)),
    "dickman.rho_independent": (dickman.rho_independent, reals(-1, 6), st.one_of(st.sampled_from([1e-6, 1e-8]), HOSTILE)),
    "dickman.rho_n_asymptotic": (dickman.rho_n_asymptotic, work(6), st.one_of(reals(-5, 1e7), st.just(3814279.1047602205))),
    # rng
    "rng.mix64": (rng.mix64, WORDS),
    "rng.mix64_int": (rng.mix64_int, NUM),
    "rng.stream_draw": (rng.stream_draw, WORDS, NUM),
    "rng.to_unit": (rng.to_unit, WORDS),
    "rng.replicate_keys": (rng.replicate_keys, NUM, NUM, work(100)),
    "rng.uniform_stream": (rng.uniform_stream, NUM),
}


def public_callables() -> set[str]:
    """module.name, and module.Class.method, of every public callable."""
    names = set()
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            names.add(f"{short}.{name}")
            if inspect.isclass(obj):
                names.update(
                    f"{short}.{name}.{attr}"
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_") and isinstance(member, (types.FunctionType, classmethod))
                )
    return names


def settle(result):
    """Run a generator's first chunks, where a lazy call does its work."""
    if isinstance(result, types.GeneratorType):
        list(itertools.islice(result, 3))


def test_every_public_callable_has_a_strategy():
    assert public_callables() == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=15, deadline=None, derandomize=True, database=None, suppress_health_check=list(HealthCheck))
@given(data=st.data())
def test_every_call_ends_in_a_result_or_a_typed_error(name, data):
    fn, *strategies = CASES[name]
    with pytest.MonkeyPatch.context() as m:
        for prefix, (values, targets) in CONSTANTS.items():
            if name.startswith(prefix) and (value := data.draw(values)) is not None:
                for module, attr in targets:
                    m.setattr(module, attr, value)
        try:
            args = [data.draw(s) for s in strategies]
            settle(fn(*args))
        except PrimechainError:
            pass


def _same(value):
    return lambda result: result == value


# name -> (call, DomainError/CapacityError, such an error and a pattern its
# message must match, or a check of the result)
NAMED = {
    "xi-numpy-prime": (lambda: singular.xi(np.int64(5), TWIN), _same(singular.xi(5, TWIN))),
    "rhopm-numpy-prime": (lambda: singular.rhopm_total(np.int64(5), 3, (1,)), _same(singular.rhopm_total(5, 3, (1,)))),
    "runconfig-numpy-seed": (
        lambda: [a.tolist() for a in brw.simulate_run(3, 2.0, brw.RunConfig(seed=np.int64(5)))],
        _same([a.tolist() for a in brw.simulate_run(3, 2.0, brw.RunConfig(seed=5))]),
    ),
    "prattdag-entry-past-2-64": (lambda: pratt.PrattDag(TABLE, [2, 10**30]), CapacityError),
    "are-prime-list-past-2-63": (lambda: TABLE.are_prime([5, 2**64 - 59]).tolist(), _same([True, True])),
    "f-of-float": (lambda: DAG.f_of(7.0), DomainError),
    "tree-primes-float": (lambda: pratt.tree_primes(7.0, TABLE), DomainError),
    "is-prime-float": (lambda: TABLE.is_prime(7.0), DomainError),
    "spftable-nan": (lambda: sieve.SpfTable(math.nan), DomainError),
    "singular-series-nan": (lambda: singular.singular_series((math.nan,)), DomainError),
    "simulate-run-float-n": (lambda: brw.simulate_run(2.5, 3.0, brw.RunConfig()), DomainError),
    "rde-float-population": (lambda: brw.rde_iterate(1000.5, 1, brw.RunConfig()), DomainError),
    "link-series-s-1": (lambda: sifted.link_series_direct(1, 1, 3, 1.0), DomainError),
    "max-row-sum-huge-s": (lambda: sifted.max_row_sum_value(5, 1e4), DomainError),
    "wilson-negative-successes": (lambda: brw.wilson_interval(-1, 10), DomainError),
    "hurwitz-tiny-a": (lambda: sifted.hurwitz_zeta(2, 1e-320), DomainError),
    "hurwitz-infinite-s": (lambda: sifted.hurwitz_zeta(math.inf, 1), DomainError),
    "ks-empty-sample": (lambda: brw.ks_distance([], [1.0]), DomainError),
    "mean-empty-sample": (lambda: brw.mean_and_se(np.array([])), DomainError),
    # silent truncation: 2.5 used to give the twin-prime system of (2,)
    "forms-truncate": (lambda: singular.forms_from_links((2.5,)), DomainError),
    "singular-series-truncate": (lambda: singular.singular_series((2.5,)), DomainError),
    "runconfig-threads-truncate": (lambda: brw.RunConfig(threads=1.5), DomainError),
    "enumerate-bound-truncate": (lambda: chains.enumerate_from(7, 10.0, TABLE, bound=1.5), DomainError),
    # a bad cutoff's refusal named a helper's parameter ("limit", "x")
    "singular-series-float-cutoff": (lambda: singular.singular_series((2,), 7.5), (DomainError, "prime cutoff")),
    "singular-series-nan-cutoff": (lambda: singular.singular_series((2,), math.nan), (DomainError, "prime cutoff")),
    # an int past the floats under an infinite bound: a raw OverflowError
    "chain-count-bound-int-past-floats": (lambda: sifted.chain_count_bound(10**400, 7).bound, _same(math.inf)),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case(name):
    call, expected = NAMED[name]
    error, match = expected if isinstance(expected, tuple) else (expected, None)
    if isinstance(error, type):
        with pytest.raises(error, match=match):
            call()
    else:
        assert expected(call())


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the guard")


def test_work_guards_count_the_loop_before_any_work(monkeypatch):
    # p^F = 5 boxes, but of 2^63 - 1 multipliers each
    monkeypatch.setattr(singular, "_root_count", _no_work)
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        singular.rhopm_total(5, 2**63 - 1, (1,))
    assert time.perf_counter() - start < 1.0
