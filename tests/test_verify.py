import re

import pytest

from primechain import verify


class TestRunners:
    def test_acceptance_names_are_stable(self):
        names = verify.acceptance_names()
        assert len(names) == 11
        assert names[0] == "A01-recursion-oracle"
        assert names == sorted(names)

    def test_run_one_unknown(self, vctx):
        with pytest.raises(KeyError):
            verify.run_one("A99-missing", vctx)

    def test_run_suite_unknown(self, vctx):
        with pytest.raises(KeyError):
            verify.run_suite("nonsense", vctx)

    def test_check_result_captures_exception(self, vctx):
        def boom(ctx):
            raise ValueError("exploded")

        res = verify._run_check("demo", boom, vctx)
        assert not res.ok
        assert "exploded" in res.detail
        assert res.seconds >= 0

    def test_check_names_unique_across_suites(self):
        names = [name for name, _ in verify.CHECKS]
        assert len(names) == len(set(names))

    def test_run_one_resolves_property_check(self, vctx):
        res = verify.run_one("rng/distinct-keys", vctx)
        assert res.name == "rng/distinct-keys"
        assert res.ok, res.detail

    def test_property_runner_subset(self, vctx):
        results = verify.run_suite("rng", vctx)
        assert results
        for r in results:
            assert r.name.startswith("rng/")
            assert r.ok, f"{r.name}: {r.detail}"


_ACCEPTANCE = [
    "A01-recursion-oracle",
    "A02-bounds-sweep-1e6",
    "A03-fermat-heights",
    "A04-counting-identities",
    "A05-sifted-matrix",
    "A06-singular-series",
    "A07-brw-expectations",
    "A08-minimum-displacement",
    "A09-z1-tail-bound",
    "A10-dickman-rho",
    "A11-determinism",
]
_MODULE_SUITES = {
    "sieve": ["sieve/l-value-structure", "sieve/progression-count-bound", "sieve/prime-count-crosscheck"],
    "pratt": ["pratt/iterated-totient"],
    "chains": ["chains/monotone-in-x", "chains/length-partition", "chains/ratio-telescoping"],
    "sifted": ["sifted/even-gcd-structure"],
    "singular": ["singular/normalized-size-report"],
    "brw": ["brw/largest-fragment-law"],
    "dickman": ["dickman/positive-log-concave"],
    "rng": ["rng/scalar-oracle", "rng/distinct-keys"],
}
_PROPERTIES = [name for names in _MODULE_SUITES.values() for name in names]


def test_suite_members_are_pinned():
    want = {"all": _ACCEPTANCE + _PROPERTIES, "properties": _PROPERTIES, "acceptance": _ACCEPTANCE, **_MODULE_SUITES}
    assert verify.SUITE_CHOICES == tuple(want)
    for suite, names in want.items():
        assert [name for name, _ in verify._checks(suite)] == names, suite
    # each name says its suite: A01..A11 are the acceptance checks, "module/..." the rest
    assert all(re.fullmatch(r"A\d\d-[a-z0-9-]+", name) for name in _ACCEPTANCE)
    assert all(name.startswith(f"{suite}/") for suite, names in _MODULE_SUITES.items() for name in names)


@pytest.mark.parametrize("suite", sorted(verify.PROPERTY_SUITES))
def test_property_suite(vctx, suite):
    results = verify.run_suite(suite, vctx)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.seconds:.2f}s) {r.detail}")
    bad = [r for r in results if not r.ok]
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)
