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
        names = [name for checks in verify.SUITES.values() for name, _ in checks]
        assert len(names) == len(set(names))
        assert all(verify.SUITES.values())

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


@pytest.mark.parametrize("suite", sorted(verify.PROPERTY_SUITES))
def test_property_suite(vctx, suite):
    results = verify.run_suite(suite, vctx)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.seconds:.2f}s) {r.detail}")
    bad = [r for r in results if not r.ok]
    assert not bad, "; ".join(f"{r.name}: {r.detail}" for r in bad)
