import hashlib
import json

import pytest

from primechain import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestPratt:
    def test_known_prime(self, capsys):
        doc = run_json(capsys, "pratt", "--prime", "7")
        assert doc["p"] == 7 and doc["f"] == 4 and doc["H"] == 3 and doc["g"] == 2

    def test_config_embedded(self, capsys):
        doc = run_json(capsys, "pratt", "--prime", "13")
        assert doc["config"]["command"] == "pratt"
        assert doc["config"]["seed"] == 1
        assert doc["config"]["threads"] == 1

    def test_composite_rejected(self, capsys):
        code, out, err = run_cli(capsys, "pratt", "--prime", "9")
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"]["type"] == "DomainError"

    def test_json_is_sorted_with_newline(self, capsys):
        code, out, _ = run_cli(capsys, "pratt", "--prime", "7")
        assert out.endswith("\n")
        keys = list(json.loads(out).keys())
        assert keys == sorted(keys)


class TestHist:
    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "hist", "--limit", "10000", "--stat", "H", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "stat,value,count"
        rows = [line.split(",") for line in lines[2:]]
        hist_rows = [r for r in rows if r[0] == "H"]
        assert sum(int(r[2]) for r in hist_rows) == 1229

    def test_no_carriage_returns(self, capsys):
        _, out, _ = run_cli(capsys, "hist", "--limit", "1000", "--format", "csv")
        assert "\r" not in out

    def test_json_totals(self, capsys):
        doc = run_json(capsys, "hist", "--limit", "100", "--stat", "f")
        assert doc["prime_count"] == 25

    def test_plot_script_requires_csv_file(self, capsys):
        code, out, err = run_cli(
            capsys, "hist", "--limit", "100", "--plot-script", "x.gp"
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_plot_script_written(self, capsys, tmp_path):
        csv_path = tmp_path / "h.csv"
        gp_path = tmp_path / "h.gp"
        code, _, _ = run_cli(
            capsys,
            "hist",
            "--limit",
            "1000",
            "--format",
            "csv",
            "--out",
            str(csv_path),
            "--plot-script",
            str(gp_path),
        )
        assert code == 0
        assert csv_path.exists()
        text = gp_path.read_text()
        assert "skip 2" in text and csv_path.name in text


class TestChains:
    def test_total_and_listing(self, capsys):
        doc = run_json(capsys, "chains", "--start", "2", "--ratio", "5")
        assert doc["total"] == 5
        assert [2, 3, 7] in doc["chains"]
        assert {"base": 2, "multipliers": [1, 2]} in doc["links"]
        assert doc["by_length"] == {"1": 1, "2": 3, "3": 1}

    def test_no_trivial(self, capsys):
        doc = run_json(capsys, "chains", "--start", "7", "--ratio", "10", "--no-trivial")
        assert doc["total"] == 3

    def test_csv_multipliers(self, capsys):
        code, out, _ = run_cli(
            capsys, "chains", "--start", "2", "--ratio", "5", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[1] == "index,length,primes,multipliers"
        assert any("2 3 7" in line for line in lines[2:])


class TestSiftBound:
    def test_keys_and_consistency(self, capsys):
        doc = run_json(capsys, "sift-bound", "--x", "1000", "--y", "5")
        for key in ("x", "y", "r", "phi_r", "s_star", "R", "lambda", "bound"):
            assert key in doc, key
        assert doc["lambda"] <= doc["R"] + 1e-9
        assert doc["r"] == 30 and doc["phi_r"] == 8

    def test_infeasible_is_clean_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sift-bound", "--x", "10", "--y", "2", "--grid", "1"
        )
        assert code == 1
        assert json.loads(err)["error"]["type"] == "InfeasibleError"


class TestSingular:
    def test_twin_value(self, capsys):
        doc = run_json(capsys, "singular", "--links", "2", "--pcut", "100000")
        assert abs(doc["value"] - 1.3203236) < 1e-4
        assert doc["tail_low"] <= doc["value"] <= doc["tail_high"]
        assert doc["k"] == 2

    def test_bad_links(self, capsys):
        code, _, err = run_cli(capsys, "singular", "--links", "0,2")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_malformed_links(self, capsys):
        code, _, err = run_cli(capsys, "singular", "--links", "2,x")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DomainError"


class TestDickman:
    def test_value(self, capsys):
        doc = run_json(capsys, "dickman", "--u", "2.0")
        assert doc["rho"] == pytest.approx(0.30685281944, abs=1e-9)


class TestBrwCommands:
    def test_run_csv_layout(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "brw", "run", "--n", "4", "--cap", "4.0", "--seed", "3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# config:")
        assert "seed=3" in lines[0]
        assert lines[1] == "generation,count,min,censored"
        assert len(lines) == 2 + 5  # generations 0..4

    def test_run_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "brw", "run", "--n", "3", "--cap", "3.0")
        _, b, _ = run_cli(capsys, "brw", "run", "--n", "3", "--cap", "3.0")
        assert a == b

    def test_run_threads_do_not_change_output(self, capsys):
        _, a, _ = run_cli(capsys, "brw", "run", "--n", "3", "--cap", "3.0", "--threads", "1")
        _, b, _ = run_cli(capsys, "brw", "run", "--n", "3", "--cap", "3.0", "--threads", "8")
        a_doc, b_doc = json.loads(a), json.loads(b)
        a_doc["config"].pop("threads")
        b_doc["config"].pop("threads")
        assert a_doc == b_doc

    def test_median_bn(self, capsys):
        doc = run_json(
            capsys, "brw", "median-bn", "--n", "1", "--reps", "4000", "--seed", "5"
        )
        assert abs(doc["median"] - 0.5) < 0.05
        assert doc["replicates"] == 4000
        assert doc["censor_rate"] < 0.1

    def test_teps_histogram(self, capsys):
        doc = run_json(
            capsys, "brw", "teps", "--eps", "0.05", "--reps", "2000", "--seed", "9"
        )
        assert doc["mean"] > 1
        total = sum(count for _, count in doc["histogram"])
        assert total == 2000

    def test_tails_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "brw", "tails", "--n", "4", "--reps", "2000", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("offset,")

    def test_rde(self, capsys):
        doc = run_json(capsys, "brw", "rde", "--pop", "2000", "--iters", "2")
        assert doc["diverged"] is False
        assert len(doc["ks_trace"]) == 2
        assert len(doc["deciles"]) == 11

    @pytest.mark.parametrize(
        "argv",
        [
            ("brw", "median-bn", "--n", "8", "--reps", "100", "--cap", "nan"),
            ("brw", "tails", "--n", "6", "--reps", "100", "--margin", "nan"),
            ("brw", "run", "--n", "4", "--cap", "inf"),
        ],
    )
    def test_non_finite_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"


# SHA-256 of each command's stdout as the unpruned minima path wrote it;
# pruning each replicate to its own bound must not move a byte.
_GOLDEN_MINIMA = [
    (
        ("brw", "median-bn", "--n", "8", "--reps", "300", "--seed", "42"),
        "244c26043d84da789f7d6cadd7aa3a40bcfb19b2991319167ab2c56115c0bde5",
    ),
    (
        ("brw", "tails", "--n", "6", "--reps", "400", "--seed", "9", "--format", "csv"),
        "e15e44981e2786830f1f0badd3b37c3563e3eb1a588e5c3980f0f44e80621504",
    ),
    (
        ("brw", "tails", "--n", "12", "--reps", "20000"),
        "99a0814cd3b7025c0f9bf1fd2787ecac04e6fcf77a73dce0dee2eccc2c5feb64",
    ),
]


@pytest.mark.parametrize("argv, digest", _GOLDEN_MINIMA, ids=["a11-median-bn", "a11-tails", "readme-tails"])
def test_minima_commands_match_golden_bytes(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("PRIMECHAIN_THREADS", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSeedAndThreadsPlumbing:
    def test_env_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIMECHAIN_THREADS", "3")
        doc = run_json(capsys, "pratt", "--prime", "7")
        assert doc["config"]["threads"] == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIMECHAIN_THREADS", "3")
        doc = run_json(capsys, "pratt", "--prime", "7", "--threads", "2")
        assert doc["config"]["threads"] == 2

    def test_bad_env_threads(self, capsys, monkeypatch):
        monkeypatch.setenv("PRIMECHAIN_THREADS", "zero")
        code, _, err = run_cli(capsys, "pratt", "--prime", "7")
        assert code == 1
        assert json.loads(err)["error"]["type"] == "DomainError"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "dickman", "--u", "2.0", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["rho"] == pytest.approx(1 - 0.6931471805599453)

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pratt", "--prime", "7", "--bogus"])
        assert exc.value.code == 2

    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestVerifyCommand:
    def test_property_suite_text(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "rng")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("PASS") for line in lines)
        assert "checks passed" in lines[-1]

    def test_progress_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "rng")
        assert code == 0
        assert err.splitlines() == out.splitlines()[:-1]

    def test_property_suite_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "rng", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert all(item["ok"] for item in doc["results"])
