import hashlib
import json
import time

import pytest

from primechain import brw, cli, errors, pratt, sieve, sifted
from test_pratt import naive_f, naive_g, naive_h, trial_tree


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

    def test_prime_above_1e7(self, capsys):
        p = 10_000_019
        doc = run_json(capsys, "pratt", "--prime", str(p))
        table = sieve.SpfTable(p + 1)
        assert (doc["f"], doc["H"], doc["g"]) == (naive_f(p, table), naive_h(p, table), naive_g(p, table))

    def test_prime_over_memory_ceiling_allocates_nothing(self, capsys, monkeypatch):
        def no_table(limit):
            raise AssertionError("pratt built a table")

        monkeypatch.setattr(cli, "_table", no_table)
        code, out, err = run_cli(capsys, "pratt", "--prime", "1000000000000")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "CapacityError"

    def test_pratt_table_is_2_16_and_hist_keeps_its_ceiling(self, capsys, monkeypatch):
        # hist over the primes up to 400000010 needs about 662 MiB and is
        # refused before its table; pratt --prime 400000009 builds a 2^16 table
        p = 400_000_009
        assert pratt.footprint_bytes(p + 1) > errors.MAX_BYTES
        limits = []
        table = cli._table
        monkeypatch.setattr(cli, "_table", lambda limit: limits.append(limit) or table(limit))
        doc = run_json(capsys, "pratt", "--prime", str(p))
        assert (doc["f"], doc["H"], doc["g"]) == trial_tree(p) and limits == [2**16]
        code, out, err = run_cli(capsys, "hist", "--limit", str(p + 1))
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "CapacityError"
        assert limits == [2**16]

    def test_largest_prime_below_2_32(self, capsys, monkeypatch):
        p = 2**32 - 5
        doc = run_json(capsys, "pratt", "--prime", str(p))
        assert (doc["f"], doc["H"], doc["g"]) == trial_tree(p) == (26, 6, 13)
        monkeypatch.setattr(cli, "_table", None)  # 2^32 is refused before any table
        code, out, err = run_cli(capsys, "pratt", "--prime", str(2**32))
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "CapacityError"


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

    @pytest.mark.parametrize("out_args", [(), ("--out", "h.json")], ids=["stdout", "out-file"])
    def test_plot_script_usage_error_writes_nothing(self, capsys, tmp_path, out_args):
        out_args = tuple(str(tmp_path / a) if a.endswith(".json") else a for a in out_args)
        gp_path = tmp_path / "x.gp"
        code, out, err = run_cli(
            capsys, "hist", "--limit", "100", "--format", "json", *out_args, "--plot-script", str(gp_path)
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "DomainError"
        assert list(tmp_path.iterdir()) == []

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


    def test_limit_over_memory_ceiling_allocates_nothing(self, capsys, monkeypatch):
        def no_table(limit):
            raise AssertionError("hist built a table")

        monkeypatch.setattr(cli, "_table", no_table)
        code, out, err = run_cli(capsys, "hist", "--limit", "1000000000")
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "CapacityError"


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

    def test_y13_lambda_inside_the_row_sum_bracket(self, capsys):
        # a positive matrix's Perron root lies between its least and largest
        # row sums; y = 13 is the largest y whose matrix the command builds
        doc = run_json(capsys, "sift-bound", "--x", "1e6", "--y", "13")
        sums = sifted.build_matrix(13, doc["s_star"]).row_sums()
        assert doc["phi_r"] == sums.size == 5760
        assert sums.min() <= doc["lambda"] <= sums.max()

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

    def test_long_odd_system_answers_at_once(self, capsys):
        # 2,000 ones would give N about a million factors to build and read
        doc = run_json(capsys, "singular", "--links", ",".join(["1"] * 2000))
        assert doc["value"] == 0 and doc["k"] == 2001

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

    def test_run_refused_midway_writes_nothing(self, capsys, monkeypatch):
        # the run draws its generations as the command reads them, so a
        # refusal can come after the first ones have been summarized
        calls = []
        kernel = brw._next_generation

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise errors.CapacityError("a generation passes the ceiling")
            return kernel(*args)

        monkeypatch.setattr(brw, "_next_generation", failing)
        code, out, err = run_cli(capsys, "brw", "run", "--n", "5", "--cap", "4.0")
        assert (code, out, len(calls)) == (1, "", 3)
        assert json.loads(err)["error"]["type"] == "CapacityError"

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

    def test_teps_single_replicate_has_no_standard_error(self, capsys):
        doc = run_json(capsys, "brw", "teps", "--eps", "0.1", "--reps", "1")
        assert doc["se"] is None
        assert sum(count for _, count in doc["histogram"]) == 1

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
        ("chains", "--start", "2", "--ratio", "nan"),
        ("chains", "--start", "2", "--ratio", "inf"),
        ("dickman", "--u", "nan"),
        ("sift-bound", "--x", "nan", "--y", "3"),
        ("brw", "median-bn", "--n", "8", "--reps", "100", "--cap", "nan"),
        ("brw", "tails", "--n", "6", "--reps", "100", "--margin", "nan"),
        ("brw", "run", "--n", "4", "--cap", "inf"),
    ],
)
def test_non_finite_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("sift-bound", "--x", "1000", "--y", "3", "--grid", "-3"), "DomainError"),
        (("sift-bound", "--x", "1000", "--y", "3", "--grid", "0"), "DomainError"),
        (("brw", "run", "--n", "3", "--cap", "2", "--replicate", "-1"), "DomainError"),
        (("singular", "--links", "2", "--pcut", "99999999999"), "CapacityError"),
        (("singular", "--links", "2", "--pcut", "1e400"), "CapacityError"),
        (("hist", "--limit", "1e400"), "CapacityError"),
        (("brw", "rde", "--pop", "100000000000", "--iters", "2"), "CapacityError"),
        (("brw", "teps", "--eps", "1e-300", "--reps", "3"), "CapacityError"),
        (("brw", "teps", "--eps", "0.5", "--reps", "9223372036854775807"), "CapacityError"),
        (("brw", "rde", "--pop", "1000", "--iters", "100000000000000"), "CapacityError"),
        (("chains", "--start", "7", "--ratio", "1", "--max-chains", "0"), "CapacityError"),
        (("chains", "--start", "7", "--ratio", "1", "--max-chains", "-1"), "DomainError"),
        (("brw", "run", "--n", "1", "--cap", "110000"), "CapacityError"),
    ],
    ids=[
        "sift-grid-neg", "sift-grid-0", "run-replicate-neg", "singular-pcut", "singular-huge-pcut", "hist-huge-limit", "rde-pop", "teps-tiny-eps",
        "teps-huge-reps", "rde-huge-iters", "chains-trivial-over-bound", "chains-bound-neg", "run-stick-cap",
    ],
)
def test_bad_input_is_typed_error(capsys, argv, kind):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == kind
    assert len(error["message"]) < 200, error["message"]


def test_chain_length_over_the_candidate_budget_is_refused_at_once(capsys):
    # the first length has 499,999,999 candidates above the 1e6 table,
    # refused before Miller-Rabin tests any of them
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "chains", "--start", "999983", "--ratio", "1e9")
    assert time.perf_counter() - t0 < 2.0
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "CapacityError" and "499999999 candidates" in error["message"]


def test_tail_grid_too_large_is_capacity_error(capsys):
    code, out, err = run_cli(capsys, "brw", "tails", "--n", "6", "--reps", "100", "--grid-max", "1e18")
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "CapacityError"


def _golden_bytes_test(table, ids):
    """One test per (argv, digest) of ``table``: the command exits 0 and the
    SHA-256 of its stdout is ``digest``."""

    @pytest.mark.parametrize("argv, digest", table, ids=ids)
    def test(capsys, argv, digest):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    return test


# SHA-256 of each command's stdout as the per-prime dictionary recursion
# wrote it; the dense block arrays must not move a byte.
_GOLDEN_TREES = [
    (
        ("hist", "--limit", "1000000", "--stat", "f", "--format", "csv"),
        "2426d8e61da95b3c7cbad3e63743c281f3cbdb3ec937b4332316389105de6905",
    ),
    (
        ("hist", "--limit", "1000000", "--stat", "H"),
        "294388761bcd7c709f3d3124e5a8a221c9db401865370243b7289738f5f12b3f",
    ),
    (("pratt", "--prime", "9999991"), "26819957efdee106d4fb8b61839b7f0f105f38f76813ab0ebc9303ed98209f75"),
    (("pratt", "--prime", "65537"), "1a45dfd9e1c41d1e070f38925d19abb36897fd3b1b67ea3e7532a8bde0558835"),
    # recorded on a 1e6 table; these commands now build tables sized to the query
    (
        ("hist", "--limit", "1000", "--stat", "f", "--format", "csv"),
        "cd5a37611cf28f1cd68e5c9d163c87946179a849b89c8fbc4135f80074edefa8",
    ),
    (
        ("hist", "--limit", "20000", "--stat", "H", "--format", "csv"),
        "a5800d9c242d7955c6c5096f26891278a28e06060dead29ec3644e276790c856",
    ),
    (("hist", "--limit", "2"), "a77cb1add7d7b84bd263d8b48d3f9e2662a3625e0bca4edc39d910d780ba360a"),
    (("pratt", "--prime", "7"), "620d2a295d0e6a920436ae471f568bcb42dd87d3f8ad41ba5a9a6f6cd7811dd4"),
]


test_tree_commands_match_golden_bytes = _golden_bytes_test(
    _GOLDEN_TREES,
    [
        "hist-f-csv", "hist-h-json", "pratt-9999991", "pratt-65537",
        "hist-1000-f-csv", "hist-20000-h-csv", "hist-2", "pratt-7",
    ],
)


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


test_minima_commands_match_golden_bytes = _golden_bytes_test(
    _GOLDEN_MINIMA, ["a11-median-bn", "a11-tails", "readme-tails"]
)


# SHA-256 of each command's stdout as the hand-written single-replicate
# loops wrote it; running them through the batched driver must not move a byte.
_GOLDEN_WALK = [
    (
        ("brw", "run", "--n", "8", "--cap", "6.0", "--seed", "3", "--format", "csv"),
        "ef982b5dfd715deb00350db751aa52e07242d41c98f2fd51c072cc21b4c4c2de",
    ),
    (("brw", "run", "--n", "12", "--cap", "17"), "e3ccd99b7b746163ce376e6854fbc8f52c435d3f3ddfd8c20c2f8ff4e666cc2c"),
    (
        ("brw", "teps", "--eps", "0.01", "--reps", "5000"),
        "6fa5de3d361d117696543db7bdc4128380e74432547d1868764b01ca06d4cfc8",
    ),
    (
        ("brw", "teps", "--eps", "1e-4", "--reps", "200", "--seed", "5"),
        "3a8346e8ce82ae8af768333a6ccfcfbff5b0a2ed2737165eafec9bbb0e17a530",
    ),
]


test_walk_commands_match_golden_bytes = _golden_bytes_test(
    _GOLDEN_WALK, ["run-csv", "run-cap-17", "teps-0.01", "teps-1e-4"]
)


# SHA-256 of each command's stdout as the hand-built per-command rows wrote
# it; emitting every handler's (payload, header, rows) through one path
# must not move a byte.  `brw run --cap 3.0` censors its late generations,
# so its CSV carries empty `min` cells.
_GOLDEN_OUTPUTS = [
    (("chains", "--start", "7", "--ratio", "200"), "048421c5363216e80c6d60d217012105af3092e0b2c3cab29c9546c53afe6ae1"),
    (
        ("chains", "--start", "7", "--ratio", "200", "--format", "csv"),
        "bd77b0f625bcd658fbdb4e52b2bd01d526e1b15f3f1dd5d6553559ef28789337",
    ),
    (("sift-bound", "--x", "1e6", "--y", "7"), "5023213fa80a9cb3ec33e2649d407064dce1498f0196e49f189379cad3db921d"),
    (
        ("sift-bound", "--x", "1e6", "--y", "7", "--format", "csv"),
        "074147b323811a728dbfb64670a8b47e3b4995d6a8dc83a4b412330c9b3f8e1d",
    ),
    (("singular", "--links", "2,6"), "3547c0059d88bc49d6a9f33154a58f185ef5669e3eb9a11f7a5208e4deda796f"),
    (
        ("singular", "--links", "2,6", "--format", "csv"),
        "f15d020d3cb455742e13bf720aa3cc76cf8ba93bf05a3e8f3f0dbb32b8bd1935",
    ),
    (("dickman", "--u", "3.5"), "cae2c2f3894e4f5a9d31e37e052ff6400282bb8de70e6755b0c1ae5121640456"),
    (("dickman", "--u", "3.5", "--format", "csv"), "85fc28201f1685bf878d96489f1dbefad9461bc716d8f161d0480af79bbd6fa4"),
    (
        ("brw", "rde", "--pop", "2000", "--iters", "2", "--seed", "7"),
        "7fffb2da7a270f5a13520e5c1605f3b1cc299147ef07cf123eba12aaf83a2469",
    ),
    (
        ("brw", "rde", "--pop", "2000", "--iters", "2", "--seed", "7", "--format", "csv"),
        "fef12c64ed94ce6ff286bc3d4e56e4371f9a23f45eaf3fd716755abfc1eec816",
    ),
    (("brw", "run", "--n", "20", "--cap", "3.0"), "97be29b911b187021f53652e71610d416da0f929c4af6ba58afcd31c59726637"),
    (
        ("brw", "run", "--n", "20", "--cap", "3.0", "--format", "csv"),
        "d37c98521e2810bc6a0a23d1098f8099c7aa686713f9e75ab230c5d734330ded",
    ),
    (("pratt", "--prime", "65537", "--format", "csv"), "f717e9cf11fa42aa04a9f49095d9d786928691d5cf6762412f36a8ce21896398"),
    (
        ("brw", "median-bn", "--n", "8", "--reps", "300", "--seed", "42", "--format", "csv"),
        "68d1aa5b33c91722ad86dcf7e1f62ab5889fa1bd165997002b2f956e292b08d4",
    ),
    (
        ("brw", "teps", "--eps", "0.01", "--reps", "5000", "--format", "csv"),
        "a904342f488ecffcbd13f405c121a9aa4024e94b96be7a06ef3fd3c5a03e48d4",
    ),
]


test_commands_match_golden_bytes = _golden_bytes_test(
    _GOLDEN_OUTPUTS,
    [
        "chains-json", "chains-csv", "sift-bound-json", "sift-bound-csv", "singular-json", "singular-csv",
        "dickman-json", "dickman-csv", "rde-json", "rde-csv", "run-censored-json", "run-censored-csv",
        "pratt-csv", "median-bn-csv", "teps-csv",
    ],
)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize(
    "argv, null_keys",
    [
        (("sift-bound", "--x", "inf", "--y", "3"), ("x", "bound", "suggested_y")),
        (("sift-bound", "--x", "2", "--y", "3"), ("suggested_y",)),
        (("brw", "tails", "--n", "2", "--reps", "30"), ("left_slope",)),
    ],
    ids=["sift-bound-x-inf", "sift-bound-x-2", "tails-n2"],
)
def test_non_finite_values_are_json_null(capsys, argv, null_keys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out, parse_constant=_reject_constant)
    assert all(doc[k] is None for k in null_keys), {k: doc[k] for k in null_keys}


class TestSeedAndThreadsPlumbing:
    def test_threads_above_the_ceiling(self, capsys):
        # refused while the arguments are read; pratt starts no thread even if accepted
        code, _, err = run_cli(capsys, "pratt", "--prime", "7", "--threads", "1000000")
        assert code == 1 and "--threads=1000000" in json.loads(err)["error"]["message"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "dickman", "--u", "2.0", "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["rho"] == pytest.approx(1 - 0.6931471805599453)

    def test_write_error_is_typed_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "dickman", "--u", "2", "--out", str(target))
        assert code == 1 and out == ""
        assert "Traceback" not in err
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError" and str(target) in error["message"]

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

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "nonsense" in err
