"""Property test at the CLI boundary.

Argv is drawn from the README grammar with hostile values (nan, +-inf, 0,
negatives, huge numbers, malformed tokens).  Every run must end in exit 0
with strict JSON on stdout, exit 1 with a JSON error object on stderr and
nothing on stdout, or an argparse usage error (exit 2), and no exception may
escape ``cli.main``.  The parameters that set the amount of work (--reps,
--max-chains, --limit, --pop, --iters, brw run --n, sift-bound --y) are
drawn small, or huge enough to be refused before any work, so the whole test
runs in seconds.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from primechain import cli


def mixed(usual, hostile):
    """Mostly ``usual`` values; one draw in four comes from ``hostile``."""
    return st.integers(0, 3).flatmap(lambda i: hostile if i == 0 else usual)


_JUNK = st.sampled_from(["", "x", "1.5e", "--", "0x10"])
_HOSTILE_FLOATS = st.one_of(st.sampled_from(["nan", "inf", "-inf", "-0.0", "1e300", "-1e300", "1e-300", "5e-324"]), _JUNK)


def floats(lo: float, hi: float):
    return mixed(st.floats(lo, hi).map(repr), _HOSTILE_FLOATS)


FLOATS = floats(-30, 30)
# integer flags also take integral float spellings (1e3, 60.0); 1.5 is refused
INTS = mixed(
    st.one_of(
        st.integers(-20, 60).map(str),
        st.integers(-20, 60).map("{}.0".format),
        st.integers(-2, 6).map("{}e1".format),
    ),
    st.one_of(st.sampled_from(["-7", str(2**63), str(2**64 + 1), str(10**30), "1e3", "1e19", "1.5", "2.5e-1"]), _JUNK),
)


def small(hi: int, *refused: int):
    """A work-sizing integer: small, or one of the ``refused`` values that a
    guard turns away before any work."""
    return mixed(st.integers(-2, hi).map(str), st.sampled_from([str(v) for v in refused] or ["-1"]))


def opt(flag: str, values):
    """Either nothing or ``[flag, value]``."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def command(words, *parts):
    """``words`` followed by the tokens each part draws."""
    return st.tuples(*parts).map(lambda drawn: list(words) + [tok for part in drawn for tok in part])


def req(flag: str, values):
    """``[flag, value]``, always present."""
    return values.map(lambda v: [flag, v])


_FLAG = st.sampled_from([[], ["--no-trivial"]])
_Y = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "7", "11", str(2**63)])
_LINKS = st.one_of(st.lists(st.integers(-2, 12).map(str), max_size=4).map(",".join), _JUNK, st.just("9" * 25))
_PCUT = st.one_of(st.integers(-5, 20_000).map(str), st.sampled_from(["99", str(10**12), str(2**63)]))
_STAT = st.sampled_from(["H", "f", "g"])
_REPS = small(20, 10**15, 2**63 - 1, 2**63)

ARGV = st.one_of(
    command(["pratt"], req("--prime", INTS)),
    command(["hist"], req("--limit", st.one_of(small(3000, 10**12, 2**63), st.sampled_from(["2e3", "1e12"]))), opt("--stat", _STAT)),
    command(["chains"], req("--start", INTS), req("--ratio", FLOATS), opt("--max-chains", small(50, 10**12)), _FLAG),
    command(["sift-bound"], req("--x", FLOATS), req("--y", _Y), opt("--grid", small(64, 10**12, 2**63))),
    command(["singular"], req("--links", _LINKS), opt("--pcut", _PCUT)),
    command(["dickman"], req("--u", FLOATS)),
    # A walk's cost grows like e^cap, so caps, margins and eps are drawn
    # where a run takes milliseconds; larger ones are either refused by the
    # memory ceiling or are long but legitimate jobs.
    command(["brw", "run"], req("--n", small(30, 10**30)), req("--cap", floats(-2, 10)), opt("--replicate", INTS)),
    command(
        ["brw", "median-bn"],
        req("--n", small(20, 10**30, 2**63)),
        req("--reps", _REPS),
        opt("--margin", floats(-30, 4)),
        opt("--cap", floats(-2, 10)),
    ),
    command(
        ["brw", "tails"],
        req("--n", small(20, 10**30, 2**63)),
        req("--reps", _REPS),
        opt("--margin", floats(-30, 4)),
        opt("--grid-step", FLOATS),
        opt("--grid-max", FLOATS),
    ),
    command(["brw", "teps"], req("--eps", floats(-1, 2)), req("--reps", _REPS), opt("--max-gen", small(60, 10**30))),
    command(
        ["brw", "rde"],
        req("--pop", st.sampled_from(["-1", "0", "999", "1000", "1500", str(10**12)])),
        req("--iters", small(3, 10**14, 2**63 - 1)),
    ),
)
COMMON = st.tuples(
    opt("--format", mixed(st.sampled_from(["json", "csv"]), st.just("text"))),
    opt("--seed", INTS),
    opt("--threads", mixed(st.sampled_from(["1", "2"]), st.sampled_from(["-1", "0", "x"]))),
)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def run(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_integral_float_spellings_print_the_same_bytes():
    spelled = run(["hist", "--limit", "1e3", "--format", "csv"])
    assert spelled[0] == 0
    assert spelled == run(["hist", "--limit", "1000", "--format", "csv"])


def test_other_spellings_are_usage_errors():
    for token in ("1.5", "1e-3", "nan", "inf", "-inf", "1e", "0x10", "1e99999999"):
        code, out, err = run(["hist", f"--limit={token}"])
        assert code == 2 and out == "" and "invalid int value" in err, token


@settings(max_examples=400, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=ARGV, common=COMMON)
def test_every_argv_ends_in_a_result_or_a_typed_error(argv, common):
    argv = argv + [tok for part in common for tok in part]
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 0 and "csv" not in argv:
        json.loads(out, parse_constant=_reject_constant)
    if code == 1:
        assert out == "", argv
        error = json.loads(err)["error"]
        assert set(error) == {"type", "message"}, argv
