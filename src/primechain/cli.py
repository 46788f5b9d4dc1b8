"""Command-line front end.

Every command resolves its configuration (flags, seed, thread count),
embeds it in the emitted artifact, and writes deterministic bytes: JSON
with sorted keys and a trailing newline, or CSV with a header row, LF
endings, and floats at 12 significant digits.  Deliberate failures
(domain, capacity, censoring) exit 1 with a machine-readable error JSON
on stderr; argparse usage errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import decimal
import json
import math
import sys

import numpy as np

from . import brw, chains, dickman, pratt, sieve, sifted, singular, verify
from .brw import RunConfig
from .errors import CapacityError, DomainError, PrimechainError, as_int, check_bytes

_STDOUT = "-"


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _pyify(obj):
    """Recursively convert numpy containers/scalars for json emission;
    non-finite floats become null, since JSON has no token for them."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_text(path: str, text: str) -> None:
    if path == _STDOUT:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _config_dict(args) -> dict:
    skip = {"func", "command", "brw_command", "format", "out"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg["command"] = " ".join(filter(None, (args.command, getattr(args, "brw_command", None))))
    return cfg


def _emit_json(args, payload: dict) -> None:
    body = dict(payload)
    body["config"] = _config_dict(args)
    _write_text(args.out, json.dumps(_pyify(body), sort_keys=True, allow_nan=False) + "\n")


def _emit(args, payload: dict, header: list[str], rows: list[list]) -> None:
    """Write a handler's result: the payload as JSON, or the rows as CSV
    (then hist's gnuplot companion script, if asked for)."""
    if args.format == "json":
        _emit_json(args, payload)
        return
    config = _config_dict(args)
    cfg_line = "# config: " + " ".join(f"{k}={_fmt_cell(v)}" for k, v in sorted(config.items()))
    lines = [cfg_line, ",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    _write_text(args.out, "\n".join(lines) + "\n")
    if getattr(args, "plot_script", None):
        _write_text(args.plot_script, _GNUPLOT_TEMPLATE.format(script=args.plot_script, data=args.out))


def _kv(payload: dict, *skip: str) -> tuple[dict, list[str], list[list]]:
    """A payload with its key,value rows in key order, leaving out ``skip``."""
    return payload, ["key", "value"], [[k, payload[k]] for k in sorted(payload) if k not in skip]


def _table(limit: int = 10**6) -> sieve.SpfTable:
    """The factor table a command builds; uncached, as a process runs one command."""
    return sieve.SpfTable(limit)


# ---------------------------------------------------------------------------
# command handlers: each but verify returns (payload, header, rows) for _emit


def _cmd_pratt(args):
    p = args.prime
    if p >= 1 << 32:
        raise CapacityError(f"--prime {p} is not below 2**32, where a 2**16 table factors every p - 1")
    table = _table(1 << 16)
    dag = pratt.PrattDag(table, pratt.tree_primes(p, table))
    return _kv({"p": p, "f": dag.f_of(p), "H": dag.h_of(p), "g": dag.g_of(p)})


_GNUPLOT_TEMPLATE = """# gnuplot companion script; run: gnuplot -p {script}
set datafile separator ','
set key off
set xlabel 'value'
set ylabel 'count'
set boxwidth 0.8
set style fill solid 0.5
plot '{data}' skip 2 using 2:3 with boxes
"""


def _cmd_hist(args):
    if args.plot_script and (args.out == _STDOUT or args.format != "csv"):
        raise DomainError("--plot-script needs --format csv with --out FILE")
    # the table and PrattDag fill admit --limit up to 305,361,297; 1e8 peaks at ~204 MiB RSS
    check_bytes(pratt.footprint_bytes(args.limit), f"--limit {args.limit}'s tables")
    table = _table(args.limit)
    stats = pratt.range_stats(args.limit, table)
    rows = [list(r) for r in stats.rows(args.stat)]
    payload = {
        "stat": args.stat,
        "limit": args.limit,
        "prime_count": stats.prime_count,
        "node_total": stats.n_total,
        "max_h": stats.max_h,
        "max_h_prime": stats.max_h_prime,
        "max_f": stats.max_f,
        "max_f_prime": stats.max_f_prime,
        "rows": rows,
    }
    return payload, ["stat", "value", "count"], rows


def _cmd_chains(args):
    table = _table()
    enum = chains.enumerate_from(
        args.start,
        args.ratio,
        table,
        bound=args.max_chains,
        include_trivial=not args.no_trivial,
    )
    links = [chains.link_vector(c) for c in enum.chains]
    payload = {
        "start": enum.start,
        "ratio": enum.ratio,
        "total": enum.total,
        "by_length": {str(k): v for k, v in sorted(enum.counts_by_length().items())},
        "chains": [list(c.primes) for c in enum.chains],
        "links": [{"base": lv.base, "multipliers": list(lv.multipliers)} for lv in links],
    }
    rows = [
        [i, len(c), " ".join(map(str, c.primes)), " ".join(map(str, lv.multipliers))]
        for i, (c, lv) in enumerate(zip(enum.chains, links))
    ]
    return payload, ["index", "length", "primes", "multipliers"], rows


def _cmd_sift_bound(args):
    result = sifted.chain_count_bound(args.x, args.y, grid_size=args.grid)
    lam = sifted.perron_eigenvalue(sifted.build_matrix(args.y, result.s_star))
    return _kv({
        "x": result.x,
        "y": result.y,
        "r": result.r,
        "phi_r": result.phi_r,
        "s_star": result.s_star,
        "R": result.row_sum_bound,
        "lambda": lam,
        "bound": result.bound,
        "suggested_y": result.suggested_y,
        "suggested_s": result.suggested_s,
    })


def _parse_links(text: str) -> tuple[int, ...]:
    try:  # singular_series checks that each multiplier is >= 1
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"--links must be comma-separated integers, got {text!r}") from exc


def _cmd_singular(args):
    links = _parse_links(args.links)
    value = singular.singular_series(links, prime_cutoff=args.pcut)
    return _kv({
        "links": list(links),
        "k": value.k,
        "value": value.value,
        "tail_low": value.lower,
        "tail_high": value.upper,
        "prime_cutoff": value.prime_cutoff,
    }, "links")


def _cmd_dickman(args):
    return _kv({"u": args.u, "rho": dickman.rho(args.u)})


def _cmd_brw_run(args):
    cfg = RunConfig(seed=args.seed, threads=args.threads)
    summary = [
        {
            "generation": gen,
            "count": int(pos.size),
            "min": float(pos.min()) if pos.size else None,
            "censored": not pos.size,
        }
        for gen, pos in enumerate(brw.simulate_run(args.n, args.cap, cfg, replicate=args.replicate))
    ]
    header = ["generation", "count", "min", "censored"]
    payload = {"cap": args.cap, "replicate": args.replicate, "generations": summary}
    return payload, header, [[s[k] for k in header] for s in summary]


def _cmd_brw_median(args):
    cfg = RunConfig(seed=args.seed, replicates=args.reps, threads=args.threads)
    est = brw.median_bn_detail(args.n, cfg, margin=args.margin, cap=args.cap)
    return _kv({**dataclasses.asdict(est), "predicted": brw.predicted_median_bn(args.n)})


def _cmd_brw_tails(args):
    cfg = RunConfig(seed=args.seed, replicates=args.reps, threads=args.threads)
    est = brw.estimate_tails(args.n, cfg, margin=args.margin, grid_step=args.grid_step, grid_max=args.grid_max)
    cols = zip(est.offsets.tolist(), est.left.tolist(), est.left_ci, est.right.tolist(), est.right_ci)
    rows = [[offset, left, *left_ci, right, *right_ci] for offset, left, left_ci, right, right_ci in cols]
    return dataclasses.asdict(est), ["offset", "left", "left_lo", "left_hi", "right", "right_lo", "right_hi"], rows


def _cmd_brw_teps(args):
    cfg = RunConfig(seed=args.seed, replicates=args.reps, threads=args.threads)
    deaths = brw.replicate_t_epsilon(args.eps, cfg, max_generation=args.max_gen)
    mean, se = brw.mean_and_se(deaths)
    hist = np.bincount(deaths)
    rows = [[g, int(c)] for g, c in enumerate(hist.tolist()) if c]
    payload = {
        "eps": args.eps,
        "mean": mean,
        "se": se,
        "replicates": args.reps,
        "histogram": rows,
    }
    return payload, ["generation", "count"], rows


def _cmd_brw_rde(args):
    cfg = RunConfig(seed=args.seed, threads=args.threads)
    res = brw.rde_iterate(args.pop, args.iters, cfg)
    deciles = np.quantile(res.samples, np.linspace(0.0, 1.0, 11))
    rows = [[i, ks, mean] for i, (ks, mean) in enumerate(zip(res.ks_trace, res.mean_trace), 1)]
    payload = {
        "population": args.pop,
        "iterations": args.iters,
        "diverged": res.diverged,
        "ks_trace": res.ks_trace,
        "mean_trace": res.mean_trace,
        "deciles": deciles,
    }
    return payload, ["iteration", "ks", "mean"], rows


def _result_line(r: verify.CheckResult) -> str:
    return f"{'PASS' if r.ok else 'FAIL'} {r.name} ({r.seconds:.2f}s) {r.detail}"


def _cmd_verify(args) -> int:
    ctx = verify.VerifyContext(threads=args.threads)
    # progress goes to stderr; stdout and --out carry only the artifact
    results = verify.run_suite(
        args.suite, ctx, on_result=lambda r: print(_result_line(r), file=sys.stderr, flush=True)
    )
    passed = sum(1 for r in results if r.ok)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "passed": passed,
            "failed": len(results) - passed,
            "results": [
                {"name": r.name, "ok": r.ok, "seconds": round(r.seconds, 3), "detail": r.detail}
                for r in results
            ],
        }
        _emit_json(args, payload)
    else:
        lines = [_result_line(r) for r in results]
        lines.append(f"{passed}/{len(results)} checks passed")
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def _integer(text: str) -> int:
    """The type of every integer flag: an integer, or an integral float
    spelling such as 1e8; anything else is a usage error (exit 2)."""
    try:
        value = decimal.Decimal(text)
    except decimal.InvalidOperation:
        value = None
    # int()'s own digit ceiling also bounds the exponent, e.g. of 1e99999999
    if value is None or not value.is_finite() or value != value.to_integral_value() or value.adjusted() >= 4300:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(value)


def _command(sub, name: str, func, help: str, formats=("json", "csv")) -> argparse.ArgumentParser:
    """Add subcommand ``name`` run by ``func``, with the four common flags."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--format", choices=formats, default=formats[0], help="output format")
    sp.add_argument("--out", default=_STDOUT, help="output path ('-' for stdout)")
    sp.add_argument("--seed", type=_integer, default=1, help="RNG seed (never time-derived)")
    sp.add_argument("--threads", type=_integer, default=1, help="worker threads (default 1)")
    sp.set_defaults(func=func)
    return sp


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primechain",
        description="Prime chain, recursive prime tree, and fragmentation-model laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = _command(sub, "pratt", _cmd_pratt, "tree statistics f, H, g of one prime")
    sp.add_argument("--prime", type=_integer, required=True)

    sp = _command(sub, "hist", _cmd_hist, "histogram of a tree statistic over primes <= limit")
    sp.add_argument("--limit", type=_integer, required=True)
    sp.add_argument("--stat", choices=("H", "f"), default="H")
    sp.add_argument("--plot-script", default=None, help="also write a gnuplot companion script")

    sp = _command(sub, "chains", _cmd_chains, "enumerate chains starting at a prime")
    sp.add_argument("--start", type=_integer, required=True)
    sp.add_argument("--ratio", type=float, required=True, help="largest allowed p_k / p_1")
    sp.add_argument("--no-trivial", action="store_true", help="drop the length-1 chain")
    sp.add_argument("--max-chains", type=_integer, default=1_000_000)

    sp = _command(sub, "sift-bound", _cmd_sift_bound, "residue-matrix upper bound for chain counts")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=_integer, required=True)
    sp.add_argument("--grid", type=_integer, default=64)

    sp = _command(sub, "singular", _cmd_singular, "singular series of a multiplier system")
    sp.add_argument("--links", required=True, help="comma-separated multipliers, e.g. 2,4")
    sp.add_argument("--pcut", type=_integer, default=1_000_000)

    sp = _command(sub, "dickman", _cmd_dickman, "smooth-number density rho(u)")
    sp.add_argument("--u", type=float, required=True)

    brw_parser = sub.add_parser("brw", help="branching random walk simulations")
    bsub = brw_parser.add_subparsers(dest="brw_command", required=True)

    sp = _command(bsub, "run", _cmd_brw_run, "one replicate, per-generation summary")
    sp.add_argument("--n", type=_integer, required=True, help="number of generations")
    sp.add_argument("--cap", type=float, required=True)
    sp.add_argument("--replicate", type=_integer, default=0)

    sp = _command(bsub, "median-bn", _cmd_brw_median, "median minimal displacement at generation n")
    sp.add_argument("--n", type=_integer, required=True)
    sp.add_argument("--reps", type=_integer, required=True)
    sp.add_argument("--margin", type=float, default=4.0)
    sp.add_argument("--cap", type=float, default=None)

    sp = _command(bsub, "tails", _cmd_brw_tails, "tail profile of the minimal displacement")
    sp.add_argument("--n", type=_integer, required=True)
    sp.add_argument("--reps", type=_integer, required=True)
    sp.add_argument("--margin", type=float, default=4.0)
    sp.add_argument("--grid-step", type=float, default=0.5)
    sp.add_argument("--grid-max", type=float, default=4.0)

    sp = _command(bsub, "teps", _cmd_brw_teps, "extinction generation of the eps-truncated process")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--reps", type=_integer, required=True)
    sp.add_argument("--max-gen", type=_integer, default=20)

    sp = _command(bsub, "rde", _cmd_brw_rde, "population iteration of the centered-minimum equation")
    sp.add_argument("--pop", type=_integer, required=True)
    sp.add_argument("--iters", type=_integer, required=True)

    sp = _command(sub, "verify", _cmd_verify, "run acceptance criteria and property suites", formats=("text", "json"))
    sp.add_argument(
        "--suite",
        choices=verify.SUITE_CHOICES,
        default="all",
        help="all, acceptance, properties, or a module name (e.g. pratt)",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.threads = as_int(args.threads, "--threads", 1, brw.MAX_THREADS)
        if args.func is _cmd_verify:
            return _cmd_verify(args)
        _emit(args, *args.func(args))
        return 0
    except PrimechainError as exc:
        blob = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(blob, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
