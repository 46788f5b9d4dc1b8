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
import json
import math
import os
import sys

import numpy as np

from . import brw, chains, dickman, pratt, sieve, sifted, singular, verify
from .brw import RunConfig
from .errors import DomainError, PrimechainError

_STDOUT = "-"


def _fmt_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _pyify(obj):
    """Recursively convert numpy containers/scalars for json emission."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_text(path: str, text: str) -> None:
    if path == _STDOUT:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _config_dict(args, command: str) -> dict:
    skip = {"func", "command", "brw_command", "format", "out"}
    cfg = {k: v for k, v in vars(args).items() if k not in skip and v is not None}
    cfg["command"] = command
    return cfg


def _emit(args, command: str, payload: dict, header: list[str], rows: list[list]) -> None:
    config = _config_dict(args, command)
    if args.format == "json":
        body = dict(payload)
        body["config"] = config
        _write_text(args.out, json.dumps(_pyify(body), sort_keys=True) + "\n")
        return
    cfg_line = "# config: " + " ".join(f"{k}={_fmt_cell(v)}" for k, v in sorted(config.items()))
    lines = [cfg_line, ",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    _write_text(args.out, "\n".join(lines) + "\n")


def _kv_rows(payload: dict) -> tuple[list[str], list[list]]:
    rows = [[k, payload[k]] for k in sorted(payload)]
    return ["key", "value"], rows


def _resolve_threads(args) -> int:
    if args.threads is not None:
        if args.threads < 1:
            raise DomainError("--threads must be >= 1")
        return args.threads
    env = os.environ.get("PRIMECHAIN_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise DomainError(f"PRIMECHAIN_THREADS={env!r} is not an integer") from exc
        if n < 1:
            raise DomainError("PRIMECHAIN_THREADS must be >= 1")
        return n
    return 1


_TABLE_CACHE: dict[int, sieve.SpfTable] = {}


def _table(limit: int = 10**6) -> sieve.SpfTable:
    if limit not in _TABLE_CACHE:
        _TABLE_CACHE[limit] = sieve.build_spf(limit)
    return _TABLE_CACHE[limit]


# ---------------------------------------------------------------------------
# command handlers


def _cmd_pratt(args) -> int:
    p = args.prime
    if p > 10**7:
        raise DomainError("--prime above 1e7 needs a factor table too large for the CLI")
    table = _table(10**6 if p < 10**6 else p + 1)
    dag = pratt.PrattDag(table)
    payload = {"p": p, "f": dag.f_of(p), "H": dag.h_of(p), "g": dag.g_of(p)}
    header, rows = _kv_rows(payload)
    _emit(args, "pratt", payload, header, rows)
    return 0


_GNUPLOT_TEMPLATE = """# gnuplot companion script; run: gnuplot -p {script}
set datafile separator ','
set key off
set xlabel 'value'
set ylabel 'count'
set boxwidth 0.8
set style fill solid 0.5
plot '{data}' skip 2 using 2:3 with boxes
"""


def _cmd_hist(args) -> int:
    if args.limit < 2:
        raise DomainError("--limit must be at least 2")
    table = _table(max(args.limit, 10**6))
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
    _emit(args, "hist", payload, ["stat", "value", "count"], rows)
    if args.plot_script:
        if args.out == _STDOUT or args.format != "csv":
            raise DomainError("--plot-script needs --format csv with --out FILE")
        _write_text(args.plot_script, _GNUPLOT_TEMPLATE.format(script=args.plot_script, data=args.out))
    return 0


def _cmd_chains(args) -> int:
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
    _emit(args, "chains", payload, ["index", "length", "primes", "multipliers"], rows)
    return 0


def _cmd_sift_bound(args) -> int:
    result = sifted.chain_count_bound(args.x, args.y, grid_size=args.grid)
    lam = sifted.perron_eigenvalue(sifted.build_matrix(args.y, result.s_star))
    payload = {
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
    }
    header, rows = _kv_rows(payload)
    _emit(args, "sift-bound", payload, header, rows)
    return 0


def _parse_links(text: str) -> tuple[int, ...]:
    try:
        links = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"--links must be comma-separated integers, got {text!r}") from exc
    if not links or any(m < 1 for m in links):
        raise DomainError("--links needs at least one positive multiplier")
    return links


def _cmd_singular(args) -> int:
    links = _parse_links(args.links)
    value = singular.singular_series(links, prime_cutoff=args.pcut, table=_table())
    payload = {
        "links": list(links),
        "k": value.k,
        "value": value.value,
        "tail_low": value.lower,
        "tail_high": value.upper,
        "prime_cutoff": value.prime_cutoff,
    }
    header, rows = _kv_rows({k: v for k, v in payload.items() if k != "links"})
    _emit(args, "singular", payload, header, rows)
    return 0


def _cmd_dickman(args) -> int:
    payload = {"u": args.u, "rho": dickman.rho(args.u)}
    header, rows = _kv_rows(payload)
    _emit(args, "dickman", payload, header, rows)
    return 0


def _cmd_brw_run(args) -> int:
    cfg = RunConfig(
        seed=args.seed,
        cap=args.cap,
        replicates=1,
        max_generation=args.n,
        threads=args.threads,
    )
    gens = brw.simulate_run(cfg, replicate=args.replicate)
    rows = []
    summary = []
    for g in gens:
        least = float(g.positions.min()) if g.positions.size else None
        rows.append([g.index, int(g.positions.size), "" if least is None else least, g.censored])
        summary.append(
            {
                "generation": g.index,
                "count": int(g.positions.size),
                "min": least,
                "censored": g.censored,
            }
        )
    payload = {"cap": cfg.cap, "replicate": args.replicate, "generations": summary}
    _emit(args, "brw run", payload, ["generation", "count", "min", "censored"], rows)
    return 0


def _cmd_brw_median(args) -> int:
    cfg = RunConfig(seed=args.seed, replicates=args.reps, threads=args.threads)
    est = brw.median_bn_detail(args.n, cfg, margin=args.margin, cap=args.cap)
    payload = {
        "n": est.n,
        "median": est.median,
        "predicted": brw.predicted_median_bn(args.n),
        "cap": est.cap,
        "censor_rate": est.censor_rate,
        "replicates": est.replicates,
        "retried": est.retried,
    }
    header, rows = _kv_rows(payload)
    _emit(args, "brw median-bn", payload, header, rows)
    return 0


def _cmd_brw_tails(args) -> int:
    cfg = RunConfig(seed=args.seed, replicates=args.reps, threads=args.threads)
    est = brw.estimate_tails(args.n, cfg, margin=args.margin, grid_step=args.grid_step, grid_max=args.grid_max)
    payload = {
        "n": est.n,
        "replicates": est.replicates,
        "cap": est.cap,
        "median": est.median,
        "censor_rate": est.censor_rate,
        "left_slope": est.left_slope,
        "offsets": est.offsets,
        "left": est.left,
        "right": est.right,
        "left_ci": est.left_ci,
        "right_ci": est.right_ci,
    }
    rows = [
        [
            float(est.offsets[i]),
            float(est.left[i]),
            est.left_ci[i][0],
            est.left_ci[i][1],
            float(est.right[i]),
            est.right_ci[i][0],
            est.right_ci[i][1],
        ]
        for i in range(len(est.offsets))
    ]
    header = ["offset", "left", "left_lo", "left_hi", "right", "right_lo", "right_hi"]
    _emit(args, "brw tails", payload, header, rows)
    return 0


def _cmd_brw_teps(args) -> int:
    cfg = RunConfig(
        seed=args.seed,
        replicates=args.reps,
        max_generation=args.max_gen,
        threads=args.threads,
    )
    deaths = brw.replicate_t_epsilon(args.eps, cfg)
    mean = float(deaths.mean())
    se = float(deaths.std(ddof=1) / math.sqrt(len(deaths))) if len(deaths) > 1 else 0.0
    hist = np.bincount(deaths)
    rows = [[g, int(c)] for g, c in enumerate(hist.tolist()) if c]
    payload = {
        "eps": args.eps,
        "mean": mean,
        "se": se,
        "replicates": args.reps,
        "histogram": rows,
    }
    _emit(args, "brw teps", payload, ["generation", "count"], rows)
    return 0


def _cmd_brw_rde(args) -> int:
    cfg = RunConfig(seed=args.seed, threads=args.threads)
    res = brw.rde_iterate(args.pop, args.iters, cfg)
    deciles = np.quantile(res.samples, np.linspace(0.0, 1.0, 11))
    rows = [
        [i + 1, res.ks_trace[i], res.mean_trace[i]]
        for i in range(len(res.ks_trace))
    ]
    payload = {
        "population": args.pop,
        "iterations": args.iters,
        "diverged": res.diverged,
        "ks_trace": res.ks_trace,
        "mean_trace": res.mean_trace,
        "deciles": deciles,
    }
    _emit(args, "brw rde", payload, ["iteration", "ks", "mean"], rows)
    return 0


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
        body = dict(payload)
        body["config"] = _config_dict(args, "verify")
        _write_text(args.out, json.dumps(_pyify(body), sort_keys=True) + "\n")
    else:
        lines = [_result_line(r) for r in results]
        lines.append(f"{passed}/{len(results)} checks passed")
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(sp: argparse.ArgumentParser, formats=("json", "csv")) -> None:
    sp.add_argument("--format", choices=formats, default=formats[0], help="output format")
    sp.add_argument("--out", default=_STDOUT, help="output path ('-' for stdout)")
    sp.add_argument("--seed", type=int, default=1, help="RNG seed (never time-derived)")
    sp.add_argument("--threads", type=int, default=None, help="worker threads (default: PRIMECHAIN_THREADS or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primechain",
        description="Prime chain, recursive prime tree, and fragmentation-model laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("pratt", help="tree statistics f, H, g of one prime")
    sp.add_argument("--prime", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_pratt)

    sp = sub.add_parser("hist", help="histogram of a tree statistic over primes <= limit")
    sp.add_argument("--limit", type=int, required=True)
    sp.add_argument("--stat", choices=("H", "f"), default="H")
    sp.add_argument("--plot-script", default=None, help="also write a gnuplot companion script")
    _add_common(sp)
    sp.set_defaults(func=_cmd_hist)

    sp = sub.add_parser("chains", help="enumerate chains starting at a prime")
    sp.add_argument("--start", type=int, required=True)
    sp.add_argument("--ratio", type=float, required=True, help="largest allowed p_k / p_1")
    sp.add_argument("--no-trivial", action="store_true", help="drop the length-1 chain")
    sp.add_argument("--max-chains", type=int, default=1_000_000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_chains)

    sp = sub.add_parser("sift-bound", help="residue-matrix upper bound for chain counts")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=int, required=True)
    sp.add_argument("--grid", type=int, default=64)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sift_bound)

    sp = sub.add_parser("singular", help="singular series of a multiplier system")
    sp.add_argument("--links", required=True, help="comma-separated multipliers, e.g. 2,4")
    sp.add_argument("--pcut", type=int, default=1_000_000)
    _add_common(sp)
    sp.set_defaults(func=_cmd_singular)

    sp = sub.add_parser("dickman", help="smooth-number density rho(u)")
    sp.add_argument("--u", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_dickman)

    brw_parser = sub.add_parser("brw", help="branching random walk simulations")
    bsub = brw_parser.add_subparsers(dest="brw_command", required=True)

    sp = bsub.add_parser("run", help="one replicate, per-generation summary")
    sp.add_argument("--n", type=int, required=True, help="number of generations")
    sp.add_argument("--cap", type=float, required=True)
    sp.add_argument("--replicate", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_brw_run)

    sp = bsub.add_parser("median-bn", help="median minimal displacement at generation n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--margin", type=float, default=4.0)
    sp.add_argument("--cap", type=float, default=None)
    _add_common(sp)
    sp.set_defaults(func=_cmd_brw_median)

    sp = bsub.add_parser("tails", help="tail profile of the minimal displacement")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--margin", type=float, default=4.0)
    sp.add_argument("--grid-step", type=float, default=0.5)
    sp.add_argument("--grid-max", type=float, default=4.0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_brw_tails)

    sp = bsub.add_parser("teps", help="extinction generation of the eps-truncated process")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--reps", type=int, required=True)
    sp.add_argument("--max-gen", type=int, default=20)
    _add_common(sp)
    sp.set_defaults(func=_cmd_brw_teps)

    sp = bsub.add_parser("rde", help="population iteration of the centered-minimum equation")
    sp.add_argument("--pop", type=int, required=True)
    sp.add_argument("--iters", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_brw_rde)

    sp = sub.add_parser("verify", help="run acceptance criteria and property suites")
    sp.add_argument(
        "--suite",
        default="all",
        help="all, acceptance, properties, or a module name (e.g. pratt)",
    )
    _add_common(sp, formats=("text", "json"))
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "threads"):
            args.threads = _resolve_threads(args)
        return args.func(args)
    except PrimechainError as exc:
        blob = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        sys.stderr.write(json.dumps(blob, sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
