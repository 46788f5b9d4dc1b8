"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload trees --seed 1 [--trace] [--setup-only]

Prints one JSON line: the set-up time (import plus input generation), the
timed region's wall and CPU time in seconds and in probe durations (see
speed.py), the process's peak resident memory and one record per
operation.  With --trace it also carries the per-layer metrics and writes
the spans to .perfbench_out/ at the checkout root.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402

GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".perfbench_out"
TIMES = ("wall_s", "cpu_s", "wall_probes", "cpu_probes")


def import_primechain():
    """Import primechain from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import primechain

    if Path(primechain.__file__).resolve().parent != src / "primechain":
        raise ImportError(f"primechain came from {primechain.__file__}, not {src}")
    return primechain


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _verify(op: workloads.Op, value, golden: dict | None, seed: int) -> tuple[str, str | None]:
    """(failure reason or "", output digest) of one operation's result."""
    detail = op.check(value) or ""
    if op.output is None:
        return detail, None
    got = digest(op.output(value))
    pinned = golden is not None and (not op.seeded or seed == workloads.DEFAULT_SEED)
    if not detail and pinned and got != golden.get(op.name):
        detail = f"output digest {got[:12]} is not the golden {str(golden.get(op.name))[:12]}"
    return detail, got


def run_op(op: workloads.Op, golden: dict | None, seed: int, tracer=None) -> dict:
    """Run and check one operation.  An exception from the call or its
    check, a failed check and a golden-digest mismatch all make it a
    failed operation; the caller goes on with the next one.
    ``golden=None`` records the digest without comparing it."""
    rec = {"name": op.name, "status": "ok", "detail": "", "digest": None}
    span = tracer.open(op.span) if tracer is not None and op.span else None
    with SpeedProbe().timed() as timing:
        try:
            value = op.call()
        except Exception as exc:  # the op boundary: record, then continue
            rec["status"] = "known-failure" if type(exc) is op.known_failure else "failed"
            rec["detail"] = f"{type(exc).__name__}: {exc}"
        else:
            try:
                rec["detail"], rec["digest"] = _verify(op, value, golden, seed)
            except Exception as exc:
                rec["detail"] = f"check raised {type(exc).__name__}: {exc}"
            if rec["detail"]:
                rec["status"] = "failed"
    rec.update({name: getattr(timing, name) for name in TIMES})
    if span is not None:
        tracer.close(span, ok=rec["status"] == "ok")
    return rec


def blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return "unknown"
    libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return "unknown"


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import_primechain()
    ops = workloads.build(workload, seed)
    golden = json.loads(GOLDEN.read_text())[workload]
    setup_s = perf_counter() - T_START
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    records = [run_op(op, golden, seed, tracer) for op in ops]
    result = {
        "setup_s": setup_s,
        **{name: sum(rec[name] for rec in records) for name in TIMES},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": records,
        "env": {"python": sys.version.split()[0], "numpy": sys.modules["numpy"].__version__, "blas_threads": blas_threads()},
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}-seed{seed}-{os.getpid()}.jsonl")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop after import and input generation")
    args = ap.parse_args(argv)
    if args.setup_only:
        import_primechain()
        workloads.build(args.workload, args.seed)
        result = {"setup_s": perf_counter() - T_START}
    else:
        result = run_pass(args.workload, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
