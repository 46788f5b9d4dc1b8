"""The primechain benchmark.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 20 --trace 0

Runs passes of one workload, each in a fresh process at one thread, for
as many as fit in --seconds (at least two), and checks every operation's
output.  It prints a summary with the machine block, then, as its last
line, one JSON object: the end-to-end metrics with --trace 0, or the
per-layer metrics of traced passes with --trace 1.  See README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3  # processes that only import and build the inputs, after each pass
MIN_PASSES = 2
PASS_TIMEOUT_S = 60
MAX_MEASURE_S = 100  # no pass starts later, so a run ends well within 180 s

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
PASS_METRICS = ("wall_probes", "cpu_probes", "peak_rss_mb")  # end to end, one value per pass
RAW_TIMES = ("wall_s", "cpu_s")


class BenchError(Exception):
    """The benchmark itself could not run (not an operation failure)."""


def child(workload: str, seed: int, *flags: str) -> dict:
    """Run worker.py in a fresh process at one thread; its JSON result."""
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PRIMECHAIN_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, traced: bool) -> tuple[list, list, list]:
    """(setup times, untraced passes, traced passes).  Set-up-only
    processes run after each pass, so the set-up samples span the run.
    Traced runs alternate untraced and traced passes, so the overhead is
    measured under the same conditions."""
    setups, plain, traced_passes = [], [], []
    t0 = time.monotonic()
    while True:
        t_pass = time.monotonic()
        plain.append(child(workload, seed))
        if traced:
            traced_passes.append(child(workload, seed, "--trace"))
        setups += [child(workload, seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        now = time.monotonic()
        # start another pass only if it should end within the budget
        if len(plain) >= MIN_PASSES and now - t0 + (now - t_pass) > min(seconds, MAX_MEASURE_S):
            break
    setups += [p["setup_s"] for p in plain + traced_passes]
    return setups, plain, traced_passes


def tail(values: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no tail percentile (needs >= 11 samples)"
    return f"n={n}, p{100 * (n - 10) / n:.0f}={sorted(values)[n - 11]:.6g}"


def op_counts(passes: list) -> tuple[int, int, int]:
    """(attempted, failed, known failures) over all operations run."""
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(op["status"] == "failed" for op in ops)
    known = sum(op["status"] == "known-failure" for op in ops)
    return len(ops), failed, known


def end_to_end(setups: list, passes: list) -> dict:
    return {**{name: [p[name] for p in passes] for name in PASS_METRICS}, "setup_s": setups}


def _median(passes: list, name: str) -> float:
    return statistics.median(p[name] for p in passes)


def per_layer(plain: list, traced: list) -> dict:
    samples = {name: [p["layers"][name] for p in traced] for name in traced[0]["layers"]}
    samples.update({name: [p[name] for p in plain] for name in RAW_TIMES})
    # the traced passes' extra probe durations, in seconds of the untraced
    # passes, so that the machine's drift between passes cancels
    extra = _median(traced, "wall_probes") / _median(plain, "wall_probes") - 1
    samples["trace.overhead_s"] = [_median(plain, "wall_s") * extra]
    attempted, failed, known = op_counts(plain + traced)
    samples["fail_frac"] = [(failed + known) / attempted]
    return samples


def machine_block(passes: list) -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if kind != "Instruction":
            caches[f"L{level}"] = read(f"{index}/size")
    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    info = passes[0]["env"]
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "caches": caches,
        "python": info["python"],
        "numpy": info["numpy"],
        "blas_threads": info["blas_threads"],
        "threads": 1,
        "note": "the machine may be shared with another job; wall_s then includes its interference, wall_probes mostly not",
    }


def summarize(workload: str, samples: dict, passes: list) -> None:
    print(f"workload {workload}")
    for name, values in samples.items():
        print(f"  {name:24s} median={statistics.median(values):.6g} {UNITS[name]}  ({tail(values)})")
    attempted, failed, known = op_counts(passes)
    print(f"  {'fail_frac':24s} {(failed + known) / attempted:.6g}  ({failed + known} of {attempted} operations)")
    for op in (op for p in passes for op in p["ops"]):
        if op["status"] != "ok":
            print(f"    {op['status']}: {op['name']}: {op['detail']}")
    print("  machine " + json.dumps(machine_block(passes), sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "primechain" / "__init__.py").is_file():
        print(f"no primechain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setups, plain, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    passes = plain + traced
    e2e = end_to_end(setups, plain)
    if args.trace:
        samples = per_layer(plain, traced)
        summarize(args.workload, {**e2e, **samples}, passes)
    else:
        samples = e2e
        summarize(args.workload, {**e2e, **{name: [p[name] for p in plain] for name in RAW_TIMES}}, passes)
    attempted, failed, _ = op_counts(passes)
    metrics = {name: {"value": statistics.median(v), "unit": UNITS[name]} for name, v in samples.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
