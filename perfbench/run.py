"""cvlearn benchmark: one closed-loop client drives one workload and prints
its metrics.

    python3 perfbench/run.py --workload learn_bell --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; cvlearn is imported from `src/`.
This launcher caps OpenBLAS at `nproc` threads and runs the workload in
fresh worker interpreters, one after another, never two at once.

With `--trace 0` three workers each set up and then run operations for a
third of `--seconds`, less what earlier workers overran. Pooling three
processes keeps one process's placement on the machine from setting the
result, and the three set-ups give the `setup_s` median. The last line of
standard output holds the end-to-end metrics.

With `--trace 1` one worker alternates untraced and traced cycles of
operations for all of `--seconds` (see tracing.py), and the last line holds
the per-layer metrics.

The line before the last is a report with the environment, set-up samples,
latencies, tail percentile, error rate and computed array sizes. See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# the keys of workloads.WORKLOADS, listed here so that the launcher imports
# neither NumPy nor cvlearn
WORKLOADS = ("learn_bell", "cli_game_oracle")
WORKERS = 3                # timed workers per run; the set-up median is over them
TAIL_BEYOND = 10           # samples required beyond the reported tail percentile
DEADLINE_S = 170           # a whole run ends within this


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Worker: one fresh interpreter that sets up and runs operations
# ---------------------------------------------------------------------------

def run_ops(wl, first_index: int, seconds: float, tracer=None):
    """Closed loop over whole cycles of wl.kinds for about `seconds`.

    With a tracer, cycles alternate untraced / traced, starting untraced,
    and the loop ends after a traced cycle. Returns a list of
    (kind, latency_s, traced, problems).
    """
    results = []
    op_index = first_index
    start = time.perf_counter()
    cycle = 0
    while True:
        traced = tracer is not None and cycle % 2 == 1
        if traced:
            tracer.install()
        for kind in wl.kinds:
            if traced:
                tracer.op_id = op_index
            t0 = time.perf_counter()
            try:
                out = wl.run(kind, op_index)
                latency = time.perf_counter() - t0
                problems = wl.check(kind, out)
            except Exception as exc:  # a failed operation is counted, not fatal
                latency = time.perf_counter() - t0
                problems = [f"{type(exc).__name__}: {exc}"]
            results.append((str(kind), latency, traced, problems))
            op_index += 1
        if traced:
            tracer.uninstall()
        cycle += 1
        elapsed = time.perf_counter() - start
        # stop at the cycle boundary nearest to `seconds`
        if elapsed + 0.5 * elapsed / cycle >= seconds and (tracer is None or cycle % 2 == 0):
            return results


def openblas_threads(np_mod):
    """OpenBLAS's own thread count, read from the library NumPy loaded."""
    import ctypes
    for lib in (Path(np_mod.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cvlearn.cli  # noqa: F401  (the fresh-interpreter import that set-up times)
    import_s = time.perf_counter() - t0
    import cvlearn
    if Path(cvlearn.__file__).resolve().parent != SRC / "cvlearn":
        raise SystemExit(f"perfbench: imported cvlearn from {cvlearn.__file__}, not {SRC}")
    import numpy as np
    import scipy
    sys.path.insert(0, str(HERE))
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    first_index = args.worker * 1_000_000     # distinct RNG streams per worker
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=OUT) as workdir:
        t1 = time.perf_counter()
        wl = workload_cls(args.seed, Path(workdir))
        t2 = time.perf_counter()
        for i, kind in enumerate(wl.warmup_kinds):
            wl.run(kind, first_index + i)
        t3 = time.perf_counter()
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        t4 = time.perf_counter()
        results = run_ops(wl, first_index + len(wl.warmup_kinds), args.seconds, tracer)
        loop_s = time.perf_counter() - t4
    out = {
        "setup": {"import_s": import_s, "build_s": t2 - t1, "warmup_s": t3 - t2,
                  "total_s": import_s + (t3 - t1)},
        "ops": results,
        "loop_s": loop_s,
        "work": {str(k): wl.work(k) for k in wl.kinds},
        "work_unit": wl.work_unit,
        "computed_bytes": wl.computed_bytes(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas_threads": openblas_threads(np),
    }
    if tracer is not None:
        out["layer"] = tracer.layer_metrics(sum(1 for r in results if r[2]))
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        out["spans_file"] = str(spans_file.relative_to(ROOT))
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# Launcher
# ---------------------------------------------------------------------------

def tail(latencies):
    """(value, percentile): the highest whole percentile with at least
    TAIL_BEYOND samples above it, by nearest rank; the maximum when there
    are too few samples for that."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    pct = (100 * (n - TAIL_BEYOND)) // n
    return xs[max(0, -(-pct * n // 100) - 1)], pct


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def spawn_worker(args, index: int, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds),
           "--trace", str(args.trace), "--worker", str(index)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {index} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cvlearn" / "__init__.py").is_file():
        print(f"perfbench: no cvlearn source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    if args.worker is not None:
        return worker(args)

    deadline = time.monotonic() + DEADLINE_S
    n_workers = 1 if args.trace else WORKERS
    runs = []
    for i in range(n_workers):
        # each worker gets what is left of its share, so rounding to whole
        # cycles does not add up across workers
        share = args.seconds * (i + 1) / n_workers - sum(r["loop_s"] for r in runs)
        runs.append(spawn_worker(args, i, share, deadline))

    ops = [op for r in runs for op in r["ops"]]
    failed = [op for op in ops if op[3]]
    untraced = [op for op in ops if not op[2]]
    latencies = [op[1] for op in untraced]
    work = runs[0]["work"]
    throughput = sum(work[op[0]] for op in untraced if not op[3]) / sum(latencies)
    p50_by_kind = {k: statistics.median(op[1] for op in untraced if op[0] == k) for k in work}
    # kinds of different cost make the pooled median jump between their
    # clusters from run to run; the mean of the per-kind medians does not
    p50 = statistics.fmean(p50_by_kind.values())
    tail_s, tail_pct = tail(latencies)
    peak_rss_mb = statistics.median(r["peak_rss_mb"] for r in runs)
    first = runs[0]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "client": "one closed-loop client, one process at a time",
        "git_commit": git_commit(), "nproc": nproc(), "python": first["python"],
        "numpy": first["numpy"], "scipy": first["scipy"],
        "openblas_threads": first["openblas_threads"],
        "setup_samples": [r["setup"] for r in runs],
        "ops": len(ops), "ops_untraced": len(untraced),
        "op_tail": f"p{tail_pct} of {len(latencies)} untraced ops",
        "op_p50_s_by_kind": p50_by_kind,
        "op_p50_s_pooled": statistics.median(latencies),
        "latencies_s": [[i, op[0], round(op[1], 6), int(op[2])]
                        for i, r in enumerate(runs) for op in r["ops"]],
        "error_rate": len(failed) / len(ops),
        f"{first['work_unit']}_per_s": throughput,
        "peak_rss_mb": peak_rss_mb,
        "computed_bytes_largest_arrays_per_op": first["computed_bytes"],
        "failures": [f"{op[0]}: {'; '.join(op[3])}" for op in failed][:10],
    }
    if args.trace:
        traced_p50 = statistics.fmean(
            statistics.median(op[1] for op in ops if op[2] and op[0] == k) for k in work)
        metrics = {k: tuple(v) for k, v in first["layer"].items()}
        metrics["trace.untraced_op_p50_s"] = (p50, "s")
        metrics["trace.traced_op_p50_s"] = (traced_p50, "s")
        metrics["trace.overhead_s"] = (traced_p50 - p50, "s")
        report["trace_overhead_s"] = traced_p50 - p50
        report["spans_file"] = first["spans_file"]
    else:
        metrics = {
            "setup_s": (statistics.median(r["setup"]["total_s"] for r in runs), "s"),
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail_s, "s"),
            "throughput_per_s": (throughput, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
