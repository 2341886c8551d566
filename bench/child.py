"""One repetition of a workload, in a fresh process; prints one JSON line.

    python3 bench/child.py --workload NAME --seed N --t0 T [--trace] [--smoke]
                           [--setup-only] [--env]

T is the parent's time.monotonic() just before it started this process;
CLOCK_MONOTONIC is shared by all processes, so setup_s counts interpreter
start, `import fvi`, by_name and input generation.  bench/run.py starts it.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"


def environment():
    """Machine and library record: the fields a result needs to be compared."""
    import platform
    import subprocess

    import numpy as np

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads()}


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS",
                          os.environ.get("OMP_NUM_THREADS", "default"))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--env", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUN_DIR) as work:
        result = repetition(args, wl, work)
    print(json.dumps(result))


def repetition(args, wl, work):
    """Set up, solve (timed) and check once; the result as a dict."""
    inputs = wl.setup(args.seed, args.smoke, work)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        result = {"setup_s": setup_s}
        if args.env:
            result["env"] = environment()
        return result

    tracer = Tracer() if args.trace else None
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        raw = wl.solve(inputs)
        solve_s = time.perf_counter() - start
    outcome = wl.check(inputs, raw)
    for problem in outcome.problems:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    result = {"setup_s": setup_s, "solve_s": solve_s,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              "err_x": outcome.err_x, "err_p": outcome.err_p,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "notes": outcome.notes}
    if tracer is not None:
        layers, absent = tracer.metrics(output_bytes=outcome.output_bytes)
        result["layers"], result["absent"] = layers, absent
        tracer.write_spans(RUN_DIR / f"spans-{args.workload}.jsonl")
    return result


if __name__ == "__main__":
    main()
