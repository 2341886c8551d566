#!/usr/bin/env python3
"""Benchmark of fvi: one workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/fvi`.  Each repetition of
the workload runs in a fresh process (bench/child.py), one at a time, so the
weight cache starts cold in every repetition, as it does for a user.

--trace 0 runs a few set-up-only processes and then whole repetitions until
S seconds are used, and reports the end-to-end metrics: medians over the
repetitions of solve_s and peak_rss_mb, the median set-up time, and the
largest errors.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones (see bench/tracer.py), with
the tracing overhead as traced over untraced solve_s.

Lines before the last describe the machine and each metric for a reader; the
last line is one JSON object with the keys correct, attempted, failed and
metrics.  The workloads, their inputs and checks are in bench/workloads.py.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"
WORKLOAD_NAMES = ("fractional-lobatto2", "ensemble-lobatto4", "midcq-long",
                  "sweep-lobatto3")
# metric -> unit; BENCHMARK.json's end_to_end lists the same names
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
              "err_x": "rel", "err_p": "rel"}
SETUP_SAMPLES = 8
DEADLINE_S = 170.0  # the run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def child(args, deadline, *flags):
    """Run one child process to completion and return its JSON result."""
    cmd = [sys.executable, str(CHILD), "--workload", args.workload,
           "--seed", str(args.seed), *flags]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"repetition timed out: {' '.join(flags)}") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"repetition exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def repetitions(args, deadline, window_end, flag_sets):
    """Cycle through flag_sets, one child each, until window_end.

    A cycle starts only if the median wall time of the repetitions so far
    says it ends inside the window; the first cycle always runs.  Returns the
    results per flag set and the count of repetitions that crashed.
    """
    results = [[] for _ in flag_sets]
    walls, crashed = [], 0
    while True:
        for i, flags in enumerate(flag_sets):
            try:
                res = child(args, deadline, *flags)
            except ChildFailed as exc:
                print(f"{args.workload}: {exc}", file=sys.stderr)
                crashed += 1
                continue
            results[i].append(res)
            walls.append(res["wall_s"])
        if not walls or crashed or time.monotonic() + \
                len(flag_sets) * statistics.median(walls) > window_end:
            return results, crashed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, for the benchmark's own tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "fvi" / "__init__.py").is_file():
        sys.exit(f"no fvi sources under {ROOT / 'src'}; run from a checkout "
                 f"of the repository")
    deadline = time.monotonic() + DEADLINE_S

    # Warm-up: byte-compiles fvi and fills the file cache; not counted.
    try:
        env = child(args, deadline, "--setup-only", "--env")["env"]
    except ChildFailed as exc:
        sys.exit(f"{args.workload}: set-up failed: {exc}")
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace, smoke=args.smoke)
    print("env " + json.dumps(env, sort_keys=True))

    window_end = time.monotonic() + args.seconds
    if args.trace:
        (plain, traced), crashed = repetitions(args, deadline, window_end,
                                               [(), ("--trace",)])
        reps = plain + traced
    else:
        try:
            setups = [child(args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
        except ChildFailed as exc:
            sys.exit(f"{args.workload}: set-up failed: {exc}")
        (reps,), crashed = repetitions(args, deadline, window_end, [()])

    n_ops = reps[0]["attempted"] if reps else 1
    attempted = sum(r["attempted"] for r in reps) + crashed * n_ops
    failed = sum(r["failed"] for r in reps) + crashed * n_ops
    print(f"operations: attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.6g}")
    for note in sorted({k for r in reps for k in r["notes"]}):
        print(f"note {note} = {reps[-1]['notes'][note]}")

    if args.trace:
        if not (plain and traced):
            sys.exit(f"{args.workload}: no complete traced pair")
        metrics, units, absent = trace_metrics(plain, traced)
    else:
        if not reps:
            sys.exit(f"{args.workload}: every repetition crashed")
        metrics = {
            "solve_s": statistics.median(r["solve_s"] for r in reps),
            "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "err_x": max(r["err_x"] for r in reps),
            "err_p": max(r["err_p"] for r in reps),
        }
        units, absent = END_TO_END, set()
        print(f"solve_s per repetition: "
              f"{[round(r['solve_s'], 4) for r in reps]}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name],
                           **({"absent": True} if name in absent else {})}
                    for name, value in metrics.items()},
    }))


def trace_metrics(plain, traced):
    """Per-layer metrics: medians over the traced repetitions, plus overhead.

    A metric whose traced name fvi no longer has reads 0 and is returned
    in the absent set.
    """
    absent = set(traced[0]["absent"])
    metrics, units = {}, {}
    for name, unit, _, _ in PER_LAYER:
        units[name] = unit
        if name.startswith("trace."):
            continue
        metrics[name] = statistics.median(r["layers"][name] for r in traced)
    metrics["trace.solve_s"] = statistics.median(r["solve_s"] for r in traced)
    metrics["trace.overhead"] = metrics["trace.solve_s"] / statistics.median(
        r["solve_s"] for r in plain)
    hits = traced[0]["layers"]["cq.compute_weights.hit_ratio"] * \
        traced[0]["layers"]["cq.compute_weights.calls"]
    print(f"cq.compute_weights hits: {round(hits)}/"
          f"{traced[0]['layers']['cq.compute_weights.calls']}")
    if absent:
        print(f"absent (fvi no longer has the traced name): {sorted(absent)}")
    return metrics, units, absent


if __name__ == "__main__":
    main()
