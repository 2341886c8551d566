#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10 [--workloads a,b] [--traced 1]
                            [--out bench/baseline.json]

For every workload it runs `bench/run.py --trace 0` once per seed, one run
at a time, and prints each end-to-end metric with its unit, median, first
and third quartiles (statistics.quantiles, n=4) and spread, the quartile
distance as a share of the median, next to the bound in BENCHMARK.json.
--traced N adds N `--trace 1` runs per workload and reports their per-layer
medians.  --out writes everything, with the machine record, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0].removeprefix("env "))
    return env, json.loads(lines[-1]), wall


def summarize(values):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs, walls = [], []
        for seed in seeds:
            env, result, wall = run_once(workload, seed, args.seconds, 0)
            runs.append(result)
            walls.append(wall)
        report.setdefault("env", {k: v for k, v in env.items()
                                  if k not in ("workload", "seed", "trace")})
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"attempted": attempted, "failed": failed,
                 "fail_ratio": failed / attempted,
                 "correct": all(r["correct"] for r in runs),
                 "run_wall_s": summarize(walls), "metrics": {}}
        print(f"{workload}: {len(runs)} runs, attempted {attempted}, failed "
              f"{failed}, fail_ratio {failed / attempted:.3g}, run wall "
              f"{min(walls):.1f}-{max(walls):.1f} s")
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            entry["metrics"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else (
                "WIDE" if stats["spread"] >= bound else "over 1/3 bound")
            print(f"  {name:12s} {stats['median']:12.6g} {stats['unit']:4s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread "
                  f"{stats['spread']:.4f} (bound {bound}) {flag}")
        traced = [run_once(workload, seeds[0] + i, args.seconds, 1)[1]
                  for i in range(args.traced)]
        if traced:
            entry["per_layer"] = {
                m["name"]: {"median": statistics.median(
                    t["metrics"][m["name"]]["value"] for t in traced),
                    "unit": m["unit"]} for m in SPEC["per_layer"]}
            for name, stats in entry["per_layer"].items():
                print(f"  {name:40s} {stats['median']:12.6g} {stats['unit']}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
