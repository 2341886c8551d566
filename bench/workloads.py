"""The benchmark's workloads: seeded inputs, the timed calls into fvi, checks.

Each workload has three steps.  `setup` builds the inputs (it runs by_name,
whose closed-form residual check is part of set-up time).  `solve` makes the
calls into fvi that the benchmark times; it looks each entry point up on the
package at call time, so a traced run sees the wrapped names.  `check`
compares the outputs with closed forms, outside the timed region, and counts
every operation that raised or missed its tolerance as failed.

Only the ensemble draws inputs from the seed; the other three workloads are
fixed problems, so the same seed (or any seed) gives the same inputs.

The reported errors err_x and err_p are relative: for each operation the
largest main-node error divided by the largest exact |x| (or |p|) along
its solution, and the largest of those over the operations.  The problems
are linear, so an absolute error scales with the seeded initial state; the
relative one does not, and stays comparable across seeds.  The pass/fail
tolerances are absolute.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fvi
import fvi.harness


@dataclass
class Outcome:
    """Checked result of one repetition: counts, relative errors, extras."""

    attempted: int
    failed: int
    err_x: float
    err_p: float
    output_bytes: int = 0
    notes: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """A named workload; BENCHMARK.json records why each one was chosen."""

    name: str
    setup: Callable
    solve: Callable
    check: Callable


def exact_peaks(spec, times):
    """Largest exact |x| and |p| of the spec's closed form at the given times."""
    prob = spec.problem
    peak_x = peak_p = 0.0
    for t in times:
        x, v = prob.exact_solution(float(t))
        peak_x = max(peak_x, float(np.abs(x).max()))
        peak_p = max(peak_p, float(np.abs(prob.mass_matrix @ v).max()))
    return peak_x, peak_p


# --------------------------------------------------------------- simulate

def _simulate_workload(name, spec_name, method, steps, horizon,
                       tol_x, tol_p):
    """A single `fvi.harness.simulate` call writing into the run's work directory.

    steps, tol_x and tol_p are (full, smoke) pairs.
    """

    def setup(seed, smoke, work_dir):
        return {"spec": fvi.by_name(spec_name),
                "steps": steps[smoke],
                "tol": (tol_x[smoke], tol_p[smoke]),
                "out": Path(work_dir)}

    def solve(inp):
        try:
            return fvi.harness.simulate(inp["spec"], method, inp["steps"],
                                        horizon=horizon, out_dir=inp["out"])
        except Exception as exc:  # counted as a failed operation by check
            return exc

    def check(inp, manifest):
        if isinstance(manifest, Exception):
            return Outcome(1, 1, math.inf, math.inf,
                           problems=[f"simulate raised {manifest!r}"])
        out = inp["out"]
        problems = []
        err_x = manifest["max_node_error_x"]
        err_p = manifest["max_node_error_p"]
        tx, tp = inp["tol"]
        if not (err_x <= tx and err_p <= tp):
            problems.append(f"node errors {err_x:.3e}, {err_p:.3e} exceed "
                            f"{tx:.0e}, {tp:.0e}")
        rows = inp["steps"] + 2  # header plus N+1 main nodes
        for kind in ("trajectory", "energy"):
            lines = (out / manifest["files"][kind]).read_text().splitlines()
            if len(lines) != rows:
                problems.append(f"{kind} file has {len(lines)} lines, "
                                f"expected {rows}")
        size = sum(p.stat().st_size for p in out.iterdir())
        h = manifest["h"]
        peak_x, peak_p = exact_peaks(inp["spec"],
                                     h * np.arange(inp["steps"] + 1))
        return Outcome(1, int(bool(problems)), err_x / peak_x, err_p / peak_p,
                       output_bytes=size, problems=problems)

    return Workload(name, setup, solve, check)


# --------------------------------------------------------------- ensemble

ENSEMBLE_SIZE = (32, 4)
ENSEMBLE_STEPS = 256
ENSEMBLE_H = 0.3125
ENSEMBLE_TOL = 1e-7
# coupled-oscillator data: xddot + RHO xdot + ETA x = 0 per component, unit mass
ETA, RHO = 0.5, 0.25


def underdamped(x0, v0, t):
    """Closed-form positions and velocities at times t, shape (len(t), d)."""
    omega = math.sqrt(ETA - RHO * RHO / 4.0)
    a = RHO / 2.0
    c2 = (v0 + a * x0) / omega
    t = np.asarray(t, dtype=float)[:, None]
    decay, cos_t, sin_t = np.exp(-a * t), np.cos(omega * t), np.sin(omega * t)
    x = decay * (x0 * cos_t + c2 * sin_t)
    v = decay * ((-a * x0 + c2 * omega) * cos_t - (a * c2 + x0 * omega) * sin_t)
    return x, v


def _check_closed_form(spec):
    """The benchmark's own closed form must match the spec's at its default state."""
    x0, v0 = spec.default_initials
    t = np.linspace(0.0, 80.0, 33)
    x, v = underdamped(x0, v0, t)
    for k, tk in enumerate(t):
        xe, ve = spec.problem.exact_solution(float(tk))
        if not (np.allclose(x[k], xe, rtol=0, atol=1e-13)
                and np.allclose(v[k], ve, rtol=0, atol=1e-13)):
            raise RuntimeError(f"ensemble closed form disagrees with "
                               f"coupled-oscillator at t={tk}")


def _ensemble_setup(seed, smoke, work_dir):
    spec = fvi.by_name("coupled-oscillator")
    _check_closed_form(spec)
    rng = np.random.default_rng(seed)
    states = rng.uniform(-1.0, 1.0, size=(ENSEMBLE_SIZE[smoke], 4))
    return {"problem": spec.problem, "tableau": fvi.lobatto_iiic(4),
            "config": fvi.FviConfig(h=ENSEMBLE_H, N=ENSEMBLE_STEPS),
            "states": states}


def _ensemble_solve(inp):
    results = []
    for state in inp["states"]:
        try:
            results.append(fvi.run(inp["problem"], inp["tableau"],
                                   inp["config"], state[:2], state[2:]))
        except Exception as exc:  # counted as a failed operation by check
            results.append(exc)
    return results


def _ensemble_check(inp, results):
    failed, err_x, err_p, problems = 0, 0.0, 0.0, []
    for state, sol in zip(inp["states"], results):
        if isinstance(sol, Exception):
            failed += 1
            problems.append(f"run from {state.tolist()} raised {sol!r}")
            continue
        x, v = underdamped(state[:2], state[2:], sol.times)
        ex = float(np.abs(sol.node_positions - x).max())
        ep = float(np.abs(sol.momenta - v).max())  # unit mass: p = v
        err_x = max(err_x, ex / np.abs(x).max())
        err_p = max(err_p, ep / np.abs(v).max())
        if not (ex <= ENSEMBLE_TOL and ep <= ENSEMBLE_TOL):
            failed += 1
            problems.append(f"run from {state.tolist()}: errors {ex:.3e}, "
                            f"{ep:.3e} exceed {ENSEMBLE_TOL:.0e}")
    return Outcome(len(results), failed, err_x, err_p, problems=problems)


# ------------------------------------------------------------------ sweep

SWEEP_EXPONENTS = (range(5, 12), range(5, 8))
SWEEP_HORIZON = 30.0


def sweep_tolerance(h):
    """Per-point error bound: fourth order from 1e-2 at h = 30/32, plus a floor."""
    return 1.3e-2 * h ** 4 + 1e-8


def _sweep_setup(seed, smoke, work_dir):
    return {"spec": fvi.by_name("coupled-oscillator"),
            "steps": [2 ** k for k in SWEEP_EXPONENTS[smoke]]}


def _sweep_solve(inp):
    try:
        return fvi.harness.converge(inp["spec"], "lobatto3", inp["steps"],
                                    horizon=SWEEP_HORIZON)
    except Exception as exc:  # counted as failed operations by check
        return exc


def _sweep_check(inp, report):
    n = len(inp["steps"])
    if isinstance(report, Exception):
        return Outcome(n, n, math.inf, math.inf,
                       problems=[f"converge raised {report!r}"])
    failed, problems = 0, []
    for N, h, ex, ep in zip(report.steps, report.step_sizes, report.err_x,
                            report.err_p):
        tol = sweep_tolerance(h)
        if not (ex <= tol and ep <= tol):
            failed += 1
            problems.append(f"N={N}: errors {ex:.3e}, {ep:.3e} exceed {tol:.3e}")
    peak_x, peak_p = exact_peaks(inp["spec"], np.linspace(
        0.0, SWEEP_HORIZON, inp["steps"][-1] + 1))
    return Outcome(n, failed, float(report.err_x[-1]) / peak_x,
                   float(report.err_p[-1]) / peak_p,
                   notes={"slope_x": report.slope_x, "slope_p": report.slope_p,
                          "err_x": report.err_x.tolist(),
                          "err_p": report.err_p.tolist()},
                   problems=problems)


WORKLOADS = {w.name: w for w in (
    _simulate_workload("fractional-lobatto2", "bagley-torvik", "lobatto2",
                       steps=(4096, 64), horizon=1.0,
                       tol_x=(1e-6, 1e-2), tol_p=(1e-6, 1e-2)),
    Workload("ensemble-lobatto4", _ensemble_setup, _ensemble_solve,
             _ensemble_check),
    _simulate_workload("midcq-long", "damped-oscillator-1d", "midcq",
                       steps=(8192, 256), horizon=None,
                       tol_x=(1e-5, 1e-2), tol_p=(1e-5, 1e-2)),
    Workload("sweep-lobatto3", _sweep_setup, _sweep_solve, _sweep_check),
)}
