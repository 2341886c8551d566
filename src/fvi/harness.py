"""Experiment drivers: weight export, single simulations, convergence sweeps.

Outputs are plain CSV with a single `#` header line and 17-significant-digit
values (lossless for doubles), plus a JSON run manifest recording every
parameter needed to reproduce a run.  Nothing here is time- or
environment-dependent, so identical manifests imply byte-identical outputs.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .cq import compute_weights, midcq_weights
# energy_series stays importable here: bench/tracer.py times it by this name
from .models import (BenchmarkSpec, _energy_columns, by_name, energy_series,
                     exact_states, with_derivative_order)
from .stepper import FviConfig, FviSolution, _check_step_count, _run_weights, run
from .tableau import lobatto_iiic, midpoint

__all__ = [
    "ConvergenceReport",
    "METHOD_NAMES",
    "ERROR_NORM",
    "fit_slope",
    "run_benchmark",
    "node_errors",
    "converge",
    "simulate",
    "export_weights",
    "read_weights",
    "write_report_csv",
    "format_report",
]

_TABLEAUX = {"lobatto2": lobatto_iiic(2), "lobatto3": lobatto_iiic(3),
             "lobatto4": lobatto_iiic(4), "midcq": midpoint()}
METHOD_NAMES = tuple(_TABLEAUX)

ERROR_NORM = "max over main nodes and components"


def _tableau_for(method: str):
    """Butcher tableau for a method name."""
    if method in _TABLEAUX:
        return _TABLEAUX[method]
    raise ValueError(
        f"unknown method {method!r}; choices: {', '.join(METHOD_NAMES)}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors and fitted orders of one method over a sequence of step counts.

    err_x and err_p are the maxima over main nodes and components of the
    deviation from the exact positions and momenta.  excluded_* list the sweep
    indices the slope fit dropped, either by the rounding floor guard or by
    the trailing-stagnation trim.
    """

    spec_name: str
    method: str
    steps: np.ndarray
    step_sizes: np.ndarray
    err_x: np.ndarray
    slope_x: float
    excluded_x: Tuple[int, ...]
    err_p: np.ndarray
    slope_p: float
    excluded_p: Tuple[int, ...]
    error_norm: str = ERROR_NORM

    def __post_init__(self):
        for name in ("steps", "step_sizes", "err_x", "err_p"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.steps.size
        if n < 3:
            raise ValueError("need at least 3 step counts for a slope fit")
        if any(a.size != n for a in (self.step_sizes, self.err_x, self.err_p)):
            raise ValueError("report array lengths differ")
        if np.any(np.diff(self.step_sizes) >= 0):
            raise ValueError("step sizes must be strictly decreasing")


def fit_slope(h: np.ndarray, err: np.ndarray,
              magnitude: float = 1.0) -> Tuple[float, Tuple[int, ...], Tuple[int, ...]]:
    """Least-squares slope of log2 err against log2 h with floor exclusion.

    Points with err below 100 machine epsilons times the solution magnitude
    (or not strictly positive) are rounding-floor samples and are excluded
    outright.  A subtler floor shows up as trailing stagnation: once the
    errors sit two decades below the peak and stop shrinking by at least
    sqrt(2) per halving, the tail is trimmed, together with any retained
    trailing points within 3x of the smallest error, whose step-to-step
    scatter can fake one more decrease.  Returns (slope, kept, excluded)
    with kept/excluded as index tuples into the inputs.
    """
    h = np.asarray(h, dtype=float).ravel()
    err = np.asarray(err, dtype=float).ravel()
    if h.size != err.size:
        raise ValueError("h and err lengths differ")
    if np.any(np.diff(h) >= 0):
        raise ValueError("step sizes must be strictly decreasing")
    floor = 100.0 * np.finfo(float).eps * float(magnitude)
    kept = [i for i in range(h.size) if err[i] > 0.0 and err[i] >= floor]
    if kept:
        peak = max(err[i] for i in kept)
        lowest = min(err[i] for i in kept)
        trimmed = False
        while (len(kept) >= 4 and err[kept[-1]] < 1e-2 * peak
               and math.log2(err[kept[-2]] / err[kept[-1]]) < 0.5):
            kept.pop()
            trimmed = True
        if trimmed:
            while kept and err[kept[-1]] < 3.0 * lowest:
                kept.pop()
    if len(kept) < 3:
        raise ValueError("fewer than 3 points above the error floor")
    coeffs = np.polyfit(np.log2(h[kept]), np.log2(err[kept]), 1)
    excluded = tuple(i for i in range(h.size) if i not in set(kept))
    return float(coeffs[0]), tuple(kept), excluded


def run_benchmark(spec: BenchmarkSpec, method: str, n_steps: int,
                  horizon: Optional[float] = None) -> FviSolution:
    """Integrate a benchmark with the named method over [0, horizon]."""
    tab = _tableau_for(method)
    horizon = spec.default_horizon if horizon is None else float(horizon)
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    # FviConfig checks N first, so a bad n_steps is named before h is used
    cfg = FviConfig(h=horizon / max(n_steps, 1), N=n_steps)
    x0, p0 = spec.default_initials
    return run(spec.problem, tab, cfg, x0, p0)


def node_errors(spec: BenchmarkSpec, sol: FviSolution) -> Tuple[float, float]:
    """Max deviations (err_x, err_p) from the exact solution at the main nodes."""
    return _deviations(sol, *exact_states(spec.problem, sol.times))


def _deviations(sol: FviSolution, X, P) -> Tuple[float, float]:
    """node_errors against exact states (X, P) already read at sol.times."""
    return (float(np.abs(sol.node_positions - X).max()),
            float(np.abs(sol.momenta - P).max()))


def converge(spec_name, method: str, steps: Sequence[int],
             horizon: Optional[float] = None) -> ConvergenceReport:
    """Run the method at each step count and fit convergence slopes.

    Each step count must be an integer >= 1; duplicates are dropped, and the
    counts run one after another, coarsest first.  Stepper failures
    carry the offending N in the message.  Position and momentum maxima over
    the main nodes are fitted separately, for every method.
    """
    spec = spec_name if isinstance(spec_name, BenchmarkSpec) else by_name(spec_name)
    _tableau_for(method)
    if spec.problem.exact_solution is None:
        raise ValueError("convergence study needs an exact solution")
    for n in steps:
        _check_step_count(n)
    steps = sorted({int(n) for n in steps})
    if len(steps) < 3:
        raise ValueError("need at least 3 distinct step counts")
    horizon = spec.default_horizon if horizon is None else float(horizon)

    def case(n: int) -> Tuple[float, float]:
        try:
            sol = run_benchmark(spec, method, n, horizon)
        except Exception as exc:
            raise RuntimeError(
                f"{method} on {spec.name} failed at N={n}: {exc}") from exc
        return node_errors(spec, sol)

    errors = [case(n) for n in steps]

    hs = np.array([horizon / n for n in steps])
    err_x = np.array([e[0] for e in errors])
    err_p = np.array([e[1] for e in errors])
    # the peak exact |x| and |p| set the fit's rounding floor
    X, P = exact_states(spec.problem, np.linspace(0.0, horizon, 257))
    slope_x, _, excl_x = fit_slope(hs, err_x, np.abs(X).max())
    slope_p, _, excl_p = fit_slope(hs, err_p, np.abs(P).max())
    return ConvergenceReport(spec_name=spec.name, method=method,
                             steps=np.array(steps), step_sizes=hs,
                             err_x=err_x, slope_x=slope_x, excluded_x=excl_x,
                             err_p=err_p, slope_p=slope_p, excluded_p=excl_p)


def _write_lines(path: Path, header: str, rows) -> None:
    """Write the header, then one line per row with every value as _fmt writes it."""
    rows = [tuple(row) for row in rows]
    fmt = ",".join(["%.17g"] * len(rows[0])) if rows else ""
    path.write_text("\n".join([header] + [fmt % row for row in rows]) + "\n")


def simulate(spec_name, method: str, n_steps: int,
             horizon: Optional[float] = None, out_dir=".",
             derivative_order: Optional[float] = None) -> dict:
    """Run one integration and write trajectory, energy and manifest files.

    The trajectory CSV holds t, position components, momentum components at
    the main nodes.  The energy CSV (written only when the benchmark keeps an
    exact solution) holds t, computed energy, exact energy and the relative
    energy error scaled by the peak exact energy.  Returns the manifest dict,
    which is also written as JSON next to the CSVs.
    """
    spec = spec_name if isinstance(spec_name, BenchmarkSpec) else by_name(spec_name)
    _tableau_for(method)
    if derivative_order is not None:
        spec = with_derivative_order(spec, derivative_order)
    horizon = spec.default_horizon if horizon is None else float(horizon)
    sol = run_benchmark(spec, method, n_steps, horizon)
    h = horizon / n_steps

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{spec.name}-{method}-N{int(n_steps)}"
    d = spec.problem.d
    cols = ["t"] + [f"x{i}" for i in range(d)] + [f"p{i}" for i in range(d)]

    traj_path = out / f"{stem}-trajectory.csv"
    xs = sol.node_positions
    _write_lines(traj_path, "# " + ",".join(cols),
                 np.column_stack([sol.times, xs, sol.momenta]).tolist())
    files = {"trajectory": traj_path.name}

    max_err_x = max_err_p = None
    if spec.problem.exact_solution is not None:
        X, P = exact_states(spec.problem, sol.times)
        energy_path = out / f"{stem}-energy.csv"
        _write_lines(energy_path, "# t,E_num,E_exact,E_err", np.column_stack(
            [sol.times, *_energy_columns(spec.problem, xs, sol.momenta, X, P)]).tolist())
        files["energy"] = energy_path.name
        max_err_x, max_err_p = _deviations(sol, X, P)

    solves = [s[0] for s in sol.newton_stats]
    resids = [s[1] for s in sol.newton_stats]
    x0, p0 = spec.default_initials
    manifest = {
        "spec": spec.name,
        "method": method,
        "steps": int(n_steps),
        "h": h,
        "horizon": horizon,
        "derivative_order": 2.0 * spec.problem.alpha,
        "rho": spec.problem.rho,
        "dimension": d,
        "x0": [float(v) for v in x0],
        "p0": [float(v) for v in p0],
        "newton": {
            "total_solves": int(sum(solves)),
            "max_residual": float(max(resids)),
        },
        "weights_sha256": _weights_hash(spec, method, h, n_steps),
        "error_norm": ERROR_NORM,
        "max_node_error_x": max_err_x,
        "max_node_error_p": max_err_p,
        "files": files,
    }
    manifest_path = out / f"{stem}-manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _weights_hash(spec: BenchmarkSpec, method: str, h: float, n_steps: int) -> str:
    """Digest of the damping weights the run used, for manifest reproducibility."""
    data = _run_weights(spec.problem, _tableau_for(method), h, n_steps)
    return hashlib.sha256(np.ascontiguousarray(data).tobytes()).hexdigest()


def export_weights(method: str, exponent: float, h: float, n_weights: int,
                   path) -> Path:
    """Write convolution weights W_0..W_N as CSV rows n,row,col,value.

    The header line records the kernel exponent, step size, contour radius
    lambda, target accuracy eps and the largest imaginary part discarded when
    the contour sums were realified; the recurrence-based midcq weights have
    no contour, so those fields read nan for them.
    """
    if method == "midcq":
        seq = midcq_weights(exponent, h, n_weights)
        W = seq.w.reshape(-1, 1, 1)
        label, lam, eps_used, resid = "midpoint-scalar", math.nan, math.nan, 0.0
    else:
        tab = _tableau_for(method)
        seq = compute_weights(tab, exponent, h, n_weights)
        W = seq.W
        label, lam, eps_used, resid = (seq.tableau_label, seq.radius, seq.eps,
                                       seq.max_imag_residue)
    header = (f"# method={method} tableau={label} exponent={_fmt(exponent)}"
              f" h={_fmt(h)} lambda={_fmt(lam)} eps={_fmt(eps_used)}"
              f" max_imag_residue={_fmt(resid)} columns=n,row,col,value")
    path = Path(path)
    # the indices go through %.17g as floats, which writes them as integers
    _write_lines(path, header,
                 np.column_stack([*np.indices(W.shape).reshape(3, -1), W.ravel()]).tolist())
    return path


def read_weights(path) -> Tuple[dict, np.ndarray]:
    """Parse an export_weights file back into (metadata, array of shape (N+1, r, r))."""
    lines = Path(path).read_text().strip().splitlines()
    meta = {}
    for token in lines[0].lstrip("# ").split():
        key, _, value = token.partition("=")
        try:
            meta[key] = float(value)
        except ValueError:
            meta[key] = value
    data = np.array([[float(f) for f in line.split(",")] for line in lines[1:]])
    n = data[:, 0].astype(int)
    r = int(data[:, 1].max()) + 1
    W = np.zeros((int(n.max()) + 1, r, r))
    W[n, data[:, 1].astype(int), data[:, 2].astype(int)] = data[:, 3]
    return meta, W


def write_report_csv(report: ConvergenceReport, path) -> Path:
    """Write a convergence report as CSV rows N,h,err_x,err_p."""
    def idx(t):
        return ";".join(str(i) for i in t) if t else "-"

    header = (f"# spec={report.spec_name} method={report.method}"
              f" error_norm={report.error_norm.replace(' ', '-')}"
              f" slope_x={_fmt(report.slope_x)} slope_p={_fmt(report.slope_p)}"
              f" excluded_x={idx(report.excluded_x)}"
              f" excluded_p={idx(report.excluded_p)}"
              f" columns=N,h,err_x,err_p")
    rows = zip(report.steps, report.step_sizes, report.err_x, report.err_p)
    path = Path(path)
    _write_lines(path, header, rows)
    return path


def format_report(report: ConvergenceReport) -> str:
    """Human-readable rendering of a convergence report."""
    out = [f"{report.spec_name} / {report.method}  "
           f"(error: {report.error_norm})"]
    out.append(f"{'N':>8} {'h':>12} {'err_x':>12} {'err_p':>12}")
    for i in range(report.steps.size):
        out.append(f"{int(report.steps[i]):>8} {report.step_sizes[i]:>12.5g} "
                   f"{report.err_x[i]:>12.5g} {report.err_p[i]:>12.5g}")

    def note(t):
        return f" (excluded points: {', '.join(str(i) for i in t)})" if t else ""

    out.append(f"slope_x = {report.slope_x:.3f}{note(report.excluded_x)}")
    out.append(f"slope_p = {report.slope_p:.3f}{note(report.excluded_p)}")
    return "\n".join(out)
