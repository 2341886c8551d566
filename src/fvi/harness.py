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
from .models import BenchmarkSpec, by_name, energy_series, with_derivative_order
from .stepper import FviConfig, FviSolution, _run_weights, run, run_midcq
from .tableau import lobatto_iiic

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

_LOBATTO_STAGES = {"lobatto2": 2, "lobatto3": 3, "lobatto4": 4}
METHOD_NAMES = ("lobatto2", "lobatto3", "lobatto4", "midcq")

ERROR_NORM = "max over main nodes and components"


def _tableau_for(method: str):
    """Butcher tableau for a method name, or None for the scalar midcq scheme."""
    if method in _LOBATTO_STAGES:
        return lobatto_iiic(_LOBATTO_STAGES[method])
    if method == "midcq":
        return None
    raise ValueError(
        f"unknown method {method!r}; choices: {', '.join(METHOD_NAMES)}")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ConvergenceReport:
    """Errors and fitted orders of one method over a sequence of step counts.

    err_x and err_p are the maxima over main nodes and components of the
    deviation from the exact solution; err_p is None for midcq, which outputs
    positions.  excluded_* list the sweep indices the slope fit dropped, either
    by the rounding floor guard or by the trailing-stagnation trim.
    """

    spec_name: str
    method: str
    steps: np.ndarray
    step_sizes: np.ndarray
    err_x: np.ndarray
    slope_x: float
    excluded_x: Tuple[int, ...]
    err_p: Optional[np.ndarray] = None
    slope_p: Optional[float] = None
    excluded_p: Optional[Tuple[int, ...]] = None
    error_norm: str = ERROR_NORM

    def __post_init__(self):
        for name in ("steps", "step_sizes", "err_x", "err_p"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.steps.size
        if n < 3:
            raise ValueError("need at least 3 step counts for a slope fit")
        if self.step_sizes.size != n or self.err_x.size != n:
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
    if tab is None:
        return run_midcq(spec.problem, cfg, x0, p0)
    return run(spec.problem, tab, cfg, x0, p0)


def node_errors(spec: BenchmarkSpec, sol: FviSolution) -> Tuple[float, float]:
    """Max deviations (err_x, err_p) from the exact solution at the main nodes."""
    prob = spec.problem
    if prob.exact_solution is None:
        raise ValueError("benchmark has no exact solution")
    xs = sol.node_positions
    err_x = err_p = 0.0
    for k, t in enumerate(sol.times):
        xe, ve = prob.exact_solution(float(t))
        err_x = max(err_x, float(np.abs(xs[k] - np.asarray(xe)).max()))
        pe = prob.mass_matrix @ np.asarray(ve)
        err_p = max(err_p, float(np.abs(sol.momenta[k] - pe).max()))
    return err_x, err_p


def _exact_magnitudes(spec: BenchmarkSpec, horizon: float,
                      samples: int = 256) -> Tuple[float, float]:
    """Peak |x| and |p| of the exact solution, used by the fit floor guard."""
    prob = spec.problem
    mx = mp = 0.0
    for t in np.linspace(0.0, horizon, samples + 1):
        xe, ve = prob.exact_solution(float(t))
        mx = max(mx, float(np.abs(xe).max()))
        mp = max(mp, float(np.abs(prob.mass_matrix @ np.asarray(ve)).max()))
    return mx, mp


def converge(spec_name, method: str, steps: Sequence[int],
             horizon: Optional[float] = None) -> ConvergenceReport:
    """Run the method at each step count and fit convergence slopes.

    The step counts run one after another, coarsest first.  Stepper failures
    carry the offending N in the message.  Position and momentum maxima over
    the main nodes are fitted separately; midcq reports positions only.
    """
    spec = spec_name if isinstance(spec_name, BenchmarkSpec) else by_name(spec_name)
    _tableau_for(method)
    if spec.problem.exact_solution is None:
        raise ValueError("convergence study needs an exact solution")
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
    mag_x, mag_p = _exact_magnitudes(spec, horizon)
    slope_x, _, excl_x = fit_slope(hs, err_x, mag_x)
    if method == "midcq":
        return ConvergenceReport(spec_name=spec.name, method=method,
                                 steps=np.array(steps), step_sizes=hs,
                                 err_x=err_x, slope_x=slope_x,
                                 excluded_x=excl_x)
    slope_p, _, excl_p = fit_slope(hs, err_p, mag_p)
    return ConvergenceReport(spec_name=spec.name, method=method,
                             steps=np.array(steps), step_sizes=hs,
                             err_x=err_x, slope_x=slope_x, excluded_x=excl_x,
                             err_p=err_p, slope_p=slope_p, excluded_p=excl_p)


def _write_lines(path: Path, header: str, rows) -> None:
    body = "\n".join([header] + [",".join(_fmt(v) for v in row) for row in rows])
    path.write_text(body + "\n")


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
    rows = [[sol.times[k], *xs[k], *sol.momenta[k]] for k in range(sol.times.size)]
    _write_lines(traj_path, "# " + ",".join(cols), rows)
    files = {"trajectory": traj_path.name}

    max_err_x = max_err_p = None
    if spec.problem.exact_solution is not None:
        e_num, e_exact, e_err = energy_series(spec, sol.times, xs, sol.momenta)
        energy_path = out / f"{stem}-energy.csv"
        _write_lines(energy_path, "# t,E_num,E_exact,E_err",
                     [[sol.times[k], e_num[k], e_exact[k], e_err[k]]
                      for k in range(sol.times.size)])
        files["energy"] = energy_path.name
        max_err_x, max_err_p = node_errors(spec, sol)

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
    exponent = -2.0 * spec.problem.alpha
    if method == "midcq":
        data = midcq_weights(exponent, h, n_steps).w
    else:
        data = _run_weights(spec.problem, _tableau_for(method), h, n_steps).W
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
        seq = midcq_weights(exponent, h, int(n_weights))
        W = seq.w.reshape(-1, 1, 1)
        label, lam, eps_used, resid = "midpoint-scalar", math.nan, math.nan, 0.0
    else:
        tab = _tableau_for(method)
        seq = compute_weights(tab, exponent, h, int(n_weights))
        W = seq.W
        label, lam, eps_used, resid = (seq.tableau_label, seq.radius, seq.eps,
                                       seq.max_imag_residue)
    header = (f"# method={method} tableau={label} exponent={_fmt(exponent)}"
              f" h={_fmt(h)} lambda={_fmt(lam)} eps={_fmt(eps_used)}"
              f" max_imag_residue={_fmt(resid)} columns=n,row,col,value")
    path = Path(path)
    lines = [header] + [f"{n},{i},{j},{_fmt(W[n, i, j])}"
                        for n in range(W.shape[0])
                        for i in range(W.shape[1])
                        for j in range(W.shape[2])]
    path.write_text("\n".join(lines) + "\n")
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

    slope_p = math.nan if report.slope_p is None else report.slope_p
    header = (f"# spec={report.spec_name} method={report.method}"
              f" error_norm={report.error_norm.replace(' ', '-')}"
              f" slope_x={_fmt(report.slope_x)} slope_p={_fmt(slope_p)}"
              f" excluded_x={idx(report.excluded_x)}"
              f" excluded_p={idx(report.excluded_p or ())}"
              f" columns=N,h,err_x,err_p")
    rows = []
    for i in range(report.steps.size):
        ep = math.nan if report.err_p is None else report.err_p[i]
        rows.append([report.steps[i], report.step_sizes[i], report.err_x[i], ep])
    path = Path(path)
    _write_lines(path, header, rows)
    return path


def format_report(report: ConvergenceReport) -> str:
    """Human-readable rendering of a convergence report."""
    out = [f"{report.spec_name} / {report.method}  "
           f"(error: {report.error_norm})"]
    head = f"{'N':>8} {'h':>12} {'err_x':>12}"
    if report.err_p is not None:
        head += f" {'err_p':>12}"
    out.append(head)
    for i in range(report.steps.size):
        line = (f"{int(report.steps[i]):>8} {report.step_sizes[i]:>12.5g} "
                f"{report.err_x[i]:>12.5g}")
        if report.err_p is not None:
            line += f" {report.err_p[i]:>12.5g}"
        out.append(line)

    def note(t):
        return f" (excluded points: {', '.join(str(i) for i in t)})" if t else ""

    out.append(f"slope_x = {report.slope_x:.3f}{note(report.excluded_x)}")
    if report.slope_p is not None:
        out.append(f"slope_p = {report.slope_p:.3f}{note(report.excluded_p)}")
    return "\n".join(out)
