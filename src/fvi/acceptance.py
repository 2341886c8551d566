"""Acceptance checks: nine numbered experiments run at fixed tolerances.

Each criterion function reruns its experiment from scratch and returns a
CriterionResult with a one-line detail string; run_all executes all nine in
order.  The CLI `verify` subcommand and tests/test_acceptance.py consume
these results, so any regression in a documented guarantee surfaces as a
FAIL line in both places.
"""

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cq import (StageTrajectory, _compute_weights, apply_advanced, apply_retarded,
                 compute_weights)
from .galerkin import LagrangianProblem
from .harness import converge, fit_slope, run_benchmark
from .models import by_name, energy_series, exact_states
from .oracle import brute_convolve, rl_monomial
from .stepper import (FviConfig, action_variation, companion_residuals,
                      qp_closed_form, run, solve_companion)
from .tableau import lobatto_iiic

__all__ = ["CriterionResult", "run_all", "format_line", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one acceptance criterion."""

    index: int
    title: str
    passed: bool
    detail: str
    elapsed: float


def _result(index: int, title: str, ok: bool, detail: str, t0: float,
            budget: Optional[float]) -> CriterionResult:
    elapsed = time.perf_counter() - t0
    if budget is not None and elapsed >= budget:
        ok = False
        detail += f"; exceeded {budget:g}s budget"
    return CriterionResult(index=index, title=title, passed=ok,
                           detail=f"{detail}; {elapsed:.2f}s", elapsed=elapsed)


def _inf_norm(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=-1).max())


def criterion_1() -> CriterionResult:
    """First-derivative weights of the 2-stage method have the known closed form."""
    t0 = time.perf_counter()
    h = 0.1
    seq = compute_weights(lobatto_iiic(2), -1.0, h, 64)
    dev0 = _inf_norm(h * seq.W[0] - np.array([[1.0, 1.0], [-1.0, 1.0]]))
    dev1 = _inf_norm(h * seq.W[1] - np.array([[0.0, -2.0], [0.0, 0.0]]))
    tail = max(_inf_norm(seq.W[n]) for n in range(2, 65))
    ok = dev0 < 1e-8 and dev1 < 1e-8 and tail < 1e-8 / h
    return _result(1, "two-weight structure of first-derivative weights", ok,
                   f"|hW0-ref|={dev0:.2e} |hW1-ref|={dev1:.2e} "
                   f"tail={tail:.2e} (gate {1e-8 / h:.0e})", t0, 1.0)


def criterion_2() -> CriterionResult:
    """Weight semigroup and the two summation-by-parts identities."""
    t0 = time.perf_counter()
    h, n, d = 0.25, 16, 2
    worst_semi = 0.0
    worst_ibp = 0.0
    for r in (2, 3):
        tab = lobatto_iiic(r)
        for half, full in ((-0.25, -0.5), (-0.5, -1.0)):
            wh = compute_weights(tab, half, h, n)
            wf = compute_weights(tab, full, h, n)
            conv = np.stack(brute_convolve(list(wh.W), list(wh.W)))
            rel = np.abs(conv - wf.W).max() / np.abs(wf.W).max()
            worst_semi = max(worst_semi, rel)
        w = compute_weights(tab, -0.5, h, n)
        B = np.diag(tab.b)
        rng = np.random.default_rng(202)
        for _ in range(20):
            f = StageTrajectory(rng.standard_normal((n + 1, r, d)), h)
            g = StageTrajectory(rng.standard_normal((n + 1, r, d)), h)
            lhs = float(np.sum(g.values * apply_retarded(w, f)))
            rhs = float(np.sum(apply_advanced(w, g) * f.values))
            worst_ibp = max(worst_ibp, abs(lhs - rhs))
            bf = StageTrajectory(np.einsum("ij,kjd->kid", B, f.values), h)
            lhs = float(np.sum(g.values * apply_retarded(w, bf)))
            rhs = float(np.sum(np.einsum("ij,kjd->kid", B, apply_advanced(w, g))
                               * f.values))
            worst_ibp = max(worst_ibp, abs(lhs - rhs))
    ok = worst_semi < 1e-7 and worst_ibp < 1e-10
    return _result(2, "weight semigroup and summation by parts", ok,
                   f"semigroup rel={worst_semi:.2e} (gate 1e-7), "
                   f"by-parts dev={worst_ibp:.2e} (gate 1e-10)", t0, 5.0)


def _quadrature_endpoint_slope(r: int, m: int, kind: str) -> float:
    """Fitted order of the retarded half-order quadrature of t^m at t=1."""
    tab = lobatto_iiic(r)
    exponent = 0.5 if kind == "integral" else -0.5
    hs, errs = [], []
    for k in range(2, 9):
        n = 2 ** k
        h = 1.0 / n
        w = _compute_weights(tab, exponent, h, n, 2 * (n + 1))  # a circle at every n
        t_nodes = h * (np.arange(n)[:, None] + tab.c[None, :])
        f = StageTrajectory((t_nodes ** m)[:, :, None], h)
        val = apply_retarded(w, f)[-1, -1, 0]
        hs.append(h)
        errs.append(abs(val - rl_monomial(m, 0.5, 1.0, kind=kind)))
    slope, _, _ = fit_slope(np.array(hs), np.array(errs),
                            magnitude=rl_monomial(m, 0.5, 1.0, kind=kind))
    return slope


def criterion_3() -> CriterionResult:
    """Half-order quadrature orders match the stage-order-limited predictions."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    for r in (2, 3):
        tab = lobatto_iiic(r)
        for m, kind, target in ((2, "integral", min(tab.p, tab.q + 1.5)),
                                (3, "derivative", min(tab.p, tab.q + 0.5))):
            slope = _quadrature_endpoint_slope(r, m, kind)
            ok = ok and abs(slope - target) <= 0.3
            label = "J" if kind == "integral" else "D"
            parts.append(f"{label}^(1/2)t^{m} r={r}: {slope:.2f} vs {target}")
    return _result(3, "half-order quadrature convergence", ok,
                   "; ".join(parts), t0, 10.0)


def criterion_4() -> CriterionResult:
    """Coupled oscillator converges at order 2r-2 in x and p."""
    t0 = time.perf_counter()
    steps = [2 ** k for k in range(5, 13)]
    parts = []
    ok = True
    for method, band in (("lobatto2", 0.25), ("lobatto3", 0.25),
                         ("lobatto4", 0.4)):
        rep = converge("coupled-oscillator", method, steps, horizon=30.0)
        target = 2 * int(method[-1]) - 2
        ok = ok and abs(rep.slope_x - target) <= band
        ok = ok and abs(rep.slope_p - target) <= band
        parts.append(f"{method}: x {rep.slope_x:.2f}, p {rep.slope_p:.2f} "
                     f"vs {target}±{band}")
    return _result(4, "coupled-oscillator order 2r-2 in x and p", ok,
                   "; ".join(parts), t0, 120.0)


def criterion_5() -> CriterionResult:
    """Half-derivative benchmark reproduces the reported 2.0 / 3.0 / 3.5 slopes."""
    t0 = time.perf_counter()
    steps = [2 ** k for k in range(2, 9)]
    parts = []
    ok = True
    for method, target in (("lobatto2", 2.0), ("lobatto3", 3.0),
                           ("lobatto4", 3.5)):
        rep = converge("bagley-torvik", method, steps, horizon=1.0)
        ok = ok and abs(rep.slope_x - target) <= 0.3
        parts.append(f"{method}: x {rep.slope_x:.2f} vs {target}±0.3")
    return _result(5, "half-derivative benchmark slopes", ok,
                   "; ".join(parts), t0, 60.0)


def criterion_6() -> CriterionResult:
    """Closed-form map is second order and matches the Newton stepper."""
    t0 = time.perf_counter()
    spec = by_name("damped-oscillator-1d")
    prob = spec.problem
    x0, p0 = spec.default_initials

    def local_error(h: float) -> Tuple[float, float]:
        x1, p1 = qp_closed_form(prob, h, x0, p0)
        (xe,), (pe,) = exact_states(prob, [h])
        return float(np.abs(x1 - xe).max()), float(np.abs(p1 - pe).max())

    ex1, ep1 = local_error(0.1)
    ex2, ep2 = local_error(0.05)
    ratio_x, ratio_p = ex1 / ex2, ep1 / ep2
    ok = abs(ratio_x - 8.0) <= 1.2 and abs(ratio_p - 8.0) <= 1.2

    h, n = 0.1, 100
    sol = run(prob, lobatto_iiic(2), FviConfig(h=h, N=n), x0, p0)
    nodes = sol.node_positions
    x, p = x0.copy(), p0.copy()
    worst = 0.0
    for k in range(1, n + 1):
        x, p = qp_closed_form(prob, h, x, p)
        dev = max(np.abs(x - nodes[k]).max(), np.abs(p - sol.momenta[k]).max())
        worst = max(worst, dev / k)
    ok = ok and worst < 1e-9
    return _result(6, "closed-form map order and stepper agreement", ok,
                   f"ratios x {ratio_x:.2f}, p {ratio_p:.2f} vs 8±1.2; "
                   f"per-step dev {worst:.1e} (gate 1e-9)", t0, None)


def criterion_7() -> CriterionResult:
    """Energy error stays small and the energy decays by more than half."""
    t0 = time.perf_counter()
    spec = by_name("coupled-oscillator")
    sol = run_benchmark(spec, "lobatto2", 100, horizon=20.0)
    e_num, _, e_err = energy_series(spec, sol.times, sol.node_positions,
                                    sol.momenta)
    start_dev = abs(e_num[0] - 0.3025)
    drop = 1.0 - e_num[-1] / e_num[0]
    ok = (np.abs(e_err).max() < 1e-2 and start_dev < 1e-12 and drop > 0.5)
    return _result(7, "energy accuracy and decay", ok,
                   f"max|E_err|={np.abs(e_err).max():.2e} (gate 1e-2), "
                   f"E0 dev {start_dev:.1e}, decay {100 * drop:.0f}%", t0, 1.0)


def criterion_8() -> CriterionResult:
    """Midpoint scheme keeps order 2 on both benchmarks."""
    t0 = time.perf_counter()
    steps = [2 ** k for k in range(4, 12)]
    parts = []
    ok = True
    for name, horizon in (("damped-oscillator-1d", 16.0),
                          ("bagley-torvik", 1.0)):
        rep = converge(name, "midcq", steps, horizon=horizon)
        ok = ok and abs(rep.slope_x - 2.0) <= 0.25
        parts.append(f"{name}: x {rep.slope_x:.2f} vs 2±0.25")
    return _result(8, "midpoint-quadrature order", ok, "; ".join(parts),
                   t0, 60.0)


def criterion_9() -> CriterionResult:
    """Discrete action is stationary along restricted variations on solutions."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    tab = lobatto_iiic(2)
    bt = by_name("bagley-torvik")
    harmonic = LagrangianProblem(
        d=2,
        potential=lambda t, x: 0.5 * (x[..., None, :] @ x[..., None])[..., 0, 0],
        grad_potential=lambda t, x: x,
        hess_potential=lambda t, x: np.eye(2),
        rho=0.3,
        alpha=0.5,
    )
    cases = [
        (bt.problem, bt.default_initials[0], bt.default_initials[1], 1.0),
        (harmonic, np.zeros(2), np.array([0.4, -0.3]), 2.0),
    ]
    worst = worst_resid = 0.0
    n = 8
    for prob, x0, p0, horizon in cases:
        h = horizon / n
        cfg = FviConfig(h=h, N=n)
        nodes = run(prob, tab, cfg, x0, p0).node_positions
        y = solve_companion(prob, tab, cfg, rng.standard_normal(prob.d),
                            rng.standard_normal(prob.d))
        w = compute_weights(tab, -2.0 * prob.alpha, h, n)
        resid = companion_residuals(prob, tab, w, y, h)
        worst_resid = max(worst_resid, float(np.abs(resid).max()))
        for _ in range(3):
            delta = np.zeros((n + 1, prob.d))
            delta[1:n] = rng.standard_normal((n - 1, prob.d))
            worst = max(worst, abs(action_variation(prob, tab, nodes, y, delta, h)))
    ok = worst < 1e-8 and worst_resid < 1e-10
    return _result(9, "discrete action stationarity", ok,
                   f"max |dS·delta| = {worst:.1e} (gate 1e-8), companion "
                   f"residual {worst_resid:.1e}", t0, None)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_all() -> Tuple[CriterionResult, ...]:
    """Run every criterion in order."""
    return tuple(fn() for fn in CRITERIA)


def format_line(result: CriterionResult) -> str:
    """One pass/fail line for a criterion."""
    verdict = "PASS" if result.passed else "FAIL"
    return f"{verdict}  {result.index}. {result.title}: {result.detail}"
