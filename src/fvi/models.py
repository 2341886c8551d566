"""Benchmark problems with closed-form solutions and the energy functional.

Each factory returns an immutable BenchmarkSpec whose exact solution is
verified against the governing equation at construction time, so a spec that
constructs at all is a trustworthy reference for convergence studies.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .galerkin import LagrangianProblem
from .oracle import rl_monomial

__all__ = [
    "BenchmarkSpec",
    "coupled_oscillator",
    "bagley_torvik",
    "damped_oscillator_1d",
    "energy",
    "energy_series",
    "exact_states",
    "by_name",
    "with_derivative_order",
    "BENCHMARK_NAMES",
]


@dataclass(frozen=True)
class BenchmarkSpec:
    """Named benchmark: problem data, default initial state and horizon.

    The initial momentum in default_initials is M xdot(0).  The problem's
    exact_solution, when present, returns (x(t), xdot(t)) at t; exact_states
    turns it into positions and momenta.
    """

    problem: LagrangianProblem
    name: str
    default_initials: Tuple[np.ndarray, np.ndarray]
    default_horizon: float

    def __post_init__(self):
        # copies, frozen below: no view of the caller's arrays
        x0 = np.array(self.default_initials[0], dtype=float).ravel()
        p0 = np.array(self.default_initials[1], dtype=float).ravel()
        if x0.size != self.problem.d or p0.size != self.problem.d:
            raise ValueError("initial state dimension mismatch")
        if not (math.isfinite(self.default_horizon) and self.default_horizon > 0):
            raise ValueError("horizon must be positive and finite, "
                             f"got {self.default_horizon!r}")
        x0.setflags(write=False)
        p0.setflags(write=False)
        object.__setattr__(self, "default_initials", (x0, p0))


def exact_states(prob: LagrangianProblem, t) -> Tuple[np.ndarray, np.ndarray]:
    """Exact positions X and momenta P at the times t, each of shape (len(t), d).

    exact_solution returns (x(t), xdot(t)); the momentum is M xdot.  The
    products are stacked per row, so they round as M @ xdot does; V @ M^T
    does not for d > 1 and a full M.
    """
    if prob.exact_solution is None:
        raise ValueError("benchmark has no exact solution")
    states = [prob.exact_solution(float(tk))
              for tk in np.asarray(t, dtype=float).ravel()]
    X = np.array([x for x, _ in states], dtype=float).reshape(-1, prob.d)
    V = np.array([v for _, v in states], dtype=float).reshape(-1, prob.d)
    return X, (prob.mass_matrix @ V[:, :, None])[:, :, 0]


def _check_exact(prob: LagrangianProblem, horizon: float,
                 damping_term: Callable[[float], np.ndarray]) -> None:
    """Residual of pdot + rho*damping + grad U at 20 times up to horizon.

    pdot is a central difference of the exact momentum, so the check does
    not reuse any analytic derivative of the closed form it validates.
    """
    delta = 1e-5
    ts = horizon * np.arange(1, 21) / 20
    X, _ = exact_states(prob, ts)
    pdot = (exact_states(prob, ts + delta)[1]
            - exact_states(prob, ts - delta)[1]) / (2.0 * delta)
    for t, x, dp in zip(ts.tolist(), X, pdot):
        resid = dp + prob.rho * damping_term(t) + prob.grad_potential(t, x)
        if np.abs(resid).max() > 1e-8:
            raise RuntimeError(
                f"exact solution residual {np.abs(resid).max():.3e} at t={t}")


def _underdamped_solution(eta: float, rho: float, x0: np.ndarray,
                          v0: np.ndarray) -> Callable[[float], tuple]:
    """Closed form of xddot + rho xdot + eta x = 0 per component, underdamped."""
    omega = math.sqrt(eta - rho * rho / 4.0)
    a = rho / 2.0
    c2 = (v0 + a * x0) / omega

    def solution(t: float) -> tuple:
        decay = math.exp(-a * t)
        cos_t = math.cos(omega * t)
        sin_t = math.sin(omega * t)
        x = decay * (x0 * cos_t + c2 * sin_t)
        v = decay * ((-a * x0 + c2 * omega) * cos_t - (a * c2 + x0 * omega) * sin_t)
        return x, v

    return solution


def coupled_oscillator() -> BenchmarkSpec:
    """Two unit masses with identical linear restoring and damping coefficients.

    eta=0.5, rho=0.25, alpha=1/2: the damping is the classical first derivative,
    the half-order squared limit, and the components decouple into underdamped oscillators.
    """
    eta, rho = 0.5, 0.25
    x0 = np.array([0.8, -0.5])
    v0 = np.array([0.4, 0.0])
    exact = _underdamped_solution(eta, rho, x0, v0)
    prob = LagrangianProblem(
        d=2,
        potential=lambda t, x: 0.5 * eta * (x @ x),
        grad_potential=lambda t, x: eta * x,
        hess_potential=lambda t, x: eta * np.eye(2),
        rho=rho,
        alpha=0.5,
        exact_solution=exact,
    )
    _check_exact(prob, 20.0, lambda t: np.asarray(exact(t)[1]))
    return BenchmarkSpec(problem=prob, name="coupled-oscillator",
                         default_initials=(x0, v0.copy()), default_horizon=20.0)


def bagley_torvik() -> BenchmarkSpec:
    """Forced rigid plate in a Newtonian fluid: half-derivative damping, exact solution t^3.

    The damping operator is D^(1/2), i.e. alpha=1/4 in the D^(2 alpha)
    convention; the forcing is chosen so x(t)=t^3 solves
    xddot + D^(1/2)x + x = f.
    """
    gamma_half = math.gamma(0.5)

    def forcing(t: float) -> float:
        return t ** 3 + 6.0 * t + 3.2 * t ** 2.5 / gamma_half

    def exact(t: float) -> tuple:
        return np.array([t ** 3]), np.array([3.0 * t ** 2])

    prob = LagrangianProblem(
        d=1,
        potential=lambda t, x: 0.5 * x[0] ** 2 - x[0] * forcing(t),
        grad_potential=lambda t, x: x - forcing(t),
        hess_potential=lambda t, x: np.eye(1),
        rho=1.0,
        alpha=0.25,
        exact_solution=exact,
    )
    _check_exact(prob, 1.0,
                 lambda t: np.array([rl_monomial(3, 0.5, t, kind="derivative")]))
    return BenchmarkSpec(problem=prob, name="bagley-torvik",
                         default_initials=(np.zeros(1), np.zeros(1)),
                         default_horizon=1.0)


def damped_oscillator_1d() -> BenchmarkSpec:
    """Scalar underdamped oscillator xddot + 0.25 xdot + x = 0: the classical damping limit."""
    eta, rho = 1.0, 0.25
    x0 = np.array([1.0])
    v0 = np.array([0.5])
    exact = _underdamped_solution(eta, rho, x0, v0)
    prob = LagrangianProblem(
        d=1,
        potential=lambda t, x: 0.5 * eta * (x @ x),
        grad_potential=lambda t, x: eta * x,
        hess_potential=lambda t, x: eta * np.eye(1),
        rho=rho,
        alpha=0.5,
        exact_solution=exact,
    )
    _check_exact(prob, 16.0, lambda t: np.asarray(exact(t)[1]))
    return BenchmarkSpec(problem=prob, name="damped-oscillator-1d",
                         default_initials=(x0, v0.copy()), default_horizon=16.0)


_FACTORIES = {
    "coupled-oscillator": coupled_oscillator,
    "bagley-torvik": bagley_torvik,
    "damped-oscillator-1d": damped_oscillator_1d,
}

BENCHMARK_NAMES = tuple(sorted(_FACTORIES))


def by_name(name: str) -> BenchmarkSpec:
    """Look up a benchmark by its CLI name."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown benchmark {name!r}; choices: {', '.join(BENCHMARK_NAMES)}"
        ) from None
    return factory()


def with_derivative_order(spec: BenchmarkSpec, order: float) -> BenchmarkSpec:
    """Copy of the benchmark with the damping derivative order 2*alpha replaced.

    Changing the order invalidates the closed-form solution, so the copy
    drops exact_solution unless the order is unchanged.
    """
    if not 0.0 < order < 2.0:
        raise ValueError("derivative order must lie in (0, 2)")
    if order == 2.0 * spec.problem.alpha:
        return spec
    prob = dataclasses.replace(spec.problem, alpha=order / 2.0,
                               exact_solution=None)
    return dataclasses.replace(spec, problem=prob)


def energy(prob: LagrangianProblem, x: np.ndarray, p: np.ndarray) -> float:
    """Hamiltonian 1/2 p^T M^{-1} p + U(0, x) of the undamped part."""
    return float(_energies(prob, [x], [p])[0])


def _energies(prob: LagrangianProblem, X, P) -> np.ndarray:
    """Energy of each row of X and P, with one stacked mass solve for all rows.

    energy is its one-row case.  The solve and the 1 x d by d x 1 products
    are stacked per row, so each row rounds as it would alone; a
    multi-column solve or an einsum sum does not for d > 1.
    """
    P = np.asarray(P, dtype=float)
    v = np.linalg.solve(prob.mass_matrix, P[:, :, None])
    kinetic = ((0.5 * P)[:, None, :] @ v)[:, 0, 0]
    return kinetic + np.array([prob.potential(0.0, xk)
                               for xk in np.asarray(X, dtype=float)])


def energy_series(spec: BenchmarkSpec, t: np.ndarray, x: np.ndarray,
                  p: np.ndarray) -> tuple:
    """Energy along a trajectory plus exact energy and its relative error.

    x and p hold one state per time in t.  Returns (E_num, E_exact, E_err)
    with E_err = (E_num - E_exact) scaled by max_t |E_exact|.  Requires the
    benchmark's exact solution.
    """
    prob = spec.problem
    return _energy_columns(prob, x, p, *exact_states(prob, t))


def _energy_columns(prob: LagrangianProblem, x, p, X, P) -> tuple:
    """energy_series of the states (x, p) against exact states (X, P) already read."""
    e_exact = _energies(prob, X, P)
    e_num = _energies(prob, x, p)
    scale = np.abs(e_exact).max()
    if scale == 0.0:
        scale = 1.0
    return e_num, e_exact, (e_num - e_exact) / scale
