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

from . import _checks
from .galerkin import LagrangianProblem, _conform
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

    The initial momentum in default_initials is M xdot(0).
    """

    problem: LagrangianProblem
    name: str
    default_initials: Tuple[np.ndarray, np.ndarray]
    default_horizon: float

    def __post_init__(self):
        object.__setattr__(self, "default_initials", tuple(
            _checks.state(f"initial {name}", value, self.problem.d)
            for name, value in zip(("x0", "p0"), self.default_initials)))
        _checks.real("horizon", self.default_horizon, 0.0)


def exact_states(prob: LagrangianProblem, t) -> Tuple[np.ndarray, np.ndarray]:
    """Exact positions X and momenta P at the times t, each of shape (len(t), d).

    One exact_solution call on all the times gives (x(t), xdot(t)); the
    momentum is M xdot.  The products are stacked per row, so they round as
    M @ xdot does; V @ M^T does not for d > 1 and a full M.
    """
    if prob.exact_solution is None:
        raise ValueError("benchmark has no exact solution")
    t = np.asarray(t, dtype=float).ravel()
    X, V = (_conform(a, "exact_solution", t.shape + (prob.d,), 1)
            for a in prob.exact_solution(t))
    return X, (prob.mass_matrix @ V[:, :, None])[:, :, 0]


def _check_exact(prob: LagrangianProblem, horizon: float,
                 damping_term: Callable[[np.ndarray], np.ndarray]) -> None:
    """Residual of pdot + rho*damping + grad U at 20 times up to horizon.

    damping_term maps the times to the damping of the exact solution, (20, d).
    pdot is a central difference of the exact momentum, so the check does
    not reuse any analytic derivative of the closed form it validates.
    """
    delta = 1e-5
    ts = horizon * np.arange(1, 21) / 20
    X, _ = exact_states(prob, ts)
    pdot = (exact_states(prob, ts + delta)[1]
            - exact_states(prob, ts - delta)[1]) / (2.0 * delta)
    grad = _conform(prob.grad_potential(ts, X), "grad_potential", X.shape, 1)
    resid = np.abs(pdot + prob.rho * damping_term(ts) + grad).max(axis=1)
    bad = ~np.isfinite(resid)
    k = int(bad.argmax() if bad.any() else resid.argmax())  # first non-finite, else largest
    if not resid.max() <= 1e-8:  # a NaN residual fails the <= and raises
        raise RuntimeError(f"exact solution residual {resid[k]:.3e} at t={ts[k]}")


def _underdamped(name: str, eta: float, rho: float, x0, v0,
                 horizon: float) -> BenchmarkSpec:
    """Unit masses under xddot + rho xdot + eta x = 0 per component, underdamped.

    alpha = 1/2 makes the damping the classical first derivative, the
    half-order squared limit, and the closed form is the underdamped one.
    """
    x0, v0 = np.array(x0), np.array(v0)
    omega = math.sqrt(eta - rho * rho / 4.0)
    a = rho / 2.0
    c2 = (v0 + a * x0) / omega

    def exact(t) -> tuple:
        t = np.asarray(t, dtype=float)[..., None]
        decay, cos_t, sin_t = np.exp(-a * t), np.cos(omega * t), np.sin(omega * t)
        x = decay * (x0 * cos_t + c2 * sin_t)
        v = decay * ((-a * x0 + c2 * omega) * cos_t - (a * c2 + x0 * omega) * sin_t)
        return x, v

    prob = LagrangianProblem(
        d=x0.size,
        potential=lambda t, x: 0.5 * eta * (x[..., None, :] @ x[..., None])[..., 0, 0],
        grad_potential=lambda t, x: eta * x,
        hess_potential=lambda t, x: eta * np.eye(x0.size),
        rho=rho,
        alpha=0.5,
        exact_solution=exact,
    )
    _check_exact(prob, horizon, lambda t: exact(t)[1])
    return BenchmarkSpec(problem=prob, name=name, default_initials=(x0, v0),
                         default_horizon=horizon)


def coupled_oscillator() -> BenchmarkSpec:
    """Two unit masses with identical linear restoring and damping coefficients.

    eta=0.5, rho=0.25, alpha=1/2: the damping is the classical first derivative,
    the half-order squared limit, and the components decouple into underdamped oscillators.
    """
    return _underdamped("coupled-oscillator", 0.5, 0.25, [0.8, -0.5], [0.4, 0.0], 20.0)


def bagley_torvik() -> BenchmarkSpec:
    """Forced rigid plate in a Newtonian fluid: half-derivative damping, exact solution t^3.

    The damping operator is D^(1/2), i.e. alpha=1/4 in the D^(2 alpha)
    convention; the forcing is chosen so x(t)=t^3 solves
    xddot + D^(1/2)x + x = f.
    """
    gamma_half = math.gamma(0.5)

    def forcing(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return t ** 3 + 6.0 * t + 3.2 * t ** 2.5 / gamma_half

    def exact(t) -> tuple:
        t = np.asarray(t, dtype=float)[..., None]
        return t ** 3, 3.0 * t ** 2

    prob = LagrangianProblem(
        d=1,
        potential=lambda t, x: 0.5 * x[..., 0] ** 2 - x[..., 0] * forcing(t),
        grad_potential=lambda t, x: x - forcing(t)[..., None],
        hess_potential=lambda t, x: np.eye(1),
        rho=1.0,
        alpha=0.25,
        exact_solution=exact,
    )
    _check_exact(prob, 1.0,
                 lambda t: rl_monomial(3, 0.5, 1.0, kind="derivative") * t[:, None] ** 2.5)
    return BenchmarkSpec(problem=prob, name="bagley-torvik",
                         default_initials=(np.zeros(1), np.zeros(1)),
                         default_horizon=1.0)


def damped_oscillator_1d() -> BenchmarkSpec:
    """Scalar underdamped oscillator xddot + 0.25 xdot + x = 0: the classical damping limit."""
    return _underdamped("damped-oscillator-1d", 1.0, 0.25, [1.0], [0.5], 16.0)


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
    order = _checks.real("derivative order", order, 0.0, 2.0)
    if order == 2.0 * spec.problem.alpha:
        return spec
    prob = dataclasses.replace(spec.problem, alpha=order / 2.0,
                               exact_solution=None)
    return dataclasses.replace(spec, problem=prob)


def energy(prob: LagrangianProblem, x, p):
    """Hamiltonian 1/2 p^T M^{-1} p + U(0, x) of the undamped part, per row.

    x and p stack states as rows, one shape S + (d,), and the result has
    shape S: one value per row, a float for one state.  The mass solve and the
    1 x d by d x 1 products are stacked per row, so each row rounds as it
    would alone; a multi-column solve or an einsum sum does not for d > 1.
    """
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    if x.shape != p.shape or x.shape[-1:] != (prob.d,):
        raise ValueError(f"x and p must share one shape ending in d = {prob.d}, "
                         f"got {x.shape} and {p.shape}")
    v = np.linalg.solve(prob.mass_matrix, p[..., None])
    kinetic = ((0.5 * p)[..., None, :] @ v)[..., 0, 0]
    rows = p.shape[:-1]
    e = kinetic + _conform(prob.potential(np.zeros(rows), x), "potential", rows)
    return float(e) if e.ndim == 0 else e


def energy_series(spec: BenchmarkSpec, t: np.ndarray, x: np.ndarray,
                  p: np.ndarray) -> tuple:
    """Energy along a trajectory plus exact energy and its relative error.

    x and p hold one state per time in t.  Returns (E_num, E_exact, E_err)
    with E_err = (E_num - E_exact) scaled by max_t |E_exact|.  Requires the
    benchmark's exact solution.
    """
    return _energy_columns(spec.problem, x, p, *exact_states(spec.problem, t))


def _energy_columns(prob: LagrangianProblem, x, p, X, P) -> tuple:
    """energy_series of the states (x, p) against exact states (X, P) already read."""
    e_exact = energy(prob, X, P)
    e_num = energy(prob, x, p)
    scale = np.abs(e_exact).max() or 1.0
    return e_num, e_exact, (e_num - e_exact) / scale
