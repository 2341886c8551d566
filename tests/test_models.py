"""Tests for the benchmark problems and the energy functional."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fvi.models import (
    BENCHMARK_NAMES,
    bagley_torvik,
    by_name,
    coupled_oscillator,
    damped_oscillator_1d,
    energy,
    energy_series,
    exact_states,
    with_derivative_order,
)
from fvi.oracle import rl_monomial

OMEGA_COUPLED = 0.695970545353752740265
OMEGA_DAMPED_1D = 0.992156741649221471438
COUPLED_X1 = (0.948284621034966733799, -0.389438058222244040932)
COUPLED_P1 = (-0.0949292132714251026386, 0.203239829924610167692)
DAMPED_1D_X2 = 0.136299926787054763112
DAMPED_1D_P2 = -0.920194322831135084435


def _integrate_linear(eta, rho, x0, v0, t_end):
    # high-accuracy reference for xddot + rho xdot + eta x = 0
    d = x0.size

    def rhs(t, y):
        return np.concatenate([y[d:], -rho * y[d:] - eta * y[:d]])

    sol = solve_ivp(rhs, (0.0, t_end), np.concatenate([x0, v0]),
                    method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[:d, -1], sol.y[d:, -1]


def test_coupled_oscillator_parameters():
    spec = coupled_oscillator()
    assert spec.name == "coupled-oscillator"
    assert spec.problem.d == 2
    assert spec.problem.rho == 0.25
    assert spec.problem.alpha == 0.5
    assert spec.default_horizon == 20.0
    x0, p0 = spec.default_initials
    assert np.array_equal(x0, [0.8, -0.5])
    assert np.array_equal(p0, [0.4, 0.0])
    assert np.array_equal(spec.problem.mass_matrix, np.eye(2))


def test_coupled_oscillator_exact_solution_frozen_values():
    spec = coupled_oscillator()
    x0, p0 = spec.problem.exact_solution(0.0)
    assert np.allclose(x0, [0.8, -0.5], atol=1e-15)
    assert np.allclose(p0, [0.4, 0.0], atol=1e-15)
    x1, p1 = spec.problem.exact_solution(1.0)
    assert np.allclose(x1, COUPLED_X1, atol=1e-14)
    assert np.allclose(p1, COUPLED_P1, atol=1e-14)


def test_coupled_oscillator_against_ode_integrator():
    spec = coupled_oscillator()
    x0, p0 = spec.default_initials
    for t_end in (1.0, 5.0, 20.0):
        x_ref, v_ref = _integrate_linear(0.5, 0.25, x0, p0, t_end)
        x, p = spec.problem.exact_solution(t_end)
        assert np.abs(x - x_ref).max() < 1e-9
        assert np.abs(p - v_ref).max() < 1e-9


def test_coupled_oscillator_ode_residual():
    # five-point second derivative of the closed form, residual to 1e-8
    spec = coupled_oscillator()
    sol = spec.problem.exact_solution
    delta = 1e-2
    for t in (0.5, 1.0, 5.0, 17.3):
        vals = [np.asarray(sol(t + k * delta)[0]) for k in (-2, -1, 0, 1, 2)]
        xddot = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3]
                 - vals[4]) / (12 * delta ** 2)
        resid = xddot + 0.25 * np.asarray(sol(t)[1]) + 0.5 * vals[2]
        assert np.abs(resid).max() < 1e-8


def test_damped_oscillator_1d_frozen_values():
    spec = damped_oscillator_1d()
    assert spec.problem.d == 1
    assert spec.default_horizon == 16.0
    x, p = spec.problem.exact_solution(2.0)
    assert abs(x[0] - DAMPED_1D_X2) < 1e-14
    assert abs(p[0] - DAMPED_1D_P2) < 1e-14
    x_ref, v_ref = _integrate_linear(1.0, 0.25, *spec.default_initials, 16.0)
    x16, p16 = spec.problem.exact_solution(16.0)
    assert abs(x16[0] - x_ref[0]) < 1e-9
    assert abs(p16[0] - v_ref[0]) < 1e-9


def test_underdamped_frequencies():
    assert abs(math.sqrt(0.5 - 0.25 ** 2 / 4) - OMEGA_COUPLED) < 1e-18
    assert abs(math.sqrt(1.0 - 0.25 ** 2 / 4) - OMEGA_DAMPED_1D) < 1e-18


def test_bagley_torvik_solves_its_equation():
    spec = bagley_torvik()
    assert spec.problem.d == 1
    assert spec.problem.rho == 1.0
    assert spec.problem.alpha == 0.25
    assert spec.default_horizon == 1.0
    gamma_half = math.gamma(0.5)
    for t in (0.2, 0.5, 1.0):
        x, p = spec.problem.exact_solution(t)
        assert abs(x[0] - t ** 3) < 1e-15
        assert abs(p[0] - 3 * t ** 2) < 1e-15
        forcing = t ** 3 + 6 * t + 3.2 * t ** 2.5 / gamma_half
        resid = 6 * t + rl_monomial(3, 0.5, t, kind="derivative") + t ** 3 - forcing
        assert abs(resid) < 1e-12
    assert spec.problem.grad_potential(0.0, np.zeros(1))[0] == 0.0


def test_bagley_torvik_half_derivative_coefficient():
    # Gamma(4)/Gamma(3.5) equals 3.2/Gamma(0.5)
    assert abs(math.gamma(4.0) / math.gamma(3.5)
               - 3.2 / math.gamma(0.5)) < 1e-15


def test_energy_values():
    spec = coupled_oscillator()
    x0, p0 = spec.default_initials
    assert abs(energy(spec.problem, x0, p0) - 0.3025) < 1e-15
    assert energy(spec.problem, np.zeros(2), np.zeros(2)) == 0.0
    spec1 = damped_oscillator_1d()
    x0, p0 = spec1.default_initials
    assert abs(energy(spec1.problem, x0, p0) - 0.625) < 1e-15


def test_energy_rejects_mismatched_states():
    # [1.0] against [1.0, 2.0] used to broadcast into an energy of 2.75
    prob = coupled_oscillator().problem
    for x, p in (([1.0], [1.0, 2.0]), ([1.0, 2.0], [1.0]), ([[1.0, 2.0]], [1.0, 2.0]),
                 ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match=r"x and p must share one shape ending "
                           r"in d = 2, got \("):
            energy(prob, x, p)


def test_energy_decays_along_exact_flow():
    for spec in (coupled_oscillator(), damped_oscillator_1d()):
        times = np.linspace(0.0, spec.default_horizon, 9)
        vals = [energy(spec.problem, *spec.problem.exact_solution(t))
                for t in times]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_energy_series_vanishes_on_exact_trajectory():
    spec = coupled_oscillator()
    t = np.linspace(0.0, 10.0, 21)
    states = [spec.problem.exact_solution(tk) for tk in t]
    x = np.array([s[0] for s in states])
    p = np.array([s[1] for s in states])
    e_num, e_exact, e_err = energy_series(spec, t, x, p)
    assert np.allclose(e_num, e_exact, atol=1e-14)
    assert np.abs(e_err).max() < 1e-13
    assert abs(e_exact[0] - 0.3025) < 1e-15


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
@pytest.mark.parametrize("mass_scale", [None, 1.7])
def test_energy_series_is_energy_at_each_node(name, mass_scale):
    # one mass solve for all nodes rounds exactly as energy does per node
    spec = by_name(name)
    if mass_scale is not None:  # a full mass matrix; the exact energy is
        d = spec.problem.d      # then only a function of the exact states
        mass = mass_scale * np.eye(d) + 0.3 * np.ones((d, d))
        prob = dataclasses.replace(spec.problem, mass=mass)
        spec = dataclasses.replace(spec, problem=prob)
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 2.0, 17)
    d = spec.problem.d
    x, p = rng.normal(size=(17, d)), 3.0 * rng.normal(size=(17, d))
    e_num, e_exact, _ = energy_series(spec, t, x, p)
    ref = [energy(spec.problem, xk, pk) for xk, pk in zip(x, p)]
    assert np.array_equal(e_num, ref)
    M = spec.problem.mass_matrix  # exact_solution gives (x, xdot), p = M xdot
    ref = [energy(spec.problem, xe, M @ ve)
           for xe, ve in map(spec.problem.exact_solution, t)]
    assert np.array_equal(e_exact, ref)


def test_registry_lookup():
    assert BENCHMARK_NAMES == ("bagley-torvik", "coupled-oscillator",
                               "damped-oscillator-1d")
    for name in BENCHMARK_NAMES:
        assert by_name(name).name == name
    with pytest.raises(ValueError, match="unknown benchmark"):
        by_name("pendulum")


def test_with_derivative_order_keeps_the_mass_it_was_given():
    # the problem used to keep the caller's mass, which dataclasses.replace read again
    spec = bagley_torvik()
    mass = np.array([[2.0]])
    spec = dataclasses.replace(spec, problem=dataclasses.replace(spec.problem, mass=mass))
    mass[0, 0] = 5.0
    assert spec.problem.mass_matrix[0, 0] == 2.0
    assert with_derivative_order(spec, 0.8).problem.mass_matrix[0, 0] == 2.0


def test_with_derivative_order():
    spec = bagley_torvik()
    same = with_derivative_order(spec, 0.5)
    assert same is spec
    other = with_derivative_order(spec, 1.0)
    assert other.problem.alpha == 0.5
    assert other.problem.exact_solution is None
    assert other.problem.rho == spec.problem.rho
    # True used to run bagley-torvik at order 1
    for bad in (2.0, 0.0, True, 0, 2, math.nan):
        with pytest.raises(ValueError,
                           match=rf"derivative order must lie in \(0, 2\), got {bad!r}"):
            with_derivative_order(spec, bad)


def test_construction_check_rejects_wrong_solution():
    from fvi.galerkin import LagrangianProblem
    from fvi.models import _check_exact

    bad = LagrangianProblem(
        d=1,
        potential=lambda t, x: 0.5 * (x[..., None, :] @ x[..., None])[..., 0, 0],
        grad_potential=lambda t, x: x,
        rho=0.25,
        alpha=0.5,
        exact_solution=lambda t: (np.cos(t)[..., None], -np.sin(t)[..., None]),
    )
    with pytest.raises(RuntimeError, match="residual"):
        _check_exact(bad, 10.0, lambda t: -np.sin(t)[:, None])
    # an undamped closed form that turns NaN after t = 4.2: NaN fails every
    # comparison, so the check must reject it, naming the first such time
    nan_late = dataclasses.replace(bad, rho=0.0, exact_solution=lambda t: (
        np.where(t > 4.2, np.nan, np.cos(t))[..., None], -np.sin(t)[..., None]))
    with pytest.raises(RuntimeError, match=r"residual nan at t=4\.5$"):
        _check_exact(nan_late, 10.0, lambda t: np.zeros((t.size, 1)))


def test_spec_validation():
    spec = coupled_oscillator()
    from fvi.models import BenchmarkSpec

    with pytest.raises(ValueError, match="dimension"):
        BenchmarkSpec(problem=spec.problem, name="x",
                      default_initials=(np.zeros(3), np.zeros(3)),
                      default_horizon=1.0)
    for bad in (0.0, float("nan"), float("inf"), True):
        with pytest.raises(ValueError,
                           match=f"horizon must be positive and finite, got {bad!r}"):
            BenchmarkSpec(problem=spec.problem, name="x",
                          default_initials=(np.zeros(2), np.zeros(2)),
                          default_horizon=bad)


def test_spec_copies_the_callers_initial_state():
    # the frozen copies belong to the spec: a later write by the caller
    # neither fails nor reaches the spec
    spec = coupled_oscillator()
    from fvi.models import BenchmarkSpec

    x0, p0 = np.zeros(2), np.zeros(2)
    copy = BenchmarkSpec(problem=spec.problem, name="x",
                         default_initials=(x0, p0), default_horizon=1.0)
    x0[0], p0[0] = 1.0, 2.0
    assert not copy.default_initials[0].any() and not copy.default_initials[1].any()
    assert not copy.default_initials[0].flags.writeable


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_exact_states_reads_position_and_velocity(name):
    # one call on all times gives each time's per-time value, bit for bit
    spec = by_name(name)
    d = spec.problem.d
    mass = np.array([[2.0, 0.3], [0.3, 1.5]])[:d, :d]
    prob = dataclasses.replace(spec.problem, mass=mass)
    t = np.linspace(0.0, 3.0, 7)
    X, P = exact_states(prob, t)
    assert X.shape == P.shape == (7, d)
    for k, tk in enumerate(t):
        x, v = prob.exact_solution(tk)
        assert np.array_equal(X[k], x)
        assert np.array_equal(P[k], mass @ v)
    X1, P1 = exact_states(prob, [1.0])
    assert X1.shape == P1.shape == (1, d)
    no_exact = with_derivative_order(bagley_torvik(), 1.0).problem
    with pytest.raises(ValueError, match="benchmark has no exact solution"):
        exact_states(no_exact, t)


def _heavy_oscillator():
    # m xddot + x = 0 with m = 2: x = cos(t / sqrt 2), p = m xdot
    from fvi.galerkin import LagrangianProblem
    from fvi.models import BenchmarkSpec

    w = 1.0 / math.sqrt(2.0)
    prob = LagrangianProblem(
        d=1,
        potential=lambda t, x: 0.5 * (x[..., None, :] @ x[..., None])[..., 0, 0],
        grad_potential=lambda t, x: x,
        mass=np.array([[2.0]]),
        hess_potential=lambda t, x: np.eye(1),
        rho=0.0,
        alpha=0.5,
        exact_solution=lambda t: (np.cos(w * np.asarray(t))[..., None],
                                  -w * np.sin(w * np.asarray(t))[..., None]),
    )
    return BenchmarkSpec(problem=prob, name="heavy-oscillator",
                         default_initials=(np.ones(1), np.zeros(1)),
                         default_horizon=8.0)


def test_exact_momentum_is_mass_times_velocity_for_heavy_mass():
    from fvi.harness import node_errors, run_benchmark
    from fvi.models import _check_exact

    spec = _heavy_oscillator()
    _check_exact(spec.problem, spec.default_horizon, lambda t: np.zeros(1))
    t = np.linspace(0.0, spec.default_horizon, 33)
    _, _, e_err = energy_series(spec, t, *exact_states(spec.problem, t))
    assert np.abs(e_err).max() < 1e-12
    err_x, err_p = node_errors(spec, run_benchmark(spec, "lobatto3", 64))
    assert err_x < 1e-6 and err_p < 1e-6
