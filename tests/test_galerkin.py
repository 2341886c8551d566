"""Tests for the Galerkin discrete Lagrangian and its stage derivatives."""

import numpy as np
import pytest

from fvi.galerkin import (
    LagrangianProblem,
    basis_for,
    d_all_lagrangian,
    discrete_lagrangian,
    hessian_blocks,
)
from fvi.tableau import ButcherTableau, lobatto_iiic, midpoint

ALL_TABLEAUX = [lobatto_iiic(2), lobatto_iiic(3), lobatto_iiic(4), midpoint()]


def _random_problem(rng, d, time_dependent=True, with_hessian=False, random_mass=False):
    K0 = rng.normal(size=(d, d))
    K = K0 @ K0.T + d * np.eye(d)
    g = rng.normal(size=d)
    w = rng.normal(size=d) if time_dependent else np.zeros(d)
    mass = None
    if random_mass:
        M0 = rng.normal(size=(d, d))
        mass = M0 @ M0.T + d * np.eye(d)
    return LagrangianProblem(
        d=d,
        potential=lambda t, x: 0.5 * x @ K @ x + g @ x + np.sin(t) * (w @ x),
        grad_potential=lambda t, x: K @ x + g + np.sin(t) * w,
        hess_potential=(lambda t, x: K) if with_hessian else None,
        mass=mass,
    )


def _fd_gradient(func, stages, step=1e-6):
    grad = np.zeros_like(stages)
    for idx in np.ndindex(*stages.shape):
        up = stages.copy()
        dn = stages.copy()
        up[idx] += step
        dn[idx] -= step
        grad[idx] = (func(up) - func(dn)) / (2.0 * step)
    return grad


def test_basis_matches_polynomial_oracle():
    # rebuild each cardinal polynomial from its roots and compare values and
    # derivatives at the quadrature nodes
    for tab in [lobatto_iiic(2), lobatto_iiic(3), lobatto_iiic(4)]:
        basis = basis_for(tab)
        assert np.allclose(basis.nodes, tab.c, atol=1e-15)
        for nu in range(tab.r):
            roots = np.delete(tab.c, nu)
            poly = np.polynomial.Polynomial.fromroots(roots)
            poly = poly / poly(tab.c[nu])
            assert np.allclose(basis.eval_matrix[nu], poly(tab.c), atol=1e-12)
            assert np.allclose(basis.deriv_matrix[nu], poly.deriv()(tab.c),
                               atol=1e-12)


def test_basis_partition_of_unity():
    for tab in ALL_TABLEAUX:
        basis = basis_for(tab)
        assert np.allclose(basis.eval_matrix.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(basis.deriv_matrix.sum(axis=0), 0.0, atol=1e-12)


def test_two_stage_basis_matrices():
    basis = basis_for(lobatto_iiic(2))
    assert np.array_equal(basis.eval_matrix, np.eye(2))
    assert np.allclose(basis.deriv_matrix, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-14)


def test_midpoint_basis_convention():
    basis = basis_for(midpoint())
    assert np.allclose(basis.nodes, [0.0, 1.0])
    assert np.allclose(basis.eval_matrix, [[0.5], [0.5]])
    assert np.allclose(basis.deriv_matrix, [[-1.0], [1.0]])


def test_degenerate_nodes_rejected():
    tab = ButcherTableau(A=np.eye(2) / 2, b=np.array([0.5, 0.5]),
                         c=np.array([0.3, 0.3]), p=1, q=1, label="bad")
    with pytest.raises(ValueError, match="degenerate nodes"):
        basis_for(tab)


def test_two_stage_discrete_lagrangian_closed_form():
    rng = np.random.default_rng(7)
    tab = lobatto_iiic(2)
    basis = basis_for(tab)
    prob = _random_problem(rng, 3, time_dependent=False)
    x0 = rng.normal(size=3)
    x1 = rng.normal(size=3)
    h = 0.37
    got = discrete_lagrangian(prob, tab, basis, np.array([x0, x1]), 0.0, h)
    expected = (x1 - x0) @ (x1 - x0) / (2.0 * h) \
        - 0.5 * h * (prob.potential(0.0, x0) + prob.potential(0.0, x1))
    assert abs(got - expected) < 1e-12 * (1.0 + abs(expected))


def test_two_stage_partial_closed_forms():
    rng = np.random.default_rng(11)
    tab = lobatto_iiic(2)
    basis = basis_for(tab)
    prob = _random_problem(rng, 2, time_dependent=False)
    x0 = rng.normal(size=2)
    x1 = rng.normal(size=2)
    h = 0.25
    stages = np.array([x0, x1])
    d1, d2 = d_all_lagrangian(prob, tab, basis, stages, 0.0, h)
    assert np.allclose(d1, -(x1 - x0) / h - 0.5 * h * prob.grad_potential(0.0, x0),
                       atol=1e-13)
    assert np.allclose(d2, (x1 - x0) / h - 0.5 * h * prob.grad_potential(0.0, x1),
                       atol=1e-13)


def test_midpoint_discrete_lagrangian_two_point_form():
    rng = np.random.default_rng(13)
    tab = midpoint()
    basis = basis_for(tab)
    prob = _random_problem(rng, 2)
    x0 = rng.normal(size=2)
    x1 = rng.normal(size=2)
    h = 0.2
    t_k = 0.6
    got = discrete_lagrangian(prob, tab, basis, np.array([x0, x1]), t_k, h)
    vel = (x1 - x0) / h
    expected = h * (0.5 * vel @ vel - prob.potential(t_k + h / 2, (x0 + x1) / 2))
    assert abs(got - expected) < 1e-13 * (1.0 + abs(expected))


def test_custom_mass_matrix_kinetic_term():
    rng = np.random.default_rng(17)
    tab = lobatto_iiic(2)
    basis = basis_for(tab)
    prob = _random_problem(rng, 3, time_dependent=False, random_mass=True)
    x0 = rng.normal(size=3)
    x1 = rng.normal(size=3)
    h = 0.5
    got = discrete_lagrangian(prob, tab, basis, np.array([x0, x1]), 0.0, h)
    dx = x1 - x0
    expected = dx @ prob.mass_matrix @ dx / (2.0 * h) \
        - 0.5 * h * (prob.potential(0.0, x0) + prob.potential(0.0, x1))
    assert abs(got - expected) < 1e-12 * (1.0 + abs(expected))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    for tab in ALL_TABLEAUX:
        basis = basis_for(tab)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            prob = _random_problem(rng, d, random_mass=bool(rng.integers(2)))
            stages = rng.normal(size=(basis.control_count, d))
            t_k = float(rng.uniform(0.0, 2.0))
            h = float(rng.uniform(0.05, 0.5))
            exact = d_all_lagrangian(prob, tab, basis, stages, t_k, h)
            fd = _fd_gradient(
                lambda s: discrete_lagrangian(prob, tab, basis, s, t_k, h),
                stages)
            assert np.abs(exact - fd).max() < 1e-5 * (1.0 + np.abs(exact).max())


def test_translation_invariance_free_particle():
    # with no potential the sum of all stage partials must vanish
    rng = np.random.default_rng(31)
    free = LagrangianProblem(d=2, potential=lambda t, x: 0.0,
                             grad_potential=lambda t, x: np.zeros(2))
    for tab in ALL_TABLEAUX:
        basis = basis_for(tab)
        stages = rng.normal(size=(basis.control_count, 2))
        total = d_all_lagrangian(free, tab, basis, stages, 0.0, 0.125).sum(axis=0)
        assert np.abs(total).max() < 1e-10


def test_action_exact_for_quadratic_free_trajectory():
    # degree-2 interpolant and order-4 quadrature integrate the free action exactly
    rng = np.random.default_rng(37)
    tab = lobatto_iiic(3)
    basis = basis_for(tab)
    free = LagrangianProblem(d=2, potential=lambda t, x: 0.0,
                             grad_potential=lambda t, x: np.zeros(2))
    coefs = rng.normal(size=(2, 3))
    t_k, h = 0.4, 0.3
    polys = [np.polynomial.Polynomial(coefs[k]) for k in range(2)]
    stages = np.array([[polys[k](t_k + ci * h) for k in range(2)] for ci in tab.c])
    got = discrete_lagrangian(free, tab, basis, stages, t_k, h)
    action = sum((0.5 * p.deriv() ** 2).integ()(t_k + h)
                 - (0.5 * p.deriv() ** 2).integ()(t_k) for p in polys)
    assert abs(got - action) < 1e-12 * (1.0 + abs(action))


def test_action_exact_for_linear_trajectory_quadratic_potential():
    rng = np.random.default_rng(41)
    tab = lobatto_iiic(3)
    basis = basis_for(tab)
    prob = LagrangianProblem(d=1, potential=lambda t, x: 0.5 * x[0] ** 2,
                             grad_potential=lambda t, x: x)
    a, bcoef = rng.normal(size=2)
    t_k, h = 0.2, 0.45
    traj = np.polynomial.Polynomial([a, bcoef])
    stages = np.array([[traj(t_k + ci * h)] for ci in tab.c])
    got = discrete_lagrangian(prob, tab, basis, stages, t_k, h)
    lag = 0.5 * traj.deriv() ** 2 - 0.5 * traj ** 2
    action = lag.integ()(t_k + h) - lag.integ()(t_k)
    assert abs(got - action) < 1e-12 * (1.0 + abs(action))


def test_hessian_blocks_match_finite_differences():
    rng = np.random.default_rng(43)
    for tab in [lobatto_iiic(3), midpoint()]:
        basis = basis_for(tab)
        d = 2
        prob = _random_problem(rng, d, with_hessian=True, random_mass=True)
        stages = rng.normal(size=(basis.control_count, d))
        t_k, h = 0.7, 0.15
        blocks = hessian_blocks(prob, tab, basis, stages, t_k, h)
        n = basis.control_count
        step = 1e-6
        for m in range(n):
            for comp in range(d):
                up = stages.copy()
                dn = stages.copy()
                up[m, comp] += step
                dn[m, comp] -= step
                fd = (d_all_lagrangian(prob, tab, basis, up, t_k, h)
                      - d_all_lagrangian(prob, tab, basis, dn, t_k, h)) / (2 * step)
                assert np.abs(blocks[:, m, :, comp] - fd).max() \
                    < 1e-5 * (1.0 + np.abs(blocks).max())


def test_hessian_requires_analytic_potential_hessian():
    prob = LagrangianProblem(d=1, potential=lambda t, x: 0.0,
                             grad_potential=lambda t, x: np.zeros(1))
    tab = lobatto_iiic(2)
    basis = basis_for(tab)
    with pytest.raises(ValueError, match="hess_potential"):
        hessian_blocks(prob, tab, basis, np.zeros((2, 1)), 0.0, 0.1)


def test_problem_validation():
    pot = lambda t, x: 0.0
    grad = lambda t, x: np.zeros(2)
    with pytest.raises(ValueError, match="symmetric"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad,
                          mass=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="positive definite"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad,
                          mass=np.diag([1.0, -1.0]))
    with pytest.raises(ValueError, match="shape"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad, mass=np.eye(3))
    with pytest.raises(ValueError, match="rho must be finite and >= 0, got -0.1"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad, rho=-0.1)
    for bad in ("nan", "inf"):
        with pytest.raises(ValueError, match=f"rho must be finite and >= 0, got {bad}"):
            LagrangianProblem(d=2, potential=pot, grad_potential=grad,
                              rho=float(bad))
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got 1.0"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad, alpha=1.0)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got nan"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad,
                          alpha=float("nan"))
    with pytest.raises(ValueError, match="dimension"):
        LagrangianProblem(d=0, potential=pot, grad_potential=grad)


def test_argument_validation():
    rng = np.random.default_rng(47)
    tab = lobatto_iiic(2)
    basis = basis_for(tab)
    prob = _random_problem(rng, 2)
    good = np.zeros((2, 2))
    with pytest.raises(ValueError, match="shape"):
        discrete_lagrangian(prob, tab, basis, np.zeros((3, 2)), 0.0, 0.1)
    with pytest.raises(ValueError, match="h must be positive"):
        discrete_lagrangian(prob, tab, basis, good, 0.0, 0.0)
