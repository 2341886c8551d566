"""Tests for the Galerkin discrete Lagrangian and its stage derivatives."""

import dataclasses

import numpy as np
import pytest

from fvi.galerkin import (
    LagrangeBasis,
    LagrangianProblem,
    basis_for,
    d_all_lagrangian,
    discrete_lagrangian,
    hessian_blocks,
    stage_gradient,
)
from fvi.models import BENCHMARK_NAMES, by_name
from fvi.tableau import ButcherTableau, lobatto_iiic, midpoint
from test_stepper import _pendulum

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
        potential=lambda t, x: (0.5 * (x[..., None, :] @ K @ x[..., None])[..., 0, 0]
                                + x @ g + np.sin(t) * (x @ w)),
        grad_potential=lambda t, x: (K @ x[..., None])[..., 0] + g + np.multiply.outer(np.sin(t), w),
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


def _d_all_lagrangian_reference(prob, tab, basis, stages, t_k, h):
    # the formula as written before stage_gradient bound its constants; the
    # stepping loop's rounding depends on this exact order of operations
    q = basis.eval_matrix.T @ stages
    v = basis.deriv_matrix.T @ stages / h
    ts = t_k + tab.c * h
    grads = np.stack([prob.grad_potential(ts[j], q[j]) for j in range(tab.r)])
    bg = tab.b[:, None] * grads
    bm = tab.b[:, None] * (v @ prob.mass_matrix.T)
    return -h * basis.eval_matrix @ bg + basis.deriv_matrix @ bm


@pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.label)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("random_mass", [False, True])
def test_stage_gradient_is_d_all_lagrangian_bitwise(tab, d, random_mass):
    rng = np.random.default_rng(29)
    basis = basis_for(tab)
    prob = _random_problem(rng, d, random_mass=random_mass)
    for h in (0.05, 0.3):
        dL = stage_gradient(prob, tab, basis, h)
        for _ in range(10):
            stages = rng.normal(size=(basis.control_count, d))
            t_k = float(rng.uniform(0.0, 2.0))
            ref = _d_all_lagrangian_reference(prob, tab, basis, stages, t_k, h)
            assert np.array_equal(dL(stages, t_k + tab.c * h), ref)
            assert np.array_equal(
                d_all_lagrangian(prob, tab, basis, stages, t_k, h), ref)


def _batch_problems(name, rng):
    # lazily, so the random problems draw from rng between the stage draws
    if name == "random":
        yield _random_problem(rng, 1)
        yield _random_problem(rng, 2, random_mass=True)
    else:
        yield _pendulum() if name == "pendulum" else by_name(name).problem


# the random problems run under the bare tableau id, the others under name-tableau
@pytest.mark.parametrize("tab,problem", [
    pytest.param(tab, name, id=tab.label if name == "random" else f"{name}-{tab.label}")
    for name in ("random", *BENCHMARK_NAMES, "pendulum") for tab in ALL_TABLEAUX])
def test_stage_gradient_batch_is_each_step_bitwise(tab, problem):
    # the stepping loop evaluates a window of steps in one call; each step's
    # gradient must be the one a single-step call gives
    rng = np.random.default_rng(41)
    basis = basis_for(tab)
    for prob in _batch_problems(problem, rng):
        d = prob.d
        dL = stage_gradient(prob, tab, basis, 0.2)
        stages = rng.normal(size=(5, basis.control_count, d))
        times = rng.uniform(0.0, 2.0, size=5).tolist()
        ts = np.add.outer(times, tab.c * 0.2)
        batch = dL(stages, ts)
        assert batch.shape == stages.shape
        for k in range(5):
            assert np.array_equal(batch[k], dL(stages[k], times[k] + tab.c * 0.2))


def test_problem_copies_the_callers_mass():
    # the frozen copies belong to the problem; the caller's array stays writeable
    mass = np.array([[2.0, 0.5], [0.5, 1.0]])
    prob = LagrangianProblem(d=2, potential=lambda t, x: 0.0,
                             grad_potential=lambda t, x: np.zeros(2), mass=mass)
    mass[0, 0] = 3.0
    assert prob.mass_matrix[0, 0] == prob.mass[0, 0] == 2.0
    assert not prob.mass_matrix.flags.writeable and not prob.mass.flags.writeable


def test_basis_copies_the_callers_arrays():
    nodes, ev, dv = np.array([0.0, 1.0]), np.array([[0.5], [0.5]]), np.array([[-1.0], [1.0]])
    basis = LagrangeBasis(nodes=nodes, eval_matrix=ev, deriv_matrix=dv)
    nodes[0], ev[0, 0], dv[0, 0] = 0.25, 1.0, 2.0
    assert (basis.nodes[0], basis.eval_matrix[0, 0], basis.deriv_matrix[0, 0]) == (0.0, 0.5, -1.0)
    for arr in (basis.nodes, basis.eval_matrix, basis.deriv_matrix):
        assert not arr.flags.writeable


def test_translation_invariance_free_particle():
    # with no potential the sum of all stage partials must vanish
    rng = np.random.default_rng(31)
    free = LagrangianProblem(d=2, potential=lambda t, x: np.zeros(x.shape[:-1]),
                             grad_potential=lambda t, x: np.zeros_like(x))
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
    free = LagrangianProblem(d=2, potential=lambda t, x: np.zeros(x.shape[:-1]),
                             grad_potential=lambda t, x: np.zeros_like(x))
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
    prob = LagrangianProblem(d=1, potential=lambda t, x: 0.5 * x[..., 0] ** 2,
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


@pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda tab: tab.label)
def test_hessian_blocks_difference_grad_potential_without_hess_potential(tab):
    # without hess_potential the potential's Hessian is a central difference
    # of grad_potential; the mass term stays analytic
    rng = np.random.default_rng(53)
    K0, M0 = rng.normal(size=(2, 2, 2))
    K, a = K0 @ K0.T + 2.0 * np.eye(2), np.array([1.0, 2.0])
    coupled = LagrangianProblem(  # 1/2 x.Kx + cos(t + a.x), a non-identity mass
        d=2,
        potential=lambda t, x: (0.5 * (x[..., None, :] @ K @ x[..., None])[..., 0, 0]
                                + np.cos(t + x @ a)),
        grad_potential=lambda t, x: ((K @ x[..., None])[..., 0]
                                     - np.sin(t + x @ a)[..., None] * a),
        hess_potential=lambda t, x: K - np.cos(t + x @ a)[..., None, None] * np.outer(a, a),
        mass=M0 @ M0.T + 2.0 * np.eye(2),
    )
    basis = basis_for(tab)
    for prob in (_pendulum(), coupled):
        stripped = dataclasses.replace(prob, hess_potential=None)
        for h in (0.05, 0.3, 1.0):
            stages = 3.0 * rng.normal(size=(basis.control_count, prob.d))
            want = hessian_blocks(prob, tab, basis, stages, 0.4, h)
            got = hessian_blocks(stripped, tab, basis, stages, 0.4, h)
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), (prob.d, h)


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
    with pytest.raises(ValueError, match="rho must be finite and >= 0, got True"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad, rho=True)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got 1.0"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad, alpha=1.0)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\), got nan"):
        LagrangianProblem(d=2, potential=pot, grad_potential=grad,
                          alpha=float("nan"))
    with pytest.raises(ValueError, match="dimension"):
        LagrangianProblem(d=0, potential=pot, grad_potential=grad)
    with pytest.raises(ValueError, match="state dimension must be an integer >= 1, got 2.5"):
        LagrangianProblem(d=2.5, potential=pot, grad_potential=grad)
    with pytest.raises(ValueError, match="state dimension must be an integer >= 1, got True"):
        LagrangianProblem(d=True, potential=pot, grad_potential=grad)


def test_argument_validation():
    # the three stage functions share one check of h and of the stages' shape
    rng = np.random.default_rng(47)
    tab = lobatto_iiic(2)
    basis = basis_for(tab)
    prob = _random_problem(rng, 2, with_hessian=True)
    good = np.zeros((2, 2))
    for fn in (discrete_lagrangian, d_all_lagrangian, hessian_blocks):
        with pytest.raises(ValueError, match="shape"):
            fn(prob, tab, basis, np.zeros((3, 2)), 0.0, 0.1)
        for bad in (0.0, -0.1, float("nan"), True):
            with pytest.raises(ValueError,
                               match=f"h must be positive and finite, got {bad!r}"):
                fn(prob, tab, basis, good, 0.0, bad)
