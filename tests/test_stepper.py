"""Stepper tests: stage systems, Legendre transforms, closed-form map,
midpoint variant and the stationarity of the doubled discrete action."""

import dataclasses

import numpy as np
import pytest

from fvi import models, stepper, tableau
from fvi.cq import StageTrajectory, apply_midcq, compute_weights, midcq_weights
from fvi.galerkin import LagrangianProblem, basis_for, d_all_lagrangian
from fvi.stepper import FviConfig, NewtonError

# one step of the closed-form map at eta=0.5, rho=0.25, h=0.2, x=0.8, p=0.4,
# worked in exact rational arithmetic: x1 = 892/1025, p1 = 1532/5125
QP_X1 = 0.870243902439024390244
QP_P1 = 0.298926829268292682927


def _harmonic(d=1, eta=1.0, rho=0.0, alpha=0.5):
    eye = np.eye(d)
    return LagrangianProblem(
        d=d,
        potential=lambda t, x: 0.5 * eta * float(x @ x),
        grad_potential=lambda t, x: eta * x,
        hess_potential=lambda t, x: eta * eye,
        rho=rho,
        alpha=alpha,
    )


def _free_particle(d=1, rho=0.0):
    return LagrangianProblem(
        d=d,
        potential=lambda t, x: 0.0,
        grad_potential=lambda t, x: np.zeros(d),
        hess_potential=lambda t, x: np.zeros((d, d)),
        rho=rho,
        alpha=0.5,
    )


def _pendulum(eta=1.0, rho=0.2, alpha=0.5):
    return LagrangianProblem(
        d=1,
        potential=lambda t, x: eta * (1.0 - float(np.cos(x[0]))),
        grad_potential=lambda t, x: eta * np.sin(x),
        hess_potential=lambda t, x: eta * np.cos(x)[:, None],
        rho=rho,
        alpha=alpha,
    )


def test_free_particle_init_is_linear():
    prob = _free_particle()
    cfg = FviConfig(h=0.25, N=1)
    x0, p0 = np.array([0.3]), np.array([-0.7])
    for r in (2, 3, 4):
        tab = tableau.lobatto_iiic(r)
        stages = stepper.run(prob, tab, cfg, x0, p0).trajectory.values[0]
        expected = x0 + tab.c[:, None] * cfg.h * p0
        assert np.abs(stages - expected).max() < 1e-13


def test_init_recovers_momentum():
    spec = models.coupled_oscillator()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=0.1, N=4)
    tab = tableau.lobatto_iiic(3)
    w = compute_weights(tab, -2 * prob.alpha, cfg.h, cfg.N)
    stages = stepper.init_step(prob, tab, w, cfg, x0, p0)
    traj = StageTrajectory(values=stages[None], h=cfg.h)
    pm = stepper.legendre_minus(prob, tab, w, traj, 0)
    assert np.abs(pm - p0).max() < 1e-11


def test_single_block_steps_reproduce_run():
    spec = models.bagley_torvik()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=1.0 / 16, N=16)
    for r in (2, 3, 4):
        tab = tableau.lobatto_iiic(r)
        w = stepper._run_weights(prob, tab, cfg.h, cfg.N)
        blocks = [stepper.init_step(prob, tab, w, cfg, x0, p0)]
        for k in range(1, cfg.N):
            hist = StageTrajectory(values=np.array(blocks), h=cfg.h)
            blocks.append(stepper.step(prob, tab, w, cfg, hist, k))
        ref = stepper.run(prob, tab, cfg, x0, p0).trajectory.values
        assert np.abs(np.array(blocks) - ref).max() < 1e-12, r


def test_qp_closed_form_frozen_values():
    prob = _harmonic(eta=0.5, rho=0.25)
    x1, p1 = stepper.qp_closed_form(prob, 0.2, [0.8], [0.4])
    assert abs(x1[0] - QP_X1) < 1e-15
    assert abs(p1[0] - QP_P1) < 1e-15


def test_qp_closed_form_free_particle():
    prob = _free_particle(d=2)
    x, p = np.array([1.0, -2.0]), np.array([0.5, 0.25])
    x1, p1 = stepper.qp_closed_form(prob, 0.125, x, p)
    assert np.allclose(x1, x + 0.125 * p, atol=1e-15)
    assert np.allclose(p1, p, atol=1e-15)


def test_qp_closed_form_validation():
    with pytest.raises(ValueError, match="alpha"):
        stepper.qp_closed_form(_harmonic(alpha=0.3), 0.1, [1.0], [0.0])
    skew = LagrangianProblem(
        d=2,
        potential=lambda t, x: 0.5 * float(x @ x),
        grad_potential=lambda t, x: x,
        mass=np.diag([1.0, 2.0]),
        alpha=0.5,
    )
    with pytest.raises(ValueError, match="identity mass"):
        stepper.qp_closed_form(skew, 0.1, [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="h must be positive"):
        stepper.qp_closed_form(_harmonic(), -0.1, [1.0], [0.0])


def test_undamped_run_matches_velocity_verlet():
    eta, h, n = 0.8, 0.1, 50
    prob = _harmonic(eta=eta)
    cfg = FviConfig(h=h, N=n)
    sol = stepper.run(prob, tableau.lobatto_iiic(2), cfg, [1.2], [-0.3])
    x, p = 1.2, -0.3
    for k in range(n):
        half = p - 0.5 * h * eta * x
        x = x + h * half
        p = half - 0.5 * h * eta * x
        assert abs(sol.node_positions[k + 1, 0] - x) < 1e-10
        assert abs(sol.momenta[k + 1, 0] - p) < 1e-10


def test_run_matches_qp_closed_form():
    spec = models.coupled_oscillator()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=0.1, N=100)
    sol = stepper.run(prob, tableau.lobatto_iiic(2), cfg, x0, p0)
    x, p = x0, p0
    for k in range(cfg.N):
        x, p = stepper.qp_closed_form(prob, cfg.h, x, p)
        assert np.abs(sol.node_positions[k + 1] - x).max() < 1e-9
        assert np.abs(sol.momenta[k + 1] - p).max() < 1e-9


def test_momentum_matching_at_interior_nodes():
    spec = models.coupled_oscillator()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=0.2, N=30)
    tab = tableau.lobatto_iiic(3)
    sol = stepper.run(prob, tab, cfg, x0, p0)
    w = stepper._run_weights(prob, tab, cfg.h, cfg.N)
    for k in range(1, cfg.N):
        plus = stepper.legendre_plus(prob, tab, w, sol.trajectory, k - 1)
        minus = stepper.legendre_minus(prob, tab, w, sol.trajectory, k)
        assert np.abs(plus - minus).max() < 1e-10


@pytest.mark.parametrize("r", [2, 3, 4])
def test_loop_momenta_match_reference_formula(r):
    spec = models.bagley_torvik()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=1.0 / 64, N=64)
    tab = tableau.lobatto_iiic(r)
    sol = stepper.run(prob, tab, cfg, x0, p0)
    w = stepper._run_weights(prob, tab, cfg.h, cfg.N)
    assert np.array_equal(sol.momenta[0], p0)
    # block 0 was solved so that its Legendre momentum is p0
    ref = stepper.legendre_minus(prob, tab, w, sol.trajectory, 0)
    assert np.abs(ref - p0).max() < 1e-11
    for k in range(1, cfg.N):
        ref = stepper.legendre_minus(prob, tab, w, sol.trajectory, k)
        assert np.abs(sol.momenta[k] - ref).max() < 1e-12
    ref = stepper.legendre_plus(prob, tab, w, sol.trajectory, cfg.N - 1)
    assert np.abs(sol.momenta[cfg.N] - ref).max() < 1e-12


def test_newton_statistics_on_quadratic_problem():
    spec = models.bagley_torvik()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=1.0 / 64, N=64)
    sol = stepper.run(prob, tableau.lobatto_iiic(3), cfg, x0, p0)
    assert len(sol.newton_stats) == cfg.N
    mass = np.abs(prob.mass_matrix).sum(axis=1).max()
    vals = sol.trajectory.values
    for k, (iters, resid) in enumerate(sol.newton_stats):
        assert iters <= 6
        # for k >= 1, block k starts from block k-1's last stage with block
        # k-1's stages as its guess, and its incoming momentum is momenta[k]
        size = np.abs(vals[max(k - 1, 0):k + 1]).max()
        scale = max(1.0, mass * size / cfg.h + np.abs(sol.momenta[k]).max())
        assert resid <= stepper._NEWTON_TOL * scale


@pytest.mark.parametrize("r", [3, 4])
def test_fine_step_init_converges(r):
    # the residual's rounding floor |M x| eps / h lies above 1e-12 here, so
    # an absolute stopping test at 1e-12 never stops
    spec = models.coupled_oscillator()
    cfg = FviConfig(h=2.0 ** -13, N=1)
    sol = stepper.run(spec.problem, tableau.lobatto_iiic(r), cfg,
                      *spec.default_initials)
    ((solves, resid),) = sol.newton_stats
    assert solves == 1
    assert resid <= stepper._NEWTON_TOL / cfg.h


def test_newton_quadratic_convergence():
    norms = []

    def residual(u):
        f = np.array([u[0] ** 3 - 2.0])
        norms.append(abs(f[0]))
        return f

    def jac(u):
        return np.array([[3.0 * u[0] ** 2]])

    u, solves, final = stepper._newton(residual, jac, np.array([2.0]), 1e-13)
    assert abs(u[0] - 2.0 ** (1.0 / 3.0)) < 1e-13
    clean = [n for n in norms if n > 1e-14]
    for a, b in zip(clean[-3:-1], clean[-2:]):
        assert b <= 1.0 * a * a


def test_newton_error_attributes():
    def residual(u):  # no real root: Newton wanders until it gives up
        return u * u + 1.0

    def jac(u):
        return np.diag(2.0 * u)

    with pytest.raises(NewtonError) as info:
        stepper._newton(residual, jac, np.array([0.5]), 1e-12)
    err = info.value
    assert err.iterations == stepper._NEWTON_MAX_ITER
    assert err.residual_norm >= 1.0
    assert err.iterate.shape == (1,)
    with pytest.raises(NewtonError, match="residual nan") as info:
        stepper._newton(lambda u: u * np.nan, jac, np.array([0.5]), 1e-12)
    assert info.value.iterations == 0
    assert np.isnan(info.value.residual_norm)
    with pytest.raises(NewtonError, match="residual inf"):
        stepper._newton(lambda u: np.full(1, np.inf), jac, np.array([0.5]),
                        np.inf)


def _nan_gradient_from(t_bad):
    """Unit harmonic oscillator whose gradient is NaN from time t_bad on."""
    return LagrangianProblem(
        d=1,
        potential=lambda t, x: 0.5 * float(x @ x),
        grad_potential=lambda t, x: x if t < t_bad else np.full(1, np.nan),
        hess_potential=lambda t, x: np.eye(1),
    )


def test_run_reports_failing_phase():
    cfg = FviConfig(h=0.1, N=3)
    tab = tableau.lobatto_iiic(2)
    with pytest.raises(NewtonError, match="init step failed: .*residual nan"):
        stepper.run(_nan_gradient_from(0.0), tab, cfg, [1.0], [0.5])
    # block 1 evaluates the gradient at t = 0.2
    with pytest.raises(NewtonError, match="step 1 failed: .*residual nan") as info:
        stepper.run(_nan_gradient_from(0.15), tab, cfg, [1.0], [0.5])
    assert info.value.iterations == 0


def test_undamped_energy_stays_in_band():
    prob = _harmonic(eta=1.0)
    cfg = FviConfig(h=0.05, N=5000)
    sol = stepper.run(prob, tableau.lobatto_iiic(2), cfg, [1.0], [0.0])
    energies = np.array([models.energy(prob, x, p)
                         for x, p in zip(sol.node_positions, sol.momenta)])
    drift = np.abs(energies - energies[0])
    assert drift.max() < 2e-3
    # oscillation, not secular growth: late window no worse than early one
    assert drift[-500:].max() < 2.0 * drift[:500].max() + 1e-12


def test_single_step_run():
    spec = models.coupled_oscillator()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=0.2, N=1)
    sol = stepper.run(prob, tableau.lobatto_iiic(2), cfg, x0, p0)
    assert sol.trajectory.nblocks == 1
    assert sol.momenta.shape == (2, 2)
    assert sol.times.shape == (2,)
    assert np.abs(sol.momenta[0] - p0).max() < 1e-11


def test_run_is_deterministic():
    spec = models.coupled_oscillator()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=0.2, N=20)
    tab = tableau.lobatto_iiic(3)
    a = stepper.run(prob, tab, cfg, x0, p0)
    b = stepper.run(prob, tab, cfg, x0, p0)
    assert np.array_equal(a.trajectory.values, b.trajectory.values)
    assert np.array_equal(a.momenta, b.momenta)
    assert a.newton_stats == b.newton_stats


def test_jacobian_modes_agree():
    # a pendulum with order-0.5 damping: nonlinear, and the weights are nonlocal
    # a problem without hess_potential gets the finite-difference Jacobian
    prob = _pendulum(alpha=0.25)
    x0, p0 = [0.9], [0.4]
    cfg = FviConfig(h=0.1, N=40)
    for method in ("lobatto2", "lobatto3", "lobatto4", "midcq"):
        sols = []
        for problem in (prob, dataclasses.replace(prob, hess_potential=None)):
            if method == "midcq":
                sols.append(stepper.run_midcq(problem, cfg, x0, p0))
            else:
                tab = tableau.lobatto_iiic(int(method[-1]))
                sols.append(stepper.run(problem, tab, cfg, x0, p0))
        a, f = sols
        assert np.abs(a.node_positions - f.node_positions).max() < 1e-9, method
        assert np.abs(a.momenta - f.momenta).max() < 1e-9, method
        # with the exact Jacobian Newton needs no more solves than with a
        # differenced one; a wrong damping block costs extra solves here
        solves = [iters for iters, _ in a.newton_stats]
        fd_solves = [iters for iters, _ in f.newton_stats]
        assert all(i <= j for i, j in zip(solves, fd_solves)), method
        if method != "lobatto2":  # its closure is linear in the new node
            assert sum(solves) / len(solves) > 1.0, method


def test_weight_compatibility_checks():
    prob = _harmonic(rho=0.1)
    cfg = FviConfig(h=0.1, N=4)
    tab = tableau.lobatto_iiic(2)
    wrong_exp = compute_weights(tab, -0.25, cfg.h, cfg.N)
    with pytest.raises(ValueError, match="exponent"):
        stepper.init_step(prob, tab, wrong_exp, cfg, [1.0], [0.0])
    wrong_h = compute_weights(tab, -1.0, 0.2, cfg.N)
    with pytest.raises(ValueError, match="step size"):
        stepper.init_step(prob, tab, wrong_h, cfg, [1.0], [0.0])
    wrong_tab = compute_weights(tableau.lobatto_iiic(3), -1.0, cfg.h, cfg.N)
    with pytest.raises(ValueError, match="tableau"):
        stepper.init_step(prob, tab, wrong_tab, cfg, [1.0], [0.0])


def test_step_history_validation():
    prob = _harmonic(rho=0.1)
    cfg = FviConfig(h=0.1, N=4)
    tab = tableau.lobatto_iiic(2)
    w = compute_weights(tab, -1.0, cfg.h, cfg.N)
    stages = stepper.init_step(prob, tab, w, cfg, [1.0], [0.0])
    hist = StageTrajectory(values=stages[None], h=cfg.h)
    with pytest.raises(ValueError, match="history"):
        stepper.step(prob, tab, w, cfg, hist, 2)
    with pytest.raises(ValueError, match="history"):
        stepper.step(prob, tab, w, cfg, hist, 0)


def test_midcq_reduces_to_midpoint_rule_without_damping():
    eta, h, n = 1.0, 0.1, 40
    prob = _harmonic(eta=eta)
    cfg = FviConfig(h=h, N=n)
    sol = stepper.run_midcq(prob, cfg, [1.0], [0.5])
    coef = 1.0 / h + h * eta / 4.0
    x_prev, x = 1.0, (0.5 + 1.0 * (1.0 / h - h * eta / 4.0)) / coef
    assert abs(sol.node_positions[1, 0] - x) < 1e-11
    for k in range(1, n):
        x_next = ((2.0 * x - x_prev) / h - h * eta / 4.0 * (x_prev + 2.0 * x)) / coef
        x_prev, x = x, x_next
        assert abs(sol.node_positions[k + 1, 0] - x) < 1e-9
    # classical midpoint momenta at the nodes
    mids = 0.5 * (sol.node_positions[:-1] + sol.node_positions[1:])
    vel = np.diff(sol.node_positions, axis=0) / h
    p_minus = vel + 0.5 * h * eta * mids
    assert np.abs(sol.momenta[1:-1] - p_minus[1:]).max() < 1e-9


def test_midcq_second_order_on_damped_oscillator():
    spec = models.damped_oscillator_1d()
    prob = spec.problem
    x0, p0 = spec.default_initials
    errs = []
    for n_pow in (4, 5, 6, 7):
        n = 2 ** n_pow
        h = spec.default_horizon / n
        sol = stepper.run_midcq(prob, FviConfig(h=h, N=n), x0, p0)
        exact = np.array([prob.exact_solution(t)[0] for t in sol.times])
        errs.append(np.abs(sol.node_positions - exact).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert rates[-1] > 1.7
    assert abs(np.mean(rates) - 2.0) < 0.35


def test_midcq_second_order_on_half_derivative_benchmark():
    spec = models.bagley_torvik()
    prob = spec.problem
    x0, p0 = spec.default_initials
    errs = []
    for n_pow in (4, 5, 6, 7):
        n = 2 ** n_pow
        h = 1.0 / n
        sol = stepper.run_midcq(prob, FviConfig(h=h, N=n), x0, p0)
        exact = np.array([prob.exact_solution(t)[0] for t in sol.times])
        errs.append(np.abs(sol.node_positions - exact).max())
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert abs(np.mean(rates) - 2.0) < 0.3


def test_midcq_solves_the_scalar_scheme():
    # -D_1 L_d + (rho h/2) D_0 = p0 and D_2 L_d(k-1) + D_1 L_d(k)
    # - (rho h/2)(D_{k-1} + D_k) = 0, with D_k the midpoint operator on x - x0
    spec = models.bagley_torvik()
    prob = spec.problem
    x0, p0 = spec.default_initials
    n, h = 32, 1.0 / 32
    sol = stepper.run_midcq(prob, FviConfig(h=h, N=n), x0, p0)
    nodes = sol.node_positions
    w = midcq_weights(-2 * prob.alpha, h, n)
    D = [apply_midcq(w, nodes - x0, k) for k in range(n)]
    tab = tableau.midpoint()
    basis = basis_for(tab)
    dL = [d_all_lagrangian(prob, tab, basis, nodes[k:k + 2], k * h, h)
          for k in range(n)]
    half = 0.5 * prob.rho * h
    assert np.abs(-dL[0][0] + half * D[0] - p0).max() <= 1e-11
    for k in range(1, n):
        eq = dL[k - 1][1] + dL[k][0] - half * (D[k - 1] + D[k])
        assert np.abs(eq).max() <= 1e-11


def test_midcq_single_step():
    prob = _harmonic(rho=0.3)
    sol = stepper.run_midcq(prob, FviConfig(h=0.1, N=1), [1.0], [0.5])
    assert sol.node_positions.shape == (2, 1)
    assert np.abs(sol.momenta[0] - 0.5).max() < 1e-15


def _terminal_padded(blocks):
    d = blocks.shape[2]
    tail = np.zeros((1, blocks.shape[1], d))
    tail[0, 0] = blocks[-1, -1]
    return np.concatenate([blocks, tail])


def test_action_variation_vanishes_on_solutions():
    rng = np.random.default_rng(11)
    tab = tableau.lobatto_iiic(2)
    cases = []
    bt = models.bagley_torvik()
    cases.append((bt.problem, bt.default_initials[0], bt.default_initials[1], 1.0))
    zero_start = _harmonic(d=2, eta=1.0, rho=0.3)
    cases.append((zero_start, np.zeros(2), np.array([0.4, -0.3]), 2.0))
    for prob, x0, p0, horizon in cases:
        n = 8
        h = horizon / n
        cfg = FviConfig(h=h, N=n)
        sol = stepper.run(prob, tab, cfg, x0, p0)
        xb = _terminal_padded(sol.trajectory.values)
        yb = stepper.solve_companion(prob, tab, cfg,
                                     rng.standard_normal(prob.d),
                                     rng.standard_normal(prob.d))
        w = compute_weights(tab, -2 * prob.alpha, h, n)
        resid = stepper.companion_residuals(prob, tab, w, yb, h)
        assert np.abs(resid).max() < 1e-10
        for _ in range(3):
            main = np.zeros((n + 1, prob.d))
            main[1:n] = rng.standard_normal((n - 1, prob.d))
            db = _terminal_padded(np.stack([main[:-1], main[1:]], axis=1))
            db[-1] = 0.0
            dv = stepper.action_variation(prob, tab, xb, yb, db, h)
            assert abs(dv) < 1e-8


def test_action_variation_detects_non_solution():
    rng = np.random.default_rng(3)
    tab = tableau.lobatto_iiic(2)
    bt = models.bagley_torvik()
    prob = bt.problem
    n, h = 8, 1.0 / 8
    cfg = FviConfig(h=h, N=n)
    sol = stepper.run(prob, tab, cfg, *bt.default_initials)
    xb = _terminal_padded(sol.trajectory.values)
    yb = stepper.solve_companion(prob, tab, cfg, [0.5], [-0.1])
    xb_bad = xb.copy()
    xb_bad[4] += 1e-2
    main = np.zeros((n + 1, 1))
    main[1:n] = rng.standard_normal((n - 1, 1))
    db = _terminal_padded(np.stack([main[:-1], main[1:]], axis=1))
    db[-1] = 0.0
    dv = stepper.action_variation(prob, tab, xb_bad, yb, db, h)
    assert abs(dv) > 1e-6


def test_solve_companion_requires_two_stages():
    bt = models.bagley_torvik()
    with pytest.raises(ValueError, match="two stages"):
        stepper.solve_companion(bt.problem, tableau.lobatto_iiic(3),
                                FviConfig(h=0.125, N=8), [0.0], [1.0])


def test_config_validation():
    with pytest.raises(ValueError, match="h must be positive"):
        FviConfig(h=0.0, N=4)
    with pytest.raises(ValueError, match="N must be"):
        FviConfig(h=0.1, N=0)
    with pytest.raises(ValueError, match="h must be positive and finite, got nan"):
        FviConfig(h=float("nan"), N=4)
    with pytest.raises(ValueError, match="h must be positive and finite, got inf"):
        FviConfig(h=float("inf"), N=4)
    with pytest.raises(ValueError, match="N must be an integer >= 1, got 4.0"):
        FviConfig(h=0.1, N=4.0)
    FviConfig(h=0.1, N=np.int64(4))


def test_node_positions_shape_and_continuity():
    spec = models.coupled_oscillator()
    cfg = FviConfig(h=0.2, N=10)
    sol = stepper.run(spec.problem, tableau.lobatto_iiic(4), cfg,
                      *spec.default_initials)
    assert sol.node_positions.shape == (11, 2)
    vals = sol.trajectory.values
    assert np.array_equal(vals[:-1, -1, :], vals[1:, 0, :])
