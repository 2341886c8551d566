"""Stepper tests: stage systems, Legendre transforms, closed-form map,
midpoint variant and the stationarity of the doubled discrete action."""

import dataclasses
import sys

import numpy as np
import pytest

from fvi import harness, models, stepper, tableau
from fvi.cq import _LRU, StageTrajectory, apply_retarded, compute_weights, midcq_weights
from fvi.galerkin import (LagrangianProblem, basis_for, d_all_lagrangian,
                          discrete_lagrangian, hessian_blocks)
from fvi.stepper import FviConfig, NewtonError

# one step of the closed-form map at eta=0.5, rho=0.25, h=0.2, x=0.8, p=0.4,
# worked in exact rational arithmetic: x1 = 892/1025, p1 = 1532/5125
QP_X1 = 0.870243902439024390244
QP_P1 = 0.298926829268292682927


def _harmonic(d=1, eta=1.0, rho=0.0, alpha=0.5):
    eye = np.eye(d)
    return LagrangianProblem(
        d=d,
        potential=lambda t, x: 0.5 * eta * (x[..., None, :] @ x[..., None])[..., 0, 0],
        grad_potential=lambda t, x: eta * x,
        hess_potential=lambda t, x: eta * eye,
        rho=rho,
        alpha=alpha,
    )


def _free_particle(d=1, rho=0.0):
    return LagrangianProblem(
        d=d,
        potential=lambda t, x: np.zeros(x.shape[:-1]),
        grad_potential=lambda t, x: np.zeros_like(x),
        hess_potential=lambda t, x: np.zeros(x.shape + (d,)),
        rho=rho,
        alpha=0.5,
    )


def _pendulum(eta=1.0, rho=0.2, alpha=0.5):
    return LagrangianProblem(
        d=1,
        potential=lambda t, x: eta * (1.0 - np.cos(x[..., 0])),
        grad_potential=lambda t, x: eta * np.sin(x),
        hess_potential=lambda t, x: eta * np.cos(x)[..., None],
        rho=rho,
        alpha=alpha,
    )


def _loop_weights(prob, tab, cfg):
    """The default WeightSequence, whose table `run` integrates with."""
    w = compute_weights(tab, -2 * prob.alpha, cfg.h, cfg.N)
    assert stepper._run_weights(tab, -2 * prob.alpha, cfg.h, cfg.N) is w
    return w


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
    # run solves groups of 1, 2, 4, 8, 16, 16, 16 and 1 blocks here
    spec = models.bagley_torvik()
    prob = spec.problem
    x0, p0 = spec.default_initials
    cfg = FviConfig(h=1.0 / 64, N=64)
    for r in (2, 3, 4):
        tab = tableau.lobatto_iiic(r)
        w = _loop_weights(prob, tab, cfg)
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
        potential=lambda t, x: 0.5 * (x[..., None, :] @ x[..., None])[..., 0, 0],
        grad_potential=lambda t, x: x,
        mass=np.diag([1.0, 2.0]),
        alpha=0.5,
    )
    with pytest.raises(ValueError, match="identity mass"):
        stepper.qp_closed_form(skew, 0.1, [1.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="h must be positive"):
        stepper.qp_closed_form(_harmonic(), -0.1, [1.0], [0.0])
    with pytest.raises(ValueError, match="h must be positive and finite, got nan"):
        stepper.qp_closed_form(_harmonic(), float("nan"), [1.0], [0.0])
    with pytest.raises(ValueError, match="h must be positive and finite, got True"):
        stepper.qp_closed_form(_harmonic(), True, [1.0], [0.0])
    # a d = 1 problem used to return two 2-vectors for these
    with pytest.raises(ValueError, match=r"x_k must be 1 finite values, got \[1\. 2\.\]"):
        stepper.qp_closed_form(_harmonic(), 0.1, [1.0, 2.0], [0.0])
    with pytest.raises(ValueError, match="p_k must be 1 finite values"):
        stepper.qp_closed_form(_harmonic(), 0.1, [1.0], [float("nan")])


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
    w = _loop_weights(prob, tab, cfg)
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
    w = _loop_weights(prob, tab, cfg)
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


def _counted(monkeypatch, name):
    """Wrap fvi.stepper.<name> so that its calls are counted."""
    calls = []
    original = getattr(stepper, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(stepper, name, counted)
    return calls


def test_jacobian_built_once_per_run_on_quadratic_problems(monkeypatch):
    # each block's first correction reuses the last Jacobian's inverse and
    # every further correction builds one; with a constant Hessian it is exact,
    # so one build serves the whole run (bagley-torvik's lobatto2 block 0
    # starts at its solution and takes no solve); without hess_potential the
    # differenced Hessian's rounding error stays below the stopping test
    bagley, damped = models.bagley_torvik(), models.damped_oscillator_1d()
    cfg = FviConfig(h=1.0 / 64, N=64)
    runs = [(bagley, tableau.lobatto_iiic(r)) for r in (2, 3, 4)]
    runs.append((damped, tableau.midpoint()))
    calls = _counted(monkeypatch, "hessian_blocks")
    for strip in (False, True):
        for spec, tab in runs:
            prob = spec.problem
            if strip:
                prob = dataclasses.replace(prob, hess_potential=None)
            calls.clear()
            sol = stepper.run(prob, tab, cfg, *spec.default_initials)
            solves = [iters for iters, _ in sol.newton_stats]
            assert len(calls) == 1 and max(solves) <= 1, (strip, tab.label)


@pytest.mark.parametrize("method", ["lobatto2", "lobatto3", "lobatto4", "midcq"])
def test_differenced_hessian_settles_quadratic_runs_in_one_correction(method):
    # without hess_potential, hessian_blocks differences grad_potential alone,
    # which is exact to rounding on a quadratic potential: a differenced
    # gradient of the whole block took up to 1.88 corrections per block here
    # and agreed with the analytic run to 9.3e-11 at N = 1024
    tab = harness._tableau_for(method)
    for name in ("damped-oscillator-1d", "coupled-oscillator"):
        spec = models.by_name(name)
        prob = dataclasses.replace(spec.problem, hess_potential=None)
        for N in (64, 1024):
            cfg = FviConfig(h=spec.default_horizon / N, N=N)
            sol = stepper.run(prob, tab, cfg, *spec.default_initials)
            if N == 64:
                assert sum(c for c, _ in sol.newton_stats) <= 1.05 * N, name
                continue
            ref = stepper.run(spec.problem, tab, cfg, *spec.default_initials)
            for got, want in ((sol.node_positions, ref.node_positions),
                              (sol.momenta, ref.momenta)):
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), name


def _second_derivative(spec, tab, h, N):
    """One block's hessian_blocks for spec's problem, and V_0..V_N."""
    prob = spec.problem
    basis = basis_for(tab)
    V = tab.b[:, None] * stepper._run_weights(tab, -2 * prob.alpha, h, N).W
    stages = np.random.default_rng(7).normal(size=(basis.control_count, prob.d))
    return hessian_blocks(prob, tab, basis, stages, 0.0, h), V


@pytest.mark.parametrize("name,r", [("bagley-torvik", 3), ("coupled-oscillator", 4)])
def test_window_jacobian_is_block_lower_triangular(name, r):
    spec, tab = models.by_name(name), tableau.lobatto_iiic(r)
    h, cap = 0.05, stepper._WINDOW_CAP
    hess, V = _second_derivative(spec, tab, h, 2 * cap)
    J = stepper._window_jacobian(hess, V[:cap], spec.problem.rho * h)
    b = (r - 1) * spec.problem.d  # unknowns per block
    blocks = J.reshape(cap, b, cap, b)
    for i in range(cap):
        assert not blocks[i, :, i + 1:].any()
        for j in range(i + 1):  # block Toeplitz: (i, j) depends on i - j only
            assert np.array_equal(blocks[i, :, j], blocks[i - j, :, 0])
    Jinv = np.linalg.inv(J)
    for w in (1, 2, 4, 8):
        corner = np.linalg.inv(J[:w * b, :w * b])
        assert np.abs(Jinv[:w * b, :w * b] - corner).max() <= 1e-13 * np.abs(corner).max()


_CAP, _B = stepper._WINDOW_CAP, stepper._FFT_BLOCK


@pytest.mark.parametrize("N", [1, 2, 17, _CAP + _B - 1, _CAP + _B + 1, 1000])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("support", ["full", 1, 2, 0])
def test_history_matches_the_direct_sum(support, d, N):
    # the direct sum sum_{j<t} V_{t-j} (block_j - x0) for target t of window
    # k..k+w-1 is one product of V_t | ... | V_1 | 0 | ... with the increments
    # of blocks 0..k+w-1, the window's own included, zero at lags <= 0;
    # the first N // 4 blocks are given as past; windows ramp 1, 2, 4, .. up
    # to the cap, fall back to one block, settle fewer blocks than asked and
    # pass the unsettled ones corrected next time, as the stepping loop's do
    rng = np.random.default_rng(N + 10 * d)
    n = d + 1
    V = rng.normal(size=(N, n, n))
    if support != "full":
        V[support + 1:] = 0.0
    x0 = rng.normal(size=d)
    blocks = rng.normal(size=(N, n, d))
    cap = min(_CAP, N)
    rev = np.hstack(list(V[N - 1:0:-1]) + [np.zeros((n, cap * n))])  # V_{N-1} | ... | V_1 | 0
    k, w = N // 4, 1
    history = stepper._History(V, cap, x0, blocks[:k])
    assert (history.far is not None) == (support == "full" and N - 1 > cap)
    exact = (history.far is None) and (support == "full" or N - 1 <= support)
    while k < N:
        w = min(w, N - k)
        got = np.empty((w, n, d))
        history.window(k, blocks[k:k + w] - x0, got)
        incr = (blocks[:k + w] - x0).reshape((k + w) * n, d)
        ref = np.array([rev[:, (N - 1 - t) * n:(N - 1 - t + k + w) * n] @ incr
                        for t in range(k, k + w)]).reshape(w, n, d)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(initial=0.0)
        assert np.array_equal(got, ref) or not exact
        m = int(rng.integers(1, w + 1)) if rng.random() < 0.2 else w
        blocks[k + m:k + w] += rng.normal(size=(w - m, n, d))  # the unsettled ones move
        k += m
        w = min(2 * w, cap) if m == w and rng.random() < 0.8 else 1


def test_history_takes_many_past_blocks_at_once():
    # `step` hands _History all earlier blocks at once, so its first window
    # must add every far-field square they complete
    rng = np.random.default_rng(3)
    N, n, d, cap = 1026, 3, 2, 2 * _CAP  # block 1025 needs the square of 768..895
    V = rng.normal(size=(N, n, n))
    x0 = rng.normal(size=d)
    blocks = rng.normal(size=(N, n, d))
    history = stepper._History(V, cap, x0, blocks[:-1])
    assert not history.far.any()
    ref = np.tensordot(V[N - 1:0:-1], blocks[:-1] - x0, axes=([0, 2], [0, 1]))
    got = np.empty((1, n, d))
    history.window(N - 1, blocks[-1:] - x0, got)
    got = got[0]
    assert history.far.any()
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # squares that fall due in one window are added by size L, then by
    # position qL, and give bitwise the sums of this reference loop
    far, L = np.zeros_like(history.far), _B
    while L + cap < N:
        spectrum = np.fft.rfft(V[cap:cap + 2 * L], 2 * L, axis=0)
        for qL in range(L, N - cap, 2 * L):
            src = np.fft.rfft(blocks[qL - L:qL] - x0, 2 * L, axis=0)
            out = np.fft.irfft(spectrum @ src, 2 * L, axis=0)[L:]
            far[qL + cap:qL + cap + L] += out[:N - qL - cap]
        L *= 2
    assert np.array_equal(history.far, far)


def test_constant_hessian_run_batches_stage_gradient(monkeypatch):
    # 256 blocks in groups of 1, 2, 4, 8, then 15 of 16 and a last one of 1:
    # each of the 21 evaluations checks the group corrected last and starts
    # the next one, so the largest batch is two full groups; one Hessian and
    # one inverse serve the run, and every group settles in one correction
    spec = models.bagley_torvik()
    calls = []
    bind = stepper.stage_gradient

    def counting(*args):
        dL = bind(*args)

        def counted(stages, t_k):
            calls.append(len(stages))
            return dL(stages, t_k)

        return counted

    monkeypatch.setattr(stepper, "stage_gradient", counting)
    hess = _counted(monkeypatch, "hessian_blocks")
    counts = _count_linalg_from_stepper(monkeypatch)
    cfg = FviConfig(h=1.0 / 256, N=256)
    sol = stepper.run(spec.problem, tableau.lobatto_iiic(3), cfg,
                      *spec.default_initials)
    assert len(calls) <= 21
    assert max(calls) <= 2 * stepper._WINDOW_CAP
    assert len(hess) == 1 and counts["inv"] == 1
    assert max(iters for iters, _ in sol.newton_stats) <= 1


def _count_linalg_from_stepper(monkeypatch):
    """Count np.linalg.inv and np.linalg.solve calls made by fvi.stepper.

    The window-Jacobian inverses cached by earlier runs are set aside, so the
    count does not depend on which tests ran before.
    """
    monkeypatch.setattr(stepper, "_inverses", _LRU(stepper._inverses.size))
    counts = {"inv": 0, "solve": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(np.linalg, name)):
            if sys._getframe(1).f_globals["__name__"] == "fvi.stepper":
                counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("method", ["lobatto2", "lobatto3", "lobatto4", "midcq"])
def test_run_inverts_one_jacobian_and_solves_no_block(monkeypatch, method):
    # the lagged Jacobian is inverted once and each correction is a product
    # with the inverse; the one solve is M^-1 p0 for block 0's start guess,
    # and the residual binds stage_gradient instead of calling
    # d_all_lagrangian
    spec = models.bagley_torvik()
    tab = harness._tableau_for(method)
    cfg = FviConfig(h=1.0 / 64, N=64)
    counts = _count_linalg_from_stepper(monkeypatch)
    d_all = _counted(monkeypatch, "d_all_lagrangian")
    sol = stepper.run(spec.problem, tab, cfg, *spec.default_initials)
    assert counts == {"inv": 1, "solve": 1}
    assert d_all == []
    assert sum(iters for iters, _ in sol.newton_stats) >= cfg.N - 1


@pytest.mark.parametrize("method", ["lobatto3", "midcq"])
def test_block_residual_keeps_its_grouping(method):
    # R = D L_d(S) - rho h (V0 (S - x0) + H), evaluated in this order; a
    # residual that folds the damping into one precomputed matrix rounds
    # differently and raises the order fits' error floor
    spec = models.coupled_oscillator()
    prob = dataclasses.replace(spec.problem, rho=0.7)
    tab = harness._tableau_for(method)
    basis = basis_for(tab)
    cfg = FviConfig(h=0.05, N=8)
    E = basis.eval_matrix
    V = E @ (tab.b[:, None] * stepper._run_weights(tab, -2 * prob.alpha, cfg.h, cfg.N).W) @ E.T
    rng = np.random.default_rng(5)
    n, d = basis.control_count, prob.d
    x0 = rng.normal(size=d)
    for k in range(1, 5):  # block k alone, after k given blocks
        past, p_in = rng.normal(size=(k, n, d)), rng.normal(size=d)
        (stages,), (R,), _ = stepper._integrate(prob, tab, cfg.h, V[:k + 1], x0,
                                                p_in, past)
        assert np.array_equal(stages[0], past[-1, -1])
        history = stepper._History(V[:k + 1], k + 1, x0, past)
        hist = np.empty((1, n, d))
        history.window(k, (stages - x0)[None], hist)
        hist = hist[0]
        ref = d_all_lagrangian(prob, tab, basis, stages, k * cfg.h, cfg.h) \
            - prob.rho * cfg.h * (V[0] @ (stages - x0) + hist)
        assert np.array_equal(R, ref)


@pytest.mark.parametrize("method", ["lobatto2", "lobatto3", "lobatto4", "midcq"])
def test_window_run_agrees_with_one_block_at_a_time(monkeypatch, method):
    # with _WINDOW_CAP = 1 every group is one block; both solutions pass the
    # same stopping test, so they agree to _NEWTON_TOL times its scale
    tab = harness._tableau_for(method)
    runs = [(spec.problem, spec.default_horizon, spec.default_initials)
            for spec in map(models.by_name, models.BENCHMARK_NAMES)]
    runs.append((_pendulum(), 40.0, ([0.9], [0.4])))
    for prob, horizon, initials in runs:
        cfg = FviConfig(h=horizon / 256, N=256)
        sol = stepper.run(prob, tab, cfg, *initials)
        with monkeypatch.context() as patch:
            patch.setattr(stepper, "_WINDOW_CAP", 1)
            ref = stepper.run(prob, tab, cfg, *initials)
        mass = np.abs(prob.mass_matrix).sum(axis=1).max()
        scale = mass * np.abs(ref.trajectory.values).max() / cfg.h \
            + np.abs(ref.momenta).max()
        tol = stepper._NEWTON_TOL * max(scale, 1.0)
        assert np.abs(sol.trajectory.values - ref.trajectory.values).max() <= tol
        assert np.abs(sol.momenta - ref.momenta).max() <= tol


def test_runs_with_the_same_jacobian_share_its_inverse(monkeypatch):
    # an ensemble's runs build one and the same window Jacobian, so only the
    # first builds and inverts it; the inverse is keyed by the Jacobian's
    # inputs, one block's hessian_blocks, V_0..V_{cap-1} and rho h, so a run
    # with another Hessian, h or rho inverts its own, and the cache stays bounded
    spec, tab = models.coupled_oscillator(), tableau.lobatto_iiic(4)
    prob, (x0, p0) = spec.problem, spec.default_initials
    cfg = FviConfig(h=0.3125, N=64)
    counts = _count_linalg_from_stepper(monkeypatch)
    built = _counted(monkeypatch, "_window_jacobian")
    first = stepper.run(prob, tab, cfg, x0, p0)
    assert counts["inv"] == 1 and len(built) == 1
    again = stepper.run(prob, tab, cfg, x0, p0)
    stepper.run(prob, tab, cfg, -x0, 2.0 * p0)
    assert counts["inv"] == 1 and len(built) == 1
    assert np.array_equal(again.trajectory.values, first.trajectory.values)
    assert np.array_equal(again.momenta, first.momenta)
    harmonic = _harmonic(d=prob.d, eta=0.7, rho=prob.rho, alpha=prob.alpha)
    for other, other_cfg in ((harmonic, cfg), (prob, FviConfig(h=0.3, N=64)),
                             (dataclasses.replace(prob, rho=0.5), cfg)):
        inverted = counts["inv"]
        own = stepper.run(other, tab, other_cfg, x0, p0)
        hit = stepper.run(other, tab, other_cfg, x0, p0)
        assert counts["inv"] == inverted + 1
        with monkeypatch.context() as patch:
            patch.setattr(stepper, "_inverses", _LRU(stepper._inverses.size))
            cold = stepper.run(other, tab, other_cfg, x0, p0)
        for sol in (own, hit):
            assert np.array_equal(sol.trajectory.values, cold.trajectory.values)
            assert np.array_equal(sol.momenta, cold.momenta)
            assert sol.newton_stats == cold.newton_stats
    # a key holds the Jacobian's inputs, not its (cap (n-1) d)^2 entries
    unknowns = stepper._WINDOW_CAP * (basis_for(tab).control_count - 1) * prob.d
    for key in stepper._inverses.items:
        assert all(len(part) < 8 * unknowns ** 2 for part in key if isinstance(part, bytes))
    for N in range(10, 10 + 2 * stepper._inverses.size):
        stepper.run(prob, tab, FviConfig(h=1.0 / N, N=N), x0, p0)
    assert len(stepper._inverses.items) == stepper._inverses.size


def test_legendre_momenta_read_block_k_of_apply_retarded():
    spec = models.bagley_torvik()
    prob, tab = spec.problem, tableau.lobatto_iiic(3)
    cfg = FviConfig(h=1.0 / 16, N=16)
    traj = stepper.run(prob, tab, cfg, *spec.default_initials).trajectory
    w = _loop_weights(prob, tab, cfg)
    vals = traj.values
    dcq = apply_retarded(w, StageTrajectory(vals - vals[0, 0], cfg.h))
    rho_h = prob.rho * cfg.h
    for k in range(cfg.N):
        dL = d_all_lagrangian(prob, tab, basis_for(tab), vals[k], k * cfg.h, cfg.h)
        assert np.array_equal(stepper.legendre_minus(prob, tab, w, traj, k),
                              -dL[0] + rho_h * tab.b[0] * dcq[k, 0])
        assert np.array_equal(stepper.legendre_plus(prob, tab, w, traj, k),
                              dL[-1] - rho_h * tab.b[-1] * dcq[k, -1])


def test_step_and_legendre_reject_one_stage_tableau():
    spec = models.bagley_torvik()
    prob, tab = spec.problem, tableau.midpoint()
    cfg = FviConfig(h=1.0 / 16, N=16)
    traj = stepper.run(prob, tab, cfg, *spec.default_initials).trajectory
    w = compute_weights(tab, -2 * prob.alpha, cfg.h, cfg.N)
    head = StageTrajectory(values=traj.values[:3], h=cfg.h)
    calls = [("step", lambda: stepper.step(prob, tab, w, cfg, head, 3)),
             ("legendre_minus",
              lambda: stepper.legendre_minus(prob, tab, w, traj, 3)),
             ("legendre_plus",
              lambda: stepper.legendre_plus(prob, tab, w, traj, 3))]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"{name} needs at least two "
                           "stages, got one-stage tableau 'midpoint'"):
            call()


@pytest.mark.parametrize("r,order", [(2, 2.0), (3, 4.0), (4, 6.0)])
def test_lagged_jacobian_keeps_order_on_pendulum(r, order):
    # self-convergence of the end position: successive differences over
    # N = 8 .. 64 shrink by 2^order; a fine-h reference would sit on the
    # drift the scale-aware stopping test allows at small h
    prob = _pendulum(eta=1.0, rho=0.2, alpha=0.5)
    horizon, tab = 4.0, tableau.lobatto_iiic(r)
    ends, solves = [], []
    for N in (8, 16, 32, 64):
        sol = stepper.run(prob, tab, FviConfig(h=horizon / N, N=N), [0.9], [0.4])
        ends.append(sol.node_positions[-1, 0])
        solves += [iters for iters, _ in sol.newton_stats]
    diffs = np.abs(np.diff(ends))
    orders = np.log2(diffs[:-1] / diffs[1:])
    assert np.all(np.abs(orders - order) < 0.3), orders
    if r > 2:  # the lagged first correction and a rebuilt one both ran
        assert sum(solves) / len(solves) > 1.0


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
        potential=lambda t, x: 0.5 * (x[..., None, :] @ x[..., None])[..., 0, 0],
        grad_potential=lambda t, x: np.where(np.asarray(t)[..., None] < t_bad, x, np.nan),
        hess_potential=lambda t, x: np.eye(1),
    )


def test_per_point_callables_are_rejected_with_their_shapes():
    # written for one point at a time, x - f(t) broadcasts a block's (1, 2)
    # times against its (1, 2, 1) points into (1, 2, 2)
    per_point = LagrangianProblem(
        d=1,
        potential=lambda t, x: 0.5 * x[0] ** 2 - x[0] * (1.0 + t),
        grad_potential=lambda t, x: x - (1.0 + t),
        hess_potential=lambda t, x: np.outer(x, x),
        exact_solution=lambda t: (np.array([t]), np.array([1.0])),
    )
    tab = tableau.lobatto_iiic(2)
    with pytest.raises(ValueError, match=r"grad_potential returned shape "
                       r"\(1, 2, 2\), expected \(1, 2, 1\)"):
        stepper.run(per_point, tab, FviConfig(h=0.1, N=4), [0.0], [0.0])
    with pytest.raises(ValueError, match=r"hess_potential returned shape "
                       r"\(2, 2\), expected \(2, 1, 1\)"):
        hessian_blocks(per_point, tab, basis_for(tab), np.zeros((2, 1)), 0.0, 0.1)
    with pytest.raises(ValueError, match=r"exact_solution returned shape "
                       r"\(1, 5\), expected \(5, 1\)"):
        models.exact_states(per_point, np.linspace(0.0, 1.0, 5))
    # x[0] of a batch is the first point's state, shape (1,), which would
    # broadcast to every point: 1.0652 for 1.0212 here, and energies 0.5,
    # 0.5, 0.5 for 0.5, 2, 4.5
    row0 = dataclasses.replace(per_point, potential=lambda t, x: 0.5 * x[0] ** 2)
    lob3 = tableau.lobatto_iiic(3)
    with pytest.raises(ValueError, match=r"potential returned shape "
                       r"\(1,\), expected \(3,\)"):
        discrete_lagrangian(row0, lob3, basis_for(lob3), [[0.1], [0.5], [0.9]],
                            0.0, 0.3)
    with pytest.raises(ValueError, match=r"potential returned shape "
                       r"\(1,\), expected \(3,\)"):
        models.energy(row0, np.array([[1.0], [2.0], [3.0]]), np.zeros((3, 1)))


def test_run_reports_failing_phase():
    cfg = FviConfig(h=0.1, N=3)
    tab = tableau.lobatto_iiic(2)
    with pytest.raises(NewtonError, match="init step failed: .*residual nan"):
        stepper.run(_nan_gradient_from(0.0), tab, cfg, [1.0], [0.5])
    # block 1 evaluates the gradient at t = 0.2, its last node, which enters
    # only block 2, through its incoming momentum
    with pytest.raises(NewtonError, match="step 2 failed: .*residual nan") as info:
        stepper.run(_nan_gradient_from(0.15), tab, cfg, [1.0], [0.5])
    assert info.value.iterations == 0


def test_window_ends_before_a_non_finite_block():
    # blocks 1 and 2 form the second group; block 2 evaluates the gradient at
    # t = 0.3, its last node, which enters only block 3's incoming momentum,
    # so blocks 1 and 2 settle and block 3 fails in its own group, before any
    # correction
    cfg = FviConfig(h=0.1, N=4)
    with pytest.raises(NewtonError, match="step 3 failed: .*residual nan") as info:
        stepper.run(_nan_gradient_from(0.25), tableau.lobatto_iiic(2), cfg,
                    [1.0], [0.5])
    assert info.value.iterations == 0


def test_shifted_start_guess_keeps_fine_step_errors():
    # a group's block i starts from the block before the group shifted by
    # i+1 times its displacement; starting every block from that block
    # unshifted leaves errors of 1.6e-12 to 8.2e-12 here after one correction
    tab = tableau.lobatto_iiic(4)
    for spec in (models.coupled_oscillator(), models.bagley_torvik(),
                 models.damped_oscillator_1d()):
        cfg = FviConfig(h=spec.default_horizon / 1024, N=1024)
        sol = stepper.run(spec.problem, tab, cfg, *spec.default_initials)
        X, _ = models.exact_states(spec.problem, sol.times)
        assert np.abs(sol.node_positions - X).max() < 1e-12, spec.name


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
    tabs = [tableau.lobatto_iiic(r) for r in (2, 3, 4)] + [tableau.midpoint()]
    for tab in tabs:
        method = tab.label
        a, f = (stepper.run(problem, tab, cfg, x0, p0) for problem in
                (prob, dataclasses.replace(prob, hess_potential=None)))
        assert np.abs(a.node_positions - f.node_positions).max() < 1e-9, method
        assert np.abs(a.momenta - f.momenta).max() < 1e-9, method
        # with the exact Jacobian Newton needs no more solves than with a
        # differenced one; a wrong damping block costs extra solves here
        solves = [iters for iters, _ in a.newton_stats]
        fd_solves = [iters for iters, _ in f.newton_stats]
        assert all(i <= j for i, j in zip(solves, fd_solves)), method
        if method != "lobatto_iiic_2":  # its closure is linear in the new node
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
    # blocks of h = 0.1 labelled with another step size
    relabelled = StageTrajectory(values=stages[None], h=0.5)
    with pytest.raises(ValueError, match="history step size 0.5 does not match "
                       "the weights step size 0.1"):
        stepper.step(prob, tab, w, cfg, relabelled, 1)


@pytest.mark.parametrize("k", [np.True_, 1.0])
def test_step_names_a_block_index_that_is_not_an_integer(k):
    # on a one-block history np.True_ ran as k = 1 and 1.0 raised an unnamed TypeError
    prob, cfg, tab = _harmonic(rho=0.1), FviConfig(h=0.1, N=4), tableau.lobatto_iiic(2)
    w = compute_weights(tab, -1.0, cfg.h, cfg.N)
    hist = StageTrajectory(values=stepper.init_step(prob, tab, w, cfg, [1.0], [0.0])[None],
                           h=cfg.h)
    with pytest.raises(ValueError, match=rf"^k must be an integer >= 0, got {k!r}$"):
        stepper.step(prob, tab, w, cfg, hist, k)


def test_run_rejects_one_stage_tableau_other_than_midpoint():
    euler = tableau.ButcherTableau(A=np.array([[1.0]]), b=np.array([1.0]),
                                   c=np.array([1.0]), p=1, q=1,
                                   label="implicit_euler")
    with pytest.raises(ValueError, match="'implicit_euler' is not the midpoint"):
        stepper.run(_harmonic(rho=0.3), euler, FviConfig(h=0.1, N=4),
                    [1.0], [0.5])


def test_midcq_reduces_to_midpoint_rule_without_damping():
    eta, h, n = 1.0, 0.1, 40
    prob = _harmonic(eta=eta)
    cfg = FviConfig(h=h, N=n)
    sol = stepper.run(prob, tableau.midpoint(), cfg, [1.0], [0.5])
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
        sol = stepper.run(prob, tableau.midpoint(), FviConfig(h=h, N=n), x0, p0)
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
        sol = stepper.run(prob, tableau.midpoint(), FviConfig(h=h, N=n), x0, p0)
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
    sol = stepper.run(prob, tableau.midpoint(), FviConfig(h=h, N=n), x0, p0)
    nodes = sol.node_positions
    w = midcq_weights(-2 * prob.alpha, h, n)
    incr = nodes - x0
    mids = StageTrajectory(0.5 * (incr[:-1] + incr[1:])[:, None, :], h)
    D = apply_retarded(w, mids)[:, 0]
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
    sol = stepper.run(prob, tableau.midpoint(), FviConfig(h=0.1, N=1), [1.0], [0.5])
    assert sol.node_positions.shape == (2, 1)
    assert np.abs(sol.momenta[0] - 0.5).max() < 1e-15


def test_action_variation_detects_non_solution():
    rng = np.random.default_rng(3)
    tab = tableau.lobatto_iiic(2)
    bt = models.bagley_torvik()
    prob = bt.problem
    n, h = 8, 1.0 / 8
    cfg = FviConfig(h=h, N=n)
    x = stepper.run(prob, tab, cfg, *bt.default_initials).node_positions
    y = stepper.solve_companion(prob, tab, cfg, [0.5], [-0.1])
    assert y.shape == (n + 1, 1)
    x_bad = x.copy()
    x_bad[4] += 1e-2
    delta = np.zeros((n + 1, 1))
    delta[1:n] = rng.standard_normal((n - 1, 1))
    dv = stepper.action_variation(prob, tab, x_bad, y, delta, h)
    assert abs(dv) > 1e-6


def test_solve_companion_requires_two_stages():
    """The doubled action rejects every tableau but a two-stage one, by its label."""
    bt = models.bagley_torvik()
    prob, n, h = bt.problem, 8, 0.125
    nodes = np.zeros((n + 1, 1))
    for tab in (tableau.lobatto_iiic(3), tableau.midpoint()):
        w = compute_weights(tab, -2 * prob.alpha, h, n)
        calls = [("solve_companion", lambda: stepper.solve_companion(
                     prob, tab, FviConfig(h=h, N=n), [0.0], [1.0])),
                 ("companion_residuals", lambda: stepper.companion_residuals(
                     prob, tab, w, nodes, h)),
                 ("action_variation", lambda: stepper.action_variation(
                     prob, tab, nodes, nodes, nodes, h))]
        for name, call in calls:
            with pytest.raises(ValueError, match=f"{name} needs exactly two stages, "
                               f"got {tab.r}-stage tableau '{tab.label}'"):
                call()


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
    with pytest.raises(ValueError, match="N must be an integer >= 1, got True"):
        FviConfig(h=0.1, N=True)
    with pytest.raises(ValueError, match="h must be positive and finite, got True"):
        FviConfig(h=True, N=2)
    FviConfig(h=0.1, N=np.int64(4))


def test_run_rejects_a_malformed_initial_state():
    # the offending argument is named with its values and shape, not left to
    # fail inside a reshape, a solve or a NaN residual
    spec, tab = models.coupled_oscillator(), tableau.lobatto_iiic(3)
    prob, (x0, p0) = spec.problem, spec.default_initials
    cfg = FviConfig(h=0.1, N=4)
    w = compute_weights(tab, -2 * prob.alpha, cfg.h, cfg.N)
    bad = [([1.0], p0, r"x0 must be 2 finite values, got \[1\.\] of shape \(1,\)"),
           (x0, [0.0], r"p0 must be 2 finite values, got \[0\.\] of shape \(1,\)"),
           ([1.0, np.nan], p0,
            r"x0 must be 2 finite values, got \[ 1\. nan\] of shape \(2,\)")]
    for x, p, message in bad:
        with pytest.raises(ValueError, match=message):
            stepper.run(prob, tab, cfg, x, p)
        with pytest.raises(ValueError, match=message):
            stepper.init_step(prob, tab, w, cfg, x, p)


def test_solution_copies_the_callers_arrays():
    # the frozen copies belong to the solution; the caller's arrays stay writeable
    traj = StageTrajectory(values=np.zeros((2, 2, 1)), h=0.5, continuity_flag=True)
    momenta, times = np.zeros((3, 1)), np.array([0.0, 0.5, 1.0])
    sol = stepper.FviSolution(trajectory=traj, momenta=momenta, times=times,
                              newton_stats=((1, 0.0), (1, 0.0)))
    momenta[0, 0], times[0] = 1.0, 2.0
    assert sol.momenta[0, 0] == 0.0 and sol.times[0] == 0.0
    assert not sol.momenta.flags.writeable and not sol.times.flags.writeable


def test_node_positions_shape_and_continuity():
    spec = models.coupled_oscillator()
    cfg = FviConfig(h=0.2, N=10)
    sol = stepper.run(spec.problem, tableau.lobatto_iiic(4), cfg,
                      *spec.default_initials)
    assert sol.node_positions.shape == (11, 2)
    vals = sol.trajectory.values
    assert np.array_equal(vals[:-1, -1, :], vals[1:, 0, :])


def test_legendre_rejects_block_index_out_of_range():
    spec = models.bagley_torvik()
    prob, tab = spec.problem, tableau.lobatto_iiic(2)
    cfg = FviConfig(h=1.0 / 16, N=16)
    traj = stepper.run(prob, tab, cfg, *spec.default_initials).trajectory
    w = _loop_weights(prob, tab, cfg)
    for k in (-1, cfg.N):
        with pytest.raises(IndexError, match=f"block index {k} out of range"):
            stepper.legendre_minus(prob, tab, w, traj, k)
    short = compute_weights(tab, -2 * prob.alpha, cfg.h, 4)
    with pytest.raises(IndexError, match="need weights up to index 5, have 4"):
        stepper.legendre_plus(prob, tab, short, traj, 5)
    relabelled = StageTrajectory(values=traj.values, h=0.5)
    for legendre in (stepper.legendre_minus, stepper.legendre_plus):
        with pytest.raises(ValueError, match="history step size 0.5 does not match "
                           "the weights step size 0.0625"):
            legendre(prob, tab, w, relabelled, 3)


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_solve_companion_stops_relative_to_the_size_of_its_terms(scale):
    # an absolute 1e-12 stop lies below the rounding of terms of size |M| max|y| / h:
    # at endpoint scale 1e4 Newton used to give up at a residual of 4.7e-12
    spec, tab = models.bagley_torvik(), tableau.lobatto_iiic(2)
    cfg = FviConfig(h=1.0 / 8, N=8)
    y = stepper.solve_companion(spec.problem, tab, cfg, [0.3 * scale], [-0.7 * scale])
    assert y[0, 0] == 0.3 * scale and y[-1, 0] == -0.7 * scale
    w = compute_weights(tab, -2 * spec.problem.alpha, cfg.h, cfg.N)
    resid = stepper.companion_residuals(spec.problem, tab, w, y, cfg.h)
    assert np.abs(resid).max() <= stepper._NEWTON_TOL * np.abs(y).max() / cfg.h
