"""Variational integrators for fractionally damped mechanical systems.

One stepping loop serves every method.  Block k holds the n control points of
the Galerkin interpolant on step k, the first shared with block k-1.  Weights
V_0..V_N (n x n) give R_k = D L_d(block_k) - rho h (V_0 (block_k - x0) + H_k)
with the damping history H_k = sum_{j<k} V_{k-j} (block_j - x0).  Points 2..n
solve p_in + R_k[0] = 0 and R_k[i] = 0 at the inner points, p_in being p0 at
k = 0 and R_{k-1}[-1] after.  Lobatto IIIC uses V_n = diag(b) W_n with the
matrix convolution weights; the midpoint variant is the same closure on its
two control points with V_n = w_n 11^T / 4.  Damping acts on x - x0, which
reproduces the classical damped update in the half-order-squared limit and
avoids the start-up jump of a zero-extended history at nonzero x0.  `run` and
`run_midcq` are the ways into the loop; `init_step` and `step` solve one block
of it from an outside weight table and history.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .cq import (
    StageTrajectory,
    WeightSequence,
    apply_advanced,
    apply_retarded,
    compute_weights,
    midcq_weights,
)
from .galerkin import (
    LagrangianProblem,
    basis_for,
    d_all_lagrangian,
    hessian_blocks,
)
from .tableau import ButcherTableau, midpoint

__all__ = [
    "FviConfig",
    "FviSolution",
    "NewtonError",
    "init_step",
    "step",
    "legendre_minus",
    "legendre_plus",
    "qp_closed_form",
    "run",
    "run_midcq",
    "companion_residuals",
    "solve_companion",
    "action_variation",
]

_NEWTON_TOL = 1e-12  # relative to the block's scale, see _block_solver
_NEWTON_MAX_ITER = 50


@dataclass(frozen=True)
class FviConfig:
    """Run parameters: step size and step count."""

    h: float
    N: int

    def __post_init__(self):
        if not isinstance(self.N, numbers.Integral) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"h must be positive and finite, got {self.h!r}")


@dataclass(frozen=True)
class FviSolution:
    """Integrator output: stage trajectory, node momenta, times, diagnostics.

    newton_stats holds one (solve count, final residual) pair per nonlinear
    system; each residual is at most 1e-12 times the size of the terms it
    cancels, max(1, |M| max(|first|, |guess|) / h + |p_in|) in the max norm.
    Node energies are fvi.models.energy of node_positions and momenta.
    """

    trajectory: StageTrajectory
    momenta: np.ndarray
    times: np.ndarray
    newton_stats: tuple

    def __post_init__(self):
        for name in ("momenta", "times"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def node_positions(self) -> np.ndarray:
        """Main-node positions, shape (N+1, d)."""
        vals = self.trajectory.values
        return np.vstack([vals[:, 0, :], vals[-1:, -1, :]])


class NewtonError(RuntimeError):
    """Newton met a non-finite residual or ran out of solves; carries iterate and residual."""

    def __init__(self, message, residual_norm, iterate, iterations):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterate = iterate
        self.iterations = iterations


def _newton(residual, jacobian, u0, tol):
    """Undamped Newton to max-norm residual <= tol; (solution, solves, residual)."""
    u = np.array(u0, dtype=float)
    for solves in range(_NEWTON_MAX_ITER + 1):
        F = residual(u)
        norm = float(np.abs(F).max()) if F.size else 0.0
        finite = math.isfinite(norm)
        if finite and norm <= tol:
            return u, solves, norm
        if not finite or solves == _NEWTON_MAX_ITER:
            break
        u = u - np.linalg.solve(jacobian(u), F)
    raise NewtonError(f"newton stopped at residual {norm:.3e} after {solves} "
                      "iterations", norm, u, solves)


def _fd_jacobian(residual, u):
    # central difference columns, step scaled by the iterate magnitude
    step = 1e-7 * (1.0 + float(np.abs(u).max()))
    n = u.size
    J = np.empty((n, n))
    for j in range(n):
        up = u.copy()
        dn = u.copy()
        up[j] += step
        dn[j] -= step
        J[:, j] = (residual(up) - residual(dn)) / (2.0 * step)
    return J


def _check_weights(prob, tab, cfg, weights):
    if abs(weights.exponent + 2.0 * prob.alpha) > 1e-12:
        raise ValueError("weights exponent does not match the damping order")
    if weights.h != cfg.h:
        raise ValueError("weights step size does not match the configuration")
    if weights.tableau_label != tab.label:
        raise ValueError("weights were computed for another tableau")


def _block_solver(prob, tab, cfg, V0, x0):
    """solve(t_k, first, p_in, hist, guess) -> (stages, R, (solves, residual)).

    Newton on one block with its first control point fixed at `first` and
    hist = H_k; R is the residual at the returned stages.  Without a guess
    Newton starts on the line from `first` with velocity M^-1 p_in.  The
    Jacobian is analytic when the problem has hess_potential and a central
    difference of the residual otherwise.  The residual cancels momenta of
    size |M x| / h and p_in, so Newton stops at _NEWTON_TOL times that size
    or 1 (the mixed scale of Hairer & Wanner, Solving ODEs II, IV.8).
    """
    basis = basis_for(tab)
    n, d, h = basis.control_count, prob.d, cfg.h
    rho_h = prob.rho * h
    damp = rho_h * np.kron(V0[:-1, 1:], np.eye(d))
    analytic = prob.hess_potential is not None
    mass = float(np.abs(prob.mass_matrix).sum(axis=1).max())

    def solve(t_k, first, p_in, hist, guess=None):
        if guess is None:
            v = np.linalg.solve(prob.mass_matrix, p_in)
            guess = (first + basis.nodes[1:, None] * h * v).ravel()
        # max over floats: a numpy reduction on these few values costs microseconds
        size = max(map(abs, first.tolist() + guess.tolist()))
        tol = _NEWTON_TOL * max(1.0, mass * size / h + max(map(abs, p_in.tolist())))
        R = None  # _newton's last residual call is at the iterate it returns

        def build(u):
            return np.vstack([first, u.reshape(n - 1, d)])

        def residual(u):
            nonlocal R
            stages = build(u)
            R = d_all_lagrangian(prob, tab, basis, stages, t_k, h) \
                - rho_h * (V0 @ (stages - x0) + hist)
            eqs = R[:-1].copy()
            eqs[0] += p_in
            return eqs.ravel()

        def jacobian(u):
            hess = hessian_blocks(prob, tab, basis, build(u), t_k, h)[:-1, 1:]
            return hess.transpose(0, 2, 1, 3).reshape(damp.shape) - damp

        jac = jacobian if analytic else (lambda u: _fd_jacobian(residual, u))
        u, solves, norm = _newton(residual, jac, guess, tol)
        return build(u), R, (solves, norm)

    return solve


def init_step(prob: LagrangianProblem, tab: ButcherTableau,
              weights: WeightSequence, cfg: FviConfig, x0, p0) -> np.ndarray:
    """First-step stages from the momentum boundary condition at t=0.

    Solves p0 = -D_1 L_d + rho h b_1 [CQ x]^1 together with the inner stage
    equations i = 2..s for the unknowns x_0^2..x_0^{s+1}; x_0^1 = x0 is fixed.
    This is block 0 of the stepping loop of `run`.
    """
    if tab.r < 2:
        raise ValueError("init_step needs at least two stages")
    _check_weights(prob, tab, cfg, weights)
    x0 = np.asarray(x0, dtype=float).ravel()
    p0 = np.asarray(p0, dtype=float).ravel()
    solve = _block_solver(prob, tab, cfg, tab.b[:, None] * weights.W[0], x0)
    return solve(0.0, x0, p0, 0.0)[0]


def step(prob: LagrangianProblem, tab: ButcherTableau, weights: WeightSequence,
         cfg: FviConfig, history: StageTrajectory, k: int) -> np.ndarray:
    """Stages of block k from the discrete Euler-Lagrange closure.

    history must hold blocks 0..k-1; the new block's first stage is the last
    stage of block k-1.  The incoming momentum legendre_plus(k-1) and the
    damping history sum over weights n >= 1, which the stepping loop of `run`
    carries along, are recomputed here from the history.
    """
    if k < 1 or history.nblocks != k:
        raise ValueError(f"history must hold exactly blocks 0..{k - 1}")
    _check_weights(prob, tab, cfg, weights)
    if weights.count <= k:
        raise ValueError(f"need weights up to index {k}, have {weights.count - 1}")
    V = tab.b[:, None] * weights.W[:k + 1]
    vals = history.values
    hist = np.tensordot(V[k:0:-1], vals - vals[0, 0], axes=([0, 2], [0, 1]))
    p_in = _node_momentum(prob, tab, weights, history, k - 1, plus=True)
    solve = _block_solver(prob, tab, cfg, V[0], vals[0, 0])
    return solve(k * cfg.h, vals[k - 1, -1], p_in, hist,
                 vals[k - 1, 1:].ravel())[0]


def _node_momentum(prob, tab, weights, history, k, plus):
    if not 0 <= k < history.nblocks:
        raise IndexError(f"block index {k} out of range")
    if weights.count <= k:
        raise IndexError(f"need weights up to index {k}, have {weights.count - 1}")
    basis = basis_for(tab)
    vals = history.values
    incr = vals[:k + 1] - vals[0, 0]
    dcq = np.tensordot(weights.W[:k + 1][::-1], incr, axes=([0, 2], [0, 1]))
    dL = d_all_lagrangian(prob, tab, basis, vals[k], k * history.h, history.h)
    rho_h = prob.rho * history.h
    if plus:
        return dL[-1] - rho_h * tab.b[-1] * dcq[-1]
    return -dL[0] + rho_h * tab.b[0] * dcq[0]


def legendre_minus(prob: LagrangianProblem, tab: ButcherTableau,
                   weights: WeightSequence, history: StageTrajectory,
                   k: int) -> np.ndarray:
    """Pre-node momentum p_k^- = -D_1 L_d(block k) + rho h b_1 [CQ x]_k^1.

    The stepping loop keeps these as it goes; this is the post-hoc reference.
    """
    return _node_momentum(prob, tab, weights, history, k, plus=False)


def legendre_plus(prob: LagrangianProblem, tab: ButcherTableau,
                  weights: WeightSequence, history: StageTrajectory,
                  k: int) -> np.ndarray:
    """Post-node momentum p_{k+1}^+ = D_{s+1} L_d(block k) - rho h b_{s+1} [CQ x]_k^{s+1}."""
    return _node_momentum(prob, tab, weights, history, k, plus=True)


def qp_closed_form(prob: LagrangianProblem, h: float, x_k, p_k,
                   t_k: float = 0.0) -> tuple:
    """One step of the two-stage closed-form position-momentum map.

    Valid for alpha = 1/2 and identity mass, where the damping weights are
    local and the stage system collapses to an explicit update.
    """
    if abs(prob.alpha - 0.5) > 1e-12:
        raise ValueError("closed-form map requires alpha = 1/2")
    if not np.array_equal(prob.mass_matrix, np.eye(prob.d)):
        raise ValueError("closed-form map requires identity mass")
    if h <= 0:
        raise ValueError("h must be positive")
    x_k = np.asarray(x_k, dtype=float).ravel()
    p_k = np.asarray(p_k, dtype=float).ravel()
    rho = prob.rho
    impulse = p_k - 0.5 * h * prob.grad_potential(t_k, x_k)
    x_next = x_k + (2.0 * h / (2.0 + rho * h)) * impulse
    p_next = ((2.0 - rho * h) / (2.0 + rho * h)) * impulse \
        - 0.5 * h * prob.grad_potential(t_k + h, x_next)
    return x_next, p_next


def _integrate(prob, tab, cfg, V, x0, p0) -> FviSolution:
    """The stepping loop of every method; it reads weights V_0..V_{N-1} of V."""
    x0 = np.asarray(x0, dtype=float).ravel()
    p0 = np.asarray(p0, dtype=float).ravel()
    N, n, d, h = cfg.N, V.shape[1], prob.d, cfg.h
    solve = _block_solver(prob, tab, cfg, V[0], x0)
    # V_{N-1} | ... | V_1, so that H_k = rev[:, (N-1-k) n:] @ incr[:k n]
    rev = V[N - 1:0:-1].transpose(1, 0, 2).reshape(n, (N - 1) * n)
    blocks = np.empty((N, n, d))
    incr = np.empty((N * n, d))  # blocks - x0, one control point per row
    momenta = np.empty((N + 1, d))
    stats: list = []
    first, p_in, hist, guess = x0, p0, 0.0, None
    for k in range(N):
        if k:
            hist = rev[:, (N - 1 - k) * n:] @ incr[:k * n]
        try:
            stages, R, stats_k = solve(k * h, first, p_in, hist, guess)
        except NewtonError as exc:
            phase = f"step {k}" if k else "init step"
            raise NewtonError(f"{phase} failed: {exc}", exc.residual_norm,
                              exc.iterate, exc.iterations) from exc
        stats.append(stats_k)
        blocks[k] = stages
        incr[k * n:(k + 1) * n] = stages - x0
        momenta[k] = -R[0] if k else p0
        first, p_in, guess = stages[-1], R[-1], stages[1:].ravel()
    momenta[N] = p_in
    trajectory = StageTrajectory(values=blocks, h=h, continuity_flag=True)
    return FviSolution(trajectory=trajectory, momenta=momenta,
                       times=h * np.arange(N + 1), newton_stats=tuple(stats))


def _run_weights(prob: LagrangianProblem, tab: ButcherTableau, h: float,
                 N: int) -> WeightSequence:
    """The damping weights W_0..W_N that `run` integrates with.

    The weight contour gets four points per step instead of the default two,
    which keeps the accumulated weight error below the local truncation error
    of the higher-stage schemes over long horizons.
    """
    return compute_weights(tab, -2.0 * prob.alpha, h, N,
                           contour_points=4 * (N + 1))


def run(prob: LagrangianProblem, tab: ButcherTableau, cfg: FviConfig,
        x0, p0) -> FviSolution:
    """Lobatto integration: the stepping loop with V_n = diag(b) W_n."""
    if tab.r < 2:
        raise ValueError("run needs at least two stages; use run_midcq")
    weights = _run_weights(prob, tab, cfg.h, cfg.N)
    return _integrate(prob, tab, cfg, tab.b[:, None] * weights.W, x0, p0)


def run_midcq(prob: LagrangianProblem, cfg: FviConfig, x0, p0) -> FviSolution:
    """Midpoint-rule variational integrator with scalar damping weights.

    The stepping loop with V_n = w_n 11^T / 4 puts (rho h / 2) D_k, the
    midpoint weights applied to increment midpoints, on both ends of step k:
    p0 = -D_1 L_d(x_0, x_1) + (rho h / 2) D_0 starts it, and each further step
    closes the discrete Euler-Lagrange equation with the damping average
    (rho h / 2)(D_{k-1} + D_k).  With a full rho h weight instead of the half
    the midpoint variation assigns to each node, the initial velocity picks up
    an O(h) bias and the scheme drops to first order at damping order one.
    """
    w = midcq_weights(-2.0 * prob.alpha, cfg.h, cfg.N).w
    V = np.full((2, 2), 0.25) * w[:, None, None]
    return _integrate(prob, midpoint(), cfg, V, x0, p0)


def _advanced_weighted(weights, y_blocks, b):
    """Advanced operator applied to the b-weighted blocks, all k at once."""
    by = StageTrajectory(values=b[None, :, None] * y_blocks, h=weights.h)
    return np.stack([apply_advanced(weights, by, k)
                     for k in range(y_blocks.shape[0])])


def companion_residuals(prob: LagrangianProblem, tab: ButcherTableau,
                        weights: WeightSequence, y_blocks: np.ndarray,
                        h: float) -> np.ndarray:
    """Residuals of the anti-causal companion equations on blocks 0..N.

    y_blocks has N+1 blocks; block N is the terminal block whose stages
    beyond the first are zero.  The damping uses the advanced operator on
    b-weighted stages, with no additional quadrature factor.
    """
    basis = basis_for(tab)
    n_steps = y_blocks.shape[0] - 1
    s = tab.r - 1
    adv = _advanced_weighted(weights, y_blocks, tab.b)
    dL = np.stack([d_all_lagrangian(prob, tab, basis, y_blocks[k], k * h, h)
                   for k in range(n_steps)])
    rows = []
    for k in range(1, n_steps):
        rows.append(dL[k - 1][-1] + dL[k][0]
                    - prob.rho * h * (adv[k][0] + adv[k - 1][-1]))
    for k in range(n_steps):
        for i in range(2, s + 1):
            rows.append(dL[k][i - 1] - prob.rho * h * adv[k][i - 1])
    return np.concatenate(rows) if rows else np.zeros(0)


def solve_companion(prob: LagrangianProblem, tab: ButcherTableau,
                    cfg: FviConfig, y_start, y_end) -> np.ndarray:
    """Two-stage companion series with fixed endpoint values, as blocks 0..N.

    Solves the anti-causal closure equations for the interior main nodes by
    Newton iteration with a finite-difference Jacobian; returns the N+1
    blocks including the zero-padded terminal block.
    """
    if tab.r != 2:
        raise ValueError("companion solve is implemented for two stages")
    weights = compute_weights(tab, -2.0 * prob.alpha, cfg.h, cfg.N)
    d = prob.d
    y_start = np.asarray(y_start, dtype=float).ravel()
    y_end = np.asarray(y_end, dtype=float).ravel()

    def build(u):
        main = np.vstack([y_start, u.reshape(cfg.N - 1, d), y_end])
        blocks = np.stack([main[:-1], main[1:]], axis=1)
        terminal = np.zeros((1, 2, d))
        terminal[0, 0] = y_end
        return np.concatenate([blocks, terminal])

    def residual(u):
        return companion_residuals(prob, tab, weights, build(u), cfg.h)

    guess = np.linspace(y_start, y_end, cfg.N + 1)[1:-1].ravel()
    u, _, _ = _newton(residual, lambda v: _fd_jacobian(residual, v), guess,
                      _NEWTON_TOL)
    return build(u)


def action_variation(prob: LagrangianProblem, tab: ButcherTableau,
                     x_blocks: np.ndarray, y_blocks: np.ndarray,
                     delta_blocks: np.ndarray, h: float) -> float:
    """Directional derivative of the doubled discrete action.

    The same variation is applied to both series; the damping pairing uses
    half-order weights on the raw trajectories, so the result vanishes on
    solutions of the forward and companion equations when the forward series
    starts at the origin.  All block arrays carry N+1 blocks including the
    zero-padded terminal block.
    """
    basis = basis_for(tab)
    n_steps = x_blocks.shape[0] - 1
    conservative = 0.0
    for k in range(n_steps):
        dLx = d_all_lagrangian(prob, tab, basis, x_blocks[k], k * h, h)
        dLy = d_all_lagrangian(prob, tab, basis, y_blocks[k], k * h, h)
        conservative += float(((dLx + dLy) * delta_blocks[k]).sum())
    weights = compute_weights(tab, -prob.alpha, h, n_steps)
    x_traj = StageTrajectory(values=x_blocks, h=h)
    delta_traj = StageTrajectory(values=delta_blocks, h=h)
    adv_delta = _advanced_weighted(weights, delta_blocks, tab.b)
    adv_y = _advanced_weighted(weights, y_blocks, tab.b)
    fractional = 0.0
    for k in range(n_steps + 1):
        ret_x = apply_retarded(weights, x_traj, k)
        ret_delta = apply_retarded(weights, delta_traj, k)
        fractional += float((adv_delta[k] * ret_x).sum())
        fractional += float((adv_y[k] * ret_delta).sum())
    return conservative - prob.rho * h * fractional
