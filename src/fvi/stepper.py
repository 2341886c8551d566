"""Variational integrators for fractionally damped mechanical systems.

One stepping loop serves every method.  Block k holds the n control points of
the Galerkin interpolant on step k, the first shared with block k-1.  Weights
V_0..V_N (n x n) give R_k = D L_d(block_k) - rho h (V_0 (block_k - x0) + H_k)
with the damping history H_k = sum_{j<k} V_{k-j} (block_j - x0).  Points 2..n
solve p_in + R_k[0] = 0 and R_k[i] = 0 at the inner points, p_in being p0 at
k = 0 and R_{k-1}[-1] after.  Every tableau gets V_n = E diag(b) W_n E^T from
its convolution weights W_n, with E = basis_for(tab).eval_matrix the control
point basis at the quadrature nodes.  Lobatto IIIC has its nodes at the
control points, so E = I; the midpoint rule has E = [1/2, 1/2]^T and 1 x 1
weights w_n, so V_n = w_n 11^T / 4.  Damping acts on x - x0, which
reproduces the classical damped update in the half-order-squared limit and
avoids the start-up jump of a zero-extended history at nonzero x0.

Block k's closure depends on blocks 0..k only, so the closures form a block
lower-triangular system, and the loop solves groups of up to _WINDOW_CAP
consecutive blocks with one simplified Newton iteration (Hairer & Wanner,
Solving ODEs II, IV.8; Hairer, Lubich & Schlichte 1985 do the same for
convolution equations).  Its window slides: one batched residual evaluation
checks the group corrected last and starts the next group, so a window holds
up to 2 _WINDOW_CAP blocks.  The window Jacobian, built from one block's
hessian_blocks and the weights, is block lower-triangular Toeplitz, and the
leading w-block corner of the inverse of a block lower-triangular matrix is
the inverse of its leading corner, so one inverse at the cap serves every
group size.  The solution agrees with a block-by-block solve to the Newton
tolerance, not bitwise.  `run` is the way into the loop; `init_step` and
`step` run it on one Lobatto block from an outside history.  They, the
Legendre momenta and the companion residuals take run's table from
_run_weights: of cfg.N steps, of history.nblocks and of len(y_nodes) - 1.

Per run the loop sets up its buffers, _History's reversed table and
far-field schedule, and the window Jacobian's inverse, which _inverses keys
by the Jacobian's inputs, so runs that share them do not build it; per
window it makes one stage_gradient and one _History.window call.  The
history sums the settled blocks and the window's own in one product, over
lags up to the table's last nonzero one (lag 1 at alpha = 1/2, where it
costs O(N)); sources further back come from the blocked FFT of Hairer,
Lubich & Schlichte, whose squares it adds as the windows pass them, so a
full table costs O(N log^2 N).  The result agrees with the direct sum to
rounding, and bitwise while no lag is dropped and the FFT is not used.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .cq import (
    StageTrajectory,
    WeightSequence,
    _LRU,
    _check_step,
    apply_advanced,
    apply_retarded,
    compute_weights,
    midcq_weights,
)
from .galerkin import (
    _FD_STEP,
    LagrangianProblem,
    _quadrature_times,
    basis_for,
    d_all_lagrangian,
    hessian_blocks,
    stage_gradient,
)
from .tableau import ButcherTableau

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
    "companion_residuals",
    "solve_companion",
    "action_variation",
]

_NEWTON_TOL = 1e-12  # relative to the block's scale, see _integrate
_NEWTON_MAX_ITER = 50
_WINDOW_CAP = 16  # most blocks solved together, see _integrate
_FFT_BLOCK = 128  # smallest far-field square of _History: a power of two > 2 _WINDOW_CAP
_inverses = _LRU(4)  # window-Jacobian inverses by the matrix's inputs, see _integrate


@dataclass(frozen=True)
class FviConfig:
    """Run parameters: step size and step count."""

    h: float
    N: int

    def __post_init__(self):
        _checks.integer("N", self.N, 1)
        _checks.real("h", self.h, 0.0)


@dataclass(frozen=True)
class FviSolution:
    """Integrator output: stage trajectory, node momenta, times, diagnostics.

    newton_stats holds one (solve count, final residual) pair per block.  The
    blocks are solved in groups of several blocks, and a block's solve count
    is the number of Newton corrections its group made before the block
    settled, each correction updating every unsettled block of the group at
    once; a group that settles in one correction gives each of its blocks a
    count of 1.  Each residual is at most 1e-12 times the size of the terms
    it cancels, max(1, |M| max|S_k| / h + |p_in|) in the max norm at the
    block's final control points S_k and incoming momentum p_in.
    Node energies are fvi.models.energy of node_positions and momenta.
    """

    trajectory: StageTrajectory
    momenta: np.ndarray
    times: np.ndarray
    newton_stats: tuple

    def __post_init__(self):
        _checks.frozen(self, momenta=self.momenta, times=self.times)

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


def _newton(residual, jacobian, u0, tol, scale=lambda u: 1.0):
    """Undamped Newton to max-norm residual <= tol * scale(u); (solution, solves, residual).

    Each correction is u - J^-1 F with J the Jacobian at the current iterate.
    """
    u = np.array(u0, dtype=float)
    for solves in range(_NEWTON_MAX_ITER + 1):
        F = residual(u)
        norm = float(np.abs(F).max()) if F.size else 0.0
        finite = math.isfinite(norm)
        if finite and norm <= tol * scale(u):
            return u, solves, norm
        if not finite or solves == _NEWTON_MAX_ITER:
            break
        u = u - np.linalg.inv(jacobian(u)) @ F
    raise NewtonError(f"newton stopped at residual {norm:.3e} after {solves} "
                      "iterations", norm, u, solves)


def _fd_jacobian(residual, u):
    # central difference columns, step scaled by the iterate magnitude
    step = _FD_STEP * (1.0 + float(np.abs(u).max()))
    n = u.size
    J = np.empty((n, n))
    for j in range(n):
        up = u.copy()
        dn = u.copy()
        up[j] += step
        dn[j] -= step
        J[:, j] = (residual(up) - residual(dn)) / (2.0 * step)
    return J


def _require_two_stages(tab, name):
    # these apply diag(b) W_n to the block's control points, which needs E = I
    if tab.r < 2:
        raise ValueError(f"{name} needs at least two stages, got one-stage "
                         f"tableau {tab.label!r}")


def _lower_toeplitz(blocks):
    """The block lower-triangular Toeplitz matrix with blocks[m] at block (i, i-m)."""
    cap, p, q = blocks.shape
    lag = np.subtract.outer(np.arange(cap), np.arange(cap))
    full = np.concatenate([blocks, np.zeros((1, p, q))])[np.where(lag >= 0, lag, cap)]
    return full.transpose(0, 2, 1, 3).reshape(cap * p, cap * q)


def _window_jacobian(hess, V, rho_h):
    """Jacobian of the closures of len(V) consecutive blocks in their inner points.

    hess[a, b] = d(D_a L_d)/dS[b], shape (n, n, d, d), is one block's second
    derivative of L_d; R_i depends on block i through hess - rho h V_0 and on
    block j < i through -rho h V_{i-j}.  Block i's closure is R_i[0] +
    R_{i-1}[-1] and R_i[1..n-2], and its first point is block i-1's last
    inner point, so the (i, j) block depends on i - j only and vanishes for
    j > i: the matrix is block lower-triangular Toeplitz.  Rows are ordered
    (block, equation, coordinate) and columns (block, inner point,
    coordinate).
    """
    cap, n, d = V.shape[0], hess.shape[0], hess.shape[2]
    D = -rho_h * V[:, :, :, None, None] * np.eye(d)  # D[m] = dR_i / dS_{i-m}
    D[0] += hess
    T = D[:, :-1].copy()  # T[m] = d closure_i / dS_{i-m}
    T[1:, 0] += D[:-1, -1]
    J = T[:, :, 1:].copy()  # d closure_i / d(inner points of block i-m)
    J[1:, :, -1] += T[:-1, :, 0]
    size = (n - 1) * d
    return _lower_toeplitz(J.transpose(0, 1, 3, 2, 4).reshape(cap, size, size))


def init_step(prob: LagrangianProblem, tab: ButcherTableau, cfg: FviConfig,
              x0, p0) -> np.ndarray:
    """First-step stages from the momentum boundary condition at t=0.

    Solves p0 = -D_1 L_d + rho h b_1 [CQ x]^1 together with the inner stage
    equations i = 2..s for the unknowns x_0^2..x_0^{s+1}; x_0^1 = x0 is fixed.
    This is the stepping loop of `run` on block 0 alone, with run's table.
    """
    _require_two_stages(tab, "init_step")
    x0, p0 = _checks.state("x0", x0, prob.d), _checks.state("p0", p0, prob.d)
    V0 = tab.b[:, None] * _run_weights(tab, -2.0 * prob.alpha, cfg.h, cfg.N).W[0]
    return _integrate(prob, tab, cfg.h, V0[None], x0, p0)[0][0]


def step(prob: LagrangianProblem, tab: ButcherTableau, cfg: FviConfig,
         history: StageTrajectory) -> np.ndarray:
    """Stages of block k = history.nblocks from the discrete Euler-Lagrange closure.

    history holds blocks 0..k-1, 1 <= k <= cfg.N; the new block's first stage
    is the last stage of block k-1.  The incoming momentum legendre_plus(k-1),
    which the stepping loop of `run` carries along, is recomputed here from
    the history, and the block is that loop run on block k alone after it.
    """
    _require_two_stages(tab, "step")
    k, vals = history.nblocks, history.values
    if not 1 <= k <= cfg.N:
        raise ValueError(f"history must hold 1 to N = {cfg.N} blocks, got {k}")
    weights = _run_weights(tab, -2.0 * prob.alpha, cfg.h, cfg.N)
    _check_step(weights, history)
    p_in = _node_momentum(prob, tab, history, k - 1, plus=True, weights=weights)
    V = tab.b[:, None] * weights.W[:k + 1]
    return _integrate(prob, tab, cfg.h, V, vals[0, 0], p_in, vals)[0][0]


def _node_momentum(prob, tab, history, k, plus, weights=None):
    _require_two_stages(tab, "legendre_plus" if plus else "legendre_minus")
    if not 0 <= k < history.nblocks:
        raise IndexError(f"block index {k} out of range")
    if history.r != tab.r:
        raise ValueError(f"history has {history.r} stages, tableau {tab.label!r} has {tab.r}")
    if weights is None:  # the table of a run over the history's blocks
        weights = _run_weights(tab, -2.0 * prob.alpha, history.h, history.nblocks)
    vals = history.values
    # block k of apply_retarded(weights, blocks 0..k - x0), without the others
    dcq = np.tensordot(weights.W[k::-1], vals[:k + 1] - vals[0, 0], axes=([0, 2], [0, 1]))
    dL = d_all_lagrangian(prob, tab, basis_for(tab), vals[k], k * history.h, history.h)
    rho_h = prob.rho * history.h
    if plus:
        return dL[-1] - rho_h * tab.b[-1] * dcq[-1]
    return -dL[0] + rho_h * tab.b[0] * dcq[0]


def legendre_minus(prob: LagrangianProblem, tab: ButcherTableau,
                   history: StageTrajectory, k: int) -> np.ndarray:
    """Pre-node momentum p_k^- = -D_1 L_d(block k) + rho h b_1 [CQ x]_k^1.

    The stepping loop keeps these as it goes; this is the post-hoc reference.
    """
    return _node_momentum(prob, tab, history, k, plus=False)


def legendre_plus(prob: LagrangianProblem, tab: ButcherTableau,
                  history: StageTrajectory, k: int) -> np.ndarray:
    """Post-node momentum p_{k+1}^+ = D_{s+1} L_d(block k) - rho h b_{s+1} [CQ x]_k^{s+1}."""
    return _node_momentum(prob, tab, history, k, plus=True)


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
    _checks.real("h", h, 0.0)
    x_k, p_k = _checks.state("x_k", x_k, prob.d), _checks.state("p_k", p_k, prob.d)
    rho = prob.rho
    impulse = p_k - 0.5 * h * prob.grad_potential(t_k, x_k)
    x_next = x_k + (2.0 * h / (2.0 + rho * h)) * impulse
    p_next = ((2.0 - rho * h) / (2.0 + rho * h)) * impulse \
        - 0.5 * h * prob.grad_potential(t_k + h, x_next)
    return x_next, p_next


class _History:
    """Damping history H_t = sum_{j<t} V_{t-j} (block_j - x0) of a window k..k+w-1.

    V holds V_0..V_{N-1}; s, the last nonzero lag among V_1..V_{N-1}, bounds
    the sum to j >= t - s, so a banded table (V_m = 0 for m >= 2 at alpha =
    1/2) costs O(N).  past, if given, holds blocks 0..k-1 before the first
    window, at k.  `window(k, incr, out)` takes the increments block - x0 of
    the window's w <= cap blocks, the stepping loop's cap being its window
    span, 2 _WINDOW_CAP, keeps them and writes H into out, shape (w, n, d):
    k never decreases, so a block before k is as the last window holding it
    passed it, its settled value.

    When s > cap, sources before j0(t) = B floor((t - cap) / B), B =
    _FFT_BLOCK, come from the far field: the dyadic squares of Hairer, Lubich
    & Schlichte (SIAM J. Sci. Stat. Comput. 6, 1985) with targets shifted by
    cap.  For odd q the square of size L = B 2^l maps sources [(q-1)L, qL) to
    targets [qL + cap, (q+1)L + cap), one rfft/irfft pair of length 2L with
    the cached spectrum of V_cap..V_{cap+2L-1}, added into `far` by the first
    window with k >= qL.  Per run, the constructor reverses the table and
    lists the squares as ints qL, each multiple of B being one, of L = qL &
    -qL: the first window adds those past completes, by L then qL, and a
    later one at most one, as w <= cap < B.  Per window, the near field,
    sources max(j0, t - s)..k+w-1, is one matmul per group of targets sharing
    j0 (at most two) over a strided view of the reversed table; its lags past
    t - s and its cap zero blocks at lags <= 0 are exact zeros.  O(N log^2 N)
    in all.
    """

    def __init__(self, V, cap, x0, past=None):
        N, n = V.shape[:2]
        nonzero = np.flatnonzero(np.abs(V[1:]).max(axis=(1, 2)))
        self.s = int(nonzero[-1]) + 1 if nonzero.size else 0
        self.far = np.zeros((N, n, x0.size)) if self.s > cap else None
        top = min(N - 1, self.s + cap - 1, cap + _FFT_BLOCK - 1)  # largest near lag
        rev = np.concatenate([V[top:0:-1], np.zeros((cap, n, n))])  # lags top..1, then <= 0
        self.rev = rev.transpose(1, 0, 2).reshape(n, (top + cap) * n)  # V_top | ... | V_1 | 0
        self.incr = np.empty((N * n, x0.size))  # blocks - x0, one control point per row
        if past is not None:
            self.incr[:past.shape[0] * n] = (past - x0).reshape(-1, x0.size)
        # each qL + cap < N, those past completes by L then qL, then N, which no k reaches
        starts = list(range(_FFT_BLOCK, N - cap, _FFT_BLOCK)) if self.far is not None else []
        done = 0 if past is None else past.shape[0] // _FFT_BLOCK
        self.squares = sorted(starts[:done], key=lambda qL: (qL & -qL, qL)) + starts[done:] + [N]
        self.grid = _FFT_BLOCK if self.far is not None else N  # j0's; N makes every j0 0
        self.V, self.cap, self.top, self.spectra, self.added = V, cap, top, {}, 0

    def window(self, k, incr, out):
        (w, n, d), far, cap = incr.shape, self.far, self.cap
        while self.squares[self.added] <= k:  # the squares whose last source qL - 1 < k
            qL = self.squares[self.added]
            L = qL & -qL
            if L not in self.spectra:  # V_cap..V_{cap+2L-1}, zero past s
                lags = self.V[cap:min(cap + 2 * L, self.s + 1)]
                self.spectra[L] = np.fft.rfft(lags, 2 * L, axis=0)
            src = self.incr[(qL - L) * n:qL * n].reshape(L, n, d)
            conv = np.fft.irfft(self.spectra[L] @ np.fft.rfft(src, 2 * L, axis=0),
                                2 * L, axis=0)[L:]
            far[qL + cap:qL + cap + L] += conv[:far.shape[0] - qL - cap]
            self.added += 1
        self.incr[k * n:(k + w) * n] = incr.reshape(w * n, d)
        B = self.grid  # the near field's first sources ja, jb of targets k, k+w-1
        ja, jb = max(k - cap, 0) // B * B, max(k + w - 1 - cap, 0) // B * B
        split = jb + cap if ja != jb else k
        col = self.rev.itemsize
        for ta, tb, j0 in ((k, split, ja), (split, k + w, jb)):  # targets ta..tb-1 share j0
            if ta == tb:
                continue
            js = max(j0, ta - self.s)
            # batch i: V_{t-js} | ... | V_{t-k-w+1} for target t = tb - 1 - i
            view = np.ndarray((tb - ta, n, (k + w - js) * n), buffer=self.rev,
                              offset=(self.top - tb + 1 + js) * n * col,
                              strides=(n * col, self.rev.strides[0], col))
            out[ta - k:tb - k] = (view @ self.incr[js * n:(k + w) * n])[::-1]
        if far is not None:
            out += far[k:k + w]


def _integrate(prob, tab, h, V, x0, p_in, past=None):
    """The stepping loop of every method: blocks k..N-1 after past, N = len(V).

    V holds the weights V_0..V_{N-1}, past the blocks 0..k-1 (None at k = 0,
    where block 0 starts on the line from x0 with velocity M^-1 p_in) and p_in
    block k's incoming momentum.  Returns the stages of blocks k..N-1, their
    final residuals R (block i's momentum is -R_i[0], block i+1's incoming
    one R_i[-1]) and their newton_stats entries.

    The blocks are solved in groups of 1, 2, 4, .. up to _WINDOW_CAP by one
    simplified Newton iteration.  A group that settled within two
    corrections, so with at most one Jacobian rebuild, is followed by one
    twice its size, and any other by a one-block group.  The loop keeps a
    window of at most 2 _WINDOW_CAP unsettled blocks: the group corrected
    last, then the next group's start guesses, whose block i is the last
    corrected block shifted by i+1 times its displacement.  The closures are
    block lower-triangular, so one evaluation of the window both checks the
    corrected group and starts the next: R_i = dL(S_i, t_i) - rho h (V_0
    (S_i - x0) + H_i), with H_i from _History over every block before i, the
    window's own included, all blocks in one stage_gradient call.  Each pass
    then settles the leading blocks whose residual is at most _NEWTON_TOL
    times the size of the terms it cancels, max(1, |M| max|S_i| / h + |p_in|)
    in the max norm (the mixed scale of Hairer & Wanner IV.8); a block's stats
    entry is (corrections made before it settled, its residual).  A group
    that did not settle continues alone, and the guesses after it are
    dropped.  The unsettled blocks, one group, are corrected with the leading
    corner of the lagged inverse of the window Jacobian (_window_jacobian at
    _WINDOW_CAP blocks, from hessian_blocks): a group's first correction
    uses the last inverse and each later one rebuilds it at the first
    unsettled block, so a constant Hessian builds one Jacobian per run
    and settles a group per evaluation.  A run's first inverse is looked up
    in _inverses by the Jacobian's inputs, the hessian_blocks array, V_0..
    V_{cap-1} and rho h with their shapes, so runs that share them share it
    and a hit builds no Jacobian; the later ones of nonlinear runs are not
    kept.  A non-finite residual or _NEWTON_MAX_ITER corrections at the first
    unsettled block raise NewtonError; a non-finite residual further on cuts
    the group before that block, and a cut group is followed by one block.
    Per run it forms the quadrature times and span-sized buffers, which each
    window fills: increments, history, momenta, closures, norms and scales.
    """
    basis = basis_for(tab)
    N, n, d = V.shape[0], basis.control_count, prob.d
    k0 = k = 0 if past is None else past.shape[0]
    cap, span = min(_WINDOW_CAP, N), min(2 * _WINDOW_CAP, N)
    rho_h, V0, Vc = prob.rho * h, V[0], V[:cap]
    ts = _quadrature_times(tab, h * np.arange(N), h)  # block k's at ts[k]
    steps = np.arange(1.0, span + 1)[:, None, None]
    dL = stage_gradient(prob, tab, basis, h)
    history = _History(V, span, x0, past)
    mass_h = float(np.abs(prob.mass_matrix).sum(axis=1).max()) / h
    blocks, R = np.empty((N, n, d)), np.empty((N, n, d))  # by step number
    # the window's increments, history, incoming momenta, closures, norms and scales
    buffers = [np.empty((span,) + shape) for shape in ((n, d),) * 2 + ((d,), (n - 1, d), (), ())]
    biggest, stats, Jinv = np.maximum.reduce, [], None  # biggest: ndarray.max, unwrapped

    def guess(prev, j, w):  # block j+i, i < w, starts as prev shifted by i+1 displacements
        S = blocks[j:j + w]
        np.multiply(steps[:w], prev[-1] - prev[0], out=S)
        S += prev
        S[0, 0] = prev[-1]
        S[1:, 0] = S[:-1, -1]

    if past is None:
        v = np.linalg.solve(prob.mass_matrix, p_in)
        blocks[0] = x0 + basis.nodes[:, None] * h * v
        blocks[0, 0] = x0
    else:
        blocks[:k] = past
        guess(past[-1], k, 1)
    # the window is blocks[k:k + w]: its first `lead` blocks are the group
    # corrected last, c times, asked for with `size` blocks and `cut` if
    # shortened; the rest are start guesses of a group asked for with `ahead`
    w, lead, c = 1, 0, 0
    size, cut, ahead = 1, False, 1
    while True:
        S = blocks[k:k + w]
        incr, hist, P, F, norms, scale = (buf[:w] for buf in buffers)
        np.subtract(S, x0, out=incr)
        history.window(k, incr, hist)
        Rw = dL(S, ts[k:k + w]) - rho_h * (V0 @ incr + hist)
        P[0] = p_in
        P[1:] = Rw[:-1, -1]
        F[...] = Rw[:, :-1]
        F[:, 0] += P
        biggest(np.abs(F), axis=(1, 2), out=norms)
        biggest(np.abs(S), axis=(1, 2), out=scale)
        scale *= mass_h
        scale += biggest(np.abs(P), axis=1)
        settled = norms <= _NEWTON_TOL * np.maximum(scale, 1.0)
        j = int(settled.argmin())  # the first unsettled block, or w
        j = w if settled[j] else j
        if j:
            R[k:k + j] = Rw[:j]
            stats += zip([c] * min(j, lead) + [0] * (j - lead), norms[:j].tolist())
            k, lead = k + j, max(lead - j, 0)
            if k == N:
                return blocks[k0:], R[k0:], stats
        if not lead:  # the start guesses are the group now, of the size they were given
            c, size, cut = 0, ahead, False
        if j == w:
            p_in, w = Rw[-1, -1], 0
        else:
            p_in, norm = P[j].copy(), float(norms[j])
            if not math.isfinite(norm) or c == _NEWTON_MAX_ITER:
                phase = f"step {k}" if k else "init step"
                raise NewtonError(
                    f"{phase} failed: newton stopped at residual {norm:.3e} "
                    f"after {c} iterations", norm, S[j, 1:].ravel(), c)
            w = lead or w - j  # the group continues alone
            finite = np.isfinite(norms[j:j + w])
            if not finite.all():
                w, cut = int(finite.argmin()), True
            if c or Jinv is None:
                hess = hessian_blocks(prob, tab, basis, S[j], k * h, h)

                def invert():
                    return np.linalg.inv(_window_jacobian(hess, Vc, rho_h))

                # the run's first inverse may be an earlier run's, found by the Jacobian's inputs
                Jinv = invert() if Jinv is not None else _inverses.get(
                    (hess.shape, hess.tobytes(), Vc.shape, Vc.tobytes(), rho_h), invert)
                Jinv.setflags(write=False)  # a cached one is shared with later runs
            S, u = blocks[k:k + w], w * (n - 1) * d  # the group and its unknowns
            S[:, 1:] -= (Jinv[:u, :u] @ F[j:j + w].ravel()).reshape(w, n - 1, d)
            S[1:, 0] = S[:-1, -1]
            lead, c = w, c + 1
        ahead = min(2 * size, cap) if c <= 2 and not cut else 1
        more = min(ahead, N - k - w)
        if more:
            guess(blocks[k + w - 1], k + w, more)
            w += more


def _run_weights(tab: ButcherTableau, exponent: float, h: float, N: int) -> WeightSequence:
    """The weights W_0..W_N of K(s) = s^(-exponent) that `run` integrates with.

    The midpoint rule's symbol gamma(z) = 2(1-z)/(1+z) has the exact
    recurrence of midcq_weights.  Every other tableau gets compute_weights:
    exact polynomial weights at integer damping orders, and for Lobatto IIIC
    at fractional orders with N >= 16 sums on hyperbolae whose error stays
    below about 1e-12 of |W_n| up to n = N.
    """
    if tab.r == 1:
        if not np.array_equal(np.r_[tab.A.ravel(), tab.b, tab.c], [0.5, 1.0, 0.5]):
            raise ValueError(f"one-stage tableau {tab.label!r} is not the midpoint rule")
        return midcq_weights(exponent, h, N)
    return compute_weights(tab, exponent, h, N)


def run(prob: LagrangianProblem, tab: ButcherTableau, cfg: FviConfig,
        x0, p0) -> FviSolution:
    """Integrate over N steps: the stepping loop with V_n = E diag(b) W_n E^T.

    E = basis_for(tab).eval_matrix is I for Lobatto IIIC.  For the midpoint
    rule its entries 1/2 are the half weight each node receives from the
    midpoint variation: (rho h / 2) D_k, the midpoint weights applied to
    increment midpoints, acts on both ends of step k, so p0 = -D_1 L_d(x_0,
    x_1) + (rho h / 2) D_0 starts the loop and each further step closes the
    discrete Euler-Lagrange equation with (rho h / 2)(D_{k-1} + D_k).  A full
    rho h weight would give the initial velocity an O(h) bias and drop the
    scheme to first order at damping order one.
    """
    E = basis_for(tab).eval_matrix
    V = tab.b[:, None] * _run_weights(tab, -2.0 * prob.alpha, cfg.h, cfg.N).W[:cfg.N]
    if not np.array_equal(E, np.eye(*E.shape)):  # I @ V @ I is V
        V = E @ V @ E.T
    x0, p0 = _checks.state("x0", x0, prob.d), _checks.state("p0", p0, prob.d)
    blocks, R, stats = _integrate(prob, tab, cfg.h, V, x0, p0)
    trajectory = StageTrajectory(values=blocks, h=cfg.h, continuity_flag=True)
    return FviSolution(trajectory=trajectory,
                       momenta=np.vstack([p0, -R[1:, 0], R[-1:, -1]]),
                       times=cfg.h * np.arange(cfg.N + 1), newton_stats=tuple(stats))


def _require_exactly_two_stages(tab, name):
    # the doubled action pairs the blocks (x_k, x_{k+1}) of _two_stage_blocks
    if tab.r != 2:
        raise ValueError(f"{name} needs exactly two stages, got {tab.r}-stage "
                         f"tableau {tab.label!r}")


def _two_stage_blocks(name, nodes, d, count=None):
    """Blocks (x_k, x_{k+1}) of main nodes x_0..x_N, then the terminal block (x_N, 0).

    nodes must have shape (count, d), or (N+1, d) with N >= 1 if count is None.  Its
    values may be non-finite: solve_companion's Newton stops on a NaN residual.
    """
    nodes = np.asarray(nodes, dtype=float)
    if (nodes.ndim != 2 or nodes.shape[1] != d or nodes.shape[0] < 2
            or count not in (None, nodes.shape[0])):
        want = f"(N+1, {d}) with N >= 1" if count is None else f"({count}, {d})"
        raise ValueError(f"{name} must have shape {want}, got {nodes.shape}")
    blocks = np.zeros((nodes.shape[0], 2, nodes.shape[1]))
    blocks[:, 0] = nodes
    blocks[:-1, 1] = nodes[1:]
    return blocks


def _block_gradients(prob, tab, blocks, h):
    """D L_d of blocks 0..N-1 from one batched call; the terminal block N has none."""
    dL = stage_gradient(prob, tab, basis_for(tab), h)
    return dL(blocks[:-1], _quadrature_times(tab, h * np.arange(blocks.shape[0] - 1), h))


def companion_residuals(prob: LagrangianProblem, tab: ButcherTableau,
                        y_nodes: np.ndarray, h: float) -> np.ndarray:
    """Residuals of the anti-causal companion equations at main nodes 1..N-1.

    y_nodes holds the main nodes y_0..y_N of a two-stage series.  The
    damping uses the advanced operator on the b-weighted blocks, the
    terminal block (y_N, 0) included, with no additional quadrature factor.
    """
    _require_exactly_two_stages(tab, "companion_residuals")
    blocks = _two_stage_blocks("y_nodes", y_nodes, prob.d)
    weights = _run_weights(tab, -2.0 * prob.alpha, h, blocks.shape[0] - 1)
    adv = apply_advanced(weights, StageTrajectory(tab.b[:, None] * blocks, h))[:-1]
    dL = _block_gradients(prob, tab, blocks, h)
    return (dL[:-1, -1] + dL[1:, 0]
            - prob.rho * h * (adv[1:, 0] + adv[:-1, -1])).ravel()


def solve_companion(prob: LagrangianProblem, tab: ButcherTableau,
                    cfg: FviConfig, y_start, y_end) -> np.ndarray:
    """Two-stage companion series with fixed endpoint values, as main nodes 0..N.

    Solves the anti-causal closure equations for the interior main nodes by
    Newton iteration with a finite-difference Jacobian, stopped as _integrate stops
    a block: at _NEWTON_TOL times max(1, |M| max|y| / h) at the current nodes y.
    """
    _require_exactly_two_stages(tab, "solve_companion")
    y_start = _checks.state("y_start", y_start, prob.d)
    y_end = _checks.state("y_end", y_end, prob.d)
    mass_h = float(np.abs(prob.mass_matrix).sum(axis=1).max()) / cfg.h

    def nodes(u):
        return np.vstack([y_start, u.reshape(cfg.N - 1, prob.d), y_end])

    def residual(u):
        return companion_residuals(prob, tab, nodes(u), cfg.h)

    guess = np.linspace(y_start, y_end, cfg.N + 1)[1:-1].ravel()
    u, _, _ = _newton(residual, lambda v: _fd_jacobian(residual, v), guess, _NEWTON_TOL,
                      lambda v: max(1.0, mass_h * float(np.abs(nodes(v)).max())))
    return nodes(u)


def action_variation(prob: LagrangianProblem, tab: ButcherTableau,
                     x_nodes: np.ndarray, y_nodes: np.ndarray,
                     delta_nodes: np.ndarray, h: float) -> float:
    """Directional derivative of the doubled discrete action of two-stage series.

    All three arguments are main nodes x_0..x_N.  The same variation is
    applied to both series; the damping pairing uses half-order weights on
    the raw trajectories, so the result vanishes on solutions of the forward
    and companion equations when the forward series starts at the origin.
    """
    _require_exactly_two_stages(tab, "action_variation")
    x = _two_stage_blocks("x_nodes", x_nodes, prob.d)
    y, delta = (_two_stage_blocks(name, v, prob.d, x.shape[0]) for name, v in
                (("y_nodes", y_nodes), ("delta_nodes", delta_nodes)))
    conservative = float(((_block_gradients(prob, tab, x, h)
                           + _block_gradients(prob, tab, y, h)) * delta[:-1]).sum())
    weights = compute_weights(tab, -prob.alpha, h, x.shape[0] - 1)

    def ret(blocks):
        return apply_retarded(weights, StageTrajectory(blocks, h))

    def adv(blocks):
        return apply_advanced(weights, StageTrajectory(tab.b[:, None] * blocks, h))

    fractional = float((adv(delta) * ret(x)).sum() + (adv(y) * ret(delta)).sum())
    return conservative - prob.rho * h * fractional
