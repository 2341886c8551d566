"""Galerkin discrete Lagrangian on one step and its stage derivatives.

The trajectory over a step is the Lagrange interpolant of the stage values
at the tableau abscissae, and the action integral is approximated with the
tableau's own quadrature rule (b_i, c_i).  Only mechanical Lagrangians
L(t, q, qdot) = 1/2 qdot^T M qdot - U(t, q) are supported; the potential
carries the time dependence so forced problems fit the same mould.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import _checks
from .tableau import ButcherTableau

__all__ = [
    "LagrangeBasis",
    "LagrangianProblem",
    "basis_for",
    "discrete_lagrangian",
    "d_all_lagrangian",
    "hessian_blocks",
    "stage_gradient",
]

_FD_STEP = np.finfo(float).eps ** (1 / 3)  # central-difference optimum


@dataclass(frozen=True)
class LagrangeBasis:
    """Cardinal basis data: ell_nu evaluated at the quadrature nodes.

    nodes holds the s+1 control points d_0..d_s in [0,1]; eval_matrix[nu, i]
    is ell_nu(c_i) and deriv_matrix[nu, i] is ell_nu'(c_i) for the r
    quadrature nodes c_i.
    """

    nodes: np.ndarray
    eval_matrix: np.ndarray
    deriv_matrix: np.ndarray

    def __post_init__(self):
        _checks.frozen(self, nodes=self.nodes, eval_matrix=self.eval_matrix,
                       deriv_matrix=self.deriv_matrix)
        ev, dv = self.eval_matrix, self.deriv_matrix
        if ev.ndim != 2 or ev.shape != dv.shape or self.nodes.shape != ev.shape[:1]:
            raise ValueError("inconsistent basis matrix shapes")

    @property
    def control_count(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class LagrangianProblem:
    """Mechanical Lagrangian with fractional damping data.

    grad_potential(t, x) must return the gradient of potential(t, x); any
    forcing f(t) is folded in as U(x) - x.f(t).  rho and alpha describe the
    damping term built on the half-order operator of order 2*alpha.
    hess_potential is optional; hessian_blocks differences grad_potential without it.
    exact_solution, when known, returns (x(t), xdot(t)), the position and the
    velocity; fvi.models.exact_states forms the momentum M xdot.

    Every callable broadcasts over leading axes: for t of shape S and x of
    shape S + (d,), potential returns S, grad_potential S + (d,),
    hess_potential S + (d, d) and exact_solution(t) two S + (d,) arrays, or
    these shapes with leading axes left out (a constant d x d Hessian) or
    length 1 in a point axis.  One point is S = ().  fvi calls each once on
    all the points it needs and rejects a result of any other shape, such as
    the (1,) of a potential that reads x[0] of a batch of points.
    Stacked products, (K @ x[..., None])[..., 0], round each point alone.
    """

    d: int
    potential: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_potential: Callable[[np.ndarray, np.ndarray], np.ndarray]
    mass: Optional[np.ndarray] = None
    hess_potential: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    rho: float = 0.0
    alpha: float = 0.5
    exact_solution: Optional[Callable[[np.ndarray], tuple]] = None
    mass_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _checks.integer("state dimension", self.d, 1)
        if self.mass is not None:
            _checks.frozen(self, mass=self.mass)
        _checks.frozen(self, mass_matrix=np.eye(self.d) if self.mass is None else self.mass)
        M = self.mass_matrix
        if M.shape != (self.d, self.d):
            raise ValueError("mass matrix has wrong shape")
        if np.abs(M - M.T).max() > 1e-12 * max(np.abs(M).max(), 1.0):
            raise ValueError("mass matrix must be symmetric")
        if np.linalg.eigvalsh(M).min() <= 0.0:
            raise ValueError("mass matrix must be positive definite")
        _checks.real("rho", self.rho, 0.0, closed=True)
        _checks.real("alpha", self.alpha, 0.0, 1.0)


def basis_for(tab: ButcherTableau) -> LagrangeBasis:
    """Lagrange basis with control points at the tableau abscissae.

    Stage values then parameterize the interpolant directly.  A one-stage
    tableau gets the two-point convention: linear interpolation between the
    step endpoints evaluated at its single abscissa.  The basis depends on
    the abscissae alone and is frozen, so it is kept by their bytes.
    """
    return _basis(tab.c.tobytes())


@functools.lru_cache(maxsize=8)
def _basis(abscissae: bytes) -> LagrangeBasis:
    c = np.frombuffer(abscissae)
    r = c.size
    if r == 1:
        t = c[0]
        return LagrangeBasis(nodes=np.array([0.0, 1.0]),
                             eval_matrix=np.array([[1.0 - t], [t]]),
                             deriv_matrix=np.array([[-1.0], [1.0]]))
    diff = c[:, None] - c[None, :]
    off = diff[~np.eye(r, dtype=bool)]
    if np.abs(off).min() < 1e-12:
        raise ValueError("degenerate nodes: tableau abscissae are not distinct")
    # barycentric weights and the standard differentiation matrix
    wts = 1.0 / np.prod(np.where(np.eye(r, dtype=bool), 1.0, diff), axis=1)
    D = np.zeros((r, r))
    for i in range(r):
        for nu in range(r):
            if nu != i:
                D[i, nu] = (wts[nu] / wts[i]) / (c[i] - c[nu])
        D[i, i] = -D[i].sum()
    return LagrangeBasis(nodes=c.copy(), eval_matrix=np.eye(r), deriv_matrix=D.T)


def _conform(value, name: str, shape: tuple, point: int = 0) -> np.ndarray:
    """The value problem callable `name` returned, broadcast to shape, or a ValueError.

    The last `point` axes of shape belong to one point and may broadcast from
    length 1; the batch axes before them may be left out but not stretched,
    which is how a callable indexing x[0] of a batch gives itself away.
    """
    value = np.asarray(value, dtype=float)
    if value.shape == shape:
        return value
    if value.ndim > len(shape) or any(
            got != want and (got != 1 or axis >= point)
            for axis, (got, want) in enumerate(zip(value.shape[::-1], shape[::-1]))):
        raise ValueError(f"{name} returned shape {value.shape}, expected {shape}")
    return np.broadcast_to(value, shape)


def _checked_stages(prob, basis, stages, t_k, h) -> np.ndarray:
    """The stages as a float array, once t_k, h and their shape are checked."""
    _checks.real("t_k", t_k)
    _checks.real("h", h, 0.0)
    stages = np.asarray(stages, dtype=float)
    if stages.shape != (basis.control_count, prob.d):
        raise ValueError(f"stages must have shape {(basis.control_count, prob.d)}")
    return stages


def _nodes(prob, tab, basis, stages, t_k, h):
    stages = _checked_stages(prob, basis, stages, t_k, h)
    q = basis.eval_matrix.T @ stages
    v = basis.deriv_matrix.T @ stages / h
    return q, v, _quadrature_times(tab, t_k, h)


def _quadrature_times(tab, t_k, h):  # t_k + c h: (r,) for one start time, (w, r) for w
    return np.add.outer(t_k, tab.c * h)


def discrete_lagrangian(prob: LagrangianProblem, tab: ButcherTableau,
                        basis: LagrangeBasis, stages, t_k: float, h: float) -> float:
    """Quadrature value h sum_i b_i L(t_k + c_i h, q_d(c_i h), qdot_d(c_i h))."""
    q, v, ts = _nodes(prob, tab, basis, stages, t_k, h)
    potential = _conform(prob.potential(ts, q), "potential", ts.shape)
    kinetic = 0.5 * np.einsum("ja,ab,jb->j", v, prob.mass_matrix, v)
    return h * float(tab.b @ (kinetic - potential))


def stage_gradient(prob: LagrangianProblem, tab: ButcherTableau,
                   basis: LagrangeBasis, h: float) -> Callable:
    """dL(stages, ts): d_all_lagrangian on steps of size h, constants bound once.

    The returned function takes stages of shape (s+1, d) as a float array and
    the step's quadrature times ts = t_k + c h, shape (r,), and checks
    neither; it is the one formula d_all_lagrangian evaluates.  It also takes
    a batch of w steps at once, stages of shape (w, s+1, d) and ts of shape
    (w, r), and returns the w gradients, each bitwise the one of its own
    step.  Each dL call calls grad_potential once, on ts and the (r, d) or
    (w, r, d) points.
    """
    E, D, M = basis.eval_matrix, basis.deriv_matrix, prob.mass_matrix
    Et = None if np.array_equal(E, np.eye(*E.shape)) else E.T  # I @ S is S
    Mt = None if np.array_equal(M, np.eye(prob.d)) else M.T  # unit mass: v @ I is v
    mhE = None if Et is None else -h * E  # E = I: a NaN gradient stays at its node
    Dt, b, grad = D.T, tab.b[:, None], prob.grad_potential

    def dL(stages, ts):
        q = stages if Et is None else Et @ stages
        v = Dt @ stages / h
        G = _conform(grad(ts, q), "grad_potential", q.shape, 1)
        force = -h * (b * G) if mhE is None else mhE @ (b * G)
        return force + D @ (b * (v if Mt is None else v @ Mt))

    return dL


def d_all_lagrangian(prob: LagrangianProblem, tab: ButcherTableau,
                     basis: LagrangeBasis, stages, t_k: float, h: float) -> np.ndarray:
    """Analytic partials of the discrete Lagrangian w.r.t. all stages, shape (s+1, d).

    Checks t_k, h and the stages' shape and evaluates stage_gradient(prob, tab, basis, h).
    """
    stages = _checked_stages(prob, basis, stages, t_k, h)
    return stage_gradient(prob, tab, basis, h)(stages, _quadrature_times(tab, t_k, h))


def hessian_blocks(prob: LagrangianProblem, tab: ButcherTableau,
                   basis: LagrangeBasis, stages, t_k: float, h: float) -> np.ndarray:
    """Second stage derivatives: blocks[i-1, m-1] = d(D_i L_d)/d(stage m), (s+1, s+1, d, d).

    hess_potential is called once on the r points; without it grad_potential is,
    on q_j +- delta e_a, delta = eps^(1/3) (1 + max|q|), for a central difference.
    """
    q, v, ts = _nodes(prob, tab, basis, stages, t_k, h)
    if prob.hess_potential is not None:
        H = _conform(prob.hess_potential(ts, q), "hess_potential", q.shape + (prob.d,), 2)
    else:  # G[j, a] - G[j, d + a] = grad U(q_j + delta e_a) - grad U(q_j - delta e_a)
        d, delta = prob.d, _FD_STEP * (1.0 + float(np.abs(q).max()))
        points = q[:, None] + delta * np.vstack([np.eye(d), -np.eye(d)])
        G = _conform(prob.grad_potential(np.repeat(ts[:, None], 2 * d, 1), points),
                     "grad_potential", points.shape, 1)
        H = (G[:, :d] - G[:, d:]).transpose(0, 2, 1) / (2.0 * delta)
    n = basis.control_count
    out = np.zeros((n, n, prob.d, prob.d))
    for j in range(tab.r):
        ev, dv = basis.eval_matrix[:, j], basis.deriv_matrix[:, j]
        out -= h * tab.b[j] * np.einsum("i,m,ab->imab", ev, ev, H[j])
        out += (tab.b[j] / h) * np.einsum("i,m,ab->imab", dv, dv, prob.mass_matrix)
    return out
