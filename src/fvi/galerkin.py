"""Galerkin discrete Lagrangian on one step and its stage derivatives.

The trajectory over a step is the Lagrange interpolant of the stage values
at the tableau abscissae, and the action integral is approximated with the
tableau's own quadrature rule (b_i, c_i).  Only mechanical Lagrangians
L(t, q, qdot) = 1/2 qdot^T M qdot - U(t, q) are supported; the potential
carries the time dependence so forced problems fit the same mould.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .tableau import ButcherTableau

__all__ = [
    "LagrangeBasis",
    "LagrangianProblem",
    "basis_for",
    "discrete_lagrangian",
    "d_all_lagrangian",
    "hessian_blocks",
]


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
        nodes = np.asarray(self.nodes, dtype=float).ravel()
        ev = np.atleast_2d(np.asarray(self.eval_matrix, dtype=float))
        dv = np.atleast_2d(np.asarray(self.deriv_matrix, dtype=float))
        if ev.shape != dv.shape or ev.shape[0] != nodes.size:
            raise ValueError("inconsistent basis matrix shapes")
        for arr in (nodes, ev, dv):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "eval_matrix", ev)
        object.__setattr__(self, "deriv_matrix", dv)

    @property
    def control_count(self) -> int:
        return self.nodes.size


@dataclass(frozen=True)
class LagrangianProblem:
    """Mechanical Lagrangian with fractional damping data.

    grad_potential(t, x) must return the gradient of potential(t, x); any
    forcing f(t) is folded in as U(x) - x.f(t).  rho and alpha describe the
    damping term built on the half-order operator of order 2*alpha.
    hess_potential is optional and enables analytic Newton Jacobians.
    """

    d: int
    potential: Callable[[float, np.ndarray], float]
    grad_potential: Callable[[float, np.ndarray], np.ndarray]
    mass: Optional[np.ndarray] = None
    hess_potential: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    rho: float = 0.0
    alpha: float = 0.5
    exact_solution: Optional[Callable[[float], tuple]] = None
    mass_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("state dimension must be >= 1")
        M = np.eye(self.d) if self.mass is None else np.atleast_2d(
            np.asarray(self.mass, dtype=float))
        if M.shape != (self.d, self.d):
            raise ValueError("mass matrix has wrong shape")
        if np.abs(M - M.T).max() > 1e-12 * max(np.abs(M).max(), 1.0):
            raise ValueError("mass matrix must be symmetric")
        if np.linalg.eigvalsh(M).min() <= 0.0:
            raise ValueError("mass matrix must be positive definite")
        if not (math.isfinite(self.rho) and self.rho >= 0.0):
            raise ValueError(f"rho must be finite and >= 0, got {self.rho!r}")
        if not 0.0 < self.alpha < 1.0:  # also rejects nan
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        M.setflags(write=False)
        object.__setattr__(self, "mass_matrix", M)


def basis_for(tab: ButcherTableau) -> LagrangeBasis:
    """Lagrange basis with control points at the tableau abscissae.

    Stage values then parameterize the interpolant directly.  A one-stage
    tableau gets the two-point convention: linear interpolation between the
    step endpoints evaluated at its single abscissa.
    """
    c = tab.c
    if tab.r == 1:
        t = c[0]
        return LagrangeBasis(nodes=np.array([0.0, 1.0]),
                             eval_matrix=np.array([[1.0 - t], [t]]),
                             deriv_matrix=np.array([[-1.0], [1.0]]))
    diff = c[:, None] - c[None, :]
    off = diff[~np.eye(tab.r, dtype=bool)]
    if np.abs(off).min() < 1e-12:
        raise ValueError("degenerate nodes: tableau abscissae are not distinct")
    # barycentric weights and the standard differentiation matrix
    wts = 1.0 / np.prod(np.where(np.eye(tab.r, dtype=bool), 1.0, diff), axis=1)
    D = np.zeros((tab.r, tab.r))
    for i in range(tab.r):
        for nu in range(tab.r):
            if nu != i:
                D[i, nu] = (wts[nu] / wts[i]) / (c[i] - c[nu])
        D[i, i] = -D[i].sum()
    return LagrangeBasis(nodes=c.copy(), eval_matrix=np.eye(tab.r),
                         deriv_matrix=D.T)


def _nodes(prob, tab, basis, stages, t_k, h):
    stages = np.asarray(stages, dtype=float)
    if stages.shape != (basis.control_count, prob.d):
        raise ValueError(f"stages must have shape {(basis.control_count, prob.d)}")
    q = basis.eval_matrix.T @ stages
    v = basis.deriv_matrix.T @ stages / h
    ts = t_k + tab.c * h
    return q, v, ts


def discrete_lagrangian(prob: LagrangianProblem, tab: ButcherTableau,
                        basis: LagrangeBasis, stages, t_k: float, h: float) -> float:
    """Quadrature value h sum_i b_i L(t_k + c_i h, q_d(c_i h), qdot_d(c_i h))."""
    if h <= 0:
        raise ValueError("h must be positive")
    q, v, ts = _nodes(prob, tab, basis, stages, t_k, h)
    total = 0.0
    for j in range(tab.r):
        kinetic = 0.5 * v[j] @ prob.mass_matrix @ v[j]
        total += tab.b[j] * (kinetic - prob.potential(ts[j], q[j]))
    return h * total


def d_all_lagrangian(prob: LagrangianProblem, tab: ButcherTableau,
                     basis: LagrangeBasis, stages, t_k: float, h: float) -> np.ndarray:
    """Analytic partials of the discrete Lagrangian w.r.t. all stages, shape (s+1, d)."""
    q, v, ts = _nodes(prob, tab, basis, stages, t_k, h)
    grads = np.stack([prob.grad_potential(ts[j], q[j]) for j in range(tab.r)])
    mom = v @ prob.mass_matrix.T
    bg = tab.b[:, None] * grads
    bm = tab.b[:, None] * mom
    return -h * basis.eval_matrix @ bg + basis.deriv_matrix @ bm


def hessian_blocks(prob: LagrangianProblem, tab: ButcherTableau,
                   basis: LagrangeBasis, stages, t_k: float, h: float) -> np.ndarray:
    """Second stage derivatives: blocks[i-1, m-1] = d(D_i L_d)/d(stage m), (s+1, s+1, d, d).

    Requires hess_potential on the problem.
    """
    if prob.hess_potential is None:
        raise ValueError("problem has no hess_potential; use finite differences")
    q, v, ts = _nodes(prob, tab, basis, stages, t_k, h)
    n = basis.control_count
    out = np.zeros((n, n, prob.d, prob.d))
    for j in range(tab.r):
        Hj = np.asarray(prob.hess_potential(ts[j], q[j]), dtype=float)
        ev = basis.eval_matrix[:, j]
        dv = basis.deriv_matrix[:, j]
        out -= h * tab.b[j] * np.einsum("i,m,ab->imab", ev, ev, Hj)
        out += (tab.b[j] / h) * np.einsum("i,m,ab->imab", dv, dv, prob.mass_matrix)
    return out
