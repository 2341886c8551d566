"""Implicit Runge-Kutta tableaux and the generating matrix of their convolution quadrature."""

from dataclasses import dataclass, field

import numpy as np

from . import _checks

__all__ = ["ButcherTableau", "lobatto_iiic", "midpoint", "stability", "gamma"]

_SQRT5 = np.sqrt(5.0)


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients (A, b, c) of an implicit Runge-Kutta method.

    p is the classical order and q the stage order; both are fixed by the
    construction rather than re-derived from order conditions.  A must be
    invertible; its inverse and the products A^-1 1 and b^T A^-1 are cached
    because the convolution-quadrature generating matrix needs them at every
    contour point.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    p: int
    q: int
    label: str
    Ainv: np.ndarray = field(init=False, repr=False)
    Ainv_one: np.ndarray = field(init=False, repr=False)
    bT_Ainv: np.ndarray = field(init=False, repr=False)
    bT_Ainv_one: float = field(init=False, repr=False)

    def __post_init__(self):
        _checks.frozen(self, A=self.A, b=self.b, c=self.c)
        r = self.b.size
        if (self.A.shape, self.b.shape, self.c.shape) != ((r, r), (r,), (r,)):
            raise ValueError("inconsistent tableau dimensions")
        if abs(self.b.sum() - 1.0) > 1e-13:
            raise ValueError("tableau weights are not consistent (sum b != 1)")
        try:
            Ainv = np.linalg.inv(self.A)
        except np.linalg.LinAlgError as exc:
            raise ValueError("tableau A matrix is singular") from exc
        _checks.frozen(self, Ainv=Ainv, Ainv_one=Ainv.sum(axis=1), bT_Ainv=self.b @ Ainv)
        object.__setattr__(self, "bT_Ainv_one", float(self.bT_Ainv.sum()))

    @property
    def r(self) -> int:
        return self.b.size

    @property
    def stiffly_accurate(self) -> bool:
        return bool(np.all(self.A[-1] == self.b))


def lobatto_iiic(r: int) -> ButcherTableau:
    """Lobatto IIIC tableau with r stages (r in {2, 3, 4}).

    These methods are L-stable and stiffly accurate with c_1 = 0, c_r = 1,
    classical order p = 2r - 2 and stage order q = r - 1.
    """
    if r == 2:
        A = [[1 / 2, -1 / 2], [1 / 2, 1 / 2]]
        b = [1 / 2, 1 / 2]
        c = [0.0, 1.0]
    elif r == 3:
        A = [
            [1 / 6, -1 / 3, 1 / 6],
            [1 / 6, 5 / 12, -1 / 12],
            [1 / 6, 2 / 3, 1 / 6],
        ]
        b = [1 / 6, 2 / 3, 1 / 6]
        c = [0.0, 1 / 2, 1.0]
    elif r == 4:
        A = [
            [1 / 12, -_SQRT5 / 12, _SQRT5 / 12, -1 / 12],
            [1 / 12, 1 / 4, (10 - 7 * _SQRT5) / 60, _SQRT5 / 60],
            [1 / 12, (10 + 7 * _SQRT5) / 60, 1 / 4, -_SQRT5 / 60],
            [1 / 12, 5 / 12, 5 / 12, 1 / 12],
        ]
        b = [1 / 12, 5 / 12, 5 / 12, 1 / 12]
        c = [0.0, (5 - _SQRT5) / 10, (5 + _SQRT5) / 10, 1.0]
    else:
        raise ValueError(f"unsupported stage count r={r}; supported: 2, 3, 4")
    return ButcherTableau(A=np.array(A), b=np.array(b), c=np.array(c),
                          p=2 * r - 2, q=r - 1, label=f"lobatto_iiic_{r}")


def midpoint() -> ButcherTableau:
    """Implicit midpoint rule as a one-stage tableau (order 2, stage order 1)."""
    return ButcherTableau(A=np.array([[1 / 2]]), b=np.array([1.0]),
                          c=np.array([1 / 2]), p=2, q=1, label="midpoint")


def stability(tab: ButcherTableau, z: complex) -> complex:
    """Stability function R(z) = 1 + z b^T (I - zA)^{-1} 1."""
    ident = np.eye(tab.r, dtype=complex)
    try:
        u = np.linalg.solve(ident - z * tab.A, np.ones(tab.r, dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"stability pole at z={z}") from exc
    return complex(1.0 + z * (tab.b @ u))


def gamma(tab: ButcherTableau, z) -> np.ndarray:
    """Generating matrix gamma(z) = (A + z/(1-z) 1 b^T)^{-1} in closed form.

    Sherman-Morrison turns the inverse into the rank-one update
    A^{-1} - z / (1 + (s - 1) z) A^{-1} 1 b^T A^{-1} with s = b^T A^{-1} 1,
    so no z-dependent inversion is needed.  Stiffly accurate tableaux have
    s = 1 and the denominator collapses to one.  An array of points gives
    one r x r matrix per point, stacked along the leading axes.
    """
    denom = 1.0 + (tab.bT_Ainv_one - 1.0) * z
    return tab.Ainv - np.multiply.outer(z / denom, np.outer(tab.Ainv_one, tab.bT_Ainv))
