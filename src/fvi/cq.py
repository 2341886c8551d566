"""Convolution quadrature for the kernel K(s) = s^(-exponent).

A positive exponent discretizes the fractional integral of that order, a
negative exponent the fractional derivative of order |exponent|.  Matrix
weights come from a Runge-Kutta generating matrix: as exact polynomial
coefficients for integer derivative orders; on hyperbolae in the Laplace
domain for other exponents up to 1/2 and N >= 16 (stiffly accurate
tableaux only); otherwise from a real inverse FFT over half of a circle
inside the unit disc.  The midpoint rule's 1 x 1 weights come from a
three-term power-series recurrence.  Every path returns a WeightSequence.
"""

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import _checks
from .tableau import ButcherTableau, gamma, midpoint

__all__ = [
    "WeightSequence",
    "StageTrajectory",
    "compute_weights",
    "apply_retarded",
    "apply_advanced",
    "midcq_weights",
]

#: eigenvector condition number beyond which a contour point counts as degenerate
_COND_LIMIT = 1e12
#: accuracy target of the contour radius: double-precision rounding
_EPS = 1e-16
#: hyperbola tables: W_n, n < _HEAD, from a circle of _HEAD_M points; the
#: nodes of band lo are (_HYP_MU / lo)(1 + sin(i k tau - _HYP_ALPHA)), |k| <= _HYP_Q
_HEAD, _HEAD_M, _HYP_Q, _HYP_MU, _HYP_ALPHA, _HYP_TAU = 16, 1024, 32, 3.2, 1.15, 3.5 / 32


@dataclass(frozen=True)
class WeightSequence:
    """Matrix convolution weights W_0..W_N for one kernel, tableau and step size.

    W has shape (N+1, r, r) and units time^exponent.  The contour parameters
    are kept so exports can reproduce the computation; the midpoint
    recurrence and the hyperbolae have no circle: their radius is nan and
    contour_points 0.
    """

    exponent: float
    h: float
    W: np.ndarray
    tableau_label: str
    radius: float
    contour_points: int

    def __post_init__(self):
        _checks.real("exponent", self.exponent)
        _checks.real("h", self.h, 0.0)
        _checks.integer("contour_points", self.contour_points, 0)
        _checks.frozen(self, W=self.W)
        if self.W.ndim != 3 or self.W.shape[1] != self.W.shape[2]:
            raise ValueError("W must have shape (N+1, r, r)")

    @property
    def count(self) -> int:
        return self.W.shape[0]

    @property
    def r(self) -> int:
        return self.W.shape[1]

    @property
    def max_imag_residue(self) -> float:
        """0: irfft sums half the contour into a real table, and the other paths are real."""
        return 0.0

    @property
    def eps(self) -> float:
        """The accuracy target the circle radius was set for; nan without a circle."""
        return _EPS if self.contour_points > 0 else math.nan


@dataclass(frozen=True)
class StageTrajectory:
    """Blocks of per-step stage values: values[k] is the r x d matrix 𝐟_k.

    With continuity_flag set, the last stage of every block must equal the
    first stage of the next one (shared main node); that is asserted exactly
    at construction.
    """

    values: np.ndarray
    h: float
    continuity_flag: bool = False

    def __post_init__(self):
        _checks.real("h", self.h, 0.0)
        _checks.frozen(self, values=self.values)
        if self.values.ndim != 3:
            raise ValueError("values must have shape (blocks, r, d)")
        if self.continuity_flag and not np.array_equal(self.values[:-1, -1], self.values[1:, 0]):
            raise ValueError("continuity violated: block k last stage != block k+1 first stage")

    @property
    def nblocks(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return self.values.shape[2]


class _LRU:
    """The `size` values used last, by key; make() runs outside the lock."""

    def __init__(self, size):
        self.size, self.items, self.lock = size, OrderedDict(), threading.Lock()

    def get(self, key, make):
        with self.lock:
            if key in self.items:
                self.items.move_to_end(key)
                return self.items[key]
        value = make()
        with self.lock:
            self.items[key] = value
            if len(self.items) > self.size:
                self.items.popitem(last=False)
        return value


_CACHE_SIZE = 8  # weight tables kept, least recently used dropped first
_cache = _LRU(_CACHE_SIZE)


def compute_weights(tab: ButcherTableau, exponent: float, h: float, N: int) -> WeightSequence:
    """Convolution weights W_0..W_N of K(s) = s^(-exponent) for the given tableau.

    The weights are the Taylor coefficients of K(gamma(z)/h), and the inputs
    alone pick how they are formed.  For a stiffly accurate tableau
    (b^T A^-1 1 = 1) and a non-negative integer order m = -exponent they are
    the coefficients of the degree-m matrix polynomial
    ((A^-1 - z (A^-1 1)(b^T A^-1))/h)^m, formed directly: W_0 = I for m = 0;
    W_0 = A^-1/h, W_1 = -(A^-1 1)(b^T A^-1)/h for m = 1; W_n = 0 for n > m.
    This exact path reports the radius and M the circle would start from.

    Any other exponent <= 1/2 on such a tableau, with N >= 16, is summed on
    hyperbolae (_hyperbola_weights), to 1e-12 of |W_n| (1e-10 at exponent
    -3/2), with contour_points 0 and a nan radius.  Every other kernel is
    summed on a circle of M = 2(N+1) points (_compute_weights); near n = N =
    2^12 its error reaches 1e-5 of |W_n| at exponent -1/2.  The midpoint
    tableau's circle table is kept though `run` takes midcq_weights: it is
    the independent check of that recurrence.  Tables are cached by
    parameters and tableau coefficients, in one LRU cache with those of
    midcq_weights.
    """
    _checks.real("h", h, 0.0)
    _checks.real("exponent", exponent)
    N = _checks.integer("N", N, 0)

    def make():
        order, M = -float(exponent), 2 * (N + 1)
        stiff = abs(tab.bT_Ainv_one - 1.0) < 1e-13  # R(infinity) = 0
        if stiff and order >= 0 and order.is_integer():
            W, lam = _polynomial_weights(tab, int(order), h, N), _EPS ** (1.0 / (M + N))
        elif stiff and N >= _HEAD and exponent <= 0.5:
            W, lam, M = _hyperbola_weights(tab, exponent, h, N), math.nan, 0
        else:
            return _compute_weights(tab, exponent, h, N, M)
        return WeightSequence(exponent=float(exponent), h=float(h), W=W,
                              tableau_label=tab.label, radius=lam, contour_points=M)

    return _cache.get((tab.label, tab.A.tobytes(), tab.b.tobytes(), tab.c.tobytes(),
                       float(exponent), float(h), N), make)


def _polynomial_weights(tab, m, h, N):
    """Coefficients of (gamma(z)/h)^m, gamma(z) = A^-1 - z (A^-1 1)(b^T A^-1), up to z^N."""
    const, slope = tab.Ainv / h, -np.outer(tab.Ainv_one, tab.bT_Ainv) / h
    W = np.zeros((N + 1, tab.r, tab.r))
    W[0] = np.eye(tab.r)
    for _ in range(m):  # multiply the truncated series by const + z * slope
        W[1:] = W[1:] @ const + W[:-1] @ slope
        W[0] = W[0] @ const
    return W


def _hyperbola_weights(tab, exponent, h, N):
    """W_0..W_N: a circle for n < _HEAD, trapezoidal sums on hyperbolae after that.

    With nu = h lambda and R(infinity) = 0, W_n = (1/2 pi i) int K(nu/h)
    R(nu)^(n-1) a c^T dnu for n >= 1, a = (I - nu A)^-1 1, c^T = b^T (I - nu
    A)^-1, R = 1 + nu b^T a (Banjai & Lopez-Fernandez, Numer. Math. 141,
    2019).  Each band lo <= n < 2 lo gets a hyperbola around the branch cut
    of K, left of the poles 1/eig(A) (Weideman & Trefethen, Math. Comp. 76,
    2007); nodes -k and k are conjugate, so k > 0 counts twice.  R^(n-1) is
    a product of two short exp tables, and Re(C P) = [Re C, Im C][Re P; -Im P]
    makes each band one real matrix product.
    """
    r, Q, W = tab.r, _HYP_Q, np.empty((N + 1, tab.r, tab.r))
    W[:_HEAD] = _compute_weights(tab, exponent, h, _HEAD - 1, _HEAD_M).W
    arg, lo = 1j * _HYP_TAU * np.arange(Q + 1) - _HYP_ALPHA, _HEAD
    while lo <= N:
        hi, mu = min(2 * lo, N + 1), _HYP_MU / lo
        nu = mu * (1.0 + np.sin(arg))
        # (tau / 2 pi i) nu'(u) K(nu/h) with nu'(u) = i mu cos(i u - alpha)
        g = (_HYP_TAU * mu / (2 * np.pi)) * np.cos(arg) * (nu / h) ** (-exponent)
        g[1:] *= 2.0
        inv = np.linalg.inv(np.eye(r) - nu[:, None, None] * tab.A)
        a, c = inv.sum(axis=2), tab.b @ inv
        z = nu * (a @ tab.b)  # R - 1, about 1/lo: log1p keeps its digits
        x, y = z.real, z.imag
        log_r = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
        step = 1 << (lo.bit_length() // 2)  # R^(n-1) = R^(lo-1+step*i) R^j
        coarse, fine = (np.exp(np.multiply.outer(m, log_r)) for m in (
            lo - 1 + step * np.arange(-(-(hi - lo) // step)), np.arange(step)))
        C = (g * coarse[:, None] * fine).reshape(-1, Q + 1)[: hi - lo]
        P = a[:, :, None] * c[:, None, :]
        np.matmul(C.view(float), np.stack([P.real, -P.imag], axis=1).reshape(2 * Q + 2, r * r),
                  out=W[lo:hi].reshape(hi - lo, r * r))
        lo *= 2
    return W


def _compute_weights(tab, exponent, h, N, M):
    """W_0..W_N by the trapezoidal rule on |z| = lambda over M >= N+1 points.

    W_n = lambda^(-n) ifft(K(gamma(z_l)/h))_n, z_l = lambda exp(-2 pi i l / M).
    A, b and c are real, so gamma(conj z) = conj gamma(z) and the values at
    z_l and z_(M-l) are conjugate: only l = 0..M//2 are decomposed, and irfft
    adds the conjugate half, leaving no imaginary part to discard.  The
    radius is lambda = eps^(1/(M+N)) with eps = 1e-16, the rounding level of
    double precision, where the aliasing error lambda^M and the round-off
    amplification lambda^(-N) eps both equal eps^(M/(M+N)): near eps^(2/3)
    at M = 2(N+1), ~sqrt(eps) at the minimal M = N+1.  K is applied through
    a complex eigendecomposition gamma(z_l) = V diag(mu) V^-1; an
    eigenvector matrix whose 1-norm condition ||V||_1 ||V^-1||_1, formed
    from the inverse the K(gamma) product needs anyway, reaches _COND_LIMIT
    makes the contour retry once at 0.98*lambda, and raise RuntimeError if
    it fails again.
    """
    lam, unit = _EPS ** (1.0 / (M + N)), np.exp(-2j * np.pi * np.arange(M // 2 + 1) / M)
    for retried in (False, True):
        vals, vecs = np.linalg.eig(gamma(tab, lam * unit))
        inv = np.linalg.inv(vecs)
        conds = np.linalg.norm(vecs, 1, axis=(1, 2)) * np.linalg.norm(inv, 1, axis=(1, 2))
        bad = np.nonzero(~(conds < _COND_LIMIT))[0]
        if not bad.size:
            break
        if retried:
            raise RuntimeError(
                f"contour degeneracy at node l={int(bad[0])} (cond={conds[bad[0]]:.3e}) "
                f"even after radius retry")
        lam *= 0.98
    kvals = (vals / h) ** (-exponent)
    kmat = (vecs * kvals[:, None, :]) @ inv
    W = (np.fft.irfft(kmat, n=M, axis=0)[: N + 1]
         * (lam ** -np.arange(N + 1, dtype=float))[:, None, None])
    return WeightSequence(exponent=float(exponent), h=float(h), W=W,
                          tableau_label=tab.label, radius=lam, contour_points=M)


def _check_step(w: WeightSequence, f: StageTrajectory) -> None:
    """Reject a trajectory whose step size is not the table's."""
    if f.h != w.h:
        raise ValueError(f"history step size {f.h!r} does not match the "
                         f"weights step size {w.h!r}")


def _check_operator(w: WeightSequence, f: StageTrajectory) -> None:
    """Reject a table too short for the trajectory, of another step size or stage count."""
    _check_step(w, f)
    if f.nblocks > w.count:
        raise IndexError(f"need weights up to index {f.nblocks - 1}, have {w.count - 1}")
    if w.r != f.r:
        raise ValueError("stage counts of weights and trajectory differ")


def apply_retarded(w: WeightSequence, f: StageTrajectory) -> np.ndarray:
    """Retarded operator, shaped like f.values: out[k] = sum_{n=0}^{k} W_{k-n} 𝐟_n."""
    _check_operator(w, f)
    out = np.empty_like(f.values)
    for k in range(f.nblocks):
        rev = w.W[: k + 1][::-1]  # W_k, ..., W_0 against f_0, ..., f_k
        out[k] = np.tensordot(rev, f.values[: k + 1], axes=([0, 2], [0, 1]))
    return out


def apply_advanced(w: WeightSequence, g: StageTrajectory) -> np.ndarray:
    """Advanced operator, shaped like g.values: out[k] = sum_{n=0}^{N-k} W_n^T 𝐠_{k+n}."""
    _check_operator(w, g)
    out = np.empty_like(g.values)
    for k in range(g.nblocks):
        out[k] = np.tensordot(w.W[: g.nblocks - k], g.values[k:], axes=([0, 1], [0, 1]))
    return out


def midcq_weights(exponent: float, h: float, N: int) -> WeightSequence:
    """Taylor coefficients w_0..w_N of (gamma_mid(z)/h)^(-exponent), gamma_mid = 2(1-z)/(1+z).

    With beta = -exponent, w_n = (2/h)^beta c_n for the coefficients c_n of
    f(z) = ((1-z)/(1+z))^beta.  f solves (1-z^2) f' = -2 beta f, and
    comparing the coefficients of z^n gives the three-term recurrence
    (n+1) c_(n+1) = (n-1) c_(n-1) - 2 beta c_n with c_0 = 1, c_1 = -2 beta:
    O(N) work and no contour quadrature.  W has shape (N+1, 1, 1): the
    weights of the midpoint tableau, cached with those of compute_weights.
    """
    _checks.real("h", h, 0.0)
    _checks.real("exponent", exponent)
    N = _checks.integer("N", N, 0)

    def make():
        beta = -float(exponent)
        c = [1.0, -2.0 * beta][: N + 1]
        for n in range(1, N):
            c.append(((n - 1) * c[n - 1] - 2.0 * beta * c[n]) / (n + 1))
        W = (np.array(c) * (2.0 / h) ** beta)[:, None, None]
        return WeightSequence(exponent=float(exponent), h=float(h), W=W,
                              tableau_label=midpoint().label, radius=math.nan,
                              contour_points=0)

    return _cache.get(("midcq", float(exponent), float(h), N), make)
