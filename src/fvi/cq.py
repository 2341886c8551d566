"""Convolution quadrature for the kernel K(s) = s^(-exponent).

A positive exponent discretizes the fractional integral of that order, a
negative exponent the fractional derivative of order |exponent|.  Matrix
weights come from a Runge-Kutta generating matrix: as exact polynomial
coefficients for integer derivative orders, otherwise from a real inverse
FFT over half of a contour inside the unit disc; scalar midpoint-rule
weights come from a three-term power-series recurrence.
"""

import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .tableau import ButcherTableau, gamma

__all__ = [
    "WeightSequence",
    "ScalarWeightSequence",
    "StageTrajectory",
    "compute_weights",
    "apply_retarded",
    "apply_advanced",
    "midcq_weights",
    "apply_midcq",
]

#: eigenvector condition number beyond which a contour point counts as degenerate
_COND_LIMIT = 1e12
#: accuracy target of the contour radius: double-precision rounding
_EPS = 1e-16


@dataclass(frozen=True)
class WeightSequence:
    """Matrix convolution weights W_0..W_N for one kernel, tableau and step size.

    W has shape (N+1, r, r) and units time^exponent.  max_imag_residue is the
    largest imaginary part discarded when realifying the weights.  It reads 0
    by construction: the contour path sums half the contour into a real table
    with irfft, and the exact path is real.  The contour parameters are kept
    so exports can reproduce the computation.
    """

    exponent: float
    h: float
    W: np.ndarray
    tableau_label: str
    max_imag_residue: float
    radius: float
    eps: float
    contour_points: int

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        if W.ndim != 3 or W.shape[1] != W.shape[2]:
            raise ValueError("W must have shape (N+1, r, r)")
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @property
    def count(self) -> int:
        return self.W.shape[0]

    @property
    def r(self) -> int:
        return self.W.shape[1]


@dataclass(frozen=True)
class ScalarWeightSequence:
    """Scalar convolution weights w_0..w_N (midpoint/trapezoidal generating function)."""

    exponent: float
    h: float
    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).ravel()
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    @property
    def count(self) -> int:
        return self.w.size


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
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 3:
            raise ValueError("values must have shape (blocks, r, d)")
        if self.continuity_flag and vals.shape[0] > 1:
            if not np.array_equal(vals[:-1, -1, :], vals[1:, 0, :]):
                raise ValueError("continuity violated: block k last stage != block k+1 first stage")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def nblocks(self) -> int:
        return self.values.shape[0]

    @property
    def r(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return self.values.shape[2]


_CACHE_SIZE = 8  # weight tables kept, least recently used dropped first
_cache: OrderedDict = OrderedDict()
_cache_lock = threading.Lock()


def _check_weight_args(exponent, h, N) -> int:
    """Return N as an int after rejecting a bad h, exponent or N by its value."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"h must be positive and finite, got {h!r}")
    if not math.isfinite(exponent):
        raise ValueError(f"exponent must be finite, got {exponent!r}")
    if not isinstance(N, numbers.Integral) or N < 0:
        raise ValueError(f"N must be an integer >= 0, got {N!r}")
    return int(N)


def compute_weights(tab: ButcherTableau, exponent: float, h: float, N: int, *,
                    contour_points: int | None = None) -> WeightSequence:
    """Convolution weights W_0..W_N of K(s) = s^(-exponent) for the given tableau.

    The weights are the Taylor coefficients of K(gamma(z)/h).  For a stiffly
    accurate tableau (b^T A^-1 1 = 1) and a non-negative integer order
    m = -exponent they are the coefficients of the degree-m matrix polynomial
    ((A^-1 - z (A^-1 1)(b^T A^-1))/h)^m, formed directly: W_0 = I for m = 0;
    W_0 = A^-1/h, W_1 = -(A^-1 1)(b^T A^-1)/h for m = 1; W_n = 0 for n > m.
    Every other kernel is summed by the trapezoidal rule on |z| = lambda as
    one inverse FFT over M points, W_n = lambda^(-n) ifft(K(gamma(z_l)/h))_n
    with z_l = lambda exp(-2 pi i l / M).  A, b and c are real, so the values
    at z_l and z_(M-l) are conjugate: only l = 0..M//2 are evaluated, and a
    real inverse FFT (irfft) gives the real table directly.

    The radius is lambda = eps^(1/(M+N)) with eps = 1e-16, the rounding
    level of double precision, where the aliasing error lambda^M and the
    round-off amplification lambda^(-N) eps both equal eps^(M/(M+N)).
    M defaults to 2(N+1), putting that level near eps^(2/3) (contour_points =
    N+1 gives the minimal rule, ~sqrt(eps)).  K is applied through a complex
    eigendecomposition gamma(z_l) = V diag(mu) V^-1; an eigenvector matrix
    whose 1-norm condition ||V||_1 ||V^-1||_1 reaches _COND_LIMIT makes the
    contour retry once at 0.98*lambda, and raise RuntimeError if it fails
    again.  The exact path reports the radius and M the contour would start
    from.  Both paths report max_imag_residue = 0.
    The _CACHE_SIZE most recently used results are cached per parameter set
    and tableau coefficients.
    """
    N = _check_weight_args(exponent, h, N)
    key = (tab.label, tab.A.tobytes(), tab.b.tobytes(), tab.c.tobytes(),
           float(exponent), float(h), N, contour_points)
    with _cache_lock:
        hit = _cache.get(key)
        if hit is not None:
            _cache.move_to_end(key)
            return hit
    M = 2 * (N + 1) if contour_points is None else int(contour_points)
    if M < N + 1:
        raise ValueError("contour_points must be at least N+1")
    lam = _EPS ** (1.0 / (M + N))
    order = -float(exponent)
    if abs(tab.bT_Ainv_one - 1.0) < 1e-13 and order >= 0 and order.is_integer():
        W, max_imag = _polynomial_weights(tab, int(order), h, N), 0.0
    else:
        W, lam, max_imag = _compute_weights(tab, exponent, h, N, M, lam)
    seq = WeightSequence(exponent=float(exponent), h=float(h), W=W,
                         tableau_label=tab.label, max_imag_residue=max_imag,
                         radius=lam, eps=_EPS, contour_points=M)
    with _cache_lock:
        _cache[key] = seq
        if len(_cache) > _CACHE_SIZE:
            _cache.popitem(last=False)
    return seq


def _polynomial_weights(tab, m, h, N):
    """Coefficients of (gamma(z)/h)^m, gamma(z) = A^-1 - z (A^-1 1)(b^T A^-1), up to z^N."""
    const, slope = tab.Ainv / h, -np.outer(tab.Ainv_one, tab.bT_Ainv) / h
    W = np.zeros((N + 1, tab.r, tab.r))
    W[0] = np.eye(tab.r)
    for _ in range(m):  # multiply the truncated series by const + z * slope
        W[1:] = W[1:] @ const + W[:-1] @ slope
        W[0] = W[0] @ const
    return W


def _compute_weights(tab, exponent, h, N, M, lam, _retried=False):
    """Contour sum on |z| = lam: real W (N+1, r, r), the radius used, and 0.0.

    A, b and c are real, so gamma(conj z) = conj gamma(z) and the contour
    values at z_l and z_(M-l) are conjugate: only l = 0..M//2 are decomposed,
    and irfft adds the conjugate half, leaving no imaginary part to discard.
    The degeneracy test is the 1-norm condition of each eigenvector matrix,
    formed from the inverse the K(gamma) product needs anyway.
    """
    z = lam * np.exp(-2j * np.pi * np.arange(M // 2 + 1) / M)
    vals, vecs = np.linalg.eig(gamma(tab, z))
    inv = np.linalg.inv(vecs)
    conds = np.linalg.norm(vecs, 1, axis=(1, 2)) * np.linalg.norm(inv, 1, axis=(1, 2))
    bad = np.nonzero(~(conds < _COND_LIMIT))[0]
    if bad.size:
        if not _retried:
            return _compute_weights(tab, exponent, h, N, M, 0.98 * lam, _retried=True)
        raise RuntimeError(
            f"contour degeneracy at node l={int(bad[0])} (cond={conds[bad[0]]:.3e}) "
            f"even after radius retry")
    kvals = (vals / h) ** (-exponent)
    kmat = (vecs * kvals[:, None, :]) @ inv
    # a new array, so the cached table does not keep the M-point sum alive
    W = (np.fft.irfft(kmat, n=M, axis=0)[: N + 1]
         * (lam ** -np.arange(N + 1, dtype=float))[:, None, None])
    return W, lam, 0.0


def apply_retarded(w: WeightSequence, f: StageTrajectory, k: int) -> np.ndarray:
    """Retarded operator at block k: sum_{n=0}^{k} W_{k-n} 𝐟_n, an r x d matrix."""
    if not 0 <= k < f.nblocks:
        raise IndexError(f"block index {k} out of range")
    if k >= w.count:
        raise IndexError(f"need weights up to index {k}, have {w.count - 1}")
    if w.r != f.r:
        raise ValueError("stage counts of weights and trajectory differ")
    rev = w.W[: k + 1][::-1]  # W_k, ..., W_0 against f_0, ..., f_k
    return np.tensordot(rev, f.values[: k + 1], axes=([0, 2], [0, 1]))


def apply_advanced(w: WeightSequence, g: StageTrajectory, k: int) -> np.ndarray:
    """Advanced operator at block k: sum_{n=0}^{N-k} (W_n)^T 𝐠_{k+n}, N+1 = g.nblocks."""
    if not 0 <= k < g.nblocks:
        raise IndexError(f"block index {k} out of range")
    m = g.nblocks - k
    if m > w.count:
        raise IndexError(f"need weights up to index {m - 1}, have {w.count - 1}")
    if w.r != g.r:
        raise ValueError("stage counts of weights and trajectory differ")
    return np.tensordot(w.W[:m], g.values[k:], axes=([0, 1], [0, 1]))


def midcq_weights(exponent: float, h: float, N: int) -> ScalarWeightSequence:
    """Taylor coefficients w_0..w_N of (gamma_mid(z)/h)^(-exponent), gamma_mid = 2(1-z)/(1+z).

    With beta = -exponent, w_n = (2/h)^beta c_n for the coefficients c_n of
    f(z) = ((1-z)/(1+z))^beta.  f solves (1-z^2) f' = -2 beta f, and
    comparing the coefficients of z^n gives the three-term recurrence
    (n+1) c_(n+1) = (n-1) c_(n-1) - 2 beta c_n with c_0 = 1, c_1 = -2 beta:
    O(N) work and no contour quadrature.
    """
    N = _check_weight_args(exponent, h, N)
    beta = -float(exponent)
    c = [1.0, -2.0 * beta][: N + 1]
    for n in range(1, N):
        c.append(((n - 1) * c[n - 1] - 2.0 * beta * c[n]) / (n + 1))
    w = np.array(c) * (2.0 / h) ** beta
    return ScalarWeightSequence(exponent=float(exponent), h=float(h), w=w)


def apply_midcq(w: ScalarWeightSequence, nodes: np.ndarray, k: int) -> np.ndarray:
    """Midpoint-rule operator at k: sum_{j=0}^{k} w_{k-j} (f_j + f_{j+1})/2."""
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim == 1:
        nodes = nodes[:, None]
    if not 0 <= k <= nodes.shape[0] - 2:
        raise IndexError(f"index {k} out of range for {nodes.shape[0]} nodes")
    if k >= w.count:
        raise IndexError(f"need weights up to index {k}, have {w.count - 1}")
    mids = 0.5 * (nodes[: k + 1] + nodes[1: k + 2])
    return w.w[: k + 1][::-1] @ mids
