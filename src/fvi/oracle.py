"""Independent reference computations for tests and examples.

Everything here is deliberately simple and derivation-free: closed-form
Riemann-Liouville calculus on monomials, first-order Grunwald-Letnikov
weights from the binomial recurrence, and a plain Cauchy product.  None of
it shares code with the production quadratures it is used to check.
"""

import math

import numpy as np

__all__ = ["rl_monomial", "gl_weights", "brute_convolve"]


def rl_monomial(m: int, beta: float, t: float, kind: str = "integral") -> float:
    """Riemann-Liouville fractional integral or derivative of t^m.

    Parameters
    ----------
    m : int
        Monomial degree, >= 0.
    beta : float
        Order of the operator.
    t : float
        Evaluation time, > 0.
    kind : {"integral", "derivative"}
        J^beta t^m = Gamma(m+1)/Gamma(m+1+beta) t^(m+beta);
        D^beta t^m = Gamma(m+1)/Gamma(m+1-beta) t^(m-beta).

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If t <= 0, kind is unknown, or the Gamma argument hits a pole
        (m + 1 -/+ beta a non-positive integer).
    """
    if m < 0 or m != int(m):
        raise ValueError("m must be a non-negative integer")
    if t <= 0:
        raise ValueError("t must be positive")
    if kind == "integral":
        arg, power = m + 1 + beta, m + beta
    elif kind == "derivative":
        arg, power = m + 1 - beta, m - beta
    else:
        raise ValueError(f"unknown kind {kind!r}")
    try:
        denom = math.gamma(arg)
    except ValueError as exc:
        raise ValueError(f"gamma pole at argument {arg}") from exc
    return math.gamma(m + 1) / denom * t ** power


def gl_weights(beta: float, h: float, N: int) -> np.ndarray:
    """Grunwald-Letnikov weights w_n = h^(-beta) (-1)^n binom(beta, n).

    First-order convolution quadrature for D^beta, generated by the
    backward-difference symbol ((1 - z)/h)^beta; computed with the standard
    recurrence w_n = w_(n-1) (1 - (beta + 1)/n).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if N < 0:
        raise ValueError("N must be >= 0")
    w = np.empty(N + 1)
    w[0] = 1.0
    for n in range(1, N + 1):
        w[n] = w[n - 1] * (1.0 - (beta + 1.0) / n)
    w *= h ** (-beta)
    return w


def brute_convolve(a, b):
    """Cauchy product c_n = sum_{m<=n} a_m b_{n-m} by the obvious double loop.

    Accepts equal-length sequences of scalars or of square matrices and
    returns an array of the same length and shape.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("sequences must have identical shapes")
    n = a.shape[0]
    c = np.zeros_like(a)
    for k in range(n):
        for m in range(k + 1):
            if a.ndim == 1:
                c[k] += a[m] * b[k - m]
            else:
                c[k] += a[m] @ b[k - m]
    return c
