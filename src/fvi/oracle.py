"""Independent reference computations for tests and examples.

Everything here is deliberately simple and derivation-free: closed-form
Riemann-Liouville calculus on monomials and a plain Cauchy product.  None
of it shares code with the production quadratures it is used to check.
"""

import math

import numpy as np

from . import _checks

__all__ = ["rl_monomial", "brute_convolve"]


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
        If m is not an integer >= 0, beta not finite or t not positive and
        finite (bools are none of these), kind is unknown, or the Gamma
        argument hits a pole (m + 1 -/+ beta a non-positive integer).
    """
    m, beta = _checks.integer("m", m, 0), _checks.real("beta", beta)
    t = _checks.real("t", t, 0.0)
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
