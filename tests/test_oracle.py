"""Tests for the reference fractional calculus and brute-force convolution."""
import re

import numpy as np
import pytest

from fvi.cq import compute_weights
from fvi.oracle import brute_convolve, rl_monomial
from fvi.tableau import lobatto_iiic

# 20-digit reference values
GAMMA_HALF = 1.77245385090551602730
D_HALF_T3_AT_1 = 1.80540666735282011823  # 3.2 / Gamma(1/2)
J_HALF_T2_COEF = 0.601802222450940039411  # Gamma(3) / Gamma(7/2)
J_HALF_T2_AT_037 = 0.0501138879283406301397


def test_classical_integral_of_t():
    np.testing.assert_allclose(rl_monomial(1, 1.0, 2.0, "integral"), 2.0)
    np.testing.assert_allclose(rl_monomial(1, 1.0, 0.6, "integral"), 0.18)


def test_half_derivative_of_cubic():
    np.testing.assert_allclose(rl_monomial(3, 0.5, 1.0, "derivative"),
                               D_HALF_T3_AT_1, rtol=1e-13)
    np.testing.assert_allclose(rl_monomial(3, 0.5, 1.0, "derivative"),
                               3.2 / GAMMA_HALF, rtol=1e-13)


def test_half_integral_of_square():
    np.testing.assert_allclose(rl_monomial(2, 0.5, 1.0, "integral"),
                               J_HALF_T2_COEF, rtol=1e-13)
    np.testing.assert_allclose(rl_monomial(2, 0.5, 0.37, "integral"),
                               J_HALF_T2_AT_037, rtol=1e-13)


def test_derivative_reduces_to_classical():
    np.testing.assert_allclose(rl_monomial(2, 1.0, 0.7, "derivative"), 1.4, rtol=1e-13)
    np.testing.assert_allclose(rl_monomial(2, 0.0, 0.7, "derivative"), 0.49, rtol=1e-13)


def test_rl_monomial_validation():
    with pytest.raises(ValueError, match="gamma pole"):
        rl_monomial(0, 1.0, 1.0, "derivative")
    with pytest.raises(ValueError, match="gamma pole"):
        rl_monomial(1, 2.0, 1.0, "derivative")
    with pytest.raises(ValueError, match="t must be positive"):
        rl_monomial(2, 0.5, 0.0)
    with pytest.raises(ValueError, match="kind"):
        rl_monomial(2, 0.5, 1.0, "weird")
    with pytest.raises(ValueError, match="m must be an integer >= 0, got -1"):
        rl_monomial(-1, 0.5, 1.0)


@pytest.mark.parametrize("name,args", [
    ("m", (np.True_, 0.5, 1.0)), ("m", (True, 0.5, 1.0)), ("m", (2.0, 0.5, 1.0)),
    ("m", (2.5, 0.5, 1.0)), ("m", ("2", 0.5, 1.0)), ("m", (None, 0.5, 1.0)),
    ("beta", (2, np.nan, 1.0)), ("beta", (2, np.inf, 1.0)), ("beta", (2, np.True_, 1.0)),
    ("beta", (2, "0.5", 1.0)), ("t", (2, 0.5, np.nan)), ("t", (2, 0.5, np.inf)),
    ("t", (2, 0.5, -1.0)), ("t", (2, 0.5, np.True_)), ("t", (2, 0.5, None)),
])
def test_rl_monomial_names_the_rejected_argument(name, args):
    # a nan t or beta used to give nan, and np.True_ ran as 1
    bad = args[("m", "beta", "t").index(name)]
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(repr(bad))}$"):
        rl_monomial(*args)


def test_brute_convolve_identity():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(6)
    e = np.zeros(6)
    e[0] = 1.0
    np.testing.assert_allclose(brute_convolve(e, x), x, rtol=1e-15)


def test_brute_convolve_matches_polynomial_product():
    a = np.array([1.0, 2.0, 3.0, 0.0])
    b = np.array([4.0, 5.0, 0.0, 0.0])
    np.testing.assert_allclose(brute_convolve(a, b), [4.0, 13.0, 22.0, 15.0])


def test_brute_convolve_matrix_semigroup():
    tab = lobatto_iiic(2)
    h, N = 0.1, 16
    wh = compute_weights(tab, -0.5, h, N).W
    w1 = compute_weights(tab, -1.0, h, N).W
    conv = brute_convolve(wh, wh)
    assert np.abs(conv - w1).max() / np.abs(w1).max() < 1e-9


def test_brute_convolve_shape_mismatch():
    with pytest.raises(ValueError, match="identical shapes"):
        brute_convolve(np.ones(3), np.ones(4))
