"""Tests for Runge-Kutta tableaux, stability functions and generating matrices."""
import numpy as np
import pytest

from fvi.tableau import ButcherTableau, gamma, lobatto_iiic, midpoint, stability

ALL_TABLEAUX = [lobatto_iiic(2), lobatto_iiic(3), lobatto_iiic(4), midpoint()]

# 20-digit values of the surd entries of the four-stage tableau
C2_R4 = 0.276393202250021030359  # (5 - sqrt(5)) / 10
C3_R4 = 0.723606797749978969641  # (5 + sqrt(5)) / 10
SQRT5_12 = 0.186338998124982474701
A23_R4 = -0.0942079307083087979144  # (10 - 7 sqrt(5)) / 60
A32_R4 = 0.427541264041642131248  # (10 + 7 sqrt(5)) / 60
SQRT5_60 = 0.0372677996249964949402


@pytest.mark.parametrize("r", [2, 3, 4])
def test_lobatto_quadrature_order(r):
    """(b, c) integrate monomials exactly up to degree p - 1 = 2r - 3."""
    tab = lobatto_iiic(r)
    assert tab.p == 2 * r - 2 and tab.q == r - 1
    for m in range(1, tab.p + 1):
        assert abs(tab.b @ tab.c ** (m - 1) - 1.0 / m) < 1e-14


@pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.label)
def test_stage_order_conditions(tab):
    """A c^(m-1) = c^m / m for m = 1..q."""
    for m in range(1, tab.q + 1):
        np.testing.assert_allclose(tab.A @ tab.c ** (m - 1), tab.c ** m / m,
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_lobatto_endpoints_and_stiff_accuracy(r):
    tab = lobatto_iiic(r)
    assert tab.c[0] == 0.0 and tab.c[-1] == 1.0
    assert tab.stiffly_accurate
    np.testing.assert_array_equal(tab.A[-1], tab.b)


def test_midpoint_tableau():
    tab = midpoint()
    assert tab.r == 1 and tab.p == 2 and tab.q == 1
    assert tab.A[0, 0] == 0.5 and tab.b[0] == 1.0 and tab.c[0] == 0.5
    assert not tab.stiffly_accurate


def test_four_stage_entries_frozen():
    tab = lobatto_iiic(4)
    np.testing.assert_allclose(tab.c[1], C2_R4, rtol=5e-16)
    np.testing.assert_allclose(tab.c[2], C3_R4, rtol=5e-16)
    np.testing.assert_allclose(tab.A[0, 1], -SQRT5_12, rtol=5e-16)
    np.testing.assert_allclose(tab.A[1, 2], A23_R4, rtol=5e-16)
    np.testing.assert_allclose(tab.A[2, 1], A32_R4, rtol=5e-16)
    np.testing.assert_allclose(tab.A[1, 3], SQRT5_60, rtol=5e-16)


@pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.label)
def test_cached_inverse_products(tab):
    np.testing.assert_allclose(tab.Ainv @ tab.A, np.eye(tab.r), rtol=0, atol=1e-12)
    np.testing.assert_allclose(tab.Ainv_one, tab.Ainv @ np.ones(tab.r),
                               rtol=1e-14, atol=1e-13)
    np.testing.assert_allclose(tab.bT_Ainv, tab.b @ tab.Ainv, rtol=1e-14, atol=1e-13)


def test_two_stage_inverse_exact():
    tab = lobatto_iiic(2)
    np.testing.assert_array_equal(tab.Ainv, [[1.0, 1.0], [-1.0, 1.0]])
    assert tab.bT_Ainv_one == 1.0


def test_stability_closed_forms():
    """R(z) = 1/(1 - z + z^2/2) for two stages; (1 + z/2)/(1 - z/2) for midpoint."""
    tab2, mp = lobatto_iiic(2), midpoint()
    rng = np.random.default_rng(3)
    for _ in range(25):
        z = complex(rng.uniform(-3, 1), rng.uniform(-3, 3))
        assert abs(stability(tab2, z) - 1.0 / (1 - z + z * z / 2)) < 1e-12
        assert abs(stability(mp, z) - (1 + z / 2) / (1 - z / 2)) < 1e-12


@pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.label)
def test_stability_approximation_order(tab):
    """|R(z) - e^z| shrinks like |z|^(p+1)."""
    zs = np.array([-0.4, -0.2, -0.1])
    errs = np.array([abs(stability(tab, z) - np.exp(z)) for z in zs])
    slope = np.polyfit(np.log(np.abs(zs)), np.log(errs), 1)[0]
    assert abs(slope - (tab.p + 1)) < 0.4


@pytest.mark.parametrize("r", [2, 3, 4])
def test_lobatto_a_and_l_stability(r):
    tab = lobatto_iiic(r)
    for y in np.logspace(-2, 3, 40):
        assert abs(stability(tab, 1j * y)) <= 1.0 + 1e-12
    assert abs(stability(tab, -1e8)) < 1e-6


def test_midpoint_isometric_on_imaginary_axis():
    mp = midpoint()
    for y in np.logspace(-2, 2, 20):
        assert abs(abs(stability(mp, 1j * y)) - 1.0) < 1e-12


def test_stability_pole_raises():
    with pytest.raises(ValueError, match="stability pole"):
        stability(midpoint(), 2.0)


@pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.label)
def test_gamma_matches_rank_one_inverse(tab):
    """gamma(z) equals the explicitly inverted (A + z/(1-z) 1 b^T)."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
        if abs(1 - z) < 0.05:
            continue
        direct = np.linalg.inv(tab.A + z / (1 - z) * np.outer(np.ones(tab.r), tab.b))
        np.testing.assert_allclose(gamma(tab, z), direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tab", ALL_TABLEAUX, ids=lambda t: t.label)
def test_gamma_stacks_one_matrix_per_point(tab):
    zs = np.array([0.0, 0.5j, -0.3 + 0.2j])
    stacked = gamma(tab, zs)
    assert stacked.shape == (3, tab.r, tab.r)
    for z, g in zip(zs, stacked):
        np.testing.assert_array_equal(g, gamma(tab, complex(z)))


def test_gamma_closed_forms():
    z = 0.3 + 0.1j
    np.testing.assert_allclose(gamma(lobatto_iiic(2), z),
                               [[1.0, 1 - 2 * z], [-1.0, 1.0]], rtol=0, atol=1e-15)
    assert abs(gamma(midpoint(), z)[0, 0] - 2 * (1 - z) / (1 + z)) < 1e-15


def test_singular_tableau_rejected():
    with pytest.raises(ValueError, match="singular"):
        ButcherTableau(A=np.array([[0.5, 0.5], [0.5, 0.5]]), b=np.array([0.5, 0.5]),
                       c=np.array([0.0, 1.0]), p=1, q=1, label="bad")


def test_inconsistent_weights_rejected():
    with pytest.raises(ValueError, match="sum b"):
        ButcherTableau(A=np.eye(2), b=np.array([0.5, 0.6]),
                       c=np.array([0.0, 1.0]), p=1, q=1, label="bad")


def test_dimension_mismatch_rejected():
    # the shapes are checked on the tableau's copies, which are not flattened
    for A, b in ((np.eye(3), np.array([0.5, 0.5])), (np.eye(2), np.array([[0.5], [0.5]]))):
        with pytest.raises(ValueError, match="dimensions"):
            ButcherTableau(A=A, b=b, c=np.array([0.0, 1.0]), p=1, q=1, label="bad")


def test_unsupported_stage_count():
    with pytest.raises(ValueError, match="unsupported stage count"):
        lobatto_iiic(5)


def test_tableau_arrays_immutable():
    tab = lobatto_iiic(2)
    with pytest.raises(ValueError):
        tab.A[0, 0] = 7.0
