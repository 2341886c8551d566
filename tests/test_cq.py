"""Tests for convolution quadrature weights and the discrete fractional operators."""
from fractions import Fraction

import numpy as np
import pytest

import fvi.cq
from fvi.cq import (
    _CACHE_SIZE,
    ScalarWeightSequence,
    StageTrajectory,
    WeightSequence,
    _compute_weights,
    apply_advanced,
    apply_midcq,
    apply_retarded,
    compute_weights,
    midcq_weights,
)
from fvi.tableau import ButcherTableau, gamma, lobatto_iiic, midpoint

SQRT2 = 1.41421356237309504880
# J^(1/2) t^2 = HALF_INTEGRAL_T2_COEF * t^(5/2); the coefficient is Gamma(3)/Gamma(7/2)
HALF_INTEGRAL_T2_COEF = 0.601802222450940039411


def _stage_times(N, h, c):
    """Stage evaluation times of all N blocks, shape (N, r)."""
    return np.arange(N)[:, None] * h + c[None, :] * h


def _retarded_series(w, f):
    return np.stack([apply_retarded(w, f, k) for k in range(f.nblocks)])


def _advanced_series(w, g):
    return np.stack([apply_advanced(w, g, k) for k in range(g.nblocks)])


def test_identity_kernel_gives_identity_weight():
    tab = lobatto_iiic(3)
    w = compute_weights(tab, 0.0, 0.1, 16)
    np.testing.assert_allclose(w.W[0], np.eye(3), rtol=0, atol=1e-12)
    # later weights vanish up to the radius^(-n)-amplified contour roundoff
    assert np.abs(w.W[1:]).max() < 1e-9


def test_two_stage_differentiation_weights_exact():
    """Exponent -1 on two stages has exactly two non-vanishing weights."""
    h = 0.05
    w = compute_weights(lobatto_iiic(2), -1.0, h, 64)
    np.testing.assert_allclose(h * w.W[0], [[1.0, 1.0], [-1.0, 1.0]], rtol=0, atol=1e-12)
    np.testing.assert_allclose(h * w.W[1], [[0.0, -2.0], [0.0, 0.0]], rtol=0, atol=1e-12)
    assert np.abs(h * w.W[2:]).max() < 1e-9


@pytest.mark.parametrize("r", [2, 3, 4])
def test_first_weight_is_matrix_root(r):
    """For exponent -1/2 the first weight squares to A^{-1}/h."""
    tab = lobatto_iiic(r)
    h = 0.2
    w = compute_weights(tab, -0.5, h, 8)
    np.testing.assert_allclose(w.W[0] @ w.W[0], tab.Ainv / h,
                               rtol=1e-9, atol=1e-9 / h)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("pair", [(-0.25, -0.5), (-0.5, -1.0), (-1.0, -2.0)])
def test_weight_semigroup(r, pair):
    """Self-convolved weights of exponent e equal the weights of 2e."""
    e, e2 = pair
    tab = lobatto_iiic(r)
    h, N = 0.1, 32
    wa = compute_weights(tab, e, h, N).W
    wb = compute_weights(tab, e2, h, N).W
    conv = np.array([sum(wa[m] @ wa[n - m] for m in range(n + 1)) for n in range(N + 1)])
    assert np.abs(conv - wb).max() / np.abs(wb).max() < 1e-9


@pytest.mark.parametrize("sign", [-1, +1])
def test_operator_semigroup(sign):
    """Composing the half-order operator with itself matches the full-order one."""
    tab = lobatto_iiic(2)
    h, N, d = 0.1, 20, 2
    rng = np.random.default_rng(5)
    f = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
    wh = compute_weights(tab, sign * 0.5, h, N)
    w1 = compute_weights(tab, sign * 1.0, h, N)
    if sign < 0:
        once = StageTrajectory(_retarded_series(wh, f), h)
        twice = _retarded_series(wh, once)
        direct = _retarded_series(w1, f)
    else:
        once = StageTrajectory(_advanced_series(wh, f), h)
        twice = _advanced_series(wh, once)
        direct = _advanced_series(w1, f)
    assert np.abs(twice - direct).max() / np.abs(direct).max() < 1e-7


@pytest.mark.parametrize("r", [2, 3])
def test_asymmetric_integration_by_parts(r):
    """sum_k <g_k, J_- f_k> = sum_k <J_+ g_k, f_k> for random data."""
    tab = lobatto_iiic(r)
    h, N, d = 0.25, 16, 2
    w = compute_weights(tab, -0.5, h, N)
    rng = np.random.default_rng(42)
    for _ in range(20):
        f = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
        g = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
        lhs = float(np.sum(g.values * _retarded_series(w, f)))
        rhs = float(np.sum(_advanced_series(w, g) * f.values))
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


@pytest.mark.parametrize("r", [2, 3])
def test_weighted_integration_by_parts(r):
    """sum_k <g_k, J_-(B f)_k> = sum_k <B J_+ g_k, f_k> with B = diag(b)."""
    tab = lobatto_iiic(r)
    h, N, d = 0.25, 16, 2
    w = compute_weights(tab, -0.5, h, N)
    B = np.diag(tab.b)
    rng = np.random.default_rng(43)
    for _ in range(20):
        f = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
        g = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
        bf = StageTrajectory(np.einsum("ij,kjd->kid", B, f.values), h)
        lhs = float(np.sum(g.values * _retarded_series(w, bf)))
        rhs = float(np.sum(np.einsum("ij,kjd->kid", B, _advanced_series(w, g)) * f.values))
        assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


@pytest.mark.parametrize("r,bound", [(2, 2.0), (3, 3.5)])
def test_half_integral_convergence_order(r, bound):
    """Retarded J^(1/2) of t^2 on [0,1] converges at order >= min(p, q + 3/2).

    For r=3 the observed order is the full p=4, not 3.5: the h^(q+3/2) error
    term carries a factor 1/Gamma(2-q) that vanishes for this monomial.
    """
    tab = lobatto_iiic(r)
    errs = []
    Ns = [8, 16, 32, 64]
    for N in Ns:
        h = 1.0 / N
        w = compute_weights(tab, 0.5, h, N)
        vals = _stage_times(N, h, tab.c) ** 2
        f = StageTrajectory(vals[:, :, None], h, continuity_flag=True)
        end = apply_retarded(w, f, N - 1)[-1, 0]
        errs.append(abs(end - HALF_INTEGRAL_T2_COEF))
    slope = -np.polyfit(np.log(Ns), np.log(errs), 1)[0]
    assert slope >= bound - 0.3
    assert slope <= tab.p + 0.3


def _closed_form_weights(tab, order, h, N):
    """W_0..W_N of (gamma(z)/h)^order for order 0 or 1 on a stiffly accurate tableau."""
    W = np.zeros((N + 1, tab.r, tab.r))
    if order == 0:
        W[0] = np.eye(tab.r)
    else:
        W[0] = tab.Ainv / h
        W[1] = -np.outer(tab.Ainv_one, tab.bT_Ainv) / h
    return W


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_integer_order_weights_are_exact(r, order):
    tab = lobatto_iiic(r)
    h, N = 0.05, 16
    w = compute_weights(tab, -float(order), h, N)
    np.testing.assert_array_equal(w.W, _closed_form_weights(tab, order, h, N))
    assert not w.W[order + 1:].any()
    assert w.max_imag_residue == 0.0
    assert w.contour_points == 2 * (N + 1)
    assert w.radius == 1e-16 ** (1.0 / (w.contour_points + N))


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("N,M", [(64, 2 * 65), (4096, 4 * 4097)])
def test_contour_sum_matches_closed_form(N, M, r):
    """The FFT contour sum, called directly, reproduces the exact order-1 weights."""
    tab = lobatto_iiic(r)
    h = 0.05
    lam = 1e-16 ** (1.0 / (M + N))
    W, radius, max_imag = _compute_weights(tab, -1.0, h, N, M, lam)
    exact = _closed_form_weights(tab, 1, h, N)
    assert radius == lam
    assert np.abs(W - exact).max() < 1e-10 * np.abs(exact).max()
    assert max_imag < 1e-10 * np.abs(exact).max()


def _full_contour_weights(tab, exponent, h, N, M, lam):
    """Reference: decompose gamma at all M contour points and keep the real part of one ifft."""
    vals, vecs = np.linalg.eig(gamma(tab, lam * np.exp(-2j * np.pi * np.arange(M) / M)))
    kmat = (vecs * ((vals / h) ** (-exponent))[:, None, :]) @ np.linalg.inv(vecs)
    W = np.fft.ifft(kmat, axis=0)[: N + 1]
    return W.real * (lam ** -np.arange(N + 1, dtype=float))[:, None, None]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("exponent", [-0.5, -1.5])
@pytest.mark.parametrize("N", [2 ** 6, 2 ** 12])
@pytest.mark.parametrize("c", [1, 4], ids=["M=N+1", "M=4(N+1)"])
def test_half_contour_matches_full_contour_sum(r, exponent, N, c):
    """Half the contour points plus irfft give the full M-point sum.

    Both are compared as the contour sums lam^n W_n: the lam^(-n) rescale
    amplifies any rounding difference by up to eps^(-N/(M+N)), about 1e8
    for M = N+1, so only the sums themselves can agree to 1e-13.
    """
    tab = lobatto_iiic(r)
    h, M = 1.0 / N, c * (N + 1)
    W, lam, max_imag = _compute_weights(tab, exponent, h, N, M, 1e-16 ** (1.0 / (M + N)))
    ref = _full_contour_weights(tab, exponent, h, N, M, lam)
    scale = (lam ** np.arange(N + 1, dtype=float))[:, None, None]
    assert np.abs((W - ref) * scale).max() <= 1e-13 * np.abs(ref * scale).max()
    assert max_imag == 0.0


def test_contour_degeneracy_is_reported_after_the_retry(monkeypatch):
    """A condition limit no contour point meets fails at node 0 once 0.98*lambda was tried."""
    monkeypatch.setattr(fvi.cq, "_COND_LIMIT", 0.0)
    with pytest.raises(RuntimeError, match=r"contour degeneracy at node l=0 "
                       r"\(cond=\d\.\d{3}e[+-]\d+\) even after radius retry"):
        compute_weights(lobatto_iiic(3), -0.5, 0.0123, 20)


def test_cache_tells_tableaux_apart_by_coefficients():
    """A tableau reusing another's label still gets weights of its own size."""
    t3 = lobatto_iiic(3)
    impostor = ButcherTableau(A=t3.A, b=t3.b, c=t3.c, p=t3.p, q=t3.q,
                              label="lobatto_iiic_2")
    assert compute_weights(lobatto_iiic(2), -0.5, 0.1, 8).W.shape == (9, 2, 2)
    assert compute_weights(impostor, -0.5, 0.1, 8).W.shape == (9, 3, 3)


@pytest.mark.parametrize("weights", [
    lambda e, h, N: compute_weights(lobatto_iiic(2), e, h, N),
    midcq_weights,
], ids=["compute_weights", "midcq_weights"])
@pytest.mark.parametrize("args,match", [
    ((-0.5, float("nan"), 4), "h must be positive and finite, got nan"),
    ((-0.5, float("inf"), 4), "got inf"),
    ((float("nan"), 0.1, 4), "exponent must be finite, got nan"),
    ((-float("inf"), 0.1, 4), "got -inf"),
    ((-0.5, 0.1, 2.5), "N must be an integer >= 0, got 2.5"),
    ((-0.5, 0.1, 4.0), "got 4.0"),
], ids=["nan-h", "inf-h", "nan-exponent", "inf-exponent", "fractional-N", "float-N"])
def test_non_finite_or_non_integer_arguments_rejected(weights, args, match):
    with pytest.raises(ValueError, match=match):
        weights(*args)


def test_weights_are_cached():
    tab = lobatto_iiic(2)
    a = compute_weights(tab, -0.5, 0.3, 12)
    b = compute_weights(tab, -0.5, 0.3, 12)
    assert a is b


def test_weight_cache_keeps_the_most_recent_tables():
    tab = lobatto_iiic(2)
    first = compute_weights(tab, -0.5, 0.3, 13)
    for N in range(14, 14 + _CACHE_SIZE):  # _CACHE_SIZE newer tables
        latest = compute_weights(tab, -0.5, 0.3, N)
    assert compute_weights(tab, -0.5, 0.3, 13) is not first
    assert compute_weights(tab, -0.5, 0.3, N) is latest


def test_imaginary_residue_recorded_and_small():
    w = compute_weights(lobatto_iiic(3), -0.5, 0.05, 64)
    assert 0.0 <= w.max_imag_residue < 1e-6 * np.abs(w.W).max()


def test_minimal_contour_parameters():
    N = 16
    w = compute_weights(lobatto_iiic(2), -0.5, 0.1, N, contour_points=N + 1)
    assert w.contour_points == N + 1
    np.testing.assert_allclose(w.radius, 1e-16 ** (1.0 / (2 * N + 1)))


def test_default_contour_is_oversampled():
    N = 16
    w = compute_weights(lobatto_iiic(2), -0.5, 0.1, N)
    assert w.contour_points == 2 * (N + 1)


def test_retarded_matches_brute_force():
    tab = lobatto_iiic(3)
    h, N, d = 0.2, 10, 2
    w = compute_weights(tab, -0.5, h, N)
    rng = np.random.default_rng(1)
    f = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
    for k in (0, 3, N):
        brute = sum(w.W[k - n] @ f.values[n] for n in range(k + 1))
        np.testing.assert_allclose(apply_retarded(w, f, k), brute, rtol=1e-13)


def test_advanced_matches_brute_force():
    tab = lobatto_iiic(3)
    h, N, d = 0.2, 10, 2
    w = compute_weights(tab, -0.5, h, N)
    rng = np.random.default_rng(2)
    g = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
    for k in (0, 3, N):
        brute = sum(w.W[n].T @ g.values[k + n] for n in range(g.nblocks - k))
        np.testing.assert_allclose(apply_advanced(w, g, k), brute, rtol=1e-13)


def test_midcq_weights_frozen_values():
    w = midcq_weights(-0.5, 1.0, 5)
    expected = SQRT2 * np.array([1.0, -1.0, 0.5, -0.5, 0.375, -0.375])
    np.testing.assert_allclose(w.w, expected, rtol=0, atol=1e-15)
    w1 = midcq_weights(-1.0, 0.5, 5)
    np.testing.assert_allclose(w1.w, [4.0, -8.0, 8.0, -8.0, 8.0, -8.0],
                               rtol=0, atol=1e-13)


def _midcq_reference(beta, N):
    """The recurrence (n+1) c_(n+1) = (n-1) c_(n-1) - 2 beta c_n in exact rationals."""
    c = [Fraction(1), -2 * beta]
    for n in range(1, N):
        c.append(((n - 1) * c[n - 1] - 2 * beta * c[n]) / (n + 1))
    return np.array([float(x) for x in c[: N + 1]])


@pytest.mark.parametrize("beta", [-0.9, -0.5, 0.5, 1.2, 1.9])
def test_midcq_weights_match_exact_recurrence(beta):
    """h = 2 makes (2/h)^beta = 1, so the weights are the coefficients c_n themselves."""
    N = 256
    w = midcq_weights(-beta, 2.0, N).w
    ref = _midcq_reference(Fraction(beta), N)
    assert np.all(np.abs(w - ref) <= 1e-14 * np.abs(ref))


def test_midcq_semigroup_and_inverse():
    h, N = 0.25, 24
    wq = midcq_weights(-0.25, h, N).w
    wh = midcq_weights(-0.5, h, N).w
    w1 = midcq_weights(-1.0, h, N).w
    np.testing.assert_allclose(np.convolve(wq, wq)[: N + 1], wh, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(np.convolve(wh, wh)[: N + 1], w1, rtol=1e-12, atol=1e-12)
    # opposite exponents convolve to the identity sequence
    wp = midcq_weights(0.5, h, N).w
    delta = np.zeros(N + 1)
    delta[0] = 1.0
    np.testing.assert_allclose(np.convolve(wp, wh)[: N + 1], delta, rtol=0, atol=1e-13)


@pytest.mark.parametrize("exponent", [-0.5, 0.5])
def test_midcq_matches_contour_on_midpoint_tableau(exponent):
    """The exact recurrence and the contour machinery agree on the one-stage tableau."""
    h, N = 0.1, 32
    wx = midcq_weights(exponent, h, N)
    wm = compute_weights(midpoint(), exponent, h, N)
    assert np.abs(wm.W[:, 0, 0] - wx.w).max() < 1e-8 * max(1.0, np.abs(wx.w).max())


def test_apply_midcq_matches_brute_force():
    h, N, d = 0.2, 12, 2
    w = midcq_weights(-0.5, h, N)
    rng = np.random.default_rng(9)
    nodes = rng.standard_normal((N + 1, d))
    for k in (0, 4, N - 1):
        brute = sum(w.w[k - j] * 0.5 * (nodes[j] + nodes[j + 1]) for j in range(k + 1))
        np.testing.assert_allclose(apply_midcq(w, nodes, k), brute, rtol=1e-13)


def test_apply_midcq_one_dimensional_nodes():
    w = midcq_weights(-1.0, 1.0, 4)
    nodes = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    # exponent -1 discretizes d/dt; midpoint averaging of the linear ramp is exact
    for k in range(4):
        np.testing.assert_allclose(apply_midcq(w, nodes, k), [1.0], atol=1e-12)


def test_stage_trajectory_continuity_enforced():
    vals = np.zeros((3, 2, 1))
    vals[0, 1, 0] = 1.0  # block 0 ends at 1 but block 1 starts at 0
    with pytest.raises(ValueError, match="continuity"):
        StageTrajectory(vals, 0.1, continuity_flag=True)
    ok = np.arange(6, dtype=float).reshape(3, 2, 1)
    ok[1, 0] = ok[0, 1]
    ok[2, 0] = ok[1, 1]
    StageTrajectory(ok, 0.1, continuity_flag=True)


def test_invalid_arguments_rejected():
    tab = lobatto_iiic(2)
    with pytest.raises(ValueError, match="h must be positive"):
        compute_weights(tab, -0.5, 0.0, 4)
    with pytest.raises(ValueError, match="N must be"):
        compute_weights(tab, -0.5, 0.1, -1)
    with pytest.raises(ValueError, match="contour_points"):
        compute_weights(tab, -0.5, 0.1, 8, contour_points=4)
    with pytest.raises(ValueError, match="h must be positive"):
        midcq_weights(-0.5, -1.0, 4)
    with pytest.raises(ValueError):
        WeightSequence(exponent=-0.5, h=0.1, W=np.zeros((3, 2)) , tableau_label="x",
                       max_imag_residue=0.0, radius=0.5, eps=1e-16, contour_points=8)


def test_operator_index_errors():
    tab = lobatto_iiic(2)
    h, N = 0.1, 6
    w = compute_weights(tab, -0.5, h, N)
    f = StageTrajectory(np.zeros((N + 1, 2, 1)), h)
    with pytest.raises(IndexError):
        apply_retarded(w, f, N + 1)
    with pytest.raises(IndexError):
        apply_advanced(w, f, -1)
    short = compute_weights(tab, -0.5, h, 2)
    with pytest.raises(IndexError):
        apply_retarded(short, f, 5)
    with pytest.raises(IndexError):
        apply_advanced(short, f, 0)
    f3 = StageTrajectory(np.zeros((N + 1, 3, 1)), h)
    with pytest.raises(ValueError, match="stage counts"):
        apply_retarded(w, f3, 0)
    wm = midcq_weights(-0.5, h, 2)
    with pytest.raises(IndexError):
        apply_midcq(wm, np.zeros(8), 5)
    with pytest.raises(IndexError):
        apply_midcq(wm, np.zeros(3), 2)
