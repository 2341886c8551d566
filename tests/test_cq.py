"""Tests for convolution quadrature weights and the discrete fractional operators."""
from fractions import Fraction

import numpy as np
import pytest

import fvi.cq
from fvi.cq import (
    _CACHE_SIZE,
    StageTrajectory,
    WeightSequence,
    _compute_weights,
    apply_advanced,
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
        once = StageTrajectory(apply_retarded(wh, f), h)
        twice = apply_retarded(wh, once)
        direct = apply_retarded(w1, f)
    else:
        once = StageTrajectory(apply_advanced(wh, f), h)
        twice = apply_advanced(wh, once)
        direct = apply_advanced(w1, f)
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
        lhs = float(np.sum(g.values * apply_retarded(w, f)))
        rhs = float(np.sum(apply_advanced(w, g) * f.values))
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
        lhs = float(np.sum(g.values * apply_retarded(w, bf)))
        rhs = float(np.sum(np.einsum("ij,kjd->kid", B, apply_advanced(w, g)) * f.values))
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
        end = apply_retarded(w, f)[-1, -1, 0]
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
    w = _compute_weights(tab, -1.0, h, N, M)
    exact = _closed_form_weights(tab, 1, h, N)
    assert (w.radius, w.eps, w.contour_points) == (1e-16 ** (1.0 / (M + N)), 1e-16, M)
    assert np.abs(w.W - exact).max() < 1e-10 * np.abs(exact).max()


def _full_contour_weights(tab, exponent, h, N, M, lam):
    """Reference: decompose gamma at all M contour points and sum them by one complex ifft."""
    vals, vecs = np.linalg.eig(gamma(tab, lam * np.exp(-2j * np.pi * np.arange(M) / M)))
    kmat = (vecs * ((vals / h) ** (-exponent))[:, None, :]) @ np.linalg.inv(vecs)
    W = np.fft.ifft(kmat, axis=0)[: N + 1]
    return W * (lam ** -np.arange(N + 1, dtype=float))[:, None, None]


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
    w = _compute_weights(tab, exponent, h, N, M)
    W, lam = w.W, w.radius
    ref = _full_contour_weights(tab, exponent, h, N, M, lam).real
    scale = (lam ** np.arange(N + 1, dtype=float))[:, None, None]
    assert np.abs((W - ref) * scale).max() <= 1e-13 * np.abs(ref * scale).max()


def test_contour_degeneracy_is_reported_after_the_retry(monkeypatch):
    """A condition limit no contour point meets fails at node 0 once 0.98*lambda was tried."""
    monkeypatch.setattr(fvi.cq, "_COND_LIMIT", 0.0)
    with pytest.raises(RuntimeError, match=r"contour degeneracy at node l=0 "
                       r"\(cond=\d\.\d{3}e[+-]\d+\) even after radius retry"):
        compute_weights(lobatto_iiic(3), -0.5, 0.0123, 20)


def test_contour_retries_once_at_a_smaller_radius(monkeypatch):
    """A degenerate first circle is summed again at 0.98*lambda, the radius recorded."""
    tab, h, N, M = lobatto_iiic(2), 0.1, 8, 18
    radii = []

    def degenerate_first(tab, z):
        radii.append(np.abs(z).max())
        g = gamma(tab, z)
        if len(radii) == 1:  # a Jordan block: no basis of eigenvectors
            g[:] = [[1.0, 1.0], [0.0, 1.0]]
        return g

    monkeypatch.setattr(fvi.cq, "gamma", degenerate_first)
    w = _compute_weights(tab, -0.5, h, N, M)
    lam = 1e-16 ** (1.0 / (M + N))
    assert len(radii) == 2 and w.radius == 0.98 * lam
    np.testing.assert_allclose(radii, [lam, 0.98 * lam], rtol=1e-15)
    ref = _full_contour_weights(tab, -0.5, h, N, M, w.radius).real
    assert np.abs(w.W - ref).max() <= 1e-10 * np.abs(ref).max()


def test_cache_tells_tableaux_apart_by_coefficients():
    """A tableau reusing another's label still gets weights of its own size."""
    t3 = lobatto_iiic(3)
    impostor = ButcherTableau(A=t3.A, b=t3.b, c=t3.c, p=t3.p, q=t3.q,
                              label="lobatto_iiic_2")
    assert compute_weights(lobatto_iiic(2), -0.5, 0.1, 8).W.shape == (9, 2, 2)
    assert compute_weights(impostor, -0.5, 0.1, 8).W.shape == (9, 3, 3)


def test_editing_a_callers_tableau_arrays_cannot_poison_the_cache(monkeypatch):
    """The tableau keeps copies, so a later edit of the caller's b files no stale table."""
    monkeypatch.setattr(fvi.cq, "_cache", fvi.cq._LRU(_CACHE_SIZE))
    A, b, c = lobatto_iiic(2).A.copy(), np.array([0.25, 0.75]), lobatto_iiic(2).c.copy()
    edited = ButcherTableau(A=A, b=b, c=c, p=1, q=1, label="caller")
    b[:] = [0.5, 0.5]
    compute_weights(edited, -0.5, 0.1, 8)
    equal = ButcherTableau(A=A, b=b, c=c, p=2, q=1, label="caller")
    warm = compute_weights(equal, -0.5, 0.1, 8)
    monkeypatch.setattr(fvi.cq, "_cache", fvi.cq._LRU(_CACHE_SIZE))
    assert np.array_equal(warm.W, compute_weights(equal, -0.5, 0.1, 8).W)
    assert edited.b.tolist() == [0.25, 0.75] and A.flags.writeable


def test_cache_keeps_midcq_and_contour_midpoint_tables_apart():
    """The recurrence and the contour on the midpoint tableau share a label, not a key."""
    rec = midcq_weights(-0.5, 0.1, 8)
    contour = compute_weights(midpoint(), -0.5, 0.1, 8)
    assert rec.tableau_label == contour.tableau_label == midpoint().label
    assert contour is not rec and contour.contour_points == 18


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
    ((-0.5, 0.1, True), "N must be an integer >= 0, got True"),
    ((-0.5, True, 4), "h must be positive and finite, got True"),
    ((False, 0.1, 4), "exponent must be finite, got False"),
], ids=["nan-h", "inf-h", "nan-exponent", "inf-exponent", "fractional-N", "float-N",
        "bool-N", "bool-h", "bool-exponent"])
def test_non_finite_or_non_integer_arguments_rejected(weights, args, match):
    with pytest.raises(ValueError, match=match):
        weights(*args)


def test_weights_are_cached():
    tab = lobatto_iiic(2)
    a = compute_weights(tab, -0.5, 0.3, 12)
    b = compute_weights(tab, -0.5, 0.3, 12)
    assert a is b


def test_midcq_weights_are_cached():
    assert midcq_weights(-0.5, 0.3, 12) is midcq_weights(-0.5, 0.3, 12)


def test_weight_cache_keeps_the_most_recent_tables():
    tab = lobatto_iiic(2)
    first = compute_weights(tab, -0.5, 0.3, 13)
    for N in range(14, 14 + _CACHE_SIZE):  # _CACHE_SIZE newer tables
        latest = compute_weights(tab, -0.5, 0.3, N)
    assert compute_weights(tab, -0.5, 0.3, 13) is not first
    assert compute_weights(tab, -0.5, 0.3, N) is latest


def test_imaginary_residue_recorded_and_small():
    """The full M-point complex sum leaves a small imaginary part; the half contour none.

    Summing all M contour points by a complex ifft gives weights whose
    imaginary part is rounding error, and realifying them would discard it.
    The half contour and irfft produce a real table directly, so every path
    records max_imag_residue = 0.0.
    """
    tab, h, N = lobatto_iiic(3), 0.05, 64
    w = _compute_weights(tab, -0.5, h, N, 2 * (N + 1))
    full = _full_contour_weights(tab, -0.5, h, N, w.contour_points, w.radius)
    assert 0.0 < np.abs(full.imag).max() < 1e-6 * np.abs(w.W).max()
    assert w.max_imag_residue == 0.0
    assert compute_weights(tab, -0.5, h, N).max_imag_residue == 0.0  # the hyperbolae
    assert compute_weights(tab, -1.0, h, N).max_imag_residue == 0.0
    assert midcq_weights(-0.5, h, N).max_imag_residue == 0.0


def test_minimal_contour_parameters():
    N = 16
    w = _compute_weights(lobatto_iiic(2), -0.5, 0.1, N, N + 1)
    assert w.contour_points == N + 1 and w.eps == 1e-16
    np.testing.assert_allclose(w.radius, 1e-16 ** (1.0 / (2 * N + 1)))


def test_default_contour_is_oversampled():
    # the inputs the hyperbolae do not serve: N < 16, a tableau that is not
    # stiffly accurate, an exponent above 1/2
    for tab, exponent, N in ((lobatto_iiic(2), -0.5, 15), (midpoint(), -0.5, 16),
                             (lobatto_iiic(2), 1.0, 16)):
        w = compute_weights(tab, exponent, 0.1, N)
        assert w.contour_points == 2 * (N + 1)
        assert w.radius == w.eps ** (1.0 / (w.contour_points + N))


def test_hyperbola_table_records_no_contour():
    """From N = 16 the default table of a fractional order is a circle head and hyperbolae."""
    tab, h, N = lobatto_iiic(3), 0.1, 16
    w = compute_weights(tab, -0.5, h, N)
    assert w.contour_points == 0 and np.isnan(w.radius) and np.isnan(w.eps)
    np.testing.assert_array_equal(w.W[:16], _compute_weights(tab, -0.5, h, 15, 1024).W)


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("exponent,head_tol", [
    (-0.25, 1e-12), (-0.5, 1e-12), (-0.75, 1e-11), (-1.5, 1e-9), (0.5, 1e-12)])
@pytest.mark.parametrize("N", [256, 1024])
def test_hyperbola_matches_fine_circle(r, exponent, head_tol, N):
    """The default table agrees with a circle of 16(N+1) points.

    Over the whole table to 1e-12 |C_1|; for n <= 64 to head_tol |C_n|.  At
    -3/4 and -3/2 that circle is itself off from 40-digit values by 4.4e-12
    and 2.9e-10 of |C_64| (lobatto4, N = 256), where the hyperbolae are
    within 2e-15.
    """
    tab, h = lobatto_iiic(r), 1.0 / N
    W = compute_weights(tab, exponent, h, N).W
    C = _compute_weights(tab, exponent, h, N, 16 * (N + 1)).W
    err, size = np.abs(W - C).max(axis=(1, 2)), np.abs(C).max(axis=(1, 2))
    assert err.max() <= 1e-12 * size[1]
    assert np.all(err[:65] <= head_tol * size[:65])


def test_retarded_matches_brute_force():
    tab = lobatto_iiic(3)
    h, N, d = 0.2, 10, 2
    w = compute_weights(tab, -0.5, h, N)
    rng = np.random.default_rng(1)
    f = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
    out = apply_retarded(w, f)
    assert out.shape == f.values.shape
    for k in (0, 3, N):
        brute = sum(w.W[k - n] @ f.values[n] for n in range(k + 1))
        np.testing.assert_allclose(out[k], brute, rtol=1e-13)


def test_advanced_matches_brute_force():
    tab = lobatto_iiic(3)
    h, N, d = 0.2, 10, 2
    w = compute_weights(tab, -0.5, h, N)
    rng = np.random.default_rng(2)
    g = StageTrajectory(rng.standard_normal((N + 1, tab.r, d)), h)
    out = apply_advanced(w, g)
    assert out.shape == g.values.shape
    for k in (0, 3, N):
        brute = sum(w.W[n].T @ g.values[k + n] for n in range(g.nblocks - k))
        np.testing.assert_allclose(out[k], brute, rtol=1e-13)


def test_midcq_weights_frozen_values():
    w = midcq_weights(-0.5, 1.0, 5)
    expected = SQRT2 * np.array([1.0, -1.0, 0.5, -0.5, 0.375, -0.375])
    np.testing.assert_allclose(w.W[:, 0, 0], expected, rtol=0, atol=1e-15)
    w1 = midcq_weights(-1.0, 0.5, 5)
    np.testing.assert_allclose(w1.W[:, 0, 0], [4.0, -8.0, 8.0, -8.0, 8.0, -8.0],
                               rtol=0, atol=1e-13)


def test_midcq_weights_are_the_midpoint_weight_sequence():
    """1 x 1 weights labelled by the midpoint tableau, with no contour to report."""
    w = midcq_weights(-0.5, 0.25, 7)
    assert isinstance(w, WeightSequence)
    assert w.W.shape == (8, 1, 1) and w.count == 8 and w.r == 1
    assert w.tableau_label == midpoint().label
    assert (w.exponent, w.h, w.max_imag_residue, w.contour_points) == (-0.5, 0.25, 0.0, 0)
    assert np.isnan(w.radius) and np.isnan(w.eps)
    assert not w.W.flags.writeable


def test_trajectory_copies_the_callers_values():
    # the frozen copy belongs to the trajectory; the caller's array stays writeable
    a = np.zeros((3, 2, 1))
    traj = StageTrajectory(values=a, h=0.1)
    a[0, 0, 0] = 1.0
    assert traj.values[0, 0, 0] == 0.0
    assert not traj.values.flags.writeable


def test_weight_sequence_copies_the_callers_table():
    W = np.ones((3, 2, 2))
    w = WeightSequence(exponent=-1.0, h=0.1, W=W, tableau_label="lobatto_iiic_2",
                       radius=0.5, contour_points=6)
    W[0, 0, 0] = 2.0
    assert w.W[0, 0, 0] == 1.0
    assert not w.W.flags.writeable


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
    w = midcq_weights(-beta, 2.0, N).W[:, 0, 0]
    ref = _midcq_reference(Fraction(beta), N)
    assert np.all(np.abs(w - ref) <= 1e-14 * np.abs(ref))


def test_midcq_semigroup_and_inverse():
    h, N = 0.25, 24
    wq = midcq_weights(-0.25, h, N).W[:, 0, 0]
    wh = midcq_weights(-0.5, h, N).W[:, 0, 0]
    w1 = midcq_weights(-1.0, h, N).W[:, 0, 0]
    np.testing.assert_allclose(np.convolve(wq, wq)[: N + 1], wh, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(np.convolve(wh, wh)[: N + 1], w1, rtol=1e-12, atol=1e-12)
    # opposite exponents convolve to the identity sequence
    wp = midcq_weights(0.5, h, N).W[:, 0, 0]
    delta = np.zeros(N + 1)
    delta[0] = 1.0
    np.testing.assert_allclose(np.convolve(wp, wh)[: N + 1], delta, rtol=0, atol=1e-13)


@pytest.mark.parametrize("exponent", [-0.5, 0.5])
def test_midcq_matches_contour_on_midpoint_tableau(exponent):
    """The exact recurrence and the contour machinery agree on the one-stage tableau."""
    h, N = 0.1, 32
    wx = midcq_weights(exponent, h, N).W
    wm = compute_weights(midpoint(), exponent, h, N).W
    assert np.abs(wm - wx).max() < 1e-8 * max(1.0, np.abs(wx).max())


def _midpoint_blocks(nodes, h):
    """The 1 x d blocks (x_j + x_(j+1))/2 the midpoint rule's weights act on."""
    nodes = np.asarray(nodes, dtype=float).reshape(len(nodes), -1)
    return StageTrajectory(0.5 * (nodes[:-1] + nodes[1:])[:, None, :], h)


def test_retarded_on_midpoint_blocks_matches_brute_force():
    """apply_retarded on midpoint blocks is sum_{j<=k} w_(k-j) (x_j + x_(j+1))/2."""
    h, N, d = 0.2, 12, 2
    w = midcq_weights(-0.5, h, N)
    rng = np.random.default_rng(9)
    nodes = rng.standard_normal((N + 1, d))
    out = apply_retarded(w, _midpoint_blocks(nodes, h))
    for k in (0, 4, N - 1):
        brute = sum(w.W[k - j, 0, 0] * 0.5 * (nodes[j] + nodes[j + 1]) for j in range(k + 1))
        np.testing.assert_allclose(out[k], [brute], rtol=1e-13)


def test_retarded_on_midpoint_blocks_of_scalar_nodes():
    w = midcq_weights(-1.0, 1.0, 4)
    f = _midpoint_blocks([0.0, 1.0, 2.0, 3.0, 4.0], 1.0)
    # exponent -1 discretizes d/dt; midpoint averaging of the linear ramp is exact
    np.testing.assert_allclose(apply_retarded(w, f), np.ones((4, 1, 1)), atol=1e-12)


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
    with pytest.raises(TypeError, match="contour_points"):  # the inputs pick the path
        compute_weights(tab, -0.5, 0.1, 8, contour_points=40)
    with pytest.raises(ValueError, match="h must be positive"):
        midcq_weights(-0.5, -1.0, 4)
    with pytest.raises(ValueError):
        WeightSequence(exponent=-0.5, h=0.1, W=np.zeros((3, 2)), tableau_label="x",
                       radius=0.5, contour_points=8)


def test_weight_sequence_derives_eps_and_the_imaginary_residue():
    """eps is the circle's target, nan without one; nothing imaginary is ever discarded."""
    circle = WeightSequence(exponent=-0.5, h=0.1, W=np.zeros((3, 2, 2)),
                            tableau_label="x", radius=0.5, contour_points=8)
    none = WeightSequence(exponent=-0.5, h=0.1, W=np.zeros((3, 2, 2)),
                          tableau_label="x", radius=float("nan"), contour_points=0)
    assert (circle.eps, circle.max_imag_residue) == (1e-16, 0.0)
    assert np.isnan(none.eps) and none.max_imag_residue == 0.0
    for name in ("eps", "max_imag_residue"):
        with pytest.raises(TypeError, match=name):
            WeightSequence(exponent=-0.5, h=0.1, W=np.zeros((3, 2, 2)), tableau_label="x",
                           radius=0.5, contour_points=8, **{name: 0.0})
        with pytest.raises(AttributeError):
            setattr(circle, name, 0.0)


def test_operator_index_errors():
    tab = lobatto_iiic(2)
    h, N = 0.1, 6
    w = compute_weights(tab, -0.5, h, N)
    f = StageTrajectory(np.zeros((N + 1, 2, 1)), h)
    short = compute_weights(tab, -0.5, h, 2)
    for op in (apply_retarded, apply_advanced):
        with pytest.raises(IndexError, match=f"need weights up to index {N}, have 2"):
            op(short, f)
    f3 = StageTrajectory(np.zeros((N + 1, 3, 1)), h)
    for op in (apply_retarded, apply_advanced):
        with pytest.raises(ValueError, match="stage counts"):
            op(w, f3)
    # blocks labelled with another step size used to give a result
    f_half = StageTrajectory(np.zeros((N + 1, 2, 1)), 0.5)
    for op in (apply_retarded, apply_advanced):
        with pytest.raises(ValueError, match="history step size 0.5 does not match "
                           "the weights step size 0.1"):
            op(w, f_half)
