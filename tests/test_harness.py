"""Tests for the experiment drivers: slope fits, sweeps, CSV and manifests."""

import dataclasses
import json

import numpy as np
import pytest

from fvi import harness, models
from fvi.cq import compute_weights
from fvi.harness import (ConvergenceReport, converge, export_weights,
                         fit_slope, read_weights, simulate, write_report_csv)
from fvi.tableau import lobatto_iiic


def test_fit_slope_recovers_clean_power_law():
    h = 2.0 ** -np.arange(3, 10)
    err = 3.0 * h ** 2.5
    slope, kept, excluded = fit_slope(h, err)
    assert abs(slope - 2.5) < 1e-12
    assert kept == tuple(range(7))
    assert excluded == ()


def test_fit_slope_floor_guard_excludes_rounding_noise():
    h = 2.0 ** -np.arange(0, 6)
    err = np.array([1e-2, 1e-4, 1e-6, 1e-15, 1e-15, 1e-15])
    slope, kept, excluded = fit_slope(h, err, magnitude=1.0)
    assert excluded == (3, 4, 5)
    assert slope > 5.0


def test_fit_slope_trims_trailing_stagnation():
    h = 2.0 ** -np.arange(0, 8)
    err = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 2.2e-10, 2.0e-10, 2.1e-10])
    slope, kept, excluded = fit_slope(h, err)
    assert excluded == (5, 6, 7)
    assert abs(slope - np.log2(10)) < 0.01


def test_fit_slope_handles_scattered_floor():
    # frozen from a 4-stage coupled-oscillator sweep: the floor samples
    # scatter, and one floor-to-floor step happens to decrease
    h = 30.0 / 2.0 ** np.arange(5, 13)
    err = np.array([3.89e-7, 6.28e-9, 9.67e-11, 2.15e-11, 8.45e-11,
                    1.12e-10, 4.82e-10, 2.01e-9])
    slope, kept, excluded = fit_slope(h, err)
    assert kept == (0, 1, 2)
    assert excluded == (3, 4, 5, 6, 7)
    assert 5.5 < slope < 6.5


def test_fit_slope_needs_three_points_above_floor():
    h = np.array([0.5, 0.25, 0.125])
    err = np.array([1e-3, 1e-16, 1e-16])
    with pytest.raises(ValueError, match="floor"):
        fit_slope(h, err, magnitude=1.0)


def test_fit_slope_rejects_nondecreasing_h():
    with pytest.raises(ValueError, match="decreasing"):
        fit_slope(np.array([0.1, 0.1, 0.05]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="lengths"):
        fit_slope(np.array([0.2, 0.1]), np.array([1.0, 1.0, 1.0]))


def test_converge_second_order_method():
    rep = converge("bagley-torvik", "lobatto2", [8, 16, 32, 64], horizon=1.0)
    assert isinstance(rep, ConvergenceReport)
    assert 1.8 < rep.slope_x < 2.2
    assert 1.8 < rep.slope_p < 2.3
    assert np.all(np.diff(rep.step_sizes) < 0)
    assert rep.err_x.shape == (4,)
    assert rep.error_norm == harness.ERROR_NORM


def test_converge_midcq_reports_positions_only():
    rep = converge("bagley-torvik", "midcq", [16, 32, 64], horizon=1.0)
    assert rep.err_p is None and rep.slope_p is None
    assert 1.7 < rep.slope_x < 2.3


def test_converge_sorts_and_dedupes_steps():
    rep = converge("bagley-torvik", "lobatto2", [64, 8, 16, 8, 32],
                   horizon=1.0)
    assert list(rep.steps) == [8, 16, 32, 64]


def test_converge_annotates_failing_case():
    spec = models.bagley_torvik()
    broken = dataclasses.replace(spec, problem=dataclasses.replace(
        spec.problem, grad_potential=lambda t, x: np.full(x.shape, np.nan)))
    with pytest.raises(RuntimeError, match="N=8.*residual nan"):
        converge(broken, "lobatto2", [8, 16, 32], horizon=1.0)


def test_converge_input_validation():
    with pytest.raises(ValueError, match="3 distinct"):
        converge("bagley-torvik", "lobatto2", [8, 16], horizon=1.0)
    with pytest.raises(ValueError, match="unknown method"):
        converge("bagley-torvik", "lobatto5", [8, 16, 32], horizon=1.0)
    spec = models.with_derivative_order(models.bagley_torvik(), 0.8)
    with pytest.raises(ValueError, match="exact"):
        converge(spec, "lobatto2", [8, 16, 32], horizon=1.0)


def test_report_rejects_bad_shapes():
    with pytest.raises(ValueError, match="at least 3"):
        ConvergenceReport(spec_name="s", method="lobatto2",
                          steps=np.array([2, 4]),
                          step_sizes=np.array([0.5, 0.25]),
                          err_x=np.array([1.0, 0.1]), slope_x=2.0,
                          excluded_x=())
    with pytest.raises(ValueError, match="decreasing"):
        ConvergenceReport(spec_name="s", method="lobatto2",
                          steps=np.array([2, 4, 8]),
                          step_sizes=np.array([0.5, 0.5, 0.25]),
                          err_x=np.array([1.0, 0.1, 0.01]), slope_x=2.0,
                          excluded_x=())


def test_simulate_writes_consistent_files(tmp_path):
    manifest = simulate("coupled-oscillator", "lobatto2", 25, 5.0,
                        out_dir=tmp_path)
    traj = np.loadtxt(tmp_path / manifest["files"]["trajectory"],
                      delimiter=",")
    assert traj.shape == (26, 5)
    spec = models.coupled_oscillator()
    x0, p0 = spec.default_initials
    np.testing.assert_allclose(traj[0], [0.0, *x0, *p0], atol=1e-16)
    energy = np.loadtxt(tmp_path / manifest["files"]["energy"], delimiter=",")
    assert energy.shape == (26, 4)
    assert np.abs(energy[:, 3]).max() < 0.05
    on_disk = json.loads(
        (tmp_path / "coupled-oscillator-lobatto2-N25-manifest.json").read_text())
    assert on_disk == manifest
    assert on_disk["h"] == 0.2
    assert on_disk["derivative_order"] == 1.0
    assert on_disk["error_norm"] == harness.ERROR_NORM
    assert on_disk["newton"]["max_residual"] <= 1e-12
    assert len(on_disk["weights_sha256"]) == 64


def test_simulate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    simulate("bagley-torvik", "lobatto3", 16, 1.0, out_dir=a)
    simulate("bagley-torvik", "lobatto3", 16, 1.0, out_dir=b)
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_order_override_drops_exact_outputs(tmp_path):
    manifest = simulate("bagley-torvik", "midcq", 16, 1.0, out_dir=tmp_path,
                        derivative_order=0.8)
    assert manifest["derivative_order"] == 0.8
    assert "energy" not in manifest["files"]
    assert manifest["max_node_error_x"] is None


def test_export_weights_round_trip(tmp_path):
    path = export_weights("lobatto2", -1.0, 0.1, 16, tmp_path / "w.csv")
    meta, W = read_weights(path)
    seq = compute_weights(lobatto_iiic(2), -1.0, 0.1, 16)
    assert np.abs(W - seq.W).max() <= 1e-15
    assert meta["lambda"] == seq.radius
    assert meta["eps"] == seq.eps
    assert meta["max_imag_residue"] == seq.max_imag_residue
    assert meta["tableau"] == "lobatto_iiic_2"


def test_export_weights_first_derivative_structure(tmp_path):
    h = 0.1
    _, W = read_weights(export_weights("lobatto2", -1.0, h, 64,
                                       tmp_path / "w.csv"))
    np.testing.assert_allclose(h * W[0], [[1, 1], [-1, 1]], atol=1e-10)
    np.testing.assert_allclose(h * W[1], [[0, -2], [0, 0]], atol=1e-10)
    assert np.abs(W[2:]).max() < 1e-8 / h


def test_export_weights_zero_exponent_is_identity(tmp_path):
    _, W = read_weights(export_weights("lobatto3", 0.0, 0.2, 32,
                                       tmp_path / "w.csv"))
    np.testing.assert_allclose(W[0], np.eye(3), atol=1e-10)
    assert np.abs(W[1:]).max() < 1e-8


def test_export_weights_midcq_scalar(tmp_path):
    from fvi.cq import midcq_weights

    path = export_weights("midcq", -0.5, 0.25, 12, tmp_path / "w.csv")
    meta, W = read_weights(path)
    assert W.shape == (13, 1, 1)
    assert np.isnan(meta["lambda"])
    np.testing.assert_allclose(W[:, 0, 0], midcq_weights(-0.5, 0.25, 12).w,
                               atol=1e-15)


def test_report_csv_round_trip(tmp_path):
    rep = converge("bagley-torvik", "lobatto2", [8, 16, 32, 64], horizon=1.0)
    path = write_report_csv(rep, tmp_path / "report.csv")
    data = np.loadtxt(path, delimiter=",")
    assert data.shape == (4, 4)
    np.testing.assert_allclose(data[:, 0], rep.steps)
    np.testing.assert_allclose(data[:, 2], rep.err_x, rtol=1e-15)
    header = path.read_text().splitlines()[0]
    assert header.startswith("#")
    assert f"slope_x={format(rep.slope_x, '.17g')}" in header


def test_run_benchmark_rejects_bad_inputs():
    spec = models.bagley_torvik()
    with pytest.raises(ValueError, match="unknown method"):
        harness.run_benchmark(spec, "rk4", 8)
    with pytest.raises(ValueError, match="horizon must be positive and finite, got -1.0"):
        harness.run_benchmark(spec, "lobatto2", 8, horizon=-1.0)
    with pytest.raises(ValueError, match="horizon must be positive and finite, got nan"):
        harness.run_benchmark(spec, "lobatto2", 8, horizon=float("nan"))
    for n_steps in (8.7, 8.0, 0, -3, float("nan")):
        with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {n_steps!r}"):
            harness.run_benchmark(spec, "lobatto2", n_steps, 1.0)
