"""Tests for the experiment drivers: slope fits, sweeps, CSV and manifests."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fvi import cq, harness, models
from fvi.cq import _LRU, compute_weights, midcq_weights
from fvi.harness import (ConvergenceReport, converge, export_weights,
                         fit_slope, read_weights, simulate, write_report_csv)
from fvi.stepper import _run_weights
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
    assert f"(error: {harness.ERROR_NORM})" in harness.format_report(rep)


def test_converge_midcq_reports_momenta():
    rep = converge("bagley-torvik", "midcq", [16, 32, 64], horizon=1.0)
    assert rep.err_p.shape == (3,)
    assert 1.7 < rep.slope_x < 2.3
    assert 1.7 < rep.slope_p < 2.3


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


def test_converge_rejects_non_integer_step_counts():
    # the same rule and message as FviConfig; 8.7 used to run as N = 8
    for bad in (8.7, 0, -3, float("nan")):
        with pytest.raises(ValueError, match=f"N must be an integer >= 1, got {bad!r}"):
            converge("bagley-torvik", "lobatto2", [bad, 16, 32], horizon=1.0)
    rep = converge("bagley-torvik", "lobatto2", [np.int64(8), 16, 32],
                   horizon=1.0)
    assert list(rep.steps) == [8, 16, 32]


def test_converge_rejects_a_bad_horizon_before_the_sweep():
    # a nan horizon used to surface as the first case's RuntimeError at N=4
    # horizon=True used to run to t = 1
    for bad in (float("nan"), 0.0, -1.0, True):
        with pytest.raises(ValueError, match=f"horizon must be positive and finite, got {bad!r}"):
            converge("coupled-oscillator", "lobatto2", [4, 8, 16], horizon=bad)


def test_converge_input_validation():
    with pytest.raises(ValueError, match="3 distinct"):
        converge("bagley-torvik", "lobatto2", [8, 16], horizon=1.0)
    with pytest.raises(ValueError, match="unknown method"):
        converge("bagley-torvik", "lobatto5", [8, 16, 32], horizon=1.0)
    spec = models.with_derivative_order(models.bagley_torvik(), 0.8)
    with pytest.raises(ValueError, match="exact"):
        converge(spec, "lobatto2", [8, 16, 32], horizon=1.0)


def test_report_copies_the_callers_arrays():
    # the frozen copies belong to the report; the caller's arrays stay writeable
    steps, hs = np.array([2, 4, 8]), np.array([0.5, 0.25, 0.125])
    err_x, err_p = np.array([1.0, 0.1, 0.01]), np.array([2.0, 0.2, 0.02])
    report = ConvergenceReport(spec_name="s", method="lobatto2", steps=steps, step_sizes=hs,
                               err_x=err_x, slope_x=2.0, excluded_x=(), err_p=err_p,
                               slope_p=2.0, excluded_p=())
    for arr in (steps, hs, err_x, err_p):
        assert arr.flags.writeable
        arr[0] = 7
    assert report.steps.tolist() == [2, 4, 8] and report.steps.dtype.kind == "i"
    assert report.step_sizes[0] == 0.5 and report.err_x[0] == 1.0 and report.err_p[0] == 2.0
    for arr in (report.steps, report.step_sizes, report.err_x, report.err_p):
        assert not arr.flags.writeable


def test_report_rejects_bad_shapes():
    def report(steps, step_sizes, err_x, err_p):
        return ConvergenceReport(spec_name="s", method="lobatto2",
                                 steps=np.array(steps),
                                 step_sizes=np.array(step_sizes),
                                 err_x=np.array(err_x), slope_x=2.0,
                                 excluded_x=(), err_p=np.array(err_p),
                                 slope_p=2.0, excluded_p=())

    with pytest.raises(ValueError, match="at least 3"):
        report([2, 4], [0.5, 0.25], [1.0, 0.1], [1.0, 0.1])
    with pytest.raises(ValueError, match="decreasing"):
        report([2, 4, 8], [0.5, 0.5, 0.25], [1.0, 0.1, 0.01], [1.0, 0.1, 0.01])
    with pytest.raises(ValueError, match="lengths differ"):
        report([2, 4, 8], [0.5, 0.25, 0.125], [1.0, 0.1, 0.01], [1.0, 0.1])
    report([2, 4, 8], [0.5, 0.25, 0.125], [1.0, 0.1, 0.01], [1.0, 0.1, 0.01])


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


@pytest.mark.parametrize("spec, method", [("bagley-torvik", "lobatto3"),
                                          ("damped-oscillator-1d", "midcq")])
def test_manifest_digest_is_the_sha256_of_the_run_weights(tmp_path, spec, method):
    manifest = simulate(spec, method, 64, out_dir=tmp_path)
    seq = _run_weights(harness._tableau_for(method), -manifest["derivative_order"],
                       manifest["h"], 64)
    assert manifest["weights_sha256"] == hashlib.sha256(seq.W.tobytes()).hexdigest()


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="no built-in SHA-256 module: hashlib is the digest")
def test_simulate_does_not_load_openssl(tmp_path):
    # a fresh interpreter, so no other test has imported hashlib first
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, fvi\n"
            f"fvi.harness.simulate('bagley-torvik', 'lobatto2', 16, out_dir={str(tmp_path)!r})\n"
            "print('_hashlib' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    assert (tmp_path / "bagley-torvik-lobatto2-N16-manifest.json").exists()


def test_simulate_order_override_drops_exact_outputs(tmp_path):
    manifest = simulate("bagley-torvik", "midcq", 16, 1.0, out_dir=tmp_path,
                        derivative_order=0.8)
    assert manifest["derivative_order"] == 0.8
    assert "energy" not in manifest["files"]
    assert manifest["max_node_error_x"] is None


def test_export_weights_round_trip(tmp_path, monkeypatch):
    path = export_weights("lobatto2", -1.0, 0.1, 16, tmp_path / "w.csv")
    meta, W = read_weights(path)
    seq = compute_weights(lobatto_iiic(2), -1.0, 0.1, 16)
    assert np.abs(W - seq.W).max() <= 1e-15
    assert meta["lambda"] == seq.radius
    assert meta["eps"] == seq.eps
    assert meta["max_imag_residue"] == seq.max_imag_residue
    assert meta["tableau"] == "lobatto_iiic_2"
    # the header names the computation: method, exponent, h and contour
    # points, 0 for the hyperbolae and for midcq; compute_weights with its
    # exponent and h, or midcq_weights for midcq, gives any export back, and
    # an empty weight cache makes that table a recomputation
    for method, exponent, h, n, points in (("lobatto3", -0.5, 0.1, 12, 26),
                                           ("lobatto3", -0.5, 0.1, 16, 0),
                                           ("lobatto3", -0.5, 0.1, 64, 0),
                                           ("lobatto3", 0.75, 0.1, 64, 130),
                                           ("midcq", -0.5, 0.25, 12, 0)):
        meta, W = read_weights(export_weights(method, exponent, h, n, tmp_path / "w.csv"))
        M = int(meta["contour_points"])
        monkeypatch.setattr(cq, "_cache", _LRU(1))
        assert meta["method"] == method and M == points
        assert np.isnan(meta["lambda"]) == np.isnan(meta["eps"]) == (M == 0)
        if method == "midcq":
            again = midcq_weights(meta["exponent"], meta["h"], W.shape[0] - 1)
        else:
            again = compute_weights(harness._tableau_for(meta["method"]), meta["exponent"],
                                    meta["h"], W.shape[0] - 1)
        assert np.array_equal(W, again.W)


def _per_row_lines(path, header, rows):
    """The writer the block writer replaced: one format and one string per row."""
    rows = [tuple(row) for row in rows]
    fmt = ",".join(["%.17g"] * len(rows[0])) if rows else ""
    path.write_text("\n".join([header] + [fmt % row for row in rows]) + "\n")


@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_block_writer_matches_the_per_row_writer(tmp_path, blocks, extra):
    n_rows = blocks * harness._BLOCK_ROWS + extra
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308,
               -3.0, 1e16, 2.0 ** 53 + 2, 0.1, 1.0 / 3.0]
    rng = np.random.default_rng(n_rows)
    table = np.column_stack([
        np.arange(n_rows, dtype=float),  # integer-valued, written as integers
        np.resize(special, n_rows),
        rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)])
    harness._write_lines(tmp_path / "new.csv", "# a,b,c", table)
    _per_row_lines(tmp_path / "old.csv", "# a,b,c", table.tolist())
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("exponent", [-0.5, -1.0, 0.5, -0.75])
@pytest.mark.parametrize("method", harness.METHOD_NAMES)
def test_streamed_export_matches_the_whole_table_formula(tmp_path, method, exponent):
    # a block is 1024 weights at r = 2 and 256 at r = 4; N + 1 weights are written
    for n in (0, 255, 256, 257, 1023, 1024, 5000):
        new = export_weights(method, exponent, 0.01, n, tmp_path / "new.csv")
        W = _run_weights(harness._tableau_for(method), exponent, 0.01, n).W
        header = new.read_text().split("\n", 1)[0]
        _per_row_lines(tmp_path / "old.csv", header,
                       np.column_stack([*np.indices(W.shape).reshape(3, -1), W.ravel()]))
        assert new.read_bytes() == (tmp_path / "old.csv").read_bytes(), n


def test_read_weights_takes_many_blocks_and_one_row(tmp_path):
    path = tmp_path / "w.csv"
    # 1001 weights of 3 x 3 entries are 9009 rows, more than two blocks
    _, W = read_weights(export_weights("lobatto3", -0.5, 0.01, 1000, path))
    assert 9 * 1001 > 2 * harness._BLOCK_ROWS
    assert np.array_equal(W, compute_weights(lobatto_iiic(3), -0.5, 0.01, 1000).W)
    meta, W = read_weights(export_weights("midcq", -0.5, 0.1, 0, path))
    assert W.shape == (1, 1, 1) and meta["method"] == "midcq"
    assert np.array_equal(W, midcq_weights(-0.5, 0.1, 0).W)


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
    path = export_weights("midcq", -0.5, 0.25, 12, tmp_path / "w.csv")
    meta, W = read_weights(path)
    assert W.shape == (13, 1, 1)
    assert meta["tableau"] == "midpoint"
    assert np.isnan(meta["lambda"]) and np.isnan(meta["eps"])
    assert meta["max_imag_residue"] == 0.0
    np.testing.assert_allclose(W, midcq_weights(-0.5, 0.25, 12).W, atol=1e-15)


@pytest.mark.parametrize("method", ["lobatto2", "midcq"])
def test_export_weights_rejects_non_integer_count(tmp_path, method):
    path = tmp_path / "w.csv"
    with pytest.raises(ValueError, match="N must be an integer >= 0, got 8.7"):
        export_weights(method, -0.5, 0.1, 8.7, path)
    assert not path.exists()
    _, W = read_weights(export_weights(method, -0.5, 0.1, np.int64(8), path))
    assert W.shape[0] == 9


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


def test_node_errors_report_a_non_finite_node():
    spec = models.damped_oscillator_1d()
    sol = harness.run_benchmark(spec, "lobatto2", 16)
    momenta = np.array(sol.momenta)
    momenta[3] = np.nan
    err_x, err_p = harness.node_errors(spec, dataclasses.replace(sol, momenta=momenta))
    assert np.isfinite(err_x) and np.isnan(err_p)


@pytest.mark.parametrize("h,err,message", [
    ([1.0, 0.5, 0.25, 0.125], [1.0, np.inf, 0.1, 0.01], "err[1] must be finite, got inf"),
    ([1.0, 0.5, 0.25, 0.125], [1.0, 0.3, np.nan, 0.01], "err[2] must be finite, got nan"),
    ([1.0, np.nan, 0.25, 0.125], [1.0, 0.3, 0.1, 0.01],
     "h[1] must be positive and finite, got nan"),
    ([1.0, 0.5, -0.25, -0.5], [1.0, 0.3, 0.1, 0.01],
     "h[2] must be positive and finite, got -0.25"),
    ([1.0, 0.5, 0.0, -0.5], [1.0, 0.3, 0.1, 0.01],
     "h[2] must be positive and finite, got 0.0"),
], ids=["inf-err", "nan-err", "nan-h", "negative-h", "zero-h"])
def test_fit_slope_rejects_a_non_finite_point_by_its_index(h, err, message):
    # an inf error used to give slope nan, a nan one was dropped as a floor point,
    # and a nan or negative h ended in LinAlgError from the SVD
    with pytest.raises(ValueError) as info:
        fit_slope(h, err)
    assert str(info.value) == message
    # zero and sub-floor errors are still floor points
    assert fit_slope([1.0, 0.5, 0.25, 0.125, 0.0625],
                     [1.0, 0.25, 0.0625, 1e-17, 0.0])[2] == (3, 4)


def test_converge_reads_a_generator_of_step_counts_once():
    listed = converge("bagley-torvik", "lobatto2", [8, 16, 32, 64], horizon=1.0)
    generated = converge("bagley-torvik", "lobatto2", (n for n in [8, 16, 32, 64]),
                         horizon=1.0)
    for field in dataclasses.fields(ConvergenceReport):
        assert np.array_equal(getattr(generated, field.name), getattr(listed, field.name))
