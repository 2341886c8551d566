"""Tests for the command line interface and its exit-code contract."""

import subprocess
import sys

import numpy as np
import pytest

from fvi import acceptance, cli
from fvi.harness import read_weights


def test_weights_command_writes_file(tmp_path, capsys):
    code = cli.main(["weights", "--method", "lobatto2",
                     "--derivative-order", "1", "--h", "0.1",
                     "--steps", "8", "--out-dir", str(tmp_path)])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    meta, W = read_weights(printed)
    assert W.shape == (9, 2, 2)
    np.testing.assert_allclose(0.1 * W[0], [[1, 1], [-1, 1]], atol=1e-10)


def test_simulate_resolves_steps_from_h(tmp_path, capsys):
    code = cli.main(["simulate", "--spec", "bagley-torvik", "--h", "0.25",
                     "--horizon", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "bagley-torvik-lobatto2-N4-trajectory.csv").exists()
    assert "max node error x" in capsys.readouterr().out


@pytest.mark.parametrize("h", ["-0.1", "0", "nan", "inf"])
def test_simulate_rejects_bad_h(tmp_path, capsys, h):
    code = cli.main(["simulate", "--spec", "bagley-torvik", "--h", h,
                     "--horizon", "1", "--out-dir", str(tmp_path)])
    assert code == 1
    assert f"--h must be positive and finite, got {float(h)!r}" in \
        capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_removed_options_are_gone():
    parser = cli.build_parser()
    for argv in (["weights", "--lambda-eps", "1e-12"],
                 ["simulate", "--spec", "bagley-torvik", "--steps", "8",
                  "--tol", "1e-9"],
                 ["converge", "--spec", "bagley-torvik", "--steps", "8,16,32",
                  "--tol", "1e-9"]):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)


def test_simulate_requires_steps_or_h(tmp_path, capsys):
    code = cli.main(["simulate", "--spec", "bagley-torvik",
                     "--out-dir", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_simulate_rejects_unknown_spec():
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--spec", "nonexistent", "--steps", "8"])


def test_converge_prints_report_and_writes_csv(tmp_path, capsys):
    code = cli.main(["converge", "--spec", "bagley-torvik",
                     "--method", "lobatto2", "--steps", "8,16,32,64",
                     "--horizon", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "slope_x" in out
    assert (tmp_path / "converge-bagley-torvik-lobatto2.csv").exists()


def test_converge_runtime_error_exits_one(capsys):
    code = cli.main(["converge", "--spec", "bagley-torvik",
                     "--steps", "8,16", "--horizon", "1"])
    assert code == 1
    assert "3 distinct" in capsys.readouterr().err


def test_bad_step_list_is_usage_error():
    with pytest.raises(SystemExit):
        cli.main(["converge", "--spec", "bagley-torvik", "--steps", "a,b"])


def _fake_result(passed):
    return acceptance.CriterionResult(index=1, title="stub", passed=passed,
                                      detail="stub", elapsed=0.0)


def test_verify_exit_codes(monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "run_all",
                        lambda: (_fake_result(True), _fake_result(True)))
    assert cli.main(["verify"]) == 0
    assert "all 2 checks passed" in capsys.readouterr().out

    monkeypatch.setattr(acceptance, "run_all",
                        lambda: (_fake_result(True), _fake_result(False)))
    assert cli.main(["verify"]) == 2
    out = capsys.readouterr().out
    assert "FAIL" in out and "1 of 2 checks failed" in out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "fvi", "weights", "--steps", "4",
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith(".csv")
