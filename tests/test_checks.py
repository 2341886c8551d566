"""Argument rules: one table of bad inputs over the public entry points, and their one owner."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fvi
from fvi import harness, models, stepper
from fvi.cq import StageTrajectory, WeightSequence, compute_weights, midcq_weights
from fvi.galerkin import LagrangianProblem, basis_for, d_all_lagrangian
from fvi.stepper import FviConfig
from fvi.tableau import lobatto_iiic

_BT = models.bagley_torvik()  # d = 1
_OSC = models.damped_oscillator_1d()  # d = 1, alpha = 1/2 and unit mass, as qp_closed_form needs
_TAB = lobatto_iiic(2)
_CFG = FviConfig(h=0.1, N=4)
_NAN, _INF = math.nan, math.inf
_H = [0.0, -0.1, _NAN, _INF, True]  # bad for every step size
_HORIZON = [0.0, -1.0, _NAN, _INF, True]
_N1 = [0, -3, 2.5, 4.0, _NAN, True]  # bad for a step count >= 1
_N0 = [-1, 2.5, 4.0, True]  # bad for a weight count >= 0
_ORDER = [0, 2, 0.0, 2.0, _NAN, True]


def _problem(d=1, **kw):
    return LagrangianProblem(d=d, potential=lambda t, x: 0.0, grad_potential=lambda t, x: x, **kw)


def _weights(exponent=-0.5, h=0.1, contour_points=0):
    return WeightSequence(exponent, h, np.zeros((1, 1, 1)), "midpoint", _NAN, contour_points)


# (entry, call(value, out_dir), argument name, its bad values besides the numpy bool, str
# and None rows that _rows adds, a good value whose str is the str row)
_SCALARS = [
    ("FviConfig-h", lambda v, out: FviConfig(h=v, N=4), "h", _H, 0.1),
    ("FviConfig-N", lambda v, out: FviConfig(h=0.1, N=v), "N", _N1, 4),
    ("qp_closed_form-h", lambda v, out: stepper.qp_closed_form(_OSC.problem, v, [1.0], [0.0]),
     "h", _H, 0.1),
    ("compute_weights-h", lambda v, out: compute_weights(_TAB, -0.5, v, 4), "h", _H, 0.1),
    ("compute_weights-exponent", lambda v, out: compute_weights(_TAB, v, 0.1, 4), "exponent",
     [_NAN, -_INF, False], -0.5),
    ("compute_weights-N", lambda v, out: compute_weights(_TAB, -0.5, 0.1, v), "N", _N0, 4),
    ("midcq_weights-h", lambda v, out: midcq_weights(-0.5, v, 4), "h", _H, 0.1),
    ("midcq_weights-exponent", lambda v, out: midcq_weights(v, 0.1, 4), "exponent",
     [_NAN, -_INF, False], -0.5),
    ("midcq_weights-N", lambda v, out: midcq_weights(-0.5, 0.1, v), "N", _N0, 4),
    ("StageTrajectory-h", lambda v, out: StageTrajectory(np.zeros((1, 2, 1)), v), "h", _H, 0.1),
    ("WeightSequence-h", lambda v, out: _weights(h=v), "h", _H, 0.1),
    ("WeightSequence-exponent", lambda v, out: _weights(exponent=v), "exponent",
     [_NAN, -_INF, False], -0.5),
    ("WeightSequence-contour_points", lambda v, out: _weights(contour_points=v),
     "contour_points", [-3, 2.5, 4.0, _NAN, True], 6),
    ("d_all_lagrangian-h", lambda v, out: d_all_lagrangian(
        _OSC.problem, _TAB, basis_for(_TAB), np.zeros((2, 1)), 0.0, v), "h", _H, 0.1),
    ("LagrangianProblem-d", lambda v, out: _problem(d=v), "state dimension", [0, 2.5, True], 1),
    ("LagrangianProblem-rho", lambda v, out: _problem(rho=v), "rho",
     [-0.1, _NAN, _INF, True], 0.25),
    ("LagrangianProblem-alpha", lambda v, out: _problem(alpha=v), "alpha",
     [0.0, 1.0, _NAN, True], 0.5),
    ("BenchmarkSpec-horizon", lambda v, out: models.BenchmarkSpec(
        _BT.problem, "x", _BT.default_initials, v), "horizon", _HORIZON, 1.0),
    ("with_derivative_order", lambda v, out: models.with_derivative_order(_BT, v),
     "derivative order", _ORDER, 1.0),
    ("run_benchmark-N", lambda v, out: harness.run_benchmark(_BT, "lobatto2", v, 1.0),
     "N", _N1, 8),
    ("run_benchmark-horizon", lambda v, out: harness.run_benchmark(_BT, "lobatto2", 8, v),
     "horizon", _HORIZON, 1.0),
    ("simulate-N", lambda v, out: harness.simulate(_BT, "lobatto2", v, 1.0, out), "N", _N1, 8),
    ("simulate-horizon", lambda v, out: harness.simulate(_BT, "lobatto2", 8, v, out),
     "horizon", _HORIZON, 1.0),
    ("simulate-derivative_order", lambda v, out: harness.simulate(
        _BT, "lobatto2", 8, 1.0, out, derivative_order=v), "derivative order", _ORDER, 1.0),
    ("converge-steps", lambda v, out: harness.converge(_BT, "lobatto2", [v, 16, 32], 1.0),
     "N", _N1, 8),
    ("converge-horizon", lambda v, out: harness.converge(_BT, "lobatto2", [4, 8, 16], v),
     "horizon", _HORIZON, 1.0),
]


# None picks the default of these arguments
_OPTIONAL = {"run_benchmark-horizon", "simulate-horizon", "simulate-derivative_order",
             "converge-horizon"}


def _rows(table):
    for entry, call, name, bads, good in table:
        for bad in [*bads, np.True_, str(good)] + [None] * (entry not in _OPTIONAL):
            yield pytest.param(call, name, bad, id=f"{entry}-{bad!r}")


@pytest.mark.parametrize("call,name,bad", _rows(_SCALARS))
def test_a_bad_scalar_is_named_with_its_value(call, name, bad, tmp_path):
    with pytest.raises(ValueError) as info:
        call(bad, tmp_path)
    message = str(info.value)
    assert message.startswith(f"{name} must ") and message.endswith(f", got {bad!r}"), message
    assert not list(tmp_path.iterdir())


# (entry, call(value), argument name) for a d = 1 state value
_STATES = [
    ("run-x0", lambda v: fvi.run(_OSC.problem, _TAB, _CFG, v, [0.0]), "x0"),
    ("run-p0", lambda v: fvi.run(_OSC.problem, _TAB, _CFG, [1.0], v), "p0"),
    ("qp_closed_form-x_k", lambda v: stepper.qp_closed_form(_OSC.problem, 0.1, v, [0.0]), "x_k"),
    ("qp_closed_form-p_k", lambda v: stepper.qp_closed_form(_OSC.problem, 0.1, [1.0], v), "p_k"),
    ("BenchmarkSpec-x0", lambda v: models.BenchmarkSpec(
        _BT.problem, "x", (v, [0.0]), 1.0), "initial x0"),
    ("BenchmarkSpec-p0", lambda v: models.BenchmarkSpec(
        _BT.problem, "x", ([0.0], v), 1.0), "initial p0"),
    ("solve_companion-y_start", lambda v: stepper.solve_companion(
        _BT.problem, _TAB, _CFG, v, [1.0]), "y_start"),
    ("solve_companion-y_end", lambda v: stepper.solve_companion(
        _BT.problem, _TAB, _CFG, [1.0], v), "y_end"),
]


@pytest.mark.parametrize("call,name,bad", [
    pytest.param(call, name, bad, id=f"{entry}-{bad!r}") for entry, call, name in _STATES
    for bad in ([1.0, 2.0], [_NAN], [_INF], np.True_, "1.0", None)])
def test_a_bad_state_is_named_with_its_values(call, name, bad):
    arr = np.asarray(bad)
    shown = str(arr.astype(float).ravel()) if arr.dtype.kind in "iuf" else repr(bad)
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == (f"{name} must be 1 finite values, got {shown} of shape "
                               f"{np.shape(bad)}; the state dimension is 1")


def test_argument_rules_have_one_owner():
    # a bool guard or a rule's message template outside _checks is a second copy of a rule
    copy = re.compile(r"isinstance\([^)]*\bbool\b|must be positive and finite|"
                      r"must be an integer >=")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(Path(fvi.__file__).parent.glob("*.py"))
             if path.name != "_checks.py"
             for n, line in enumerate(path.read_text().splitlines(), 1) if copy.search(line)]
    assert not found, found


def test_value_types_freeze_through_checks():
    # a .setflags( outside _checks is a value type's own copy-and-freeze instead of
    # _checks.frozen; the one exception is the shared inverse that stepper._integrate freezes
    found = [f"{path.name}: {line.strip()}"
             for path in sorted(Path(fvi.__file__).parent.glob("*.py"))
             if path.name != "_checks.py"
             for line in path.read_text().splitlines() if ".setflags(" in line]
    assert len(found) == 1 and found[0].startswith("stepper.py: Jinv.setflags("), found
    assert "Jinv.setflags(" in inspect.getsource(stepper._integrate)
