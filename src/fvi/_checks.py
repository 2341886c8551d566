"""The argument rules of fvi, each raising a ValueError that names the argument and its value.
A number is a Python or numpy real or a 0-d real array: not a bool (numpy's too), str or None.
The fourth rule, frozen, is how a value type keeps its arrays: as read-only copies of its own,
so no field aliases a caller's array."""

import math
import numbers

import numpy as np


def real(name, value, low=-math.inf, high=math.inf, closed=False):
    """value as a float if it is a finite number > low (>= if closed), < high; low: 0 or -inf."""
    if (value.ndim == 0 and value.dtype.kind in "iuf" if isinstance(value, np.ndarray)
            else isinstance(value, numbers.Real) and not isinstance(value, bool)):
        if math.isfinite(value) and (low <= value if closed else low < value) and value < high:
            return float(value)
    rule = (f"lie in ({low:g}, {high:g})" if high < math.inf else "be finite" if low == -math.inf
            else f"be finite and >= {low:g}" if closed else "be positive and finite")
    raise ValueError(f"{name} must {rule}, got {value!r}")


def integer(name, value, least):
    """value as an int if it is an integer >= least and not a bool."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def state(name, value, d):
    """value as a new read-only array of d finite floats, from numbers only."""
    arr = np.asarray(value)
    got = arr.astype(float).ravel() if arr.dtype.kind in "iuf" else repr(value)
    if isinstance(got, str) or got.size != d or not np.isfinite(got).all():
        raise ValueError(f"{name} must be {d} finite values, got {got} of shape "
                         f"{np.shape(value)}; the state dimension is {d}")
    got.setflags(write=False)
    return got


def frozen(obj, dtype=float, **arrays):
    """Set each named field of the frozen dataclass obj to a read-only copy of its value."""
    for name, value in arrays.items():
        arr = np.array(value, dtype=dtype)
        arr.setflags(write=False)
        object.__setattr__(obj, name, arr)
