#!/usr/bin/env python3
"""The midpoint scheme and its quadrature weights.

The midpoint variant replaces the stage system by a scalar three-term
recursion on node positions, with the fractional memory handled by scalar
trapezoidal-generating-function weights on piecewise-linear midpoint values.
The script checks those recurrence weights against the generic contour
construction on the midpoint tableau, then confirms second-order accuracy
on both benchmarks.
"""

import argparse

import numpy as np

from fvi import compute_weights, midcq_weights, midpoint
from fvi.harness import converge, format_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, default=0.125)
    args = parser.parse_args()

    h, n = args.h, 32
    scalar = midcq_weights(-0.5, h, n).W[:, 0, 0]
    contour = compute_weights(midpoint(), -0.5, h, n).W[:, 0, 0]
    dev = np.abs(scalar - contour).max()
    print(f"scalar recurrence vs contour weights on the midpoint tableau: "
          f"max deviation {dev:.2e}")
    print("first weights:", " ".join(f"{w:.4f}" for w in scalar[:6]), "\n")

    for name, horizon in (("damped-oscillator-1d", 16.0),
                          ("bagley-torvik", 1.0)):
        rep = converge(name, "midcq", [2 ** k for k in range(4, 10)],
                       horizon=horizon)
        print(format_report(rep))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
