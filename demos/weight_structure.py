#!/usr/bin/env python3
"""Show the structure of the convolution weights.

For the classical first derivative the 2-stage weight sequence collapses to
two nonzero matrices, reproducing the familiar one-step difference stencil;
for genuinely fractional orders every weight is nonzero and the sequence
decays slowly, which is the memory term the integrators carry.  The script
prints both sequences, checks the half-order semigroup property numerically,
and exports the fractional weights as CSV.
"""

import argparse
from pathlib import Path

import numpy as np

from fvi import compute_weights, export_weights, lobatto_iiic
from fvi.oracle import brute_convolve


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=float, default=0.1, help="step size")
    parser.add_argument("--out-dir", default="demo-output")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tab = lobatto_iiic(2)
    h = args.h

    first = compute_weights(tab, -1.0, h, 16)
    print("first derivative, 2-stage method: h*W_0 and h*W_1")
    print(np.round(h * first.W[0], 12))
    print(np.round(h * first.W[1], 12))
    tail = max(np.abs(first.W[n]).max() for n in range(2, 17))
    print(f"largest remaining weight: {tail:.2e} (integer orders are exact)\n")

    half = compute_weights(tab, -0.5, h, 16)
    norms = [np.abs(W).max() for W in half.W]
    print("half derivative: max|W_n| decays slowly (persistent memory)")
    print("  " + "  ".join(f"{v:.3f}" for v in norms[:8]))

    conv = np.stack(brute_convolve(list(half.W), list(half.W)))
    dev = np.abs(conv - first.W).max() / np.abs(first.W).max()
    print(f"semigroup check: (D^1/2 weights)*(D^1/2 weights) vs D^1 weights, "
          f"relative deviation {dev:.2e}\n")

    path = export_weights("lobatto2", -0.5, h, 64, out / "weights-half.csv")
    print(f"exported half-derivative weights: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
