#!/usr/bin/env python3
"""Energy behaviour of the damped and undamped oscillator.

The damping term removes energy monotonically on average; the integrator
tracks the exact energy of the coupled oscillator to a few parts in a
thousand at a coarse step size while the energy itself falls by two orders.
With the damping coefficient set to zero the same scheme conserves energy
up to a bounded ripple with no secular drift, which is the variational
structure showing through.
"""

import argparse
import dataclasses
from pathlib import Path

import numpy as np

from fvi import FviConfig, by_name, energy, lobatto_iiic, run
from fvi.harness import simulate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo-output")
    parser.add_argument("--plot", action="store_true",
                        help="write the energy plot (needs matplotlib)")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = simulate("coupled-oscillator", "lobatto2", 100, 20.0,
                        out_dir=out)
    energy_csv = out / manifest["files"]["energy"]
    data = np.loadtxt(energy_csv, delimiter=",")
    t, e_num, e_err = data[:, 0], data[:, 1], data[:, 3]
    print(f"damped run: E(0) = {e_num[0]:.4f}, E(T) = {e_num[-1]:.4f} "
          f"({100 * (1 - e_num[-1] / e_num[0]):.1f}% decay)")
    print(f"max relative energy error vs exact: {np.abs(e_err).max():.2e}")
    print(f"energy table: {energy_csv}")

    spec = by_name("coupled-oscillator")
    conservative = dataclasses.replace(spec.problem, rho=0.0,
                                       exact_solution=None)
    x0, p0 = spec.default_initials
    sol = run(conservative, lobatto_iiic(2), FviConfig(h=0.2, N=100), x0, p0)
    e_free = energy(conservative, sol.node_positions, sol.momenta)
    e0 = energy(conservative, x0, p0)
    drift = np.abs(e_free - e0) / e0
    print(f"\nundamped run: relative energy ripple stays below "
          f"{drift.max():.2e} over the same horizon (no secular drift)")

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not available; skipping the plot")
            return 0
        e_exact = data[:, 2]
        fig, ax = plt.subplots(figsize=(7, 4))
        ax.plot(t, e_num, label="integrator")
        ax.plot(t, e_exact, "--", label="exact")
        ax.plot(sol.times, e_free, ":", label="undamped variant")
        ax.set_xlabel("t")
        ax.set_ylabel("energy")
        ax.legend()
        fig.tight_layout()
        fig.savefig(out / "energy.png", dpi=150)
        print(f"plot: {out / 'energy.png'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
