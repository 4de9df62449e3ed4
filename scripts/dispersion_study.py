#!/usr/bin/env python3
"""Measured vs predicted phase speeds across resolved wavenumbers.

Seeds small right-moving sinusoids, measures the drift of each Fourier
phase, and compares against
omega^2 = g hbar k^2 (1 + gamma k^2/g) / (1 + hbar^2 k^2/3).
At Bond number g hbar^2/gamma = 3 every mode moves at sqrt(g hbar).
"""

import argparse
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sgnlab import FlowState, Grid, Params
from sgnlab.diagnostics import bond_number, dispersion_report
from sgnlab.dynamics import StepControl, simulate


def measure(gamma, ks):
    p = Params(g=9.81, gamma=gamma, hbar=1.0)
    grid = Grid.from_length(512, 4 * np.pi, 0.0, "periodic")
    x = grid.cells()
    a = 1e-4
    h = 1.0 + a * sum(np.sin(k * x) for k in ks)
    u = a * math.sqrt(p.g) * sum(np.sin(k * x) for k in ks)
    hist = simulate(FlowState(h, u, 0.0), p, grid,
                    StepControl(cfl=0.3, dt_max=0.02, t_end=3.0, output_dt=0.1))
    print(f"gamma = {gamma:g}  (Bond number {bond_number(p):.3f})")
    for row in dispersion_report(hist, ks).modes:
        measured = "n/a" if row["measured"] is None else f"{row['measured']:.5f}"
        rel = "n/a" if row["rel_err"] is None else f"{row['rel_err']:.2%}"
        print(f"  k={row['k']:4g}: measured {measured}  predicted {row['predicted']:.5f}  "
              f"rel err {rel}  [{row['status']}]")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    args = ap.parse_args()
    measure(args.gamma, (0.5, 1.0, 2.0))
    measure(9.81 / 3.0, (1.0, 2.0, 4.0))


if __name__ == "__main__":
    main()
