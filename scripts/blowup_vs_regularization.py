#!/usr/bin/env python3
"""Steep near-simple wave: gradient catastrophe without the cut-off,
global smooth evolution with it.

Runs the same initial data twice (eps = 0 and eps = 0.1) and prints the
gradient extrema over time.  The unregularized run trips the paired blow-up
monitor early; the regularized run reaches the final time with bounded
invariants and a clean one-sided gradient bound.
"""

import argparse
import sys

import numpy as np

sys.path.insert(0, "src")

from sgnlab.config import parse_config
from sgnlab.diagnostics import oleinik_report
from sgnlab.dynamics import simulate
from sgnlab.scenarios import build_initial


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t-end", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=4400)
    args = ap.parse_args()

    for name in ("steep_eps0", "steep_eps01"):
        cfg = parse_config(f"configs/{name}.cfg", [f"grid.n={args.n}", f"step.t_end={args.t_end}"])
        p = cfg.params
        hist = simulate(build_initial(cfg), p, cfg.grid, cfg.step, blowup=cfg.blowup)
        print(f"\n=== eps = {p.epsilon} ===")
        ser = hist.series
        t = ser["t"]
        for tq in np.arange(0.0, hist.t_final + 1e-9, 0.2):
            i = min(np.searchsorted(t, tq), len(t) - 1)
            print(f"  t={t[i]:5.2f}  min u_x={ser['min_ux'][i]:+9.2f}  "
                  f"max|h_x|={ser['max_abs_hx'][i]:7.2f}  min h={ser['min_h'][i]:.3f}  "
                  f"E={ser['energy'][i]:.4f}")
        if hist.trigger:
            print(f"  -> blow-up monitor fired: {hist.trigger[1]} at t = {hist.trigger[0]:.3f}")
        else:
            rep = oleinik_report(hist)
            print(f"  -> reached t = {hist.t_final:.3f}; fitted Oleinik constant {rep.fitted_C:.2f}")


if __name__ == "__main__":
    main()
