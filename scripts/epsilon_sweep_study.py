#!/usr/bin/env python3
"""Regularization sweep on fixed steep data.

For a decreasing list of epsilons (with epsilon-matched mollification of the
initial data) this prints the successive space-time L2 differences of the
solutions on a fixed box -- the Cauchy behavior behind the vanishing-
regularization limit -- together with the per-run energy drop, the fitted
one-sided gradient constants and the L^{2+alpha} box norms, which stay
comparable across the sweep.
"""

import argparse
import sys

sys.path.insert(0, "src")

from sgnlab.config import parse_config
from sgnlab.diagnostics import lp_box_norm
from sgnlab.scenarios import epsilon_sweep


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilons", default="0.2,0.1,0.05")
    ap.add_argument("--alpha", type=float, default=0.5)
    args = ap.parse_args()
    epsilons = [float(tok) for tok in args.epsilons.split(",")]

    cfg = parse_config("configs/steep_sweep.cfg")
    result = epsilon_sweep(cfg, epsilons)

    print("run summary:")
    for eps, art in zip(result.epsilons, result.artifacts):
        e = art.history.series["energy"]
        c = art.reports["oleinik"].fitted_C
        lp = lp_box_norm(art.history, args.alpha, cfg.box)
        print(f"  eps={eps:5g}  E0={e[0]:8.4f}  dE={e[-1] - e[0]:+9.5f}  "
              f"fitted_C={c:6.3f}  L^{2 + args.alpha:g} box norm={lp:9.3f}  "
              f"[{art.history.status}]")
    print("\nsuccessive differences on the box:")
    for row in result.table:
        print(f"  |({row['eps_coarse']:g}) - ({row['eps_fine']:g})|:  "
              f"h: {row['dh_l2']:.4e}   u: {row['du_l2']:.4e}")


if __name__ == "__main__":
    main()
