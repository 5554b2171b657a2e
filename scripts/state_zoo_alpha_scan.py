#!/usr/bin/env python3
"""Entanglement and monogamy of GHZ / W / star versus the Renyi parameter.

Sweeps alpha over both divergence variants for the three canonical states
and writes one CSV per state with columns
    alpha,variant,e_1_23,e_1_2,e_1_3,m
(the inputs behind the monogamy-versus-alpha panels).
"""

import argparse
import os

import numpy as np

from qree.cli import parse_count, parse_seed
from qree.entscan import monogamy
from qree.qmat import projector
from qree.renyi import RenyiParameter
from qree.sepstates import OptimizerOptions
from qree.statezoo import ghz, star, w


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="zoo_scan")
    ap.add_argument("--restarts", type=parse_count, default=8)
    ap.add_argument("--max-iters", type=parse_count, default=1500)
    ap.add_argument("--seed", type=parse_seed, default=0)
    ap.add_argument("--points", type=parse_count, default=9,
                    help="alpha points per variant")
    args = ap.parse_args()

    opts = OptimizerOptions(restarts=args.restarts, max_iters=args.max_iters,
                            components=16, seed=args.seed)
    grids = {
        "traditional": np.linspace(0.2, 2.0, args.points),
        "sandwiched": np.geomspace(0.5, 8.0, args.points),
    }
    states = {"ghz": ghz(), "w": w(), "star": star()}
    os.makedirs(args.out_dir, exist_ok=True)
    for name, vec in states.items():
        rho = projector(vec)
        path = os.path.join(args.out_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("alpha,variant,e_1_23,e_1_2,e_1_3,m\n")
            for variant, grid in grids.items():
                for alpha in grid:
                    res = monogamy(rho, RenyiParameter(float(alpha), variant), opts)
                    fh.write(f"{alpha:.9g},{variant},{res.e_1_23:.9g},"
                             f"{res.e_1_2:.9g},{res.e_1_3:.9g},{res.m:.9g}\n")
                    print(f"{name} {variant} alpha={alpha:.3f}: M={res.m:+.5f}")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
