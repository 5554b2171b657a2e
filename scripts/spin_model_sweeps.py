#!/usr/bin/env python3
"""Thermal-entanglement and monogamy sweeps for the four spin models.

Generates the sweep configurations behind the temperature / coupling /
anisotropy / field panels and runs them through the cached sweep driver.
Each sweep lands in <out-dir>/<name>.csv; reruns reuse the cache.
"""

import argparse
import os

from qree.cli import parse_count, parse_seed
from qree.entscan import SweepConfig, sweep
from qree.renyi import RenyiParameter
from qree.sepstates import OptimizerOptions

TRAD = [RenyiParameter(a, "trad") for a in (0.7, 1.0, 1.5, 2.0)]
SAND = [RenyiParameter(a, "sand") for a in (0.5, 2.0, 4.0)]

TEMPS = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]


def sweep_specs():
    xyz = {"jx": 0.8, "jy": 0.5}
    for jz in (0.5, 1.0, 1.5):
        yield f"xyz_T_jz{jz}", "xyz", {**xyz, "jz": jz}, "temp", TEMPS
    for t in (0.5, 1.0, 1.5):
        yield f"xyz_jz_T{t}", "xyz", {**xyz, "temp": t}, "jz", [0.2, 0.5, 1.0, 1.5, 2.0]
    for delta in (0.5, 1.0):
        yield f"xxz_T_d{delta}", "xxz", {"j": 1.0, "delta": delta}, "temp", TEMPS
        yield f"xxz_j_d{delta}", "xxz", {"delta": delta, "temp": 1.0}, "j", [0.25, 0.5, 1.0, 1.5, 2.0]
    for t in (0.5, 1.0):
        yield f"xxz_delta_T{t}", "xxz", {"j": 1.0, "temp": t}, "delta", [0.0, 0.5, 1.0, 2.0, 3.0, 4.0]
    for gamma in (0.25, 0.5):
        yield f"xy_T_g{gamma}", "xy", {"j": 1.0, "gamma": gamma}, "temp", TEMPS
        yield f"xy_j_g{gamma}", "xy", {"gamma": gamma, "temp": 1.0}, "j", [0.25, 0.5, 1.0, 1.5, 2.0]
    for t in (0.1, 1.0):
        yield f"xy_gamma_T{t}", "xy", {"j": 1.0, "temp": t}, "gamma", [0.0, 0.25, 0.5, 0.75, 1.0]
    for lam in (0.5, 1.0, 2.0):
        yield f"tfi_T_lam{lam}", "tfi", {"lam": lam}, "temp", TEMPS
    for t in (0.5, 1.0, 1.5):
        yield f"tfi_lam_T{t}", "tfi", {"temp": t}, "lam", [0.0, 0.5, 1.0, 1.5, 2.0]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="model_sweeps")
    ap.add_argument("--cache-dir", default="model_sweeps/.cache")
    ap.add_argument("--workers", type=parse_count, default=1)
    ap.add_argument("--restarts", type=parse_count, default=4)
    ap.add_argument("--max-iters", type=parse_count, default=800)
    ap.add_argument("--seed", type=parse_seed, default=0)
    ap.add_argument("--only", help="run only sweeps whose name contains this")
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    for name, model, fixed, axis, grid in sweep_specs():
        if args.only and args.only not in name:
            continue
        config = SweepConfig(
            model=model, fixed=fixed, sweep_param=axis, grid=grid,
            alphas=TRAD + SAND, seed=args.seed,
            out=os.path.join(args.out_dir, f"{name}.csv"),
            cache_dir=args.cache_dir, workers=args.workers,
            opts=OptimizerOptions(restarts=args.restarts,
                                  max_iters=args.max_iters,
                                  components=16, seed=args.seed))
        rows = sweep(config)
        n_bad = sum(not r.converged for r in rows)
        print(f"{name}: {len(rows)} rows -> {config.out}"
              + (f" ({n_bad} unconverged)" if n_bad else ""))


if __name__ == "__main__":
    main()
