#!/usr/bin/env python3
"""Print every optimizer and oracle result a refactor must keep bit for bit.

Three blocks, each line exact (floats by ``repr``, states by a hash of
their bytes):

- ``zoo``: ``monogamy`` of GHZ, W and star at KL, traditional 0.7 and 1.5,
  sandwiched 0.5 and 3: per cut the path, value, closest-state hash and
  every restart record;
- ``sweep``: the CSV of a small XYZ thermal sweep (two temperatures x two
  parameters) without its walltime_ms column;
- ``oracle``: ``sample_upper_bound`` on GHZ, W and star at every cut and at
  KL, traditional 1.5 and sandwiched 3;

and a last ``totals`` line over the zoo block's descents: how many
descents and restarts ran; the restarts' iterations, objective
evaluations and unconverged count; ``lockstep``, the iterations the
descent batches ran (per zoo point, the most iterations of a restart in
each ``ree_batch`` call, summed).  These counts do not depend on the
hardware, so they compare the optimizer's work across versions.

Run it on two versions of the code and diff the outputs::

    PYTHONPATH=src python scripts/parity_dump.py > after.txt
"""

import argparse
import hashlib
import tempfile

import numpy as np

from qree.cli import parse_count
from qree.entscan import SweepConfig, monogamy, sweep
from qree.qmat import Bipartition, partial_trace, projector
from qree.renyi import RenyiParameter
from qree.sepstates import OptimizerOptions, sample_upper_bound
from qree.statezoo import ghz, star, w

ZOO_PARAMS = (RenyiParameter(1.0), RenyiParameter(0.7, "trad"),
              RenyiParameter(1.5, "trad"), RenyiParameter(0.5, "sand"),
              RenyiParameter(3.0, "sand"))
ORACLE_PARAMS = (RenyiParameter(1.0), RenyiParameter(1.5, "trad"),
                 RenyiParameter(3.0, "sand"))
PAIR_KEEP = {"1:2": (0, 1), "1:3": (0, 2)}
# every seed of the dump: a comparison means something only at one fixed seed
SEED = 1


def state_hash(m: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(m).tobytes()).hexdigest()[:16]


def label(p: RenyiParameter) -> str:
    return f"{p.variant[:4]}{p.alpha:g}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--restarts", type=parse_count, default=3)
    ap.add_argument("--max-iters", type=parse_count, default=500)
    ap.add_argument("--components", type=parse_count, default=16)
    ap.add_argument("--samples", type=parse_count, default=10_000)
    args = ap.parse_args()
    knobs = dict(restarts=args.restarts, max_iters=args.max_iters,
                 components=args.components)
    states = {"ghz": projector(ghz()), "w": projector(w()),
              "star": projector(star())}

    descents, lockstep = [], 0
    for name, rho in states.items():
        for p in ZOO_PARAMS:
            res = monogamy(rho, p, OptimizerOptions(seed=SEED, **knobs))
            # monogamy runs E(1:23) in one ree_batch call, the pair cuts in another
            for batch in ((res.detail_1_23,), (res.detail_1_2, res.detail_1_3)):
                lockstep += max((rec.iterations for r in batch
                                 if r.path == "descent" for rec in r.restarts),
                                default=0)
            print(f"zoo {name} {label(p)} m={res.m!r}")
            for cut, r in (("1:23", res.detail_1_23), ("1:2", res.detail_1_2),
                           ("1:3", res.detail_1_3)):
                if r.path == "descent":
                    descents.append(r)
                print(f"  {cut} {r.path} value={r.value!r} "
                      f"sigma={state_hash(r.closest_state)} "
                      f"converged={r.converged} iterations={r.iterations} "
                      f"evaluations={r.evaluations}")
                for rec in r.restarts:
                    print(f"    {rec}")

    cfg = SweepConfig(model="xyz", fixed={"jx": 0.8, "jy": 0.5, "jz": 1.0},
                      sweep_param="temp", grid=[0.25, 1.0],
                      alphas=[RenyiParameter(1.0), RenyiParameter(3.0, "sand")],
                      opts=OptimizerOptions(seed=SEED, **knobs),
                      seed=SEED)
    with tempfile.TemporaryDirectory() as tmp:
        cfg.out = f"{tmp}/rows.csv"
        sweep(cfg)
        with open(cfg.out, encoding="utf-8") as fh:
            for line in fh.read().splitlines():
                print("sweep " + line.rpartition(",")[0])

    for name, rho in states.items():
        for p in ORACLE_PARAMS:
            for cut in ("1:23", "1:2", "1:3"):
                if cut == "1:23":
                    target, bip = rho, Bipartition(2, 4)
                else:
                    target = partial_trace(rho, [2, 2, 2], PAIR_KEEP[cut])
                    bip = Bipartition(2, 2)
                bound = sample_upper_bound(target, bip, p, args.samples, SEED)
                print(f"oracle {name} {cut} {label(p)} {bound!r}")

    records = [rec for r in descents for rec in r.restarts]
    print(f"totals descents={len(descents)} restarts={len(records)} "
          f"iterations={sum(rec.iterations for rec in records)} "
          f"evaluations={sum(rec.evaluations for rec in records)} "
          f"unconverged={sum(not rec.converged for rec in records)} "
          f"lockstep={lockstep}")


if __name__ == "__main__":
    main()
