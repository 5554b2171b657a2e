#!/usr/bin/env python3
"""Print every optimizer and oracle result a refactor must keep bit for bit.

Four blocks, each line exact (floats by ``repr``, states by a hash of
their bytes):

- ``zoo``: ``monogamy`` of GHZ, W and star at KL, traditional 0.7 and 1.5,
  sandwiched 0.5 and 3: per cut the path, value, closest-state hash and
  every restart record;
- ``sweep``: the CSV of a small XYZ thermal sweep (two temperatures x two
  parameters) without its walltime_ms column;
- ``oracle``: ``sample_upper_bound`` on GHZ, W and star at every cut and at
  KL, traditional 1.5 and sandwiched 3;
- ``accuracy``: library ``ree`` (the descent) minus the ``xstate``
  solver (``xstate.ree_batch``) on the pairs of W, star and the TFI
  thermal states of acceptance criterion 13 that are X-states and not
  PPT, at the zoo parameters: the count, the smallest, median and largest
  difference, how many converged descents sit more than 1e-6 above, how
  many solves stop short of their certificate (``monogamy`` descends those
  pairs), and the Newton iterations of the ``xstate`` solves, summed;

and a last ``totals`` line over the library descents ``sepstates.ree``
runs on the zoo states, which always descend: per zoo point, E(1:23) as
one call and the two pairs as one ``ree_batch`` call.  It counts how many
descents and restarts ran; the restarts' iterations, objective
evaluations and unconverged count; ``lockstep``, the iterations the
descent batches ran (per call, the most iterations of a restart, summed).
These counts do not depend on the hardware, so they compare the
optimizer's work across versions.

Run it on two versions of the code and diff the outputs::

    PYTHONPATH=src python scripts/parity_dump.py > after.txt
"""

import argparse
import hashlib
import tempfile

import numpy as np

from qree import xstate
from qree.cli import parse_count
from qree.entscan import CUT_PAIR, SweepConfig, exact_batch, monogamy, sweep
from qree.qmat import Bipartition, partial_trace, projector
from qree.renyi import RenyiParameter
from qree.sepstates import OptimizerOptions, ree, ree_batch, sample_upper_bound
from qree.spinchain import ModelParams, hamiltonian, thermal_state
from qree.statezoo import ghz, star, w

ZOO_PARAMS = (RenyiParameter(1.0), RenyiParameter(0.7, "trad"),
              RenyiParameter(1.5, "trad"), RenyiParameter(0.5, "sand"),
              RenyiParameter(3.0, "sand"))
ORACLE_PARAMS = (RenyiParameter(1.0), RenyiParameter(1.5, "trad"),
                 RenyiParameter(3.0, "sand"))
PAIR_KEEP = {"1:2": (0, 1), "1:3": (0, 2)}
# the TFI chains and temperatures of acceptance criterion 13
TFI_LAMS = (0.5, 2.0)
TFI_TEMPS = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 3.0)
# a converged descent this far above the xstate value counts as stuck
ACCURACY_FLAG = 1e-6
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

    opts = OptimizerOptions(seed=SEED, **knobs)
    for name, rho in states.items():
        for p in ZOO_PARAMS:
            res = monogamy(rho, p, opts)
            print(f"zoo {name} {label(p)} m={res.m!r}")
            for cut, r in (("1:23", res.detail_1_23), ("1:2", res.detail_1_2),
                           ("1:3", res.detail_1_3)):
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

    pairs = [partial_trace(rho, [2, 2, 2], keep) for rho in states.values()
             if rho is not states["ghz"] for keep in PAIR_KEEP.values()]
    for lam in TFI_LAMS:
        h = hamiltonian(ModelParams.tfi(lam))
        pairs += [partial_trace(thermal_state(h, temp).rho, [2, 2, 2], keep)
                  for temp in TFI_TEMPS for keep in PAIR_KEEP.values()]
    diffs, stuck, uncertified, newton = [], 0, 0, 0
    for p in ZOO_PARAMS:
        for rho in pairs:
            [x] = exact_batch([rho], CUT_PAIR, p)
            if x is None:
                # not an X-state, or a solve short of its certificate
                x = xstate.ree_batch([rho], p)[0]
            if x is None or x.path != "xstate":
                continue
            uncertified += not x.converged
            newton += x.iterations
            r = ree(rho, CUT_PAIR, p, opts)
            diffs.append(r.value - x.value)
            stuck += r.converged and r.value - x.value > ACCURACY_FLAG
    diffs.sort()
    print(f"accuracy pairs={len(diffs)} min={diffs[0]!r} "
          f"median={float(np.median(diffs))!r} max={diffs[-1]!r} "
          f"converged_above_{ACCURACY_FLAG:g}={stuck} uncertified={uncertified} "
          f"xstate_iterations={newton}")

    descents, lockstep = [], 0
    for rho in states.values():
        pair_jobs = [(partial_trace(rho, [2, 2, 2], keep), SEED)
                     for keep in PAIR_KEEP.values()]
        for p in ZOO_PARAMS:
            for batch in ([ree(rho, Bipartition(2, 4), p, opts)],
                          ree_batch(pair_jobs, CUT_PAIR, p, opts)):
                descents += batch
                lockstep += max(rec.iterations for r in batch for rec in r.restarts)
    records = [rec for r in descents for rec in r.restarts]
    print(f"totals descents={len(descents)} restarts={len(records)} "
          f"iterations={sum(rec.iterations for rec in records)} "
          f"evaluations={sum(rec.evaluations for rec in records)} "
          f"unconverged={sum(not rec.converged for rec in records)} "
          f"lockstep={lockstep}")


if __name__ == "__main__":
    main()
