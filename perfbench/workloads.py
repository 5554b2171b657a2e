"""The three benchmark workloads: inputs, one request each, and the checks.

Every workload is a closed loop with one caller: request ``i + 1`` is sent
only after request ``i`` has returned.  Inputs are fixed states; the seed
given on the command line determines every optimizer, sweep and sampling
seed, so one seed always yields the same work.

- ``zoo-monogamy``: ``entscan.monogamy`` on GHZ, W and star at five Renyi
  parameters.  Pure states push the descent to rank-deficient optima and
  the 2x4 cut dominates.  Bypasses the sweep pool and ``spinchain``.
- ``thermal-sweep``: ``entscan.sweep`` at ``workers=2`` over four spin
  chains, three temperatures and three parameters, with a fresh cache and
  an output CSV, then a cached rerun that must reproduce the CSV bytes.
  BENCHMARK.json leaves it out: with two threads on a shared two-core
  host its throughput spread 0.2 across ten seeds.  It runs by hand, and
  its XYZ slice runs in the traced run (``layers.py``).
- ``oracle-audit``: ``sepstates.sample_upper_bound`` with 10^4 samples per
  call on the zoo states and their pair reductions: the divergence layer
  in batch rather than inside a descent.

Checks run outside the timed calls.  A request that raises or fails a
check counts as failed; an ``ree`` that stops at its iteration cap is not
a failure but is counted in ``unconverged``.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from qree import entscan, qmat, renyi, sepstates, spinchain, statezoo
from qree.qmat import Bipartition
from qree.renyi import RenyiParameter
from qree.sepstates import OptimizerOptions

CUT_1_23 = Bipartition(2, 4)
CUT_PAIR = Bipartition(2, 2)
PAIR_KEEP = {"1:2": (0, 1), "1:3": (0, 2)}

# the acceptance suite's sweep settings
SWEEP_OPTS = dict(restarts=3, max_iters=500, components=16)
ZOO_PARAMS = (RenyiParameter(1.0), RenyiParameter(0.7, "trad"),
              RenyiParameter(1.5, "trad"), RenyiParameter(0.5, "sand"),
              RenyiParameter(3.0, "sand"))
SWEEP_PARAMS = (RenyiParameter(1.0), RenyiParameter(1.5, "trad"),
                RenyiParameter(3.0, "sand"))
THERMAL_MODELS = (("xyz", {"jx": 0.8, "jy": 0.5, "jz": 1.0}),
                  ("xxz", {"j": 1.0, "delta": 0.5}),
                  ("xy", {"j": 1.0, "gamma": 0.5}),
                  ("tfi", {"lam": 1.0}))
THERMAL_TEMPS = (0.25, 1.0, 2.5)
ORACLE_SAMPLES = 10_000

NONNEG_TOL = 1e-9
PURE_TOL = 5e-4       # |E(1:23) - oracle| for pure states, as in criterion c02
GHZ_PAIR_TOL = 1e-4   # GHZ pair REEs, as in criterion c01
M_TOL = 1e-12
DEPHASED_TOL = 1e-9


def derive_seed(seed: int, *keys) -> int:
    """A 31-bit seed determined by the workload seed and ``keys``."""
    blob = repr((int(seed),) + keys).encode()
    return int.from_bytes(hashlib.blake2b(blob, digest_size=4).digest(),
                          "little") & 0x7FFFFFFF


def zoo_states() -> dict[str, np.ndarray]:
    return {"ghz": qmat.projector(statezoo.ghz()),
            "w": qmat.projector(statezoo.w()),
            "star": qmat.projector(statezoo.star())}


def reference_values() -> dict[tuple[str, str, str], float]:
    """Exact REE values keyed by (state, cut, parameter label).

    GHZ has equal Schmidt weights across 1:23, so its REE is ln 2 at
    every alpha; its pair reductions are separable.  For pure states the
    KL value across 1:23 is the Schmidt entropy.  Other parameters have no
    closed form here.
    """
    refs: dict[tuple[str, str, str], float] = {}
    for p in set(ZOO_PARAMS) | set(SWEEP_PARAMS):
        refs[("ghz", "1:23", label(p))] = math.log(2)
        refs[("ghz", "1:2", label(p))] = 0.0
        refs[("ghz", "1:3", label(p))] = 0.0
    kl = label(RenyiParameter(1.0))
    refs[("w", "1:23", kl)] = sepstates.schmidt_entropy(statezoo.w(), CUT_1_23)
    refs[("star", "1:23", kl)] = sepstates.schmidt_entropy(statezoo.star(),
                                                           CUT_1_23)
    return refs


def label(p: RenyiParameter) -> str:
    if p.is_kl:
        return "kl"
    return f"{'trad' if p.variant == renyi.TRADITIONAL else 'sand'}{p.alpha:g}"


@dataclass
class Tally:
    """What a run of requests did, for the end-to-end metrics."""

    attempted: int = 0
    failed: int = 0
    points: int = 0
    samples: int = 0
    busy_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    unconverged_points: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        if not ok and len(self.problems) < 20:
            self.problems.append(what)
        return ok

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


class Workload:
    """``run(i)`` performs request ``i`` and returns what it produced with
    its timings; ``score`` checks that outcome and adds it to a tally.  The
    two are separate so a traced run can trace the first alone."""

    name = ""

    def __init__(self, seed: int, refs=None):
        self.seed = seed
        self.refs = reference_values() if refs is None else refs

    def run(self, i: int):
        raise NotImplementedError

    def score(self, outcome, tally: Tally) -> None:
        raise NotImplementedError


class ZooMonogamy(Workload):
    name = "zoo-monogamy"

    def __init__(self, seed: int, refs=None, opts: dict | None = None,
                 params=ZOO_PARAMS):
        super().__init__(seed, refs)
        self.states = zoo_states()
        self.opts = dict(SWEEP_OPTS if opts is None else opts)
        # state and parameter both advance every request (their counts are
        # coprime), so any run, however long, sees a balanced mix
        names = list(self.states)
        self.jobs = [(names[k % len(names)], params[k % len(params)])
                     for k in range(len(names) * len(params))]

    def run(self, i: int):
        name, p = self.jobs[i % len(self.jobs)]
        opts = OptimizerOptions(seed=derive_seed(self.seed, "zoo", i), **self.opts)
        t0 = time.perf_counter()
        res = entscan.monogamy(self.states[name], p, opts)
        return name, p, res, time.perf_counter() - t0

    def score(self, outcome, tally: Tally) -> None:
        name, p, res, dt = outcome
        tally.busy_s += dt
        tally.latencies_ms.append(dt * 1e3)
        tally.points += 1
        tally.unconverged_points += not res.converged
        tag = f"{name} {label(p)}"
        ok = True
        for cut, value in (("1:23", res.e_1_23), ("1:2", res.e_1_2),
                           ("1:3", res.e_1_3)):
            ok &= tally.check(value >= -NONNEG_TOL,
                              f"{tag} {cut}: negative REE {value}")
            ref = self.refs.get((name, cut, label(p)))
            if ref is None:
                continue
            tol = PURE_TOL if cut == "1:23" else GHZ_PAIR_TOL
            ok &= tally.check(abs(value - ref) <= tol,
                              f"{tag} {cut}: {value:.6f} vs reference {ref:.6f}")
        m = res.e_1_23 - res.e_1_2 - res.e_1_3
        ok &= tally.check(abs(res.m - m) <= M_TOL, f"{tag}: m {res.m} != {m}")
        tally.op(ok)


class ThermalSweep(Workload):
    name = "thermal-sweep"

    def __init__(self, seed: int, refs=None, work_dir: str = ".",
                 opts: dict | None = None, workers: int = 2,
                 models=THERMAL_MODELS, temps=THERMAL_TEMPS):
        super().__init__(seed, refs)
        self.work_dir = work_dir
        self.opts = dict(SWEEP_OPTS if opts is None else opts)
        self.workers = workers
        self.models = models
        self.temps = temps
        self.last_cached_s = math.nan

    def run(self, i: int):
        """One sweep with a fresh cache and CSV, then its cached rerun."""
        model, fixed = self.models[i % len(self.models)]
        seed = derive_seed(self.seed, "thermal", i)
        run_dir = tempfile.mkdtemp(prefix="sweep-", dir=self.work_dir)
        try:
            cfg = entscan.SweepConfig(
                model=model, fixed=dict(fixed), sweep_param="temp",
                grid=list(self.temps), alphas=list(SWEEP_PARAMS),
                opts=OptimizerOptions(seed=seed, **self.opts), seed=seed,
                out=os.path.join(run_dir, "rows.csv"),
                cache_dir=os.path.join(run_dir, "cache"), workers=self.workers)
            t0 = time.perf_counter()
            rows = entscan.sweep(cfg)
            t1 = time.perf_counter()
            with open(cfg.out, "rb") as fh:
                first = fh.read()
            t2 = time.perf_counter()
            again = entscan.sweep(cfg)
            t3 = time.perf_counter()
            with open(cfg.out, "rb") as fh:
                second = fh.read()
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        same = first == second and rows == again
        return cfg, rows, same, t1 - t0, t3 - t2

    def score(self, outcome, tally: Tally) -> None:
        cfg, rows, same, fresh_s, cached_s = outcome
        tally.busy_s += fresh_s + cached_s
        self.last_cached_s = cached_s
        h = spinchain.hamiltonian(cfg.point_params(cfg.grid[0]))
        for row in rows:
            tally.points += 1
            tally.latencies_ms.append(row.walltime_ms)
            tally.unconverged_points += not row.converged
            tally.op(self.check_row(row, h, tally))
        tally.op(tally.check(same, f"{cfg.model}: cached rerun differs "
                                   "from the first run"))

    def check_row(self, row, h: np.ndarray, tally: Tally) -> bool:
        """E(1:23) <= D(rho || Delta(rho)): dephasing rho in the product
        basis gives a separable state, so the bound holds exactly."""
        tag = f"{row.model} T={row.temp} {row.variant} {row.alpha}"
        p = RenyiParameter(row.alpha, row.variant)
        rho = spinchain.thermal_state(h, row.temp).rho
        bound = renyi.rel_entropy(rho, np.diag(np.diagonal(rho)), p)
        ok = tally.check(row.e_1_23 <= bound + DEPHASED_TOL,
                         f"{tag}: E(1:23)={row.e_1_23} above dephased bound {bound}")
        for value in (row.e_1_23, row.e_1_2, row.e_1_3):
            ok &= tally.check(value >= -NONNEG_TOL, f"{tag}: negative REE {value}")
        m = row.e_1_23 - row.e_1_2 - row.e_1_3
        ok &= tally.check(abs(row.m - m) <= M_TOL, f"{tag}: m {row.m} != {m}")
        return ok


class OracleAudit(Workload):
    name = "oracle-audit"

    def __init__(self, seed: int, refs=None, samples: int = ORACLE_SAMPLES,
                 params=SWEEP_PARAMS):
        super().__init__(seed, refs)
        self.states = zoo_states()
        self.samples = samples
        # the cut, which sets the cost, advances every request, so any
        # run, however long, sees a balanced mix
        self.jobs = [(name, cut, p) for name in self.states for p in params
                     for cut in ("1:23", "1:2", "1:3")]

    def run(self, i: int):
        name, cut, p = self.jobs[i % len(self.jobs)]
        rho = self.states[name]
        seed = derive_seed(self.seed, "oracle", i)
        t0 = time.perf_counter()
        if cut == "1:23":
            bound = sepstates.sample_upper_bound(rho, CUT_1_23, p,
                                                 self.samples, seed)
        else:
            pair = qmat.partial_trace(rho, [2, 2, 2], PAIR_KEEP[cut])
            bound = sepstates.sample_upper_bound(pair, CUT_PAIR, p,
                                                 self.samples, seed)
        return name, cut, p, bound, time.perf_counter() - t0

    def score(self, outcome, tally: Tally) -> None:
        name, cut, p, bound, dt = outcome
        tally.busy_s += dt
        tally.latencies_ms.append(dt * 1e3)
        tally.points += 1
        tally.samples += self.samples
        tag = f"{name} {cut} {label(p)}"
        ok = tally.check(bound >= -NONNEG_TOL, f"{tag}: negative bound {bound}")
        ref = self.refs.get((name, cut, label(p)))
        if ref is not None:
            ok &= tally.check(bound >= ref - NONNEG_TOL,
                              f"{tag}: bound {bound:.6f} below exact {ref:.6f}")
        tally.op(ok)


WORKLOADS = {w.name: w for w in (ZooMonogamy, ThermalSweep, OracleAudit)}


def warm_up(seed: int) -> float:
    """One small ``ree`` call, so lazy set-up is paid before timing."""
    rho = qmat.partial_trace(qmat.projector(statezoo.w()), [2, 2, 2], (0, 1))
    opts = OptimizerOptions(restarts=1, max_iters=50, components=4,
                            seed=derive_seed(seed, "warm-up"))
    return sepstates.ree(rho, CUT_PAIR, RenyiParameter(1.0), opts).value


def attempt(workload: Workload, i: int, tally: Tally, run=None) -> None:
    """Run and score request ``i``; a request that raises counts as failed.

    ``run`` wraps the call (the traced run passes its tracer here)."""
    try:
        outcome = workload.run(i) if run is None else run(workload.run, i)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        tally.op(tally.check(False, f"request {i} raised "
                                    f"{type(exc).__name__}: {exc}"))
        return
    workload.score(outcome, tally)


def run_closed_loop(workload: Workload, seconds: float) -> Tally:
    """Send requests one after another until ``seconds`` have passed."""
    tally = Tally()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        attempt(workload, i, tally)
        i += 1
    return tally
