"""The traced per-module run and the per-layer metrics it yields.

One fixed slice of each workload runs three ways with the same seeds:

1. untraced, timed: the base of ``trace.overhead_share``; its sweep time
   at ``workers=2`` is the base of ``entscan.sweep.worker_speedup``;
2. the sweep slice alone at ``workers=1``, untraced: ``entscan.sweep.serial_s``;
3. traced: spans and kernel counts for every other metric.

Microbenchmarks of bare ``eigh`` and of ``renyi.rel_entropy`` run before
them.  Counts (``kernel.*``, ``*.calls``, ``ree_per_point``) depend only
on the seed and the code, never on timing.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from qree import qmat, renyi
from qree.renyi import RenyiParameter

import workloads as wl
from tracing import Tracer, self_times

MICRO_PARAMS = {"kl": RenyiParameter(1.0), "trad1.5": RenyiParameter(1.5, "trad"),
                "sand3": RenyiParameter(3.0, "sand")}


def slices(seed: int, work_dir: str, scale: dict | None = None):
    """The fixed work of the traced run: (workload, request count) pairs.

    Zoo: GHZ, W and star at KL and sandwiched 3.  Sweep: the XYZ chain
    at three temperatures and three parameters.  Oracle: all nine inputs
    at KL.  ``scale`` shrinks them for the self-test.
    """
    scale = scale or {}
    zoo = wl.ZooMonogamy(seed, params=(wl.ZOO_PARAMS[0], wl.ZOO_PARAMS[4]),
                         opts=scale.get("opts"))
    sweep = wl.ThermalSweep(seed, work_dir=work_dir, opts=scale.get("opts"),
                            models=wl.THERMAL_MODELS[:1])
    oracle = wl.OracleAudit(seed, params=wl.SWEEP_PARAMS[:1],
                            samples=scale.get("samples", wl.ORACLE_SAMPLES))
    return [(zoo, len(zoo.jobs)), (sweep, 1), (oracle, len(oracle.jobs))]


def _floor_us(fn, reps: int, blocks: int = 7) -> float:
    """Smallest mean call time over ``blocks`` blocks of ``reps`` calls."""
    best = float("inf")
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return best * 1e6


def microbenchmarks(seed: int, reps: int) -> dict[str, float]:
    out = {}
    for dim in (8, 4):
        h = qmat.random_density_matrix(dim, dim, wl.derive_seed(seed, "eigh", dim))
        out[f"kernel.eigh_us.{dim}x{dim}"] = _floor_us(lambda: np.linalg.eigh(h), reps)
    for dim, cut in ((8, "2x4"), (4, "2x2")):
        rho = qmat.random_density_matrix(dim, dim, wl.derive_seed(seed, "rho", dim))
        sigma = np.diag(np.diagonal(rho)).astype(complex)
        for key, p in MICRO_PARAMS.items():
            out[f"renyi.rel_entropy.us.{key}.{cut}"] = _floor_us(
                lambda: renyi.rel_entropy(rho, sigma, p), max(1, reps // 4))
    return out


def _pass(work, tally, run=None) -> float:
    """Run ``work`` once; return the time spent in program calls."""
    before = tally.busy_s
    for workload, count in work:
        for i in range(count):
            wl.attempt(workload, i, tally, run)
    return tally.busy_s - before


def traced_run(seed: int, work_dir: str, spans_path: str | None,
               scale: dict | None = None, reps: int = 400):
    """Run the traced per-module run; return (metrics, tally, notes).

    ``metrics`` holds every per-layer metric of BENCHMARK.json, by name."""
    tally = wl.Tally()
    metrics = microbenchmarks(seed, reps)

    work = slices(seed, work_dir, scale)
    sweep = work[1][0]
    untraced = [_pass([w], tally) for w in work]
    cached_rerun_ms = sweep.last_cached_s * 1e3
    serial = wl.ThermalSweep(seed, work_dir=work_dir, opts=sweep.opts, workers=1,
                             models=sweep.models)
    serial_s = _pass([(serial, 1)], tally)

    tracer = Tracer()

    def traced(call, i):
        with tracer:
            return call(i)

    traced_s = _pass(work, tally, traced)
    spans = tracer.spans()
    untraced_s = sum(untraced)
    notes = {"spans": len(spans), "untraced_s": untraced_s, "traced_s": traced_s}
    if spans_path:
        tracer.write(spans_path)
        notes["spans_file"] = spans_path

    metrics.update(span_metrics(tracer, spans))
    metrics["entscan.sweep.serial_s"] = serial_s
    metrics["entscan.sweep.worker_speedup"] = serial_s / untraced[1]
    metrics["entscan.sweep.cached_rerun_ms"] = cached_rerun_ms
    metrics["trace.overhead_share"] = traced_s / untraced_s - 1.0
    return metrics, tally, notes


def span_metrics(tracer: Tracer, spans: list[tuple]) -> dict[str, float]:
    by_name: dict[str, list[tuple]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    own = self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def busy(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    out: dict[str, float] = {}
    for kernel in ("eigh", "eigvalsh"):
        for what in ("calls", "matrices"):
            out[f"kernel.{kernel}.{what}"] = tracer.kernel_count(kernel, what)
    for name in ("qmat.eig_hermitian", "qmat.partial_trace",
                 "sepstates.sample_upper_bound", "entscan.monogamy",
                 "sepstates.ree"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    out["renyi.rel_entropy.calls"] = calls("renyi.rel_entropy")
    for name in ("spinchain.hamiltonian", "spinchain.thermal_state",
                 "entscan.sweep"):
        out[f"{name}.busy_s"] = busy(name)

    rees = by_name.get("sepstates.ree", [])
    out["sepstates.ree.self_s"] = sum(own[s[0]] for s in rees)
    rees = [s for s in rees if s[7] is not None]  # calls that returned
    n = max(len(rees), 1)
    for cut in ("2x4", "2x2"):
        ms = [(s[3] - s[2]) * 1e3 for s in rees if s[7]["cut"] == cut]
        out[f"sepstates.ree.ms_p50.{cut}"] = statistics.median(ms) if ms else 0.0
    out["sepstates.ree.decomps_per_call"] = sum(
        tracer.kernel_count(k, "matrices", "sepstates.ree") for k in ("eigh", "eigvalsh")) / n
    out["sepstates.ree.iterations_mean"] = sum(s[7]["iterations"] for s in rees) / n
    out["sepstates.ree.unconverged_share"] = sum(not s[7]["converged"] for s in rees) / n
    mono_ids = {s[0] for s in by_name.get("entscan.monogamy", ())}
    out["entscan.monogamy.ree_per_point"] = (
        sum(s[4] in mono_ids for s in rees) / max(len(mono_ids), 1))
    return out
