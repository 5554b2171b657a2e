"""Benchmark for qree: end-to-end metrics per workload, or the traced run.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload zoo-monogamy --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the named workload as a closed loop with one caller
for ``--seconds`` and reports the end-to-end metrics:

    setup_s        median of five set-ups, each in a fresh interpreter:
                   import qree, build the workload's inputs, one warm-up ree
    points_per_s   points completed per second of program time; a point is
                   one monogamy point (zoo-monogamy, thermal-sweep) or one
                   sample_upper_bound call (oracle-audit)
    point_ms_p50   median latency of one point (nearest rank)
    point_ms_tail  the highest percentile with at least ten points beyond it
    peak_rss_mb    peak resident memory of the benchmark process

``--trace 1`` runs the traced per-module run (see ``layers.py``), a fixed
amount of work taken from all three workloads whatever ``--workload``
names, and reports the per-layer metrics; it writes every span to
``perfbench/.work/``.

Lines before the last describe the run: the environment, every metric with
its unit and sample count, ``failed_share`` and ``samples_per_s`` where
they apply, and the first failed checks.  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the caller uses at most two threads: the sweep pool's two workers, each
# running single-threaded BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120


def declared_units(kind: str) -> dict[str, str]:
    """name -> unit of BENCHMARK.json's ``kind`` metrics ("end_to_end" or
    "per_layer"), in the file's order, which is the order of the report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def import_program():
    """Import qree from this checkout's ``src``, and nothing installed."""
    if not (SRC / "qree" / "__init__.py").is_file():
        raise SystemExit(f"error: no qree sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qree
    if Path(qree.__file__).resolve().parent != SRC / "qree":
        raise SystemExit(f"error: imported qree from {qree.__file__}, not {SRC}")
    return qree


def build(name: str, seed: int):
    import workloads as wl
    if name == wl.ThermalSweep.name:
        return wl.ThermalSweep(seed, work_dir=str(WORK))
    return wl.WORKLOADS[name](seed)


def setup_only(name: str, seed: int) -> None:
    """One timed set-up; prints its duration as JSON."""
    t0 = time.perf_counter()
    import_program()
    import workloads as wl
    build(name, seed)
    wl.warm_up(seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(name: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def nearest_rank(ordered: list[float], p: float) -> float:
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def tail(values: list[float]) -> tuple[int, float]:
    """(p, value): the highest whole percentile p with at least ten values
    beyond it, by the nearest-rank rule, and never below p50: with fewer
    than twenty values this is the median."""
    ordered = sorted(values)
    n = len(ordered)
    p = max(50, math.floor(100 * (n - 10) / n))
    while n - math.ceil(p / 100 * n) < 10 and p > 50:
        p -= 1
    return p, nearest_rank(ordered, p)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    from importlib import metadata

    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
    }


def report(name: str, value: float, unit: str, n: int | None = None,
           extra: str = "") -> None:
    count = f" n={n}" if n is not None else ""
    print(f"metric {name} {value:.6g} {unit}{count}{extra}")


def end_to_end(name: str, seed: int, seconds: float, workload=None):
    """Measure set-up, then run ``workload`` (by default the full-size
    workload ``name``) as a closed loop for ``seconds``."""
    import workloads as wl

    units = declared_units("end_to_end")
    setups = measure_setup(name, seed)
    workload = build(name, seed) if workload is None else workload
    wl.warm_up(seed)
    tally = wl.run_closed_loop(workload, seconds)
    if not tally.latencies_ms:
        raise SystemExit("error: no request completed")
    n = len(tally.latencies_ms)
    ordered = sorted(tally.latencies_ms)
    p, tail_ms = tail(ordered)
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": tally.points / tally.busy_s,
        "point_ms_p50": nearest_rank(ordered, 50),
        "point_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report("setup_s", metrics["setup_s"], units["setup_s"], len(setups))
    report("points_per_s", metrics["points_per_s"], units["points_per_s"],
           tally.points, f" busy_s={tally.busy_s:.3f}")
    if tally.samples:
        report("samples_per_s", tally.samples / tally.busy_s, "1/s", tally.samples)
    report("point_ms_p50", metrics["point_ms_p50"], units["point_ms_p50"], n)
    report("point_ms_tail", tail_ms, units["point_ms_tail"], n, f" percentile=p{p}")
    report("peak_rss_mb", metrics["peak_rss_mb"], units["peak_rss_mb"], 1)
    report("failed_share", tally.failed / max(tally.attempted, 1), "ratio",
           tally.attempted)
    report("unconverged_points", tally.unconverged_points, "count", tally.points)
    return metrics, tally


def per_layer(seed: int):
    import layers
    import workloads as wl

    wl.warm_up(seed)
    spans_path = str(WORK / f"spans-seed{seed}.jsonl")
    metrics, tally, notes = layers.traced_run(seed, str(WORK), spans_path)
    per_layer_report(metrics, tally, notes)
    return metrics, tally


def per_layer_report(metrics: dict, tally, notes: dict) -> None:
    for key, unit in declared_units("per_layer").items():
        report(key, metrics[key], unit)
    report("failed_share", tally.failed / max(tally.attempted, 1), "ratio",
           tally.attempted)
    print("trace " + json.dumps(notes))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and exit")
    args = ap.parse_args(argv)

    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    import_program()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    print("env " + json.dumps(environment()))
    print(f"run workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    if args.trace:
        units = declared_units("per_layer")
        metrics, tally = per_layer(args.seed)
    else:
        units = declared_units("end_to_end")
        metrics, tally = end_to_end(args.workload, args.seed, args.seconds)
    for problem in tally.problems:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
