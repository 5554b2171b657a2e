"""Run the benchmark on several seeds and record the results as one entry.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/results/<name>.json

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, then twice with ``--trace 1`` on the
first seed.  For each end-to-end metric it prints the median and the
spread (distance between the first and third quartile, as a share of the
median); for the traced runs, which per-layer counts differ between the
two.  ``--out`` writes every result line with the environment and these
summaries.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
EXACT = ("kernel.eigh.calls", "kernel.eigh.matrices", "kernel.eigvalsh.calls",
         "kernel.eigvalsh.matrices", "entscan.monogamy.ree_per_point")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run: (its result line, with its report lines added as "report";
    the environment it recorded)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stderr}")
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    result = json.loads(lines[-1])
    result["report"] = [ln for ln in lines if ln.startswith("metric ")]
    return result, env


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out")
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    entry = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        results = []
        for seed in args.seeds:
            result, entry["env"] = run_once(name, seed, seconds, 0)
            results.append(result)
            print(f"{name} seed={seed} " + json.dumps(result["metrics"]), flush=True)
        summary = {m["name"]: spread([r["metrics"][m["name"]]["value"]
                                      for r in results])
                   for m in spec["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for metric, s in summary.items():
            print(f"  {name} {metric}: median {s['median']:.6g} spread "
                  f"{s['spread']:.3f} (bound {bounds[metric]})")
        entry["workloads"][name] = {"runs": results, "summary": summary}
    traced = [run_once(names[0], args.seeds[0], seconds, 1)[0] for _ in range(2)]
    differ = [k for k in EXACT if traced[0]["metrics"][k]["value"]
              != traced[1]["metrics"][k]["value"]]
    print(f"traced: counts that differ between two runs: {differ or 'none'}")
    entry["traced"] = {"seed": args.seeds[0], "runs": traced,
                       "counts_differ": differ}
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
