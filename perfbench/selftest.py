"""Fast self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed by name with
its unit, in both modes, and that a deliberately wrong reference value
raises ``failed_share``.  Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

TINY_OPTS = dict(restarts=1, max_iters=20, components=4)
TINY_SCALE = {"opts": TINY_OPTS, "samples": 200}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def tiny_workloads(seed: int, refs=None) -> dict:
    import workloads as wl
    return {
        wl.ZooMonogamy.name: wl.ZooMonogamy(seed, refs, opts=TINY_OPTS),
        wl.ThermalSweep.name: wl.ThermalSweep(
            seed, refs, work_dir=str(run.WORK), opts=TINY_OPTS,
            models=wl.THERMAL_MODELS[:1], temps=(1.0,)),
        wl.OracleAudit.name: wl.OracleAudit(seed, refs, samples=200),
    }


def printed(fn, *args, **kwargs):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = fn(*args, **kwargs)
    return result, out.getvalue()


def check_printed(text: str, units: dict[str, str]) -> None:
    lines = {ln.split()[1]: ln.split() for ln in text.splitlines()
             if ln.startswith("metric ")}
    for name, unit in units.items():
        expect(name in lines, f"metric {name} not printed")
        expect(lines[name][3] == unit, f"metric {name} printed with unit "
               f"{lines[name][3]}, expected {unit}")


def main() -> int:
    run.import_program()
    run.WORK.mkdir(exist_ok=True)
    import layers
    import workloads as wl

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expect({w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS),
           "BENCHMARK.json names a workload that workloads.py lacks")
    end_to_end = run.declared_units("end_to_end")
    per_layer = run.declared_units("per_layer")

    expect(run.tail(list(range(1, 31))) == (66, 20), "tail of 1..30")
    expect(run.tail(list(range(1, 201))) == (95, 190), "tail of 1..200")
    expect(run.tail([3.0, 1.0, 2.0]) == (50, 2.0), "tail of three values")

    seed = 5
    for name, workload in tiny_workloads(seed).items():
        (metrics, tally), text = printed(run.end_to_end, name, seed, 0.2, workload)
        check_printed(text, end_to_end)
        expect(set(metrics) == set(end_to_end), f"{name}: metric set")
        expect(all(v > 0 for v in metrics.values()), f"{name}: a metric is 0")

    wrong = {key: value + 5.0 for key, value in wl.reference_values().items()}
    right_tallies = {}
    for refs, label in ((None, "right"), (wrong, "wrong")):
        for name, workload in tiny_workloads(seed, refs).items():
            if name == wl.ThermalSweep.name:
                continue  # thermal checks use no reference table
            tally = wl.Tally()
            for i in range(len(workload.jobs)):
                wl.attempt(workload, i, tally)
            if label == "right":
                right_tallies[name] = tally
                continue
            base = right_tallies[name]
            expect(tally.failed / tally.attempted > base.failed / base.attempted,
                   f"{name}: a wrong reference did not raise failed_share")
    expect(right_tallies[wl.OracleAudit.name].failed == 0,
           "oracle-audit fails with the right references")

    (metrics, tally, notes), text = printed(
        layers.traced_run, seed, str(run.WORK), None, TINY_SCALE, 5)
    expect(set(per_layer) <= set(metrics), "traced run metric set")
    expect(metrics["entscan.monogamy.ree_per_point"] == 3, "ree_per_point")
    expect(metrics["kernel.eigh.calls"] > 0, "no eigh calls counted")
    again = layers.traced_run(seed, str(run.WORK), None, TINY_SCALE, 5)[0]
    for key in ("kernel.eigh.calls", "kernel.eigh.matrices",
                "kernel.eigvalsh.calls", "kernel.eigvalsh.matrices",
                "entscan.monogamy.ree_per_point"):
        expect(metrics[key] == again[key], f"{key} differs between two traced runs")
    _, text = printed(run.per_layer_report, metrics, tally, notes)
    check_printed(text, per_layer)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
