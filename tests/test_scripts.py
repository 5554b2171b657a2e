"""Smoke runs of the experiment scripts at tiny settings: they import only
public names, which no other test would notice going missing."""

import pathlib
import re
import runpy
import sys

import pytest

from qree.entscan import CSV_HEADER

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def first_line(path):
    return path.read_text().splitlines()[0]


def test_state_zoo_alpha_scan(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "state_zoo_alpha_scan.py", "--out-dir", tmp_path,
               "--points", 1, "--restarts", 1, "--max-iters", 5)
    for name in ("ghz", "w", "star"):
        path = tmp_path / f"{name}.csv"
        assert first_line(path) == "alpha,variant,e_1_23,e_1_2,e_1_3,m"
        assert len(path.read_text().splitlines()) == 3   # one alpha per variant


def test_spin_model_sweeps(tmp_path, monkeypatch, capsys):
    run_script(monkeypatch, "spin_model_sweeps.py", "--out-dir", tmp_path / "out",
               "--cache-dir", tmp_path / "cache", "--only", "xyz_T_jz0.5",
               "--restarts", 1, "--max-iters", 5, "--workers", 1)
    out = tmp_path / "out"
    assert [p.name for p in out.iterdir()] == ["xyz_T_jz0.5.csv"]
    assert first_line(out / "xyz_T_jz0.5.csv") == CSV_HEADER


def test_parity_dump(monkeypatch, capsys):
    run_script(monkeypatch, "parity_dump.py", "--restarts", 1, "--max-iters", 5,
               "--components", 4, "--samples", 8)
    lines = capsys.readouterr().out.splitlines()
    assert sum(ln.startswith("zoo ") for ln in lines) == 15
    sweep_lines = [ln for ln in lines if ln.startswith("sweep ")]
    assert sweep_lines[0] == "sweep " + CSV_HEADER.rpartition(",")[0]
    assert len(sweep_lines) == 5
    assert sum(ln.startswith("oracle ") for ln in lines) == 27
    assert re.fullmatch(r"accuracy pairs=\d+ min=\S+ median=\S+ max=\S+ "
                        r"converged_above_1e-06=\d+ uncertified=\d+ "
                        r"xstate_iterations=\d+ widest_gap=\S+ "
                        r"xstate_evaluations=\d+", lines[-2])
    # library ree on the 15 zoo points: E(1:23) and both pairs each
    assert re.fullmatch(r"totals descents=45 restarts=45 iterations=\d+ "
                        r"evaluations=\d+ unconverged=\d+ lockstep=\d+",
                        lines[-1])


COUNT_FLAGS = {
    "state_zoo_alpha_scan.py": ("--restarts", "--max-iters", "--points"),
    "spin_model_sweeps.py": ("--restarts", "--max-iters", "--workers"),
    "parity_dump.py": ("--restarts", "--max-iters", "--components", "--samples"),
}
USAGE_ERRORS = (
    [pytest.param(name, "--seed", "-1", id=name)
     for name in ("state_zoo_alpha_scan.py", "spin_model_sweeps.py")]
    + [pytest.param(name, flag, "0", id=f"{name}{flag}=0")
       for name, flags in COUNT_FLAGS.items() for flag in flags]
    + [pytest.param("parity_dump.py", "--samples", "1.5",
                    id="parity_dump.py--samples=1.5")])


@pytest.mark.parametrize("name, flag, value", USAGE_ERRORS)
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, name,
                                        flag, value):
    # a seed below 0 or a count below 1 stops at argparse, before any file
    # is written (the scripts' default output directories are relative)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, name, flag, value)
    assert exc.value.code == 2
    want = ("seed must be a non-negative integer" if flag == "--seed"
            else f"argument {flag}: must be an integer >= 1")
    assert f"{want}, got {value!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
