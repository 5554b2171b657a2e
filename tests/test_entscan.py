import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from qree import cli, entscan
from qree.cli import main as cli_main
from qree.entscan import (CUT_PAIR, ConfigError, SweepCache, SweepRow,
                          critical_temperature, emit_rows, monogamy,
                          parse_config, parse_rows, sweep)
from qree.qmat import (Bipartition, kron, partial_trace, partial_transpose,
                       projector)
from qree.renyi import RenyiParameter, min_entropy, rel_entropy, renyi_entropy
from qree.sepstates import OptimizerOptions, ree, sample_upper_bound
from qree.spinchain import ModelParams, hamiltonian, thermal_state
from qree.statezoo import ghz, star, w

from conftest import random_separable

FAST = OptimizerOptions(restarts=2, max_iters=300, components=12, seed=3)
# for tests that check only the pair cuts: the 1:23 descent stays short
QUICK = OptimizerOptions(restarts=1, max_iters=30, components=4, seed=0)
TEN_PARAMS = ([RenyiParameter(a, "trad") for a in (0.3, 0.7, 1.0, 1.5, 2.0)]
              + [RenyiParameter(a, "sand") for a in (0.5, 1.0, 2.0, 4.0, 8.0)])


def count_points(monkeypatch) -> dict:
    """Count the points ``sweep`` evaluates, through ``monogamy_batch``."""
    points = {"n": 0}
    real = entscan.monogamy_batch

    def counting(jobs, *args, **kwargs):
        points["n"] += len(jobs)
        return real(jobs, *args, **kwargs)

    monkeypatch.setattr(entscan, "monogamy_batch", counting)
    return points


TINY_CONFIG = """
# minimal sweep
model = xxz
j = 1.0
delta = 0.5
temp = 1.0
sweep = temp
grid = 1.0, 2.0
alphas = 1 trad
restarts = 2
max_iters = 200
components = 8
seed = 4
"""


class TestMonogamy:
    def test_assembly_invariant_and_ghz(self):
        res = monogamy(projector(ghz()), RenyiParameter(1.0), FAST)
        assert abs(res.m - (res.e_1_23 - res.e_1_2 - res.e_1_3)) < 1e-12
        assert res.e_1_2 <= 1e-4 and res.e_1_3 <= 1e-4
        assert res.m > 0

    def test_w_positive_monogamy(self):
        res = monogamy(projector(w()), RenyiParameter(1.0), FAST)
        assert res.e_1_23 > 0.05 and res.e_1_2 > 0.05 and res.e_1_3 > 0.05
        assert res.m > 0

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="8x8"):
            monogamy(np.eye(4) / 4, RenyiParameter(1.0), FAST)


def with_pair(rho12):
    """A three-qubit state whose 1:2 reduction is rho12 (qubit 3 in |0>)."""
    return kron(rho12, np.diag([1.0, 0.0]))


def werner(p):
    """p |singlet><singlet| + (1 - p) I/4; lambda_min of its partial
    transpose is (1 - 3p)/4."""
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    return p * projector(singlet) + (1 - p) * np.eye(4) / 4


def chiral_state():
    """A cyclic-shift eigenstate with eigenvalue exp(2 pi i / 3): its
    rho_13 is SWAP rho_12 SWAP but not rho_12, and both pairs are NPT."""
    rng = np.random.default_rng(0)
    psi = (rng.normal(size=8) + 1j * rng.normal(size=8)).reshape(2, 2, 2)
    om = np.exp(2j * np.pi / 3)
    psi = psi + om * psi.transpose(1, 2, 0) + om ** 2 * psi.transpose(2, 0, 1)
    return projector(psi.ravel() / np.linalg.norm(psi))


SWAP = np.eye(4)[[0, 2, 1, 3]]
CUT_1_23 = Bipartition(2, 4)
PURE_PARAMS = ([RenyiParameter(1.0)]
               + [RenyiParameter(a, "trad") for a in (0.3, 0.7, 1.5, 2.0)]
               + [RenyiParameter(a, "sand") for a in (0.5, 2.0, 4.0)])


def schmidt_beta(p):
    """The Renyi order of the Schmidt weights that gives the REE of a pure
    state: 1 for KL, 1/alpha (traditional), alpha/(2 alpha - 1)
    (sandwiched), infinite at sandwiched 1/2."""
    if p.alpha == 1.0:
        return 1.0
    if p.variant == "traditional":
        return 1.0 / p.alpha
    return math.inf if p.alpha == 0.5 else p.alpha / (2 * p.alpha - 1)


def below_sampling(res, rho3, p):
    """Each pair value is at most the sampling oracle's bound + 1e-9."""
    for keep, value in (([0, 1], res.e_1_2), ([0, 2], res.e_1_3)):
        pair = partial_trace(rho3, [2, 2, 2], keep)
        assert value <= sample_upper_bound(pair, CUT_PAIR, p, 2000, 1) + 1e-9


class TestMonogamyShortcuts:
    def test_ghz_pairs_are_exact_zeros(self):
        rho = projector(ghz())
        for p in TEN_PARAMS:
            res = monogamy(rho, p, QUICK)
            assert res.e_1_2 == 0.0 and res.e_1_3 == 0.0
            assert res.detail_1_2.path == res.detail_1_3.path == "ppt"
            assert res.detail_1_23.path == "pure"
            assert abs(res.e_1_23 - math.log(2)) <= 1e-8
            d = res.detail_1_2
            assert (d.converged, d.iterations, d.evaluations,
                    d.restarts) == (True, 0, 0, ())
            below_sampling(res, rho, p)

    def test_w_second_pair_reuses_the_first(self):
        rho = projector(w())
        p = RenyiParameter(1.0)
        res = monogamy(rho, p, FAST)
        assert res.detail_1_2.path == "descent"
        assert res.detail_1_3.path == "swap"
        assert res.e_1_3 == res.e_1_2
        assert res.detail_1_3.iterations == res.detail_1_2.iterations
        below_sampling(res, rho, p)

    def test_star_pairs_descend_and_1_23_is_pure(self):
        res = monogamy(projector(star()), RenyiParameter(2.0, "sand"), QUICK)
        assert [d.path for d in (res.detail_1_23, res.detail_1_2,
                                 res.detail_1_3)] == ["pure", "descent", "descent"]
        d = res.detail_1_23
        assert (d.converged, d.iterations, d.evaluations,
                d.restarts) == (True, 0, 0, ())

    @pytest.mark.parametrize("p", PURE_PARAMS, ids=str)
    def test_random_pure_states_take_pure(self, p):
        """E(1:23) of a pure state is S_beta of its Schmidt weights, and
        no higher than the descent or the sampling oracle."""
        beta = schmidt_beta(p)
        # every order, traditional alpha = 2 included, where sigma^(-1)
        # weighs the occupations of sigma's mixing-level eigenvectors
        # (1e-9/8) by 8e9: they are sums of non-negative |<v|psi>|^2, with
        # no rounding of rho's null space to amplify
        tol = 1e-8
        rng = np.random.default_rng(12)
        for _ in range(3):
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            rho = projector(psi)
            res = monogamy(rho, p, QUICK)
            assert res.detail_1_23.path == "pure"
            lam = np.diag(np.linalg.svd(psi.reshape(2, 4), compute_uv=False) ** 2)
            exact = min_entropy(lam) if beta == math.inf else renyi_entropy(lam, beta)
            assert abs(res.e_1_23 - exact) <= tol
            assert res.e_1_23 <= ree(rho, CUT_1_23, p, QUICK).value + 1e-9
            assert res.e_1_23 <= sample_upper_bound(rho, CUT_1_23, p, 2000, 1) + 1e-9

    def test_bell_pair_takes_pure(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = with_pair(projector(bell))
        for p in TEN_PARAMS:
            res = monogamy(rho, p, QUICK)
            assert [d.path for d in (res.detail_1_23, res.detail_1_2,
                                     res.detail_1_3)] == ["pure", "pure", "ppt"]
            assert abs(res.e_1_2 - math.log(2)) <= 1e-8
            assert abs(res.e_1_23 - math.log(2)) <= 1e-8
            below_sampling(res, rho, p)

    def test_noisy_star_descends(self):
        rho = 0.9 * projector(star()) + 0.1 * np.eye(8) / 8
        res = monogamy(rho, RenyiParameter(1.0), QUICK)
        assert res.detail_1_23.path == "descent"

    def test_werner_boundary(self):
        p_npt = (1 + 4e-6) / 3
        lam = np.linalg.eigvalsh(partial_transpose(werner(p_npt), [2, 2], 1))[0]
        assert abs(lam + 1e-6) < 1e-15
        res = monogamy(with_pair(werner(p_npt)), RenyiParameter(1.0), FAST)
        assert res.detail_1_2.path == "descent" and res.e_1_2 > 0
        res = monogamy(with_pair(werner(1 / 3)), RenyiParameter(1.0), QUICK)
        assert res.detail_1_2.path == "ppt" and res.e_1_2 == 0.0

    def test_random_separable_pairs_take_ppt(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            pair = random_separable(CUT_PAIR, 6, rng)
            res = monogamy(with_pair(pair), RenyiParameter(1.5), QUICK)
            assert res.detail_1_2.path == "ppt" and res.e_1_2 == 0.0
            assert np.array_equal(res.detail_1_2.closest_state,
                                  0.5 * (pair + pair.conj().T))

    def test_swapped_pair_reuses_swapped_state(self):
        rho = chiral_state()
        p = RenyiParameter(2.0, "sand")
        rho12 = partial_trace(rho, [2, 2, 2], [0, 1])
        rho13 = partial_trace(rho, [2, 2, 2], [0, 2])
        assert np.abs(rho13 - rho12).max() > 0.1
        res = monogamy(rho, p, FAST)
        d12, d13 = res.detail_1_2, res.detail_1_3
        assert (d12.path, d13.path) == ("descent", "swap")
        assert np.array_equal(d13.closest_state, SWAP @ d12.closest_state @ SWAP)
        # re-evaluated at the reused state, not copied from E(1:2)
        assert res.e_1_3 == rel_entropy(rho13, d13.closest_state, p)
        assert abs(res.e_1_3 - res.e_1_2) <= 1e-12
        below_sampling(res, rho, p)

    def test_ree_never_takes_a_shortcut(self):
        pair = partial_trace(projector(ghz()), [2, 2, 2], [0, 1])
        res = ree(pair, CUT_PAIR, RenyiParameter(1.0), QUICK)
        assert res.path == "descent" and res.evaluations > 0
        res = ree(projector(w()), CUT_1_23, RenyiParameter(1.0), QUICK)
        assert res.path == "descent" and res.evaluations > 0


class TestCsv:
    def make_rows(self):
        return [
            SweepRow(model="xyz", param_name="temp", param_value=0.5, temp=0.5,
                     alpha=1.0, variant="traditional", e_1_23=0.123456789123,
                     e_1_2=1.5e-9, e_1_3=0.0, m=0.123456786, converged=True,
                     restarts_used=4, seed=99, walltime_ms=12.5),
            SweepRow(model="tfi", param_name="lam", param_value=2.0, temp=1.0,
                     alpha=4.0, variant="sandwiched", e_1_23=math.inf,
                     e_1_2=0.25, e_1_3=0.25, m=math.inf, converged=False,
                     restarts_used=2, seed=7, walltime_ms=3.25),
        ]

    def test_header_exact(self):
        text = emit_rows([])
        assert text.splitlines()[0] == (
            "model,param_name,param_value,temp,alpha,variant,"
            "e_1_23,e_1_2,e_1_3,m,converged,restarts_used,seed,walltime_ms")

    def test_roundtrip(self):
        rows = self.make_rows()
        text = emit_rows(rows)
        back = parse_rows(text)
        # serialization carries 9 significant digits; re-emitting the
        # parsed rows must reproduce the file byte for byte
        assert emit_rows(back) == text
        for a, b in zip(rows, back):
            assert a.model == b.model and a.variant == b.variant
            assert a.converged == b.converged and a.seed == b.seed
            assert b.e_1_23 == pytest.approx(a.e_1_23, rel=1e-8) or (
                math.isinf(a.e_1_23) and math.isinf(b.e_1_23))

    def test_infinity_spelled_inf(self):
        line = emit_rows(self.make_rows()).splitlines()[2]
        assert ",inf," in line

    def test_bad_header_rejected(self):
        with pytest.raises(ConfigError, match="header"):
            parse_rows("nope\n1,2,3\n")

    def test_bad_field_count_rejected(self):
        text = emit_rows([]) + "xyz,temp,1,1\n"
        with pytest.raises(ConfigError, match="14 fields"):
            parse_rows(text)


class TestConfigParsing:
    def test_minimal_config(self):
        cfg = parse_config(TINY_CONFIG)
        assert cfg.model == "xxz" and cfg.sweep_param == "temp"
        assert cfg.grid == [1.0, 2.0]
        assert cfg.alphas == [RenyiParameter(1.0, "trad")]
        assert cfg.opts.restarts == 2 and cfg.opts.components == 8
        assert cfg.seed == 4

    def test_linspace_grid(self):
        cfg = parse_config(TINY_CONFIG.replace("grid = 1.0, 2.0",
                                               "grid = 1.0 : 2.0 : 5"))
        assert cfg.grid == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_unknown_key_reports_line(self):
        bad = TINY_CONFIG + "jzz = 3\n"
        with pytest.raises(ConfigError, match=r"line \d+: unknown key 'jzz'"):
            parse_config(bad)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(TINY_CONFIG + "model = xy\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="alphas"):
            parse_config("model = xxz\nsweep = temp\ngrid = 1.0\n")

    def test_empty_alpha_list_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(TINY_CONFIG.replace("alphas = 1 trad", "alphas = "))

    def test_missing_temp_for_coupling_sweep(self):
        text = TINY_CONFIG.replace("sweep = temp", "sweep = delta").replace(
            "temp = 1.0", "")
        with pytest.raises(ConfigError, match="temp"):
            parse_config(text)

    def test_model_invariant_violation_at_grid_point(self):
        text = TINY_CONFIG.replace("sweep = temp", "sweep = delta").replace(
            "grid = 1.0, 2.0", "grid = -2.0, 1.0")
        with pytest.raises(ConfigError, match="delta"):
            parse_config(text)

    def test_alpha_outside_variant_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(TINY_CONFIG.replace("alphas = 1 trad",
                                             "alphas = 3 trad"))

    def test_sandwiched_alpha_above_cap_reports_line(self):
        # 1 trad passes and 70 sand is refused while the file is parsed,
        # not when the sweep reaches it
        lines = TINY_CONFIG.splitlines()
        line_no = lines.index("alphas = 1 trad") + 1
        with pytest.raises(ConfigError) as err:
            parse_config(TINY_CONFIG.replace("alphas = 1 trad",
                                             "alphas = 1 trad, 70 sand"))
        assert str(err.value) == (f"line {line_no}: sandwiched alpha capped "
                                  "at 64, got 70")

    def test_bad_line_shape(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("model xyz\n")

    @pytest.mark.parametrize("line, message", [
        ("jx = abc", "jx must be a number, got 'abc'"),
        ("restarts = 2.5", "restarts must be an integer, got '2.5'"),
        ("seed = x", "seed must be an integer, got 'x'"),
        ("workers = y", "workers must be an integer, got 'y'"),
        ("grid = 1 : 2", "bad grid '1 : 2': linspace grid needs start : stop : count"),
        ("grid = 1 : 2 : 0", "bad grid '1 : 2 : 0': grid count must be >= 1"),
    ])
    def test_bad_value_reports_line(self, line, message):
        key = line.split("=")[0]
        lines = [ln for ln in TINY_CONFIG.splitlines() if not ln.startswith(key)]
        lines.append(line)
        with pytest.raises(ConfigError) as err:
            parse_config("\n".join(lines) + "\n")
        assert str(err.value) == f"line {len(lines)}: {message}"

    def test_negative_seed_in_sweep_config(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            entscan.SweepConfig(model="xxz", fixed={"j": 1.0, "delta": 0.5},
                                sweep_param="temp", grid=[1.0],
                                alphas=[RenyiParameter(1.0)], seed=-1)


class TestSweep:
    def test_rows_ordered_and_deterministic(self, tmp_path):
        cfg = parse_config(TINY_CONFIG)
        cfg.out = str(tmp_path / "rows.csv")
        rows1 = sweep(cfg)
        assert [(r.param_value, r.alpha) for r in rows1] == [
            (1.0, 1.0), (2.0, 1.0)]
        rows2 = sweep(cfg)
        for a, b in zip(rows1, rows2):
            assert a.e_1_23 == b.e_1_23 and a.m == b.m and a.seed == b.seed

    def test_cache_hit_skips_optimizer(self, tmp_path, monkeypatch):
        cfg = parse_config(TINY_CONFIG)
        cfg.cache_dir = str(tmp_path / "cache")
        cfg.out = str(tmp_path / "rows.csv")
        sweep(cfg)
        first_csv = open(cfg.out).read()

        points = count_points(monkeypatch)
        rows = sweep(cfg)
        assert points["n"] == 0
        assert open(cfg.out).read() == first_csv
        assert len(rows) == 2

    def test_corrupt_cache_entry_skipped(self, tmp_path, caplog):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "entries-bad.jsonl").write_text("{not json}\n")
        cfg = parse_config(TINY_CONFIG)
        cfg.cache_dir = str(cache)
        with caplog.at_level(logging.WARNING, logger="qree.entscan"):
            rows = sweep(cfg)
        assert "corrupt" in caplog.text
        assert len(rows) == 2

    def test_cache_round_trips_infinite_rows(self, tmp_path):
        row = SweepRow(model="xyz", param_name="temp", param_value=1.0,
                       temp=1.0, alpha=1.0, variant="traditional",
                       e_1_23=math.inf, e_1_2=0.0, e_1_3=0.0, m=math.inf,
                       converged=True, restarts_used=2, seed=4,
                       walltime_ms=1.5)
        SweepCache(str(tmp_path)).put("k", row)
        assert SweepCache(str(tmp_path)).get("k") == row

    def test_rows_of_another_algorithm_version_recomputed(self, tmp_path,
                                                          monkeypatch):
        cfg = parse_config(TINY_CONFIG)
        cfg.cache_dir = str(tmp_path / "cache")
        with monkeypatch.context() as m:
            m.setattr(entscan, "ALGORITHM_VERSION", entscan.ALGORITHM_VERSION - 1)
            sweep(cfg)

        points = count_points(monkeypatch)
        sweep(cfg)
        assert points["n"] == 2
        sweep(cfg)
        assert points["n"] == 2

    def test_parallel_workers_match_serial(self, tmp_path, monkeypatch):
        # one point a chunk, so the pool has two chunks to run
        monkeypatch.setattr(entscan, "SWEEP_BATCH_ROWS", 2)
        cfg = parse_config(TINY_CONFIG)
        serial = sweep(cfg)
        cfg2 = parse_config(TINY_CONFIG)
        cfg2.workers = 3
        parallel = sweep(cfg2)
        assert ([replace(r, walltime_ms=0.0) for r in parallel]
                == [replace(r, walltime_ms=0.0) for r in serial])

    def test_rows_match_pointwise_monogamy(self, monkeypatch):
        # TFI at lam = 0.5 and low T has entangled pairs, so both batches
        # of a chunk descend; 3 points a chunk split each alpha's 4
        monkeypatch.setattr(entscan, "SWEEP_BATCH_ROWS", 6)
        cfg = entscan.SweepConfig(
            model="tfi", fixed={"lam": 0.5}, sweep_param="temp",
            grid=[0.05, 0.2, 0.4, 1.5],
            alphas=[RenyiParameter(1.5), RenyiParameter(4.0, "sand")],
            opts=OptimizerOptions(restarts=2, max_iters=60, components=8), seed=2)
        rows = sweep(cfg)
        assert any(r.e_1_2 > 0 for r in rows)
        # rows (grid index, alpha index) = (0, 0), (1, 0), (2, 0) share a chunk
        assert rows[0].walltime_ms == rows[2].walltime_ms == rows[4].walltime_ms
        for row in rows:
            rho = thermal_state(hamiltonian(cfg.point_params(row.param_value)),
                                row.temp).rho
            res = monogamy(rho, RenyiParameter(row.alpha, row.variant),
                           replace(cfg.opts, seed=row.seed))
            assert (row.e_1_23, row.e_1_2, row.e_1_3, row.m, row.converged) == (
                res.e_1_23, res.e_1_2, res.e_1_3, res.m, res.converged)

    def test_unwritable_output(self, tmp_path):
        cfg = parse_config(TINY_CONFIG)
        cfg.out = str(tmp_path / "no" / "such" / "dir" / "rows.csv")
        with pytest.raises(IOError):
            sweep(cfg)

    def test_emitted_rows_satisfy_m_assembly(self):
        cfg = parse_config(TINY_CONFIG)
        for row in sweep(cfg):
            assert abs(row.m - (row.e_1_23 - row.e_1_2 - row.e_1_3)) < 1e-12


class TestCriticalTemperature:
    def test_none_in_range_sentinel(self):
        # strongly entangled region only: E stays far above threshold
        params = ModelParams.xxz(1.0, 1.0)
        got = critical_temperature(params, RenyiParameter(1.0), FAST,
                                   t_range=(0.2, 0.8), resolution=4)
        assert got is None

    def test_finds_decay_point(self):
        params = ModelParams.xxz(1.0, 0.5)
        tc = critical_temperature(params, RenyiParameter(1.0), FAST,
                                  t_range=(1.0, 5.0), resolution=6)
        assert tc is not None and 1.0 < tc < 5.0
        # entanglement is above threshold below tc and below it above
        lo = entscan.tripartite_entanglement(params, tc - 0.3, RenyiParameter(1.0), FAST)
        hi = entscan.tripartite_entanglement(params, tc + 0.3, RenyiParameter(1.0), FAST)
        assert lo > 1e-4 and hi < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_temperature(ModelParams.tfi(1.0), RenyiParameter(1.0),
                                 FAST, t_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            critical_temperature(ModelParams.tfi(1.0), RenyiParameter(1.0),
                                 FAST, resolution=2)


class TestCli:
    def test_state_subcommand(self, capsys):
        assert cli_main(["state", "ghz"]) == 0
        out = capsys.readouterr().out
        assert "ghz" in out and "+0.707107" in out

    def test_state_reduced_json(self, capsys):
        assert cli_main(["state", "star", "--reduced", "12",
                         "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reduced"]["pair"] == "12"

    def test_ree_subcommand(self, capsys):
        # a thermal state is full rank, so its 1:23 cut descends
        code = cli_main(["ree", "--model", "xxz", "--j", "1", "--delta", "0.5",
                         "--temp", "1.0", "--alpha", "1",
                         "--restarts", "2", "--max-iters", "300",
                         "--components", "8", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] > 0
        assert payload["restarts_used"] == 2
        assert payload["evaluations"] > payload["iterations"] >= 1
        assert payload["path"] == "descent"

    @pytest.mark.parametrize("argv, path, value", [
        (["--state", "ghz", "--alpha", "1"], "pure", math.log(2)),
        (["--state", "ghz", "--alpha", "1", "--cut", "1:2"], "ppt", 0.0),
        # S_beta of W's 1:23 Schmidt weights (1/3, 2/3), beta = 3/5
        (["--state", "w", "--alpha", "3", "--variant", "sand"], "pure",
         math.log((1 / 3) ** 0.6 + (2 / 3) ** 0.6) / 0.4),
    ])
    def test_ree_subcommand_tries_exact_paths(self, capsys, argv, path, value):
        assert cli_main(["ree", *argv, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["path"] == path
        assert payload["restarts_used"] == payload["iterations"] == 0
        assert abs(payload["value"] - value) < 1e-8

    def test_monogamy_subcommand(self, capsys):
        code = cli_main(["monogamy", "--model", "xxz", "--j", "1",
                         "--delta", "0.5", "--temp", "1.0",
                         "--restarts", "2", "--max-iters", "200",
                         "--components", "8", "--format", "json"])
        assert code in (0, 2)
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["m"] - (payload["e_1_23"] - payload["e_1_2"]
                                   - payload["e_1_3"])) < 1e-12
        assert payload["path_1_2"] == payload["path_1_3"] == "ppt"
        assert payload["path_1_23"] == "descent"

    def test_monogamy_subcommand_pure_state(self, capsys):
        assert cli_main(["monogamy", "--state", "ghz", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [payload[f"path_{cut}"] for cut in ("1_23", "1_2", "1_3")] == [
            "pure", "ppt", "ppt"]

    def test_state_and_model_conflict(self, capsys):
        code = cli_main(["ree", "--state", "ghz", "--model", "xyz"])
        assert code == 1

    @pytest.mark.parametrize("flag, named", [("--lambda", "lam"),
                                             ("--temp", "temperature"),
                                             ("--alpha", "alpha")])
    def test_non_finite_input_is_named(self, capsys, flag, named):
        assert cli_main(["ree", "--model", "tfi", flag, "nan"]) == 1
        assert named in capsys.readouterr().err

    def test_numeric_value_error_exit(self, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise ValueError("matrix is not Hermitian within tolerance")

        monkeypatch.setattr(cli, "ree", failing)
        # a full-rank state, so the command reaches the descent
        assert cli_main(["ree", "--model", "xxz", "--j", "1", "--delta", "0.5",
                         "--temp", "1.0"]) == 2
        assert "numeric error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["ree", "--state", "w", "--variant", "foo"],
        ["ree", "--state", "w", "--alpha", "abc"],
        ["tc", "--model", "xxz", "--j", "1", "--delta", "0.5", "--temp", "99"],
        ["tc", "--state", "ghz"],
    ])
    def test_malformed_command_line_is_config_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1

    def test_malformed_command_line_exit_in_subprocess(self):
        src = pathlib.Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run([sys.executable, "-m", "qree.cli", "tc", "--state",
                              "ghz"], env=env, capture_output=True, text=True)
        assert run.returncode == 1 and "--model" in run.stderr
        assert subprocess.run([sys.executable, "-m", "qree.cli", "--help"],
                              env=env, capture_output=True).returncode == 0

    def test_tc_bad_range_is_config_error(self, capsys):
        assert cli_main(["tc", "--model", "tfi", "--t-min", "2",
                         "--t-max", "1"]) == 1
        assert "t_range" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, named", [
        ("--t-max", "inf", "t_range"), ("--threshold", "nan", "threshold")])
    def test_tc_non_finite_is_config_error(self, capsys, flag, value, named):
        assert cli_main(["tc", "--model", "tfi", flag, value]) == 1
        assert f"{named} must be finite" in capsys.readouterr().err

    def test_sweep_config_error_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model = xyz\nwibble = 3\n")
        assert cli_main(["sweep", str(bad)]) == 1

    @pytest.mark.parametrize("key", ["floor", "grad_step", "tol_objective",
                                     "gradient"])
    def test_sweep_rejects_fixed_optimizer_constants(self, tmp_path, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(TINY_CONFIG + f"{key} = 1e-9\n")
        assert cli_main(["sweep", str(cfg)]) == 1
        assert re.search(rf"line \d+: unknown key '{key}'",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_sweep_workers_flag_validated(self, tmp_path, capsys, workers):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(TINY_CONFIG)
        assert cli_main(["sweep", str(cfg), "--workers", workers]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["ree", "--state", "w"],
                                      ["monogamy", "--state", "w"],
                                      ["tc", "--model", "tfi"]],
                             ids=["ree", "monogamy", "tc"])
    def test_sandwiched_alpha_above_cap_is_config_error(self, capsys, argv):
        assert cli_main(argv + ["--alpha", "65", "--variant", "sand"]) == 1
        assert ("config error: sandwiched alpha capped at 64, got 65"
                in capsys.readouterr().err)

    def test_sweep_sandwiched_alpha_above_cap_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(TINY_CONFIG.replace("alphas = 1 trad",
                                           "alphas = 1 trad, 70 sand"))
        assert cli_main(["sweep", str(cfg)]) == 1
        assert re.search(r"line \d+: sandwiched alpha capped at 64, got 70",
                         capsys.readouterr().err)

    def test_sweep_non_finite_alpha_exit(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(TINY_CONFIG.replace("alphas = 1 trad", "alphas = nan trad"))
        assert cli_main(["sweep", str(cfg)]) == 1
        assert re.search(r"line \d+: alpha must be finite and positive, got nan",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("edits", [
        [("grid = 1.0, 2.0", "grid = nan")],
        [("sweep = temp", "sweep = delta"), ("temp = 1.0", "temp = nan")],
        [("grid = 1.0, 2.0", "grid = 0.5 : inf : 3")]],
        ids=["swept-nan", "fixed-nan", "linspace-to-inf"])
    def test_sweep_non_finite_temperature_exit(self, tmp_path, capsys, edits):
        text = TINY_CONFIG
        for old, new in edits:
            text = text.replace(old, new)
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(text)
        assert cli_main(["sweep", str(cfg)]) == 1
        assert "finite" in capsys.readouterr().err

    def test_sweep_negative_seed_exit(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(TINY_CONFIG.replace("seed = 4", "seed = -1"))
        assert cli_main(["sweep", str(cfg)]) == 1
        assert re.search(r"line \d+: seed must be non-negative, got -1",
                         capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [["check", "--seed", "-1"],
                                      ["tc", "--model", "tfi", "--seed", "-1"]],
                             ids=["check", "tc"])
    def test_negative_seed_flag_exit(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 1
        assert "seed must be a non-negative integer, got '-1'" in capsys.readouterr().err

    def test_sweep_missing_file_exit(self):
        assert cli_main(["sweep", "/no/such/file.cfg"]) == 3

    def test_sweep_runs_and_writes(self, tmp_path, capsys):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(TINY_CONFIG)
        out = tmp_path / "rows.csv"
        code = cli_main(["sweep", str(cfg), "--out", str(out)])
        assert code == 0
        rows = parse_rows(out.read_text())
        assert len(rows) == 2

    def test_tc_subcommand(self, capsys):
        code = cli_main(["tc", "--model", "xxz", "--j", "1", "--delta", "0.5",
                         "--alpha", "1", "--restarts", "2",
                         "--max-iters", "200", "--components", "8",
                         "--t-min", "1.0", "--t-max", "5.0",
                         "--resolution", "5"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out == "none-in-range" or 1.0 <= float(out) <= 5.0

    def test_check_subcommand(self, capsys):
        assert cli_main(["check", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 4
