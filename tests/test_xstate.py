import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qree import xstate
from qree.entscan import CUT_PAIR, exact_batch, monogamy
from qree.qmat import (kron, partial_trace, partial_transpose, projector,
                       random_density_matrix, random_unitary)
from qree.renyi import Divergence, RenyiParameter, rel_entropy
from qree.sepstates import OptimizerOptions, ree
from qree.spinchain import ModelParams, hamiltonian, thermal_state
from qree.statezoo import star, w

ZOO_PARAMS = (RenyiParameter(1.0), RenyiParameter(0.7, "trad"),
              RenyiParameter(1.5, "trad"), RenyiParameter(0.5, "sand"),
              RenyiParameter(3.0, "sand"))
OPTS = OptimizerOptions(restarts=4, max_iters=2000, components=16, seed=5)
# ln 3 - (4/3) ln 2: W's pair at KL, closest state diag-block (4/9, 1/9)
# on {00, 11} and the rank-1 block (2/9) [[1, 1], [1, 1]] on {01, 10}
W_PAIR_KL = math.log(3) - 4 / 3 * math.log(2)


def pair(psi, keep):
    return partial_trace(projector(psi), [2, 2, 2], keep)


def random_npt_x_state(rng):
    """A seeded NPT X-state turned by a random local unitary."""
    while True:
        p = rng.dirichlet(np.ones(4))
        outer = rng.uniform() * math.sqrt(p[0] * p[3]) * np.exp(2j * math.pi * rng.uniform())
        inner = rng.uniform() * math.sqrt(p[1] * p[2]) * np.exp(2j * math.pi * rng.uniform())
        rho = np.diag(p).astype(complex)
        rho[0, 3], rho[3, 0] = outer, np.conj(outer)
        rho[1, 2], rho[2, 1] = inner, np.conj(inner)
        if np.linalg.eigvalsh(partial_transpose(rho, [2, 2], 1))[0] < -1e-3:
            u = kron(random_unitary(2, int(rng.integers(1 << 30))),
                     random_unitary(2, int(rng.integers(1 << 30))))
            return u @ rho @ u.conj().T


def near_pure_x_state(rng):
    """A seeded X-state whose two blocks are each rank 2 with a smaller
    eigenvalue, relative to the block, of 1e-12 to 1e-4, random block
    weights, eigenvectors and coherence phases, turned by a random local
    unitary."""
    rho = np.zeros((4, 4), dtype=complex)
    weight = rng.uniform()
    for rows, share in (((0, 3), weight), ((1, 2), 1.0 - weight)):
        small = 10.0 ** rng.uniform(-12, -4)
        theta = 2 * math.pi * rng.uniform()
        v = np.array([math.cos(theta),
                      math.sin(theta) * np.exp(2j * math.pi * rng.uniform())])
        perp = np.array([-np.conj(v[1]), np.conj(v[0])])
        rho[np.ix_(rows, rows)] = share * ((1 - small) * np.outer(v, v.conj())
                                           + small * np.outer(perp, perp.conj()))
    u = kron(random_unitary(2, int(rng.integers(1 << 30))),
             random_unitary(2, int(rng.integers(1 << 30))))
    return u @ rho @ u.conj().T


def reproduces(rho, found):
    frame, rho_x = found
    assert np.abs(frame @ rho_x @ frame.conj().T - rho).max() <= 1e-14
    assert np.allclose(frame.conj().T @ frame, np.eye(4), atol=1e-14)
    # a real X-state with non-negative coherences
    assert np.array_equal(rho_x.imag, np.zeros((4, 4)))
    assert np.count_nonzero(rho_x[~xstate._X_PATTERN]) == 0
    assert rho_x[0, 3].real >= 0 and rho_x[1, 2].real >= 0


class TestDetection:
    def test_w_pairs_are_z_z_x_states(self):
        for keep in ((0, 1), (0, 2)):
            rho = pair(w(), keep)
            found = xstate.x_frame(rho)
            reproduces(rho, found)
            # Z (x) Z: the frame is diagonal, local phases only
            frame = found[0]
            assert np.abs(frame - np.diag(np.diagonal(frame))).max() <= 1e-15

    def test_star_pairs_need_rotated_axes(self):
        for keep in ((0, 1), (0, 2)):
            rho = pair(star(), keep)
            assert all(np.abs(rho @ op - op @ rho).max() > 0.1
                       for op in (xstate._PAULI_PAIRS[3 * i + j]
                                  for i, j in xstate._ALIGNED))
            found = xstate.x_frame(rho)
            reproduces(rho, found)
            assert np.abs(found[0] - np.diag(np.diagonal(found[0]))).max() > 0.1

    def test_xyz_thermal_pair(self):
        rho3 = thermal_state(hamiltonian(ModelParams.xyz(0.8, 0.5, 1.0)), 0.25).rho
        for keep in ((0, 1), (0, 2)):
            rho = partial_trace(rho3, [2, 2, 2], keep)
            reproduces(rho, xstate.x_frame(rho))

    def test_random_npt_pair_is_refused_and_descends(self):
        rho = random_density_matrix(4, 4, 7)
        assert np.linalg.eigvalsh(partial_transpose(rho, [2, 2], 1))[0] < 0
        assert xstate.x_frame(rho) is None
        assert xstate.ree_batch([rho], RenyiParameter(1.0)) == [None]
        assert exact_batch([rho], CUT_PAIR, RenyiParameter(1.0)) == [None]
        quick = OptimizerOptions(restarts=1, max_iters=30, components=4, seed=0)
        res = monogamy(kron(rho, np.diag([1.0, 0.0])), RenyiParameter(1.0), quick)
        assert res.detail_1_2.path == "descent"


class TestSolver:
    def test_w_pair_at_kl(self):
        [res] = exact_batch([pair(w(), (0, 1))], CUT_PAIR, RenyiParameter(1.0))
        assert res.path == "xstate"
        assert abs(res.value - W_PAIR_KL) <= 1e-8
        assert res.lower_bound <= W_PAIR_KL <= res.value

    @pytest.mark.parametrize("p", ZOO_PARAMS, ids=str)
    def test_at_or_below_the_descent(self, p):
        rng = np.random.default_rng(31)
        rhos = [random_npt_x_state(rng) for _ in range(3)]
        for rho, res in zip(rhos, xstate.ree_batch(rhos, p)):
            descent = ree(rho, CUT_PAIR, p, OPTS).value
            # the descent's stall test resolves a value to about 1e-9 here
            assert res.value <= descent + 1e-9
            assert res.lower_bound <= min(res.value, descent)

    def test_bound_holds_where_the_optimum_nears_the_floor(self):
        # a near-pure thermal pair: rho's smallest eigenvalue is about 1e-8,
        # and a step onto a singular sigma there lowers only the floored
        # value, so a bound taken there would exceed the minimum
        rho3 = thermal_state(hamiltonian(ModelParams.tfi(2.0)), 0.1).rho
        rho = partial_trace(rho3, [2, 2, 2], (0, 1))
        p = RenyiParameter(1.0)
        [res] = exact_batch([rho], CUT_PAIR, p)
        assert res.path == "xstate" and res.converged
        descent = ree(rho, CUT_PAIR, p, OPTS).value
        assert res.lower_bound <= min(res.value, descent)
        assert res.value <= descent + 1e-9

    def test_batch_equals_one_by_one(self):
        rng = np.random.default_rng(32)
        rhos = [random_npt_x_state(rng) for _ in range(3)] + [pair(w(), (0, 1)),
                                                              pair(star(), (0, 2))]
        # rank 4 and rank 2 states share the batch
        for p in (RenyiParameter(1.0), RenyiParameter(3.0, "sand")):
            batch = xstate.ree_batch(rhos, p)
            for rho, got in zip(rhos, batch):
                alone = xstate.ree_batch([rho], p)[0]
                assert got.value == alone.value
                assert np.array_equal(got.closest_state, alone.closest_state)
                assert (got.lower_bound, got.iterations, got.evaluations) == (
                    alone.lower_bound, alone.iterations, alone.evaluations)

    @pytest.mark.parametrize("p", ZOO_PARAMS, ids=str)
    def test_flags_tell_the_truth(self, p):
        for res in xstate.ree_batch([pair(w(), (0, 1)), pair(star(), (0, 1))], p):
            assert res.converged == (res.value - res.lower_bound
                                     <= xstate.XSTATE_TOLERANCE)
            assert res.iterations > 0 and res.evaluations > res.iterations
            assert res.restarts == ()

    def test_value_is_reproducible_from_the_closest_state(self):
        rho = pair(star(), (0, 1))
        p = RenyiParameter(2.0, "sand")
        res = xstate.ree_batch([rho], p)[0]
        sigma = res.closest_state
        assert res.value == rel_entropy(rho, sigma, p)
        # separable: positive partial transpose
        assert np.linalg.eigvalsh(partial_transpose(sigma, [2, 2], 1))[0] > 0


# the parameters of the kernel tests: KL, Petz and sandwiched on both
# sides of alpha = 1, up to a large sandwiched alpha
KERNEL_PARAMS = ((RenyiParameter(1.0),)
                 + tuple(RenyiParameter(a, "trad") for a in (0.2, 0.7, 1.5, 2.0))
                 + tuple(RenyiParameter(a, "sand") for a in (0.5, 3.0, 64.0)))
# real X-states as z = (a, b, c, d, x, y): both blocks rank 1 (W's pair),
# a rank-1 and a full-rank block, and both blocks full rank
KERNEL_RHOS = {
    "rank1": [1 / 3, 1 / 3, 1 / 3, 0.0, 0.0, 1 / 3],
    "rank2": [0.5, 0.1, 0.1, 0.3, 0.0, 0.1],
    "full": [0.3, 0.2, 0.15, 0.35, 0.25, 0.15],
}
# sigma at I/4, where each block's eigenvalues are equal; inside; singular
# (the inner block, y^2 = b c, its null vector (1, 1) / sqrt 2 inside the
# support of the rank-1 inner blocks of rho: a null vector orthogonal to it
# leaves a gradient term of rounding times the floored sigma^(1 - alpha),
# which no two evaluations share); and on a PPT face (y^2 = a d < b c)
KERNEL_SIGMAS = {
    "start": list(xstate._START),
    "interior": [0.3, 0.25, 0.2, 0.25, 0.1, -0.05],
    "singular": [0.35, 0.15, 0.15, 0.35, 0.05, -0.15],
    "ppt": [0.1, 0.3, 0.4, 0.2, 0.05, math.sqrt(0.02)],
}


def kernel_at(rho_z, sigma_z, p):
    rho = xstate.x_sigma(np.array([rho_z]))[0].astype(complex)
    return xstate._Kernel([rho], p).divergence(np.array([sigma_z]), np.array([0]))


class TestKernel:
    @pytest.mark.parametrize("p", KERNEL_PARAMS, ids=str)
    @pytest.mark.parametrize("rho_name", KERNEL_RHOS)
    @pytest.mark.parametrize("sigma_name", KERNEL_SIGMAS)
    def test_matches_renyi(self, p, rho_name, sigma_name):
        if (sigma_name == "singular" and rho_name == "full"
                and p.variant == "sandwiched" and p.alpha < 1):
            # a floored sigma eigenvalue against a full-rank rho block puts a
            # Gram eigenvalue of ``renyi`` below the floor: its gradient
            # floors that eigenvalue and its value carries eigvalsh's
            # absolute error on it, while the kernel's closed form does not
            pytest.skip("renyi's sandwiched Gram eigenvalue below the floor")
        rho = xstate.x_sigma(np.array([KERNEL_RHOS[rho_name]]))[0].astype(complex)
        sigma = xstate.x_sigma(np.array([KERNEL_SIGMAS[sigma_name]]))
        d, grad, _ = kernel_at(KERNEL_RHOS[rho_name], KERNEL_SIGMAS[sigma_name], p)
        ws, vs = np.linalg.eigh(sigma)
        div = Divergence(rho, p)
        g = div.sigma_grad(ws, vs)[0].real
        ref = np.array([g[0, 0], g[1, 1], g[2, 2], g[3, 3], 2 * g[0, 3], 2 * g[1, 2]])
        assert abs(d[0] - div.value(ws, vs)[0]) <= 1e-12
        # relative to the gradient, or to 1 where a floor penalty (Q about
        # 1e12 at the singular point for alpha > 1) makes grad D tiny
        assert np.abs(grad[0] - ref).max() <= 1e-9 * max(np.abs(ref).max(), 1.0)

    @pytest.mark.parametrize("p", KERNEL_PARAMS, ids=str)
    @pytest.mark.parametrize("rho_name", KERNEL_RHOS)
    @pytest.mark.parametrize("sigma_name", ["start", "interior", "ppt", "near_singular"])
    def test_hessian_matches_central_differences(self, p, rho_name, sigma_name):
        # the floored value has a kink where an eigenvalue crosses the
        # floor, so the singular point is replaced by one whose inner block
        # has its smaller eigenvalue near 1e-6, and the step is a share of it
        sigma_z = KERNEL_SIGMAS.get(sigma_name, [0.35, 0.15, 0.15, 0.35, 0.05,
                                                 -math.sqrt(0.0225 - 3e-7)])
        small = xstate._sigma_eigs(np.array([sigma_z]))[0][0, :, 0].min()
        step = 1e-4 * min(small, 1e-2)
        _, _, hess = kernel_at(KERNEL_RHOS[rho_name], sigma_z, p)
        diff = np.empty((6, 6))
        for j in range(6):
            e = np.zeros(6)
            e[j] = step
            up = kernel_at(KERNEL_RHOS[rho_name], np.add(sigma_z, e), p)[1][0]
            down = kernel_at(KERNEL_RHOS[rho_name], np.subtract(sigma_z, e), p)[1][0]
            diff[j] = (up - down) / (2 * step)
        assert np.abs(diff - hess[0]).max() <= 1e-6 * np.abs(hess[0]).max()

    def test_batch_rows_keep_their_own_state(self):
        rhos = [xstate.x_sigma(np.array([z]))[0] for z in KERNEL_RHOS.values()]
        sigma = np.array([KERNEL_SIGMAS["interior"]] * 3)
        for p in (RenyiParameter(1.0), RenyiParameter(0.5, "sand")):
            both = xstate._Kernel(rhos, p).divergence(sigma, np.array([2, 0, 1]))
            for row, state in enumerate((2, 0, 1)):
                alone = xstate._Kernel([rhos[state]], p).divergence(
                    sigma[:1], np.array([0]))
                for got, want in zip(both, alone):
                    assert np.array_equal(got[row], want[0])


# the Newton iterations of the solves of W's and star's two pairs at the
# five ZOO_PARAMS, summed (437 with a forward-difference Hessian and a
# polish that could not certify)
ZOO_PAIR_ITERATIONS = 246


def test_zoo_pair_iterations():
    pairs = [pair(s(), keep) for s in (w, star) for keep in ((0, 1), (0, 2))]
    total = 0
    for p in ZOO_PARAMS:
        for res in xstate.ree_batch(pairs, p):
            assert res.path == "xstate" and res.converged
            assert res.lower_bound <= res.value
            total += res.iterations
    assert total <= ZOO_PAIR_ITERATIONS


class TestNearPurePairs:
    @pytest.mark.parametrize("lam", (0.5, 2.0))
    def test_tfi_pairs_certify_at_sandwiched_half(self, lam):
        # rho's smallest eigenvalues are about 1e-7 and 1e-6 (lam = 2); the
        # two pairs are one state up to rounding (3e-16 per entry), so they
        # must take one path: both certified xstate results
        rho3 = thermal_state(hamiltonian(ModelParams.tfi(lam)), 0.1).rho
        rhos = [partial_trace(rho3, [2, 2, 2], keep) for keep in ((0, 1), (0, 2))]
        p = RenyiParameter(0.5, "sand")
        res = xstate.ree_batch(rhos, p)
        for r in res:
            assert r.path == "xstate" and r.converged
            assert r.lower_bound <= r.value
        # the solves agree to rounding; the reported values, re-evaluated by
        # ``renyi`` at each pair's closest state, carry the absolute error
        # of its eigvalsh on Gram eigenvalues near 1e-14, up to about 4e-11
        assert abs(res[0].lower_bound - res[1].lower_bound) <= 1e-12
        assert abs(res[0].value - res[1].value) <= 1e-10
        quick = OptimizerOptions(restarts=1, max_iters=30, components=4, seed=0)
        m = monogamy(rho3, p, quick)
        assert [d.path for d in (m.detail_1_2, m.detail_1_3)] == ["xstate"] * 2
        assert abs(m.e_1_2 - m.e_1_3) <= 1e-10

    @pytest.mark.parametrize("lam, temp, values", [
        (1.0, 0.1, (0.2157679970751524, 0.2157679970751524)),
        (2.0, 0.1, (0.2567109192558396, 0.25671091925583833)),
        (0.5, 0.2, (0.15504372328879293, 0.15504372328879254))])
    def test_sandwiched_64_overflows_quietly(self, lam, temp, values):
        # exp((alpha - 1) D) overflows at rejected trial points, which must
        # not warn; the rows reach the barrier cap and certify there
        rho3 = thermal_state(hamiltonian(ModelParams.tfi(lam)), temp).rho
        rhos = [partial_trace(rho3, [2, 2, 2], keep) for keep in ((0, 1), (0, 2))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = xstate.ree_batch(rhos, RenyiParameter(64.0, "sand"))
        assert all(r.converged for r in res)
        assert all(r.iterations < xstate.XSTATE_MAX_ITERS for r in res)
        assert tuple(r.value for r in res) == values

    @pytest.mark.parametrize("alpha", (8.0, 64.0))
    def test_rows_at_the_cap_finish(self, alpha):
        # near-pure states at large alpha reach the barrier cap; there a row
        # centers by the rule of every other row and stops once certified
        # within XSTATE_TOLERANCE
        rng = np.random.default_rng(0)
        rhos = [near_pure_x_state(rng) for _ in range(40)]
        res = xstate.ree_batch(rhos, RenyiParameter(alpha, "sand"))
        assert all(r.path == "xstate" and r.converged for r in res)
        assert max(r.iterations for r in res) < xstate.XSTATE_MAX_ITERS
        assert all(r.lower_bound <= r.value for r in res)

    def test_bound_holds_at_sandwiched_half(self):
        # TFI lam = 0.5, T = 0.1: with N_B's small eigenvalues dropped as
        # rounding zeros, a descent reached 3.4e-8 below the certified
        # bound, and 60-digit arithmetic put the divergence at the solver's
        # own closest state 8.6e-9 below it
        rho3 = thermal_state(hamiltonian(ModelParams.tfi(0.5)), 0.1).rho
        rho = partial_trace(rho3, [2, 2, 2], (0, 1))
        p = RenyiParameter(0.5, "sand")
        [res] = xstate.ree_batch([rho], p)
        assert res.converged
        opts = OptimizerOptions(restarts=1, max_iters=2000, components=8, seed=3)
        assert res.lower_bound <= ree(rho, CUT_PAIR, p, opts).value


class TestUncertifiedPairsDescend:
    def test_tfi_pair_at_sandwiched_half(self):
        # a near-pure thermal pair (rho's smallest eigenvalues 7e-8 and
        # 2.5e-6) whose barrier solve stalls short of its certificate at
        # sandwiched 1/2: the pair descends instead
        rho3 = thermal_state(hamiltonian(ModelParams.tfi(2.0)), 0.1).rho
        rho = partial_trace(rho3, [2, 2, 2], (0, 1))
        p = RenyiParameter(0.5, "sand")
        [exact] = exact_batch([rho], CUT_PAIR, p)
        assert exact is None or exact.converged
        opts = OptimizerOptions(restarts=2, max_iters=300, components=8, seed=3)
        res = monogamy(rho3, p, opts).detail_1_2
        assert res.converged
        # the descent's value at these options before the xstate path
        assert res.value <= 0.022756507375067236

    def test_uncertified_results_are_dropped(self, monkeypatch):
        real = xstate.ree_batch
        monkeypatch.setattr(xstate, "ree_batch", lambda rhos, p: [
            None if r is None else replace(r, converged=False) for r in real(rhos, p)])
        p = RenyiParameter(1.0)
        assert exact_batch([pair(star(), (0, 1))], CUT_PAIR, p) == [None]
        quick = OptimizerOptions(restarts=1, max_iters=30, components=4, seed=0)
        res = monogamy(projector(star()), p, quick)
        assert [d.path for d in (res.detail_1_2, res.detail_1_3)] == ["descent"] * 2


def test_linear_minimum_matches_a_search_of_the_feasible_set():
    # c.z over the feasible set: for fixed (a, b, c, d), |x| and |y| reach
    # sqrt(min(a d, b c)); a fine simplex grid then brackets the minimum
    rng = np.random.default_rng(33)
    m = 60
    grid = np.array([(i, j, k, m - i - j - k) for i in range(m + 1)
                     for j in range(m + 1 - i) for k in range(m + 1 - i - j)]) / m
    reach = np.sqrt(np.minimum(grid[:, 0] * grid[:, 3], grid[:, 1] * grid[:, 2]))
    cs = rng.standard_normal((40, 6)) * rng.choice([1e-2, 1.0, 1e2], size=(40, 1))
    cs[:5, 4:] = 0.0                         # no coherence term
    cs[5:10, 3] = cs[5:10, 0]                # equal weights on a and d
    lmo = xstate._lmo(cs)
    for c, low in zip(cs, lmo):
        searched = (grid @ c[:4] - (abs(c[4]) + abs(c[5])) * reach).min()
        assert low <= searched + 1e-12 * np.abs(c).max()
        # a grid of spacing 1/60 lands within a few percent of the minimum
        assert searched - low <= 0.05 * np.abs(c).max()


def test_import_loads_no_scipy():
    src = pathlib.Path(xstate.__file__).resolve().parent.parent
    code = ("import sys, qree, qree.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"


def test_evaluations_count_every_evaluated_state(monkeypatch):
    # I/4, where each solve starts and Q0 is taken, is evaluated once, and
    # every state the kernel evaluates is counted once
    evaluated, divergence = [], xstate._Kernel.divergence

    def counting(self, z, rows):
        evaluated.append(len(rows))
        return divergence(self, z, rows)

    monkeypatch.setattr(xstate._Kernel, "divergence", counting)
    pairs = [pair(w(), (0, 1)), pair(star(), (0, 2))]
    for p in ZOO_PARAMS:
        evaluated.clear()
        results = xstate.ree_batch(pairs, p)
        assert sum(evaluated) == sum(res.evaluations for res in results), p
