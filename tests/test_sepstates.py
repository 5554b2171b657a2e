import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import fractional_matrix_power, logm, svdvals

from qree.qmat import Bipartition, kron, partial_trace, projector, random_density_matrix, random_unitary, validate_density
from qree.renyi import Divergence, RenyiParameter, rel_entropy, von_neumann_entropy
from qree.sepstates import (BOUND_ALLOWANCE, CLOSEST_STATE_MIXING,
                            COMPONENTS_PER_DIM, FD_STEP, LBFGS_MEMORY,
                            SANDWICHED_ALPHA_CAP, OptimizerOptions,
                            _decompose, _draw_samples,
                            _empty_memory, _forget, _initial_ansatz,
                            _lbfgs_direction,
                            _line_search, _mixtures, _products, _realize,
                            _remember,
                            _restart_seed, _Objective, _sample_eigenpairs,
                            pure_ree, ree, ree_batch,
                            sample_separable_batch, sample_upper_bound,
                            schmidt_entropy)
from qree.statezoo import ghz, reduced_pair, star, w, w_reduced

from conftest import random_rows, random_separable, row_states

CUT_123 = Bipartition(2, 4)
CUT_22 = Bipartition(2, 2)
LN2 = math.log(2)


def mixture(logits, vectors_a, vectors_b):
    """The ansatz kernel on a batch of one."""
    return _mixtures(np.asarray(logits, dtype=float)[None],
                     np.asarray(vectors_a, dtype=complex)[None],
                     np.asarray(vectors_b, dtype=complex)[None])[0][0]


class TestRealize:
    def test_single_product_term(self):
        sigma = mixture(np.zeros(1), [[1.0, 0.0]], [[1.0, 0.0, 0.0, 0.0]])
        want = np.zeros((8, 8), dtype=complex)
        want[0, 0] = 1.0
        assert np.abs(sigma - want).max() < 1e-14

    def test_two_term_diagonal_mixture(self):
        sigma = mixture(np.zeros(2), [[1, 0], [0, 1]],
                        [[1, 0, 0, 0], [0, 0, 0, 1]])
        want = np.zeros((8, 8), dtype=complex)
        want[0, 0] = want[7, 7] = 0.5
        assert np.abs(sigma - want).max() < 1e-14
        validate_density(sigma)

    @given(st.floats(-30, 30))
    @settings(max_examples=25, deadline=None)
    def test_logit_shift_invariance(self, shift):
        rng = np.random.default_rng(5)
        theta = random_rows(CUT_22, 4, rng)
        shifted = theta.copy()
        shifted[:, :4] += shift
        assert np.abs(row_states(CUT_22, theta)
                      - row_states(CUT_22, shifted)).max() < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            mixture(np.zeros(1), [[0.0, 0.0]], [[1.0, 0.0]])

    def test_realized_states_are_valid(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            validate_density(random_separable(CUT_123, 8, rng))


class TestSchmidtEntropy:
    def test_product_state(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        assert schmidt_entropy(psi, CUT_123) == pytest.approx(0.0, abs=1e-12)

    def test_ghz(self):
        assert schmidt_entropy(ghz(), CUT_123) == pytest.approx(LN2, abs=1e-12)

    def test_w(self):
        want = -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3)
        got = schmidt_entropy(w(), CUT_123)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.636514, abs=1e-6)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            schmidt_entropy(np.ones(8), CUT_123)

    @pytest.mark.parametrize("cut", [CUT_123, CUT_22])
    def test_matches_entropy_of_reduced_state(self, cut):
        rng = np.random.default_rng(23)
        for _ in range(10):
            psi = rng.normal(size=cut.dim) + 1j * rng.normal(size=cut.dim)
            psi /= np.linalg.norm(psi)
            reduced = partial_trace(projector(psi), [cut.dim_a, cut.dim_b], [0])
            assert abs(schmidt_entropy(psi, cut)
                       - von_neumann_entropy(reduced)) <= 1e-12


class TestReeOracles:
    def test_ghz_reduced_is_separable(self, fast_opts):
        res = ree(reduced_pair(ghz(), 12), CUT_22, RenyiParameter(1.0), fast_opts)
        assert res.value <= 1e-5
        validate_density(res.closest_state)

    def test_ghz_matches_schmidt_oracle(self, fast_opts):
        res = ree(projector(ghz()), CUT_123, RenyiParameter(1.0), fast_opts)
        assert abs(res.value - LN2) < 1e-4

    def test_w_reduced_is_entangled(self, fast_opts):
        res = ree(w_reduced(), CUT_22, RenyiParameter(1.0), fast_opts)
        assert res.value > 0.05

    def test_value_recomputable_from_closest_state(self, fast_opts):
        p = RenyiParameter(1.5, "sand")
        res = ree(projector(star()), CUT_123, p, fast_opts)
        again = rel_entropy(projector(star()), res.closest_state, p)
        assert abs(res.value - again) < 1e-9

    def test_dim_mismatch_rejected(self, fast_opts):
        with pytest.raises(ValueError, match="cut"):
            ree(np.eye(4) / 4, CUT_123, RenyiParameter(1.0), fast_opts)

    @pytest.mark.parametrize("rho, named", [
        (2 * projector(ghz()), "trace"),
        (projector(ghz()) + np.triu(np.full((8, 8), 1e-3), 1), "Hermitian"),
        (projector(ghz()) + np.diag([math.nan] + [0.0] * 7), "non-finite")])
    def test_invalid_state_rejected(self, fast_opts, rho, named):
        p = RenyiParameter(1.5, "sand")
        with pytest.raises(ValueError, match=named):
            ree(rho, CUT_123, p, fast_opts)
        with pytest.raises(ValueError, match=named):
            sample_upper_bound(rho, CUT_123, p, 10, seed=0)
        with pytest.raises(ValueError, match=named):
            pure_ree(rho, CUT_123, p)

    def test_descent_at_the_sandwiched_cap_stays_finite(self, fast_opts):
        # at alpha = 64 the floored eigenvalues lift Tr (s rho s)^alpha
        # past the float range unless it is summed in log space; summed
        # term by term, this seed's descent overflows
        p = RenyiParameter(SANDWICHED_ALPHA_CAP, "sand")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ree(w_reduced(), CUT_22, p, replace(fast_opts, seed=2))
        assert all(math.isfinite(r.value) for r in res.restarts)
        assert 0 < res.value < math.inf

    def test_sandwiched_alpha_cap(self, fast_opts):
        with pytest.raises(ValueError, match="cap"):
            ree(np.eye(8) / 8, CUT_123, RenyiParameter(100.0, "sand"), fast_opts)


class TestSeparableDetection:
    @pytest.mark.parametrize("p", [RenyiParameter(0.7, "trad"),
                                   RenyiParameter(1.0, "trad"),
                                   RenyiParameter(1.5, "trad"),
                                   RenyiParameter(3.0, "sand")])
    def test_separable_states_score_zero(self, p):
        opts = OptimizerOptions(restarts=2, max_iters=400, components=8, seed=3)
        rng = np.random.default_rng(42)
        for _ in range(12):
            sigma = random_separable(CUT_22, 6, rng)
            res = ree(sigma, CUT_22, p, opts)
            assert res.value <= 1e-4


def replay_product_family(cut, n, k, seed):
    """The second half of ``sample_separable_batch(cut, n, k, rng(seed))``,
    sum_k w_k |qa e_i (x) qb e_j><.| in a random product basis, rebuilt by
    replaying the generator's draws."""
    da, db = cut.dim_a, cut.dim_b
    rng = np.random.default_rng(seed)
    for shape in [(k,), (k, da), (k, da), (k, db), (k, db)]:
        rng.normal(size=(n - n // 2,) + shape)    # the generic family
    qa, qb = (np.linalg.qr(rng.normal(size=(n // 2, d, d))
                           + 1j * rng.normal(size=(n // 2, d, d)))[0]
              for d in (da, db))
    w = rng.dirichlet(np.full(cut.dim, 0.35), size=n // 2)
    return [sum(w[s, i * db + j] * projector(kron(qa[s][:, i], qb[s][:, j]))
                for i in range(da) for j in range(db))
            for s in range(n // 2)]


class TestSampleUpperBound:
    def test_bound_dominates_optimizer(self, fast_opts):
        rng = np.random.default_rng(9)
        sigma = random_separable(CUT_22, 6, rng)
        p = RenyiParameter(1.0)
        bound = sample_upper_bound(sigma, CUT_22, p, 10**4, seed=5)
        best = ree(sigma, CUT_22, p, fast_opts).value
        assert best <= bound + 1e-9

    def test_bell_state_dense_sampling(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 2**-0.5
        bound = sample_upper_bound(projector(bell), CUT_22, RenyiParameter(1.0),
                                   10**5, seed=7)
        assert LN2 - 1e-9 <= bound <= LN2 + 0.05

    def test_single_sample_is_plain_divergence(self):
        rho = random_density_matrix(4, 4, 33)
        p = RenyiParameter(1.5, "trad")
        rng = np.random.default_rng(3)
        sigma = sample_separable_batch(CUT_22, 1, 16, rng)[0]
        got = sample_upper_bound(rho, CUT_22, p, 1, seed=3)
        assert got == pytest.approx(rel_entropy(rho, sigma, p), abs=1e-12)

    @pytest.mark.parametrize("cut", [CUT_22, CUT_123])
    def test_product_basis_family(self, cut):
        n, k = 6, 5
        got = sample_separable_batch(cut, n, k, np.random.default_rng(8))[n // 2:]
        for g, want in zip(got, replay_product_family(cut, n, k, 8)):
            assert np.abs(g - want).max() < 1e-12

    @pytest.mark.parametrize("cut", [CUT_22, CUT_123])
    def test_product_basis_eigenpairs(self, cut):
        # the product-basis family is drawn as eigenpairs, never decomposed
        n, k = 6, 5
        ws, vs = _sample_eigenpairs(cut, n, k, np.random.default_rng(8))
        for w_s, v_s, sigma in zip(ws[n // 2:], vs[n // 2:],
                                   replay_product_family(cut, n, k, 8)):
            assert np.abs(v_s.conj().T @ v_s - np.eye(cut.dim)).max() <= 1e-12
            assert np.abs(sigma @ v_s - v_s * w_s).max() <= 1e-12

    @pytest.mark.parametrize("cut", [CUT_22, CUT_123])
    @pytest.mark.parametrize("p", [RenyiParameter(1.0),
                                   RenyiParameter(1.5, "trad"),
                                   RenyiParameter(3.0, "sand")])
    def test_bound_is_minimum_over_decomposed_samples(self, cut, p):
        # scoring the sampler's eigenpairs gives what a full decomposition
        # of its states gives, chunk by chunk as the oracle draws them
        rho = random_density_matrix(cut.dim, 2, 13)
        n, k = 5000, COMPONENTS_PER_DIM * cut.dim
        div, rng = Divergence(rho, p), np.random.default_rng(6)
        want = min(div.value(*np.linalg.eigh(
            sample_separable_batch(cut, m, k, rng))).min() for m in (4096, n - 4096))
        got = sample_upper_bound(rho, cut, p, n, seed=6)
        assert abs(got - want) <= 1e-12

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            sample_upper_bound(np.eye(4) / 4, CUT_22, RenyiParameter(1.0), 0, 1)

    @pytest.mark.parametrize("n_samples, seed, named", [
        (1e4, 1, "n_samples"), (10, -1, "seed"), (10, 1.5, "seed")])
    def test_rejects_bad_count_or_seed(self, n_samples, seed, named):
        with pytest.raises(ValueError, match=named):
            sample_upper_bound(np.eye(4) / 4, CUT_22, RenyiParameter(1.0),
                               n_samples, seed)

    @pytest.mark.parametrize("n, components, named", [
        (4, 0, "components"), (-2, 4, "n must")])
    def test_batch_rejects_bad_counts(self, n, components, named):
        with pytest.raises(ValueError, match=named):
            sample_separable_batch(CUT_22, n, components, np.random.default_rng(1))

    @pytest.mark.parametrize("cut", [CUT_22, CUT_123])
    @pytest.mark.parametrize("rank", [1, 2, "full"])
    @pytest.mark.parametrize("p", [RenyiParameter(1.0),
                                   RenyiParameter(0.7, "trad"),
                                   RenyiParameter(2.0, "trad"),
                                   RenyiParameter(0.5, "sand"),
                                   RenyiParameter(3.0, "sand")])
    def test_screen_keeps_the_unscreened_minimum(self, cut, rank, p):
        # the screen skips only samples that cannot lower the minimum, so
        # the oracle returns the minimum over every decomposed sample,
        # taken 4096 at a time as the oracle draws them, bit for bit
        rho = random_density_matrix(cut.dim, cut.dim if rank == "full" else rank, 17)
        div, k = Divergence(rho, p), COMPONENTS_PER_DIM * cut.dim
        for n in (1, 2, 4097, 10**4):
            rng = np.random.default_rng(n)
            want = min(float(div.value(*_sample_eigenpairs(
                cut, min(4096, n - lo), k, rng)).min()) for lo in range(0, n, 4096))
            assert sample_upper_bound(rho, cut, p, n, seed=n) == want, n

    def test_screen_engages(self, monkeypatch):
        # on W's 1:23 projector the product-basis half finds a value no
        # generic sample's bound reaches, so almost none is decomposed
        eigh, matrices = np.linalg.eigh, []

        def counting_eigh(a, *args, **kwargs):
            matrices.append(np.prod(np.shape(a)[:-2], dtype=int))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        sample_upper_bound(projector(w()), CUT_123, RenyiParameter(1.0), 10**4, 1)
        assert sum(matrices) < 500


def floored_values_and_bounds(rho, cut, p, psi, weights):
    """The floored divergence at each sigma = sum_k w_k |psi_k><psi_k| and
    its lower bound."""
    div = Divergence(rho, p)
    return (div.value(*_decompose(_realize(psi, weights))),
            div.lower_bound(psi, weights))


class TestDivergenceLowerBound:
    @given(st.sampled_from([CUT_22, CUT_123]), st.floats(0, 1),
           st.sampled_from([RenyiParameter(1.0), RenyiParameter(0.2, "trad"),
                            RenyiParameter(0.7, "trad"), RenyiParameter(1.5, "trad"),
                            RenyiParameter(2.0, "trad"), RenyiParameter(0.5, "sand"),
                            RenyiParameter(0.8, "sand"), RenyiParameter(3.0, "sand"),
                            RenyiParameter(SANDWICHED_ALPHA_CAP, "sand")]),
           st.integers(1, 8), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_bound_below_floored_value(self, cut, rank_share, p, k, seed):
        """L <= the floored value, within the oracle's allowance, for rho
        of any rank and samples of both families: generic mixtures of k
        terms (rank-deficient for small k, so with eigenvalues below the
        floor) and product-basis diagonals with some weights set to 0."""
        rank = 1 + round(rank_share * (cut.dim - 1))
        rho = random_density_matrix(cut.dim, rank, seed)
        rng = np.random.default_rng(seed)
        (logits, a, b), (wd, vd) = _draw_samples(cut, 400, k, rng)
        drop = rng.random(wd.shape) < 0.3
        drop[np.arange(len(wd)), wd.argmax(axis=1)] = False
        wd[drop] = 0.0
        wd /= wd.sum(axis=1, keepdims=True)
        _, weights, _, _, psi = _products(logits, a, b)
        for psi, weights in ((psi, weights), (vd.swapaxes(1, 2), wd)):
            value, bound = floored_values_and_bounds(rho, cut, p, psi, weights)
            assert np.all(bound <= value + BOUND_ALLOWANCE * (1 + np.abs(value)))


def dense_divergence(rho, sigma, p):
    a = p.alpha
    if p.is_kl:
        # Tr rho ln rho from rho's eigenvalues: logm fails on a singular rho
        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-12]
        return np.sum(lam * np.log(lam)) - np.trace(rho @ logm(sigma)).real
    if p.variant == "traditional":
        q = fractional_matrix_power(rho, a) @ fractional_matrix_power(sigma, 1 - a)
    else:
        s = fractional_matrix_power(sigma, (1 - a) / (2 * a))
        r = np.linalg.matrix_rank(rho)
        if r == len(rho):
            q = fractional_matrix_power(s @ rho @ s, a)
        else:
            # s rho s = (s G)(s G)^dag for a rank-r factor G of rho: its
            # nonzero spectrum is the squared singular values of s G, which
            # the dense spectrum buries under rounding of its null space
            lam, vec = np.linalg.eigh(rho)
            q = np.diag(svdvals(s @ (vec[:, -r:] * np.sqrt(lam[-r:]))) ** (2 * a))
    return math.log(np.trace(q).real) / (a - 1)


class TestBatchedObjective:
    @pytest.mark.parametrize("cut", [CUT_22, CUT_123])
    @pytest.mark.parametrize("p", [RenyiParameter(1.0),
                                   RenyiParameter(0.7, "trad"),
                                   RenyiParameter(1.5, "trad"),
                                   RenyiParameter(0.5, "sand"),
                                   RenyiParameter(3.0, "sand")])
    def test_batched_value_matches_rel_entropy(self, cut, p):
        # against dense scipy matrix functions, independent of the
        # eigenpair evaluation under test, at rho of rank 1, 2 and d
        sigmas = sample_separable_batch(cut, 40, 4 * cut.dim,
                                        np.random.default_rng(4))
        sigmas = sigmas[np.linalg.eigvalsh(sigmas)[:, 0] > 1e-6]
        assert len(sigmas) >= 20
        for rank in (1, 2, cut.dim):
            rho = random_density_matrix(cut.dim, rank, 21)
            got = Divergence(rho, p).value(*np.linalg.eigh(sigmas))
            want = [dense_divergence(rho, s, p) for s in sigmas]
            assert np.abs(got - want).max() <= 1e-9, rank

    @pytest.mark.parametrize("cut", [CUT_22, CUT_123])
    @pytest.mark.parametrize("p", [RenyiParameter(1.0),
                                   RenyiParameter(1.5, "trad"),
                                   RenyiParameter(3.0, "sand")])
    def test_stacked_states_match_single_states(self, cut, p):
        """A stack of three states, each row's factor gathered by its
        state index, against each state as a stack of one broadcast over
        its rows: every value and gradient agrees bit for bit."""
        w, v = np.linalg.eigh(np.stack([random_density_matrix(cut.dim, 2, s)
                                        for s in (3, 4, 5)]))
        sigmas = sample_separable_batch(cut, 12, 2 * cut.dim,
                                        np.random.default_rng(7))
        ws, vs = np.linalg.eigh(sigmas)
        state = np.arange(12) % 3
        stacked = Divergence.of_states(w, v, p)
        got_f = stacked.value(ws, vs, state=state)
        got_g = stacked.sigma_grad(ws, vs, state=state)
        for i in range(3):
            rows = state == i
            single = Divergence.of_states(w[i:i + 1], v[i:i + 1], p)
            assert np.array_equal(got_f[rows], single.value(ws[rows], vs[rows]))
            assert np.array_equal(got_g[rows], single.sigma_grad(ws[rows], vs[rows]))

    def test_realize_is_a_batch_of_one(self):
        rng = np.random.default_rng(8)
        theta = random_rows(CUT_123, 5, rng, 3)
        obj = _Objective(Divergence(np.eye(8) / 8, RenyiParameter(1.0)), CUT_123)
        values = obj.value(theta)[0]
        for row, v in zip(theta, values):
            assert v == obj.value(row[None])[0][0]


    @pytest.mark.parametrize("rescaled", [False, True],
                             ids=["minus-gradient", "rescaled-gradient"])
    def test_line_search_takes_the_step_halving_takes(self, rescaled):
        obj = _Objective(Divergence(random_density_matrix(8, 8, 9),
                                    RenyiParameter(1.5, "sand")), CUT_123)
        rng = np.random.default_rng(3 if rescaled else 2)
        theta = random_rows(CUT_123, 6, rng, 4)
        f, ev = obj.value(theta)
        g = obj.gradient(ev)
        d = -g
        if rescaled:
            # -g scaled per coordinate: a descent direction, not the gradient's
            d = d * rng.uniform(0.1, 10.0, size=g.shape)
        slope = (g * d).sum(axis=1)
        assert (slope < 0).all()
        t0 = np.array([1e4, 30.0, 1.0, 1e-2])
        rows, steps, _, _, evals = _line_search(obj, theta, np.zeros(4, int),
                                                f, d, slope, t0)
        assert sorted(rows) == [0, 1, 2, 3] and evals.max() > 1
        for row, step in zip(rows, steps):
            t, trials = t0[row], 1
            while (obj.value(theta[row:row + 1] + t * d[row:row + 1])[0][0]
                   > f[row] + 1e-4 * t * slope[row]):
                t *= 0.5
                trials += 1
            assert step == t
            assert evals[row] == trials


class TestLbfgsDirection:
    """The compact-form direction from the ring-buffer memory against two
    references built from the same pairs: the two-loop recursion, and the
    dense BFGS inverse Hessian H <- (I - r s y^T) H (I - r y s^T) + r s s^T,
    r = 1 / s.y, from H = gamma I, gamma = s.y / y.y of the newest pair."""

    N = 7

    @staticmethod
    def two_loop_direction(g, pairs):
        """-H g by the two-loop recursion (Nocedal & Wright, Numerical
        Optimization, Algorithm 7.4), pairs oldest to newest."""
        if not pairs:
            return -g
        q = g.copy()
        alphas = []
        for s, y in reversed(pairs):
            alphas.append((s @ q) / (s @ y))
            q -= alphas[-1] * y
        s_new, y_new = pairs[-1]
        q *= (s_new @ y_new) / (y_new @ y_new)
        for (s, y), a in zip(pairs, reversed(alphas)):
            q += (a - (y @ q) / (s @ y)) * s
        return -q

    @staticmethod
    def dense_direction(g, pairs):
        n = len(g)
        if not pairs:
            return -g
        s_new, y_new = pairs[-1]
        h = (s_new @ y_new) / (y_new @ y_new) * np.eye(n)
        for s, y in pairs:
            r = 1.0 / (s @ y)
            left = np.eye(n) - r * np.outer(s, y)
            h = left @ h @ left.T + r * np.outer(s, s)
        return -h @ g

    def curved_pairs(self, rng, count):
        """Pairs (s, A s) of a random positive definite A, so s.y > 0."""
        m = rng.normal(size=(self.N, self.N))
        a = m @ m.T + self.N * np.eye(self.N)
        return [(s, a @ s) for s in rng.normal(size=(count, self.N))]

    def memory_of(self, rows_of_pairs):
        """Each row's pairs remembered in order, as the descent does."""
        memories = []
        for pairs in rows_of_pairs:
            memory = _empty_memory(1, self.N)
            for s, y in pairs:
                _remember(memory, s[None], y[None])
            memories.append(memory)
        return tuple(np.concatenate(parts) for parts in zip(*memories))

    def test_matches_dense_bfgs(self):
        rng = np.random.default_rng(4)
        # more pairs than the memory holds (the oldest drop out), a full
        # memory, fewer pairs than LBFGS_MEMORY, one pair, none
        rows_of_pairs = [self.curved_pairs(rng, LBFGS_MEMORY + 2),
                         self.curved_pairs(rng, LBFGS_MEMORY),
                         self.curved_pairs(rng, 2), self.curved_pairs(rng, 1), []]
        g = rng.normal(size=(len(rows_of_pairs), self.N))
        d = _lbfgs_direction(g, self.memory_of(rows_of_pairs))
        for i, pairs in enumerate(rows_of_pairs):
            want = self.dense_direction(g[i], pairs[-LBFGS_MEMORY:])
            assert np.linalg.norm(d[i] - want) <= 1e-10 * np.linalg.norm(want)
            assert g[i] @ d[i] < 0

    def test_ring_buffer_matches_two_loop_and_dense_bfgs(self):
        # more than three memories' worth of pairs through the ring, n <
        # LBFGS_MEMORY, row 1 skipping a pair without curvature (so the
        # rows' heads differ) and row 2 forgetting partway through
        assert self.N < LBFGS_MEMORY
        rng = np.random.default_rng(8)
        rows, steps = 3, 3 * LBFGS_MEMORY + 17
        curvature = []
        for _ in range(rows):
            m = rng.normal(size=(self.N, self.N))
            curvature.append(m @ m.T + self.N * np.eye(self.N))
        memory = _empty_memory(rows, self.N)
        kept = [[] for _ in range(rows)]
        checked = 0
        for step in range(steps):
            s = rng.normal(size=(rows, self.N))
            y = np.stack([a @ si for a, si in zip(curvature, s)])
            if step == LBFGS_MEMORY + 3:
                y[1] = -s[1]
            _remember(memory, s, y)
            for i in range(rows):
                if s[i] @ y[i] > 0:
                    kept[i].append((s[i], y[i]))
            if step == 2 * LBFGS_MEMORY + 5:
                _forget(memory, np.array([2]))
                kept[2] = []
            if step % 11 and step < steps - 1:
                continue
            g = rng.normal(size=(rows, self.N))
            d = _lbfgs_direction(g, memory)
            for i in range(rows):
                pairs = kept[i][-LBFGS_MEMORY:]
                for want in (self.two_loop_direction(g[i], pairs),
                             self.dense_direction(g[i], pairs)):
                    assert np.linalg.norm(d[i] - want) <= 1e-10 * np.linalg.norm(want)
                assert g[i] @ d[i] < 0
            checked += 1
        assert len(kept[0]) == steps > 3 * LBFGS_MEMORY
        assert len(kept[1]) == steps - 1
        assert len(kept[2]) == steps - 2 * LBFGS_MEMORY - 6 > LBFGS_MEMORY
        assert checked > 10

    def test_cleared_memory_gives_minus_gradient(self):
        rng = np.random.default_rng(5)
        memory = self.memory_of([self.curved_pairs(rng, 3)] * 2)
        _forget(memory, np.array([1]))
        g = rng.normal(size=(2, self.N))
        d = _lbfgs_direction(g, memory)
        assert np.array_equal(d[1], -g[1])
        assert not np.array_equal(d[0], -g[0])

    @pytest.mark.parametrize("flip", [-1.0, 0.0])
    def test_pair_without_curvature_not_stored(self, flip):
        rng = np.random.default_rng(6)
        pairs = self.curved_pairs(rng, 3)
        memory = self.memory_of([pairs])
        before = [m.copy() for m in memory]
        s = rng.normal(size=self.N)
        # s.y = flip |s|^2 <= 0
        y = flip * s + (np.eye(self.N) - np.outer(s, s) / (s @ s)) @ rng.normal(size=self.N)
        assert s @ y <= 1e-12 * np.linalg.norm(s) * np.linalg.norm(y)
        _remember(memory, s[None], y[None])
        for m, was in zip(memory, before):
            assert np.array_equal(m, was)
        g = rng.normal(size=(1, self.N))
        want = self.dense_direction(g[0], pairs)
        got = _lbfgs_direction(g, memory)[0]
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


class TestGradients:
    @pytest.mark.parametrize("p", [RenyiParameter(0.7, "trad"),
                                   RenyiParameter(1.0, "trad"),
                                   RenyiParameter(1.5, "trad"),
                                   RenyiParameter(1.5, "sand"),
                                   RenyiParameter(4.0, "sand")])
    def test_analytic_matches_finite_differences(self, p):
        # at rho of rank 1, 2 and 8: the rank sets the shape of every
        # evaluation (see ``Divergence``)
        theta = random_rows(CUT_123, 6, np.random.default_rng(11))
        for rank in (1, 2, 8):
            obj = _Objective(Divergence(random_density_matrix(8, rank, 5), p), CUT_123)
            ga = obj.gradient(obj.value(theta)[1])
            gf = obj._fd_grad(theta, FD_STEP)
            assert np.abs(ga - gf).max() <= 1e-4 * max(np.abs(gf).max(), 1e-12), rank

    def test_fd_richardson_second_order(self):
        # central differences: error(h) ~ C h^2, so the decrement ratio
        # (D(h) - D(h/2)) / (D(h/2) - D(h/4)) approaches 4
        rho = random_density_matrix(8, 8, 6)
        p = RenyiParameter(1.5, "trad")
        obj = _Objective(Divergence(rho, p), CUT_123)
        rng = np.random.default_rng(7)
        checked = 0
        attempts = 0
        while checked < 20 and attempts < 60:
            attempts += 1
            theta = random_rows(CUT_123, 4, rng)
            direction = rng.normal(size=theta.shape)
            direction /= np.linalg.norm(direction)

            def deriv(h):
                return (obj.value(theta + h * direction)[0][0]
                        - obj.value(theta - h * direction)[0][0]) / (2 * h)

            h = 4e-3
            d1, d2, d3 = deriv(h), deriv(h / 2), deriv(h / 4)
            num, den = d1 - d2, d2 - d3
            if abs(den) < 1e-10:  # curvature too small to resolve
                continue
            assert 3.5 <= num / den <= 4.5
            checked += 1
        assert checked == 20

    @pytest.mark.parametrize("state", [ghz, w])
    def test_closest_state_mixing_keeps_kl_finite(self, state):
        # one rank-one component cannot cover rho's support, so without the
        # mixing the KL value at the closest state would be infinite
        rho = projector(state())
        opts = OptimizerOptions(restarts=1, max_iters=20, components=1)
        res = ree(rho, CUT_123, RenyiParameter(1.0), opts)
        assert math.isfinite(res.value)
        assert res.value == rel_entropy(rho, res.closest_state, RenyiParameter(1.0))
        lam_min = np.linalg.eigvalsh(res.closest_state)[0]
        assert lam_min >= CLOSEST_STATE_MIXING / 8 * (1 - 1e-6)


class TestInitialAnsatz:
    @staticmethod
    def start_rows(monkeypatch, rho, cut, opts):
        """The parameter rows ``ree`` hands the descent, one per restart."""
        import qree.sepstates as sepstates
        seen = []

        def spy(obj, theta, state, opts):
            seen.append(theta.copy())
            return descend(obj, theta, state, opts)

        descend = sepstates._descend
        monkeypatch.setattr(sepstates, "_descend", spy)
        ree(rho, cut, RenyiParameter(1.0), opts)
        return seen[0]

    @pytest.mark.parametrize("cut, rho", [(CUT_123, projector(w())),
                                          (CUT_22, w_reduced())])
    def test_every_restart_starts_at_unit_norms(self, monkeypatch, cut, rho):
        k, da, db = 6, cut.dim_a, cut.dim_b
        opts = OptimizerOptions(restarts=4, max_iters=1, components=k, seed=3)
        theta = self.start_rows(monkeypatch, rho, cut, opts)
        logits, a, b = _Objective(None, cut).split(theta)
        assert np.abs(np.linalg.norm(a, axis=2) - 1).max() < 1e-12
        assert np.abs(np.linalg.norm(b, axis=2) - 1).max() < 1e-12
        # scaling moves the coordinates, not the state: replay each
        # restart's draw unscaled
        for r, row_logits in enumerate(logits):
            rng = np.random.default_rng(_restart_seed(opts.seed, r))
            raw = rng.normal(size=k)
            raw_a = rng.normal(size=(k, da)) + 1j * rng.normal(size=(k, da))
            raw_b = rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db))
            assert np.array_equal(row_logits, raw)
            assert np.abs(mixture(raw, raw_a, raw_b)
                          - row_states(cut, theta[r:r + 1])[0]).max() < 1e-12

    def test_row_does_not_depend_on_the_restart(self, monkeypatch):
        # every restart drawing from one seed starts at one row: restart 0
        # is not special
        import qree.sepstates as sepstates
        monkeypatch.setattr(sepstates, "_restart_seed", lambda seed, restart: 7)
        opts = OptimizerOptions(restarts=3, max_iters=1, components=5)
        theta = self.start_rows(monkeypatch, w_reduced(), CUT_22, opts)
        want = _initial_ansatz(CUT_22, 5, np.random.default_rng(7))
        for row in theta:
            assert np.array_equal(row, want)


class TestOptimizerBehavior:
    def test_monotone_in_restarts(self):
        rho = projector(w())
        p = RenyiParameter(1.0)
        values = []
        for restarts in (1, 2, 4, 6):
            opts = OptimizerOptions(restarts=restarts, max_iters=300,
                                    components=12, seed=7)
            values.append(ree(rho, CUT_123, p, opts).value)
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-10

    def test_local_unitary_invariance(self):
        # an invariance statement about the minimum itself, so both frames
        # need a converged optimization, not the fast module-test budget
        opts = OptimizerOptions(restarts=6, max_iters=2000, components=16,
                                seed=11)
        rho = projector(w())
        u = kron(random_unitary(2, 15), random_unitary(4, 16))
        rotated = u @ rho @ u.conj().T
        for p in (RenyiParameter(1.0), RenyiParameter(1.5, "sand")):
            a = ree(rho, CUT_123, p, opts).value
            b = ree(rotated, CUT_123, p, opts).value
            assert abs(a - b) < 2e-4

    def test_result_diagnostics(self, fast_opts):
        res = ree(projector(ghz()), CUT_123, RenyiParameter(1.0), fast_opts)
        assert res.iterations >= 1
        assert isinstance(res.converged, bool)
        assert len(res.restarts) == fast_opts.restarts
        assert res.evaluations == sum(r.evaluations for r in res.restarts)
        best = min(res.restarts, key=lambda r: r.value)
        assert (best.iterations, best.converged) == (res.iterations,
                                                     res.converged)
        assert all(r.evaluations > r.iterations >= 1 for r in res.restarts)

    @pytest.mark.parametrize("p", [RenyiParameter(1.0),
                                   RenyiParameter(1.5, "sand")])
    def test_restarts_do_not_depend_on_batch(self, p):
        # a restart's trajectory is bitwise the same whether it descends
        # with fewer siblings or more, except that a sibling that stopped
        # lower can cut it short: then its record is a pruned prefix
        rho = projector(w())
        full = ree(rho, CUT_123, p, OptimizerOptions(
            restarts=4, max_iters=200, components=12, seed=7))
        for r in range(4):
            fewer = ree(rho, CUT_123, p, OptimizerOptions(
                restarts=r + 1, max_iters=200, components=12, seed=7))
            got, alone = full.restarts[r], fewer.restarts[r]
            if got != alone:
                assert got.seed == alone.seed and not got.converged
                assert got.iterations < alone.iterations
                assert got.evaluations <= alone.evaluations
                assert got.value >= alone.value

    def test_losing_restart_is_pruned(self, monkeypatch):
        # star's E(1:3) at trad 2, seed 5: restart 0 is pruned at 250
        # iterations once restarts 1 and 2 have converged near 0.28212,
        # and unpruned it runs to the iteration cap
        import qree.sepstates as sepstates
        rho, p = reduced_pair(star(), 13), RenyiParameter(2.0, "trad")
        opts = OptimizerOptions(restarts=3, max_iters=500, components=16, seed=5)
        pruned = ree(rho, CUT_22, p, opts)
        first = pruned.restarts[0]
        assert not first.converged and first.iterations < opts.max_iters
        assert first.value > pruned.value
        monkeypatch.setattr(sepstates, "CATCH_UP_FACTOR", math.inf)
        full = ree(rho, CUT_22, p, opts)
        assert full.restarts[0].iterations == opts.max_iters
        assert full.restarts[1:] == pruned.restarts[1:]
        assert full.value == pruned.value
        assert np.array_equal(full.closest_state, pruned.closest_state)
        assert ((full.converged, full.iterations)
                == (pruned.converged, pruned.iterations))
        # a lone restart has no sibling to lose to
        monkeypatch.undo()
        alone = ree(rho, CUT_22, p, replace(opts, restarts=1))
        assert alone.restarts == full.restarts[:1]

    @pytest.mark.parametrize("p, seed, before", [
        (RenyiParameter(1.5, "trad"), 1, 0.19526639900580495),
        (RenyiParameter(1.5, "trad"), 2, 0.19526799416223492),
        (RenyiParameter(3.0, "sand"), 1, 0.2259163174192011),
        (RenyiParameter(3.0, "sand"), 2, 0.2259139927527125)])
    def test_w_pair_cut_converges(self, p, seed, before):
        # W's E(1:2) at the zoo-monogamy options: with a five-pair memory
        # the best restart ran to the iteration cap unconverged, at the
        # value ``before``
        opts = OptimizerOptions(restarts=3, max_iters=500, components=16, seed=seed)
        res = ree(reduced_pair(w(), 12), CUT_22, p, opts)
        assert res.converged and res.iterations < opts.max_iters
        assert res.value <= before

    @staticmethod
    def assert_same_result(got, want):
        assert got.value == want.value
        assert np.array_equal(got.closest_state, want.closest_state)
        assert got.restarts == want.restarts
        assert ((got.converged, got.iterations, got.evaluations, got.path)
                == (want.converged, want.iterations, want.evaluations, want.path))

    @pytest.mark.parametrize("p", [RenyiParameter(1.0),
                                   RenyiParameter(1.5, "trad"),
                                   RenyiParameter(3.0, "sand")])
    def test_ree_batch_matches_solo(self, p):
        # mixed states and seeds in one call: each result is bitwise the
        # result of its own ree
        opts = OptimizerOptions(restarts=2, max_iters=150, components=8, seed=99)
        jobs = [(reduced_pair(w(), 12), 5), (reduced_pair(star(), 12), 6),
                (reduced_pair(star(), 13), 6), (random_density_matrix(4, 4, 7), 8)]
        for (rho, seed), got in zip(jobs, ree_batch(jobs, CUT_22, p, opts)):
            self.assert_same_result(got, ree(rho, CUT_22, p, replace(opts, seed=seed)))

    def test_ree_batch_separates_ranks(self, monkeypatch):
        import qree.sepstates as sepstates
        ranks, real = [], sepstates._descend

        def recording(obj, theta, state, opts):
            ranks.append(obj.div.factor.shape)
            return real(obj, theta, state, opts)

        monkeypatch.setattr(sepstates, "_descend", recording)
        opts = OptimizerOptions(restarts=2, max_iters=100, components=8, seed=1)
        p = RenyiParameter(0.7, "trad")
        jobs = [(random_density_matrix(4, 2, 3), 1), (random_density_matrix(4, 4, 4), 2)]
        results = ree_batch(jobs, CUT_22, p, opts)
        assert ranks == [(1, 4, 2), (1, 4, 4)]
        monkeypatch.setattr(sepstates, "_descend", real)
        for (rho, seed), got in zip(jobs, results):
            self.assert_same_result(got, ree(rho, CUT_22, p, replace(opts, seed=seed)))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            OptimizerOptions(restarts=0)
        with pytest.raises(ValueError):
            OptimizerOptions(components=0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            OptimizerOptions(seed=-1)
