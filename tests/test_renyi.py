import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qree.qmat import projector, random_density_matrix, random_unitary
from qree.renyi import (RenyiParameter, collision_entropy, kl_rel_entropy,
                        max_entropy, min_entropy, rel_entropy, renyi_entropy,
                        sand_rel_entropy, trad_rel_entropy,
                        von_neumann_entropy)
from qree.statezoo import ghz, w

LN2 = math.log(2)


def diag_state(*probs):
    return np.diag(probs).astype(complex)


class TestRenyiEntropy:
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0, 7.0])
    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_maximally_mixed(self, alpha, d):
        assert renyi_entropy(np.eye(d) / d, alpha) == pytest.approx(math.log(d))

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    def test_pure_state_zero(self, alpha):
        assert abs(renyi_entropy(projector(ghz()), alpha)) < 1e-9

    def test_collision_point(self):
        # S_2 = -ln(9/16 + 1/16) = -ln(10/16)
        assert renyi_entropy(diag_state(0.75, 0.25), 2.0) == pytest.approx(
            0.470004, abs=1e-6)

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            renyi_entropy(np.eye(2) / 2, 0.0)

    def test_rejects_nan_alpha(self):
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError,
                               match=f"alpha must be finite and positive, got {alpha}"):
                renyi_entropy(np.eye(2) / 2, alpha)

    def test_alpha_one_is_von_neumann(self):
        rho = random_density_matrix(6, 6, 3)
        for eps in (1e-5, -1e-5):
            assert abs(renyi_entropy(rho, 1 + eps)
                       - von_neumann_entropy(rho)) < 1e-4

    def test_alpha_limits_on_random_states(self):
        rhos = [random_density_matrix(2 + seed % 7, 2 + seed % 7, seed)
                for seed in range(10)]
        # an eigenvalue of 1e-12 is far above rounding (d eps lambda_max ~
        # 4e-16), so it counts in the rank: S_max = ln 4
        rhos.append(diag_state(0.5, 0.3, 0.2 - 1e-12, 1e-12))
        for rho in rhos:
            d = len(rho)
            assert abs(renyi_entropy(rho, 1e-6) - max_entropy(rho)) < 1e-4
            assert renyi_entropy(rho, 2.0) == pytest.approx(
                collision_entropy(rho), abs=1e-10)
            assert abs(renyi_entropy(rho, 1e5) - min_entropy(rho)) < 1e-4
            # at alpha = 64 the limit error is O(1/63); use the exact bracket
            s64 = renyi_entropy(rho, 64.0)
            smin = min_entropy(rho)
            assert (64 * smin - math.log(d)) / 63 - 1e-12 <= s64 <= 64 * smin / 63 + 1e-12


class TestNamedEntropies:
    def test_maximally_mixed_all_coincide(self):
        rho = np.eye(2) / 2
        for fn in (min_entropy, max_entropy, collision_entropy, von_neumann_entropy):
            assert fn(rho) == pytest.approx(LN2)

    def test_min_entropy_direct(self):
        assert min_entropy(diag_state(0.75, 0.25)) == pytest.approx(
            math.log(4 / 3), abs=1e-12)

    def test_collision_entropy_direct(self):
        assert collision_entropy(diag_state(0.75, 0.25)) == pytest.approx(
            -math.log(5 / 8), abs=1e-12)


class TestKL:
    def test_self_divergence_zero(self):
        rho = random_density_matrix(4, 4, 8)
        assert abs(kl_rel_entropy(rho, rho)) < 1e-10

    def test_classical_example(self):
        assert kl_rel_entropy(diag_state(1.0, 0.0), np.eye(2) / 2) == pytest.approx(LN2)

    def test_support_mismatch_is_infinite(self):
        assert kl_rel_entropy(np.eye(2) / 2, diag_state(1.0, 0.0)) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            kl_rel_entropy(np.eye(2) / 2, np.eye(4) / 4)


class TestTraditional:
    def test_self_divergence(self):
        rho = random_density_matrix(4, 4, 21)
        assert abs(trad_rel_entropy(rho, rho, 0.7)) < 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 2.0])
    def test_pure_vs_maximally_mixed(self, alpha):
        # commuting pair: Tr(rho^a sigma^(1-a)) = 2^(a-1)
        assert trad_rel_entropy(diag_state(1.0, 0.0), np.eye(2) / 2,
                                alpha) == pytest.approx(LN2, abs=1e-9)

    def test_diagonal_evaluation(self):
        got = trad_rel_entropy(diag_state(0.9, 0.1), np.eye(2) / 2, 2.0)
        assert got == pytest.approx(math.log(1.64), abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pure_state_rounding_eigenvalues_dropped(self, seed):
        # rho = |psi><psi| gives Tr(rho^a sigma^(1-a)) = <psi|sigma^(1-a)|psi>
        # exactly; a rounding eigenvalue of rho raised to a = 0.3 must not count
        psi, alpha = w(), 0.3
        sig = random_density_matrix(8, 8, seed)
        ws, vs = np.linalg.eigh(sig)
        overlap = np.abs(vs.conj().T @ psi) ** 2 @ ws ** (1 - alpha)
        want = math.log(overlap) / (alpha - 1)
        assert abs(trad_rel_entropy(projector(psi), sig, alpha) - want) <= 1e-12

    def test_alpha_range_enforced(self):
        rho = np.eye(2) / 2
        for bad in (0.0, -1.0, 2.5):
            with pytest.raises(ValueError):
                trad_rel_entropy(rho, rho, bad)

    def test_kl_limit(self):
        # the alpha-slope at 1 is half the relative-entropy variance, so
        # the 1e-4 tolerance needs fixtures with bounded variance; mixing
        # sigma toward I/d keeps the slope small without losing generality
        rho = random_density_matrix(4, 4, 31)
        sig = 0.5 * random_density_matrix(4, 4, 32) + 0.5 * np.eye(4) / 4
        klv = kl_rel_entropy(rho, sig)
        for alpha in (1 - 1e-4, 1 + 1e-4):
            assert abs(trad_rel_entropy(rho, sig, alpha) - klv) < 1e-4


class TestSandwiched:
    def test_self_divergence(self):
        rho = random_density_matrix(4, 4, 41)
        assert abs(sand_rel_entropy(rho, rho, 3.0)) < 1e-10

    def test_commuting_pair_matches_traditional(self):
        assert sand_rel_entropy(diag_state(1.0, 0.0), np.eye(2) / 2,
                                4.0) == pytest.approx(LN2, abs=1e-9)

    def test_alt_inequality_on_fixtures(self):
        for seed in range(20):
            rho = random_density_matrix(4, 3, seed)
            sig = random_density_matrix(4, 4, 1000 + seed)
            assert (sand_rel_entropy(rho, sig, 1.5)
                    <= trad_rel_entropy(rho, sig, 1.5) + 1e-9)

    def test_alpha_floor_enforced(self):
        with pytest.raises(ValueError):
            sand_rel_entropy(np.eye(2) / 2, np.eye(2) / 2, 0.4)

    @pytest.mark.parametrize("eps, want", [(1e-6, 13.11), (1e-9, 20.02)])
    def test_large_alpha_stays_finite(self, eps, want):
        # rho = |+><+| is pure, so Tr (s rho s)^alpha = <+|sigma^(2c)|+>^alpha,
        # about 1e12^64 summed term by term: it overflows unless summed in
        # log space
        alpha, plus = 64.0, np.full((2, 2), 0.5, dtype=complex)
        exact = alpha / (alpha - 1) * math.log(
            0.5 * ((1 - eps) ** ((1 - alpha) / alpha) + eps ** ((1 - alpha) / alpha)))
        got = sand_rel_entropy(plus, diag_state(1 - eps, eps), alpha)
        assert got == pytest.approx(exact, rel=1e-12)
        assert round(got, 2) == want

    def test_kl_limit(self):
        rho = random_density_matrix(4, 4, 51)
        sig = 0.5 * random_density_matrix(4, 4, 52) + 0.5 * np.eye(4) / 4
        klv = kl_rel_entropy(rho, sig)
        for alpha in (1 - 1e-4, 1 + 1e-4):
            assert abs(sand_rel_entropy(rho, sig, alpha) - klv) < 1e-4


class TestDispatch:
    def test_alpha_one_routes_to_kl(self):
        rho = random_density_matrix(4, 4, 61)
        sig = random_density_matrix(4, 4, 62)
        klv = kl_rel_entropy(rho, sig)
        for variant in ("trad", "sand"):
            assert rel_entropy(rho, sig, RenyiParameter(1.0, variant)) == klv

    def test_alt_ordering_between_variants(self):
        rho = random_density_matrix(8, 6, 71)
        sig = random_density_matrix(8, 8, 72)
        p_t = RenyiParameter(1.5, "trad")
        p_s = RenyiParameter(1.5, "sand")
        assert rel_entropy(rho, sig, p_t) >= rel_entropy(rho, sig, p_s) - 1e-9

    def test_out_of_range_combination(self):
        with pytest.raises(ValueError):
            RenyiParameter(3.0, "trad")
        with pytest.raises(ValueError):
            RenyiParameter(0.4, "sand")
        with pytest.raises(ValueError):
            RenyiParameter(1.0, "nonsense")

    @pytest.mark.parametrize("variant", ["trad", "sand"])
    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha, variant):
        with pytest.raises(ValueError, match=f"finite and positive, got {alpha}"):
            RenyiParameter(alpha, variant)


class TestInvariants:
    def test_nonnegativity_seeded_pairs(self):
        rng = np.random.default_rng(0)
        for i in range(200):
            d = int(rng.choice([2, 4, 8]))
            rho = random_density_matrix(d, int(rng.integers(1, d + 1)), 2 * i)
            sig = random_density_matrix(d, d, 2 * i + 1)
            assert trad_rel_entropy(rho, sig, 1.5) >= -1e-9
            assert trad_rel_entropy(rho, sig, 0.7) >= -1e-9
            assert sand_rel_entropy(rho, sig, 1.5) >= -1e-9
            assert sand_rel_entropy(rho, sig, 0.7) >= -1e-9
            assert kl_rel_entropy(rho, sig) >= -1e-9

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
           st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_commuting_reduction(self, p_raw, q_raw):
        n = min(len(p_raw), len(q_raw))
        p = np.array(p_raw[:n]) / sum(p_raw[:n])
        q = np.array(q_raw[:n]) / sum(q_raw[:n])
        rho, sig = np.diag(p).astype(complex), np.diag(q).astype(complex)
        prev_t = prev_s = -math.inf
        for alpha in (0.6, 0.8, 1.2, 1.5, 2.0):
            t = trad_rel_entropy(rho, sig, alpha)
            s = sand_rel_entropy(rho, sig, alpha)
            assert abs(t - s) < 1e-10
            assert t >= prev_t - 1e-10 and s >= prev_s - 1e-10
            prev_t, prev_s = t, s

    def test_unitary_invariance(self):
        rho = random_density_matrix(4, 4, 81)
        sig = random_density_matrix(4, 4, 82)
        u = random_unitary(4, 83)
        ur, us = u @ rho @ u.conj().T, u @ sig @ u.conj().T
        for p in (RenyiParameter(0.7, "trad"), RenyiParameter(1.0, "trad"),
                  RenyiParameter(1.5, "sand"), RenyiParameter(4.0, "sand")):
            assert rel_entropy(ur, us, p) == pytest.approx(
                rel_entropy(rho, sig, p), abs=1e-9)
