import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_partial_trace
from qree import qmat
from qree.qmat import (Bipartition, eig_hermitian, kron, partial_trace,
                       partial_transpose, projector, random_density_matrix,
                       validate_density)
from qree.statezoo import ghz, w, w_reduced

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def bell():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 2**-0.5
    return v


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_basis_projectors(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_double_bit_flip(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        assert np.allclose(kron(SX, SX) @ ket00, [0, 0, 0, 1])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        out = partial_trace(projector(bell()), [2, 2], [0])
        assert np.abs(out - I2 / 2).max() < 1e-14

    def test_ghz_reduction_is_diagonal_mixture(self):
        out = partial_trace(projector(ghz()), [2, 2, 2], [0, 1])
        expect = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert np.abs(out - expect).max() < 1e-14

    def test_w_reduction_matches_analytic_mixture(self):
        out = partial_trace(projector(w()), [2, 2, 2], [0, 1])
        assert np.abs(out - w_reduced()).max() < 1e-14

    def test_matches_bruteforce_oracle(self):
        rho = random_density_matrix(8, 5, 123)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            got = partial_trace(rho, [2, 2, 2], keep)
            want = brute_partial_trace(rho, [2, 2, 2], keep)
            assert np.abs(got - want).max() < 1e-13

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            partial_trace(np.eye(6) / 6, [2, 2, 2], [0])

    def test_preserves_trace_and_psd(self):
        for seed in range(40):
            rho = random_density_matrix(8, 1 + seed % 8, seed)
            red = partial_trace(rho, [2, 4], [1])
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(red)[0] > -1e-12


class TestPartialTranspose:
    def test_involution(self):
        rho = random_density_matrix(8, 3, 7)
        for dims in ([2, 2, 2], [2, 4], [4, 2]):
            for sys in range(len(dims)):
                twice = partial_transpose(partial_transpose(rho, dims, sys), dims, sys)
                assert np.array_equal(twice, rho)

    def test_product_state_transposes_its_factor(self):
        a = random_density_matrix(2, 2, 1)
        b = random_density_matrix(4, 3, 2)
        rho = kron(a, b)
        assert np.abs(partial_transpose(rho, [2, 4], 0) - kron(a.T, b)).max() < 1e-15
        assert np.abs(partial_transpose(rho, [2, 4], 1) - kron(a, b.T)).max() < 1e-15

    def test_bell_state_is_npt(self):
        for sys in (0, 1):
            lam = np.linalg.eigvalsh(partial_transpose(projector(bell()), [2, 2], sys))
            assert abs(lam[0] + 0.5) < 1e-15

    def test_ghz_pair_is_ppt(self):
        pair = partial_trace(projector(ghz()), [2, 2, 2], [0, 1])
        lam = np.linalg.eigvalsh(partial_transpose(pair, [2, 2], 1))
        assert abs(lam[0]) < 1e-15

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            partial_transpose(np.eye(6) / 6, [2, 2], 0)
        with pytest.raises(ValueError, match="factor"):
            partial_transpose(np.eye(4) / 4, [2, 2], 2)


class TestEigHermitian:
    def test_pauli_x_spectrum(self):
        w_, v = eig_hermitian(SX)
        assert np.allclose(w_, [-1, 1])
        assert np.abs(v.conj().T @ v - I2).max() < 1e-12

    def test_diagonal_sorted_ascending(self):
        w_, v = eig_hermitian(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(w_, [1, 2, 3])
        # permutation eigenvectors
        assert np.allclose(np.abs(v), np.eye(3)[:, [1, 2, 0]])

    def test_star_reduced_eigenvalues(self):
        from qree.statezoo import star_reduced
        w_ = eig_hermitian(star_reduced(12)).eigenvalues
        expect = [0.0, 0.0, (2 - np.sqrt(2)) / 4, (2 + np.sqrt(2)) / 4]
        assert np.abs(np.sort(w_) - np.sort(expect)).max() < 1e-12
        assert abs(w_[-1] - 0.853553) < 1e-6
        assert abs(w_[-2] - 0.146447) < 1e-6

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction_and_orthonormality_bulk(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = g + g.conj().T
            w_, v = eig_hermitian(h)
            scale = max(np.abs(w_).max(), 1.0)
            assert np.abs((v * w_) @ v.conj().T - h).max() / scale < 1e-10
            assert np.abs(v.conj().T @ v - np.eye(d)).max() < 1e-10
            assert np.all(np.diff(w_) >= -1e-14)


class TestRankAndNorm:
    def test_w_reduced_rank_two(self):
        # independent oracle: eigendecompose the analytic mixture
        evals = np.linalg.eigvalsh(w_reduced())
        assert sorted(round(v, 12) for v in evals if v > 1e-10) == [
            pytest.approx(1 / 3), pytest.approx(2 / 3)]


class TestRandomDensityMatrix:
    def test_pure_qubit_contract(self):
        rho = random_density_matrix(2, 1, 5)
        validate_density(rho)
        assert np.count_nonzero(np.linalg.eigvalsh(rho) > 1e-10) == 1

    def test_full_rank_contract(self):
        rho = random_density_matrix(8, 8, 5)
        validate_density(rho)
        assert np.linalg.eigvalsh(rho)[0] > 0

    def test_deterministic(self):
        a = random_density_matrix(8, 3, 2024)
        b = random_density_matrix(8, 3, 2024)
        assert np.array_equal(a, b)

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            random_density_matrix(4, 5, 0)


class TestValidateDensity:
    def test_accepts_valid(self):
        validate_density(random_density_matrix(8, 8, 1))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.eye(4, dtype=complex))

    def test_rejects_non_hermitian(self):
        m = np.diag([0.6, 0.4]).astype(complex)
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="PSD"):
            validate_density(np.diag([1.2, -0.2]).astype(complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density(np.array([[bad, 0], [0, 1]]))


def test_bipartition_validation():
    assert Bipartition(2, 4).dim == 8
    with pytest.raises(ValueError):
        Bipartition(0, 4)


def test_fix_phase():
    psi = qmat.fix_phase(np.array([0, 1j, 1], dtype=complex) / np.sqrt(2))
    assert psi[1].real > 0 and abs(psi[1].imag) < 1e-15
