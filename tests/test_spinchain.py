import math

import numpy as np
import pytest

from qree.qmat import kron, validate_density
from qree.spinchain import (ID2, SZ, ModelParams, analytic_partition,
                            cyclic_shift_matrix, fit_tfi_angle, ground_state,
                            hamiltonian, thermal_state, tfi_analytic,
                            tfi_partition, xxz_partition, xxz_spectrum,
                            xyz_analytic, xyz_partition)
from qree.statezoo import tfi_ground


def total_sz():
    return (kron(kron(SZ, ID2), ID2) + kron(kron(ID2, SZ), ID2)
            + kron(kron(ID2, ID2), SZ))


class TestModelParams:
    def test_xxz_delta_restriction(self):
        with pytest.raises(ValueError, match="delta"):
            ModelParams.xxz(1.0, -1.0)

    def test_xy_gamma_restriction(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match="gamma"):
                ModelParams.xy(1.0, bad)

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="model"):
            ModelParams(model="ising3d")


class TestHamiltonian:
    def test_isotropic_commutes_with_total_sz(self):
        h = hamiltonian(ModelParams.xyz(1.0, 1.0, 1.0))
        sz = total_sz()
        assert np.abs(h @ sz - sz @ h).max() < 1e-12

    def test_xxz_spectrum_from_formulas(self):
        # E0=E7=3Jd, E1=E2=E4=E5=-2J(d/2+1), E3=E6=-2J(d/2-2)
        j, d = 1.0, 1.0
        h = hamiltonian(ModelParams.xxz(j, d))
        want = sorted([3 * j * d] * 2 + [-2 * j * (d / 2 + 1)] * 4
                      + [-2 * j * (d / 2 - 2)] * 2)
        got = np.linalg.eigvalsh(h)
        assert np.abs(got - want).max() < 1e-12

    def test_tfi_zero_coupling_is_field_only(self):
        h = hamiltonian(ModelParams.tfi(0.0))
        assert np.abs(h - total_sz()).max() == 0
        assert np.allclose(np.linalg.eigvalsh(h), [-3, -1, -1, -1, 1, 1, 1, 3])

    def test_xxz_equals_xyz_exactly(self):
        a = hamiltonian(ModelParams.xxz(0.7, 1.3))
        b = hamiltonian(ModelParams.xyz(0.7, 0.7, 0.7 * 1.3))
        assert np.array_equal(a, b)

    def test_xy_gamma_one_is_ising_coupling(self):
        a = hamiltonian(ModelParams.xy(1.2, 1.0))
        b = hamiltonian(ModelParams.xyz(1.2, 0.0, 0.0))
        assert np.abs(a - b).max() < 1e-15

    def test_hermitian(self):
        for params in (ModelParams.xyz(0.8, 0.5, 1.0), ModelParams.xy(1.0, 0.5),
                       ModelParams.tfi(0.7)):
            h = hamiltonian(params)
            assert np.abs(h - h.conj().T).max() < 1e-14


class TestThermalState:
    def test_infinite_temperature_limit(self):
        ts = thermal_state(hamiltonian(ModelParams.xyz(0.8, 0.5, 1.0)), 1e6)
        assert np.abs(ts.rho - np.eye(8) / 8).max() < 1e-4

    def test_zero_temperature_limit(self):
        h = hamiltonian(ModelParams.tfi(0.5))
        ts = thermal_state(h, 1e-3)
        g = ground_state(h)
        assert np.abs(ts.rho - np.outer(g, g.conj())).max() < 1e-6

    def test_xxz_partition_anchor(self):
        params = ModelParams.xxz(1.0, 0.5)
        ts = thermal_state(hamiltonian(params), 1.0)
        assert abs(ts.z - xxz_partition(params, 1.0)) / ts.z < 1e-10

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            thermal_state(hamiltonian(ModelParams.tfi(1.0)), 0.0)

    def test_density_matrix_invariants(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = ModelParams.xyz(*rng.uniform(0.1, 1.5, 3))
            ts = thermal_state(hamiltonian(params), float(rng.uniform(0.2, 3)))
            validate_density(ts.rho)

    def test_translation_symmetry(self):
        shift = cyclic_shift_matrix()
        for params in (ModelParams.xyz(0.8, 0.5, 1.0), ModelParams.xy(1.0, 0.25),
                       ModelParams.tfi(0.8), ModelParams.xxz(1.0, 0.5)):
            h = hamiltonian(params)
            assert np.abs(shift @ h - h @ shift).max() < 1e-12
            rho = thermal_state(h, 0.8).rho
            assert np.abs(shift @ rho - rho @ shift).max() < 1e-10


class TestXYZAnalytic:
    def test_partition_function_anchor(self):
        params = ModelParams.xyz(0.8, 0.5, 0.5)
        ts = thermal_state(hamiltonian(params), 1.0)
        _, info = xyz_analytic(params, 1.0)
        assert abs(info.z - ts.z) / ts.z < 1e-10
        assert abs(xyz_partition(params, 1.0) - ts.z) / ts.z < 1e-10

    def test_matches_numeric_on_seeded_points(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            params = ModelParams.xyz(*rng.uniform(0.1, 1.5, 3))
            t = float(rng.uniform(0.3, 3.0))
            rho_a, info = xyz_analytic(params, t)
            ts = thermal_state(hamiltonian(params), t)
            assert np.abs(rho_a - ts.rho).max() < 1e-8
            assert abs(info.z - ts.z) / ts.z < 1e-10

    @pytest.mark.parametrize("couplings", [(0.8, 0.5, 0.5), (0.9, 0.4, 0.7),
                                           (1.3, 0.2, 1.1)])
    def test_eigenvalues_are_the_spectrum(self, couplings):
        params = ModelParams.xyz(*couplings)
        _, info = xyz_analytic(params, 1.0)
        assert np.abs(np.sort(info.eigenvalues)
                      - np.linalg.eigvalsh(hamiltonian(params))).max() < 1e-12

    def test_degenerate_anisotropy_limit(self):
        # jx = jy with dominant jz: the printed arctan argument is 0/positive
        params = ModelParams.xyz(0.5, 0.5, 1.2)
        rho_a, info = xyz_analytic(params, 0.9)
        assert info.phi0 == 0.0
        ts = thermal_state(hamiltonian(params), 0.9)
        assert np.abs(rho_a - ts.rho).max() < 1e-8

    def test_zero_pattern(self):
        rho_a, _ = xyz_analytic(ModelParams.xyz(0.9, 0.4, 0.7), 0.8)
        # |ddd> row couples only to the two-up states
        for j in (1, 2, 4, 7):
            assert rho_a[0, j] == 0
        assert rho_a[1, 3] == 0 and rho_a[1, 5] == 0 and rho_a[1, 6] == 0
        numeric = thermal_state(hamiltonian(ModelParams.xyz(0.9, 0.4, 0.7)), 0.8).rho
        for j in (1, 2, 4, 7):
            assert abs(numeric[0, j]) < 1e-15


class TestXXZSpectrum:
    def test_eigenvectors_of_hamiltonian(self):
        params = ModelParams.xxz(1.0, 0.7)
        h = hamiltonian(params)
        energies, vecs = xxz_spectrum(params)
        for i in range(8):
            resid = h @ vecs[:, i] - energies[i] * vecs[:, i]
            assert np.abs(resid).max() < 1e-10

    def test_symmetric_w_state_anchor(self):
        params = ModelParams.xxz(1.0, 0.7)
        energies, vecs = xxz_spectrum(params)
        assert energies[3] == pytest.approx(-2 * 1.0 * (0.7 / 2 - 2))
        want = np.zeros(8)
        want[[1, 2, 4]] = 3**-0.5
        assert np.abs(vecs[:, 3] - want).max() < 1e-12

    def test_orthonormality(self):
        _, vecs = xxz_spectrum(ModelParams.xxz(1.0, 1.7))
        assert np.abs(vecs.conj().T @ vecs - np.eye(8)).max() < 1e-12
        assert abs(np.vdot(vecs[:, 1], vecs[:, 2])) < 1e-12

    def test_partition_matches_numeric_on_seeded_points(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            params = ModelParams.xxz(float(rng.uniform(0.2, 2.0)),
                                     float(rng.uniform(-0.9, 3.0)))
            t = float(rng.uniform(0.3, 3.0))
            ts = thermal_state(hamiltonian(params), t)
            assert abs(xxz_partition(params, t) - ts.z) / ts.z < 1e-10


class TestTFIAnalytic:
    def test_gap_anchors(self):
        _, info = tfi_analytic(ModelParams.tfi(1.0), 1.0)
        assert info.eta1 == pytest.approx(2.0, abs=1e-12)
        assert info.eta2 == pytest.approx(2 * math.sqrt(3), abs=1e-12)

    def test_zero_coupling_angle(self):
        _, info = tfi_analytic(ModelParams.tfi(1e-12), 1.0)
        assert abs(info.phi0) < 1e-12

    def test_matches_numeric_anchor(self):
        params = ModelParams.tfi(0.5)
        rho_a, info = tfi_analytic(params, 0.7)
        ts = thermal_state(hamiltonian(params), 0.7)
        assert np.abs(rho_a - ts.rho).max() < 1e-8
        assert abs(info.z - ts.z) / ts.z < 1e-10

    def test_matches_numeric_on_seeded_points(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            params = ModelParams.tfi(float(rng.uniform(0.0, 2.5)))
            t = float(rng.uniform(0.3, 3.0))
            rho_a, info = tfi_analytic(params, t)
            ts = thermal_state(hamiltonian(params), t)
            assert np.abs(rho_a - ts.rho).max() < 1e-8
            assert abs(tfi_partition(params, t) - ts.z) / ts.z < 1e-10


class TestGroundState:
    def test_tfi_field_only_ground_is_all_down(self):
        g = ground_state(hamiltonian(ModelParams.tfi(0.0)))
        assert abs(g[0] - 1.0) < 1e-12
        assert np.abs(g[1:]).max() < 1e-12

    def test_tfi_symmetric_sector_fit(self):
        g = ground_state(hamiltonian(ModelParams.tfi(0.5)))
        phi, overlap = fit_tfi_angle(g)
        assert overlap == pytest.approx(1.0, abs=1e-8)
        assert np.abs(tfi_ground(phi) - g).max() < 1e-7

    def test_xxz_large_delta_ground_is_w_like_but_degenerate(self):
        # at delta = 2 the lowest level is the four-fold degenerate
        # q-phase W-like family, so extraction must refuse
        params = ModelParams.xxz(1.0, 2.0)
        energies, _ = xxz_spectrum(params)
        h = hamiltonian(params)
        w_level = -2 * 1.0 * (2.0 / 2 + 1)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(w_level, abs=1e-12)
        assert sorted(energies)[0] == pytest.approx(w_level)
        with pytest.raises(ValueError, match="degenerate"):
            ground_state(h)

    def test_analytic_partition_dispatch(self):
        assert analytic_partition(ModelParams.tfi(0.5), 1.0) == tfi_partition(
            ModelParams.tfi(0.5), 1.0)
        with pytest.raises(ValueError):
            analytic_partition(ModelParams.xy(1.0, 0.5), 1.0)
