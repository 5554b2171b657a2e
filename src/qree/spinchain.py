"""Three-site periodic spin-1/2 chains: Hamiltonians, thermal states, and
closed-form spectra / thermal matrices with numeric cross-validation.

Basis convention: per-site index 0 is the spin-down state and qubit 1 is
the leftmost tensor factor, so the 8 basis states run |ddd>, |ddu>, ...,
|uuu> as indices 0..7.  In this ordering the matrix of sigma_z is
diag(-1, +1); sigma_x and sigma_y keep their usual matrices (only
sigma_z's sign survives in any of the Hamiltonians below).  Energies are
in units with k_B = 1, and the transverse-field model is expressed in
units of the field (lam = J/B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import eig_hermitian, fix_phase, kron
from .statezoo import wbar

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[-1, 0], [0, 1]], dtype=complex)  # down-first basis
ID2 = np.eye(2, dtype=complex)

XYZ, XXZ, XY, TFI = "xyz", "xxz", "xy", "tfi"
MODELS = (XYZ, XXZ, XY, TFI)


@dataclass(frozen=True)
class ModelParams:
    """Couplings for one of the four chain models.

    Only the fields relevant to ``model`` are read: (jx, jy, jz) for xyz,
    (j, delta) for xxz, (j, gamma) for xy, and lam for tfi.
    """

    model: str
    jx: float = 0.0
    jy: float = 0.0
    jz: float = 0.0
    j: float = 1.0
    delta: float = 1.0
    gamma: float = 0.0
    lam: float = 1.0

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        for name, value in self.couplings().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.model == XXZ and self.delta <= -1:
            raise ValueError("xxz requires delta > -1 (the ferromagnetic "
                             "phase has a separable polarized ground state)")
        if self.model == XY and not 0 <= self.gamma <= 1:
            raise ValueError("xy anisotropy gamma must lie in [0, 1]")

    @classmethod
    def xyz(cls, jx: float, jy: float, jz: float) -> "ModelParams":
        return cls(XYZ, jx=jx, jy=jy, jz=jz)

    @classmethod
    def xxz(cls, j: float, delta: float) -> "ModelParams":
        return cls(XXZ, j=j, delta=delta)

    @classmethod
    def xy(cls, j: float, gamma: float) -> "ModelParams":
        return cls(XY, j=j, gamma=gamma)

    @classmethod
    def tfi(cls, lam: float) -> "ModelParams":
        return cls(TFI, lam=lam)

    def couplings(self) -> dict[str, float]:
        """The couplings actually read for this model (stable key order)."""
        return {
            XYZ: {"jx": self.jx, "jy": self.jy, "jz": self.jz},
            XXZ: {"j": self.j, "delta": self.delta},
            XY: {"j": self.j, "gamma": self.gamma},
            TFI: {"lam": self.lam},
        }[self.model]


@dataclass(frozen=True)
class ThermalState:
    """rho(T) = exp(-H/T)/Z with Z = Tr exp(-H/T)."""

    rho: np.ndarray
    temperature: float
    z: float

    @property
    def beta(self) -> float:
        return 1.0 / self.temperature


def _pair_terms(jx: float, jy: float, jz: float) -> np.ndarray:
    return jx * kron(SX, SX) + jy * kron(SY, SY) + jz * kron(SZ, SZ)


def _site_sum(op: np.ndarray) -> np.ndarray:
    return (kron(kron(op, ID2), ID2) + kron(kron(ID2, op), ID2)
            + kron(kron(ID2, ID2), op))


def _two_site_sum(term: np.ndarray) -> np.ndarray:
    """Sum of a two-site term over periodic bonds (12), (23), (31)."""
    h = kron(term, ID2) + kron(ID2, term)
    # bond (3,1): term acts on (site3, site1); permute factors (3,1,2)->(1,2,3)
    t6 = kron(term, ID2).reshape((2,) * 6)
    h += t6.transpose(1, 2, 0, 4, 5, 3).reshape(8, 8)
    return h


def hamiltonian(params: ModelParams) -> np.ndarray:
    """8x8 Hamiltonian of the requested chain, periodic boundary."""
    m = params.model
    if m == XYZ:
        return _two_site_sum(_pair_terms(params.jx, params.jy, params.jz))
    if m == XXZ:
        return _two_site_sum(_pair_terms(params.j, params.j, params.j * params.delta))
    if m == XY:
        jx = params.j * (1 + params.gamma) / 2
        jy = params.j * (1 - params.gamma) / 2
        return _two_site_sum(_pair_terms(jx, jy, 0.0))
    return params.lam * _two_site_sum(kron(SX, SX)) + _site_sum(SZ)


def thermal_state(h: np.ndarray, t: float) -> ThermalState:
    """Gibbs state by exact diagonalization, stable against large beta."""
    if not t > 0:
        raise ValueError(f"temperature must be positive, got {t}")
    w, v = eig_hermitian(h)
    shifted = np.exp(-(w - w[0]) / t)
    rho = (v * (shifted / shifted.sum())) @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    z = float(shifted.sum() * math.exp(-w[0] / t)) if abs(w[0] / t) < 700 else math.inf
    return ThermalState(rho=rho, temperature=t, z=z)


def _top_eigvec_angle(a: float, b: float, c: float) -> float:
    """Angle phi of the larger-eigenvalue eigenvector (cos phi, sin phi)
    of the symmetric 2x2 block [[a, c], [c, b]].

    Robust half-angle form of arctan(c / ((a-b)/2 + r)); well defined in
    the c -> 0 corners where the naive quotient degenerates to 0/0.
    """
    return 0.5 * math.atan2(2 * c, a - b)


ONE_UP = (1, 2, 4)   # basis indices with a single up spin
TWO_UP = (3, 5, 6)   # basis indices with two up spins


def _assemble_symmetric_thermal(u: float, v: float, w1: float, w2: float,
                                y1: float, y2: float, q1: float, q2: float,
                                z: float) -> np.ndarray:
    """Fill the translation-symmetric 8x8 thermal matrix from its eight
    distinct entries (all real): u, v on the |ddd>, |uuu> diagonal; w1/y1
    on the one-up diagonal/off-diagonal block; w2/y2 on the two-up block;
    q1 tying |ddd> to the two-up states and q2 tying |uuu> to the one-up
    states.
    """
    rho = np.zeros((8, 8))
    rho[0, 0], rho[7, 7] = u, v
    for i in ONE_UP:
        rho[i, i] = w1
        rho[7, i] = rho[i, 7] = q2
        for jdx in ONE_UP:
            if jdx != i:
                rho[i, jdx] = y1
    for i in TWO_UP:
        rho[i, i] = w2
        rho[0, i] = rho[i, 0] = q1
        for jdx in TWO_UP:
            if jdx != i:
                rho[i, jdx] = y2
    return rho.astype(complex) / z


@dataclass(frozen=True)
class XYZAnalytic:
    """Closed-form ingredients of the XYZ thermal matrix.

    ``eigenvalues`` are the levels of H (unsorted), ``eta`` the
    symmetric-sector gap, ``x`` the Boltzmann weight of the q-phase
    levels, ``phi0`` the mixing angle of both the |ddd>- and the
    |uuu>-sector (their blocks are equal by spin-flip symmetry), and ``z``
    the partition function.
    """

    eigenvalues: np.ndarray
    phi0: float
    eta: float
    x: float
    z: float


def xyz_eta(jx: float, jy: float, jz: float) -> float:
    return math.sqrt(3 * (jx - jy) ** 2 + ((jx + jy) - 2 * jz) ** 2)


def xyz_partition(params: ModelParams, t: float) -> float:
    """Z = 4/x + 4x cosh(eta/T) with x = exp(-(jx+jy+jz)/T)."""
    x = math.exp(-(params.jx + params.jy + params.jz) / t)
    return 4 / x + 4 * x * math.cosh(xyz_eta(params.jx, params.jy, params.jz) / t)


def xyz_analytic(params: ModelParams, t: float) -> tuple[np.ndarray, XYZAnalytic]:
    """Closed-form XYZ thermal matrix.

    Each symmetric-sector diagonal entry mixes the two sector levels with
    opposite Boltzmann exponents, e.g. u = x(e^(-eta/T) cos^2 phi0 +
    e^(+eta/T) sin^2 phi0); writing both weights with the same exponent
    would collapse to cos^2 + sin^2 and lose the sector splitting.  The
    assembled matrix is validated entry-wise against exp(-H/T)/Z.
    """
    jx, jy, jz = params.jx, params.jy, params.jz
    eta = xyz_eta(jx, jy, jz)
    js = jx + jy + jz
    x = math.exp(-js / t)
    # symmetric-sector 2x2 block [[3jz, sqrt(3)(jx-jy)], [., 2(jx+jy)-jz]]
    phi0 = _top_eigvec_angle(3 * jz, 2 * (jx + jy) - jz, math.sqrt(3) * (jx - jy))
    ep, em = math.exp(eta / t), math.exp(-eta / t)
    c0, s0 = math.cos(phi0) ** 2, math.sin(phi0) ** 2
    xinv2 = x ** -2
    u = x * (em * c0 + ep * s0)
    w = x * (2 * xinv2 + ep * c0 + em * s0) / 3
    y = x * (-xinv2 + ep * c0 + em * s0) / 3
    q = -2 / math.sqrt(3) * x * math.cos(phi0) * math.sin(phi0) * math.sinh(eta / t)
    z = xyz_partition(params, t)
    rho = _assemble_symmetric_thermal(u, u, w, w, y, y, q, q, z)
    eigs = np.array([js + eta] + [-js] * 4 + [js - eta] * 2 + [js + eta])
    info = XYZAnalytic(eigenvalues=eigs, phi0=phi0, eta=eta, x=x, z=z)
    return rho, info


def xxz_partition(params: ModelParams, t: float) -> float:
    """Z = 2 exp(-3 J d / T) + 2 exp(J d / T)(2 exp(2J/T) + exp(-4J/T))."""
    j, d = params.j, params.delta
    return (2 * math.exp(-3 * j * d / t)
            + 2 * math.exp(j * d / t) * (2 * math.exp(2 * j / t)
                                         + math.exp(-4 * j / t)))


def xxz_spectrum(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form XXZ levels and eigenvectors (columns), in the order
    E0 = E7 = 3 J delta on the polarized states, E1 = E2 = E4 = E5 =
    -2J(delta/2 + 1) on the q-phase W-like states, and E3 = E6 =
    -2J(delta/2 - 2) on the symmetric W-like states.
    """
    j, d = params.j, params.delta
    q = np.exp(2j * np.pi / 3)
    e_pol = 3 * j * d
    e_q = -2 * j * (d / 2 + 1)
    e_sym = -2 * j * (d / 2 - 2)
    energies = np.array([e_pol, e_q, e_q, e_sym, e_q, e_q, e_sym, e_pol])

    def wlike(idx: tuple[int, int, int], a: complex, b: complex, c: complex) -> np.ndarray:
        vec = np.zeros(8, dtype=complex)
        vec[idx[0]], vec[idx[1]], vec[idx[2]] = a, b, c
        return vec / math.sqrt(3)

    one_up, two_up = (1, 2, 4), (6, 5, 3)  # |ddu>,|dud>,|udd> and |uud>,|udu>,|duu>
    vecs = np.zeros((8, 8), dtype=complex)
    vecs[0, 0] = 1.0
    vecs[:, 1] = wlike(one_up, q, q * q, 1)
    vecs[:, 2] = wlike(one_up, q * q, q, 1)
    vecs[:, 3] = wlike(one_up, 1, 1, 1)
    vecs[:, 4] = wlike(two_up, q, q * q, 1)
    vecs[:, 5] = wlike(two_up, q * q, q, 1)
    vecs[:, 6] = wlike(two_up, 1, 1, 1)
    vecs[7, 7] = 1.0
    return energies, vecs


@dataclass(frozen=True)
class TFIAnalytic:
    """Closed-form ingredients of the transverse-field Ising thermal matrix.

    eta1/phi0 describe the {|uuu>, symmetric one-up} sector and eta2/phi1
    the {|ddd>, symmetric two-up} sector; ``z`` is the partition function.
    """

    eta1: float
    eta2: float
    phi0: float
    phi1: float
    z: float


def tfi_partition(params: ModelParams, t: float) -> float:
    lam = params.lam
    eta1 = 2 * math.sqrt(1 - lam + lam * lam)
    eta2 = 2 * math.sqrt(1 + lam + lam * lam)
    return (4 * math.exp(lam / t) * math.cosh(1 / t)
            + 2 * math.exp(-(lam + 1) / t) * math.cosh(eta1 / t)
            + 2 * math.exp(-(lam - 1) / t) * math.cosh(eta2 / t))


def tfi_analytic(params: ModelParams, t: float) -> tuple[np.ndarray, TFIAnalytic]:
    """Closed-form transverse-field Ising thermal matrix.

    The field splits the two symmetric sectors: the {|ddd>, two-up}
    block has gap eta2 and carries the v/w1/y1/q2 entries, the {|uuu>,
    one-up} block has gap eta1 and carries u/w2/y2/q1.  Swapping the two
    families across the diagonal corners describes the opposite field
    sign; this assignment is the one that reproduces exp(-H/T)/Z in the
    down-first basis, which the tests pin entry-wise.
    """
    lam = params.lam
    eta1 = 2 * math.sqrt(1 - lam + lam * lam)
    eta2 = 2 * math.sqrt(1 + lam + lam * lam)
    # sector blocks [[a, c], [c, b]] in the bases (|uuu>, one-up symmetric)
    # and (|ddd>, two-up symmetric)
    phi0 = _top_eigvec_angle(3.0, 2 * lam - 1, math.sqrt(3) * lam)
    phi1 = _top_eigvec_angle(-3.0, 2 * lam + 1, math.sqrt(3) * lam)
    x1 = math.exp(-(lam + 1) / t)
    x2 = math.exp(-(lam - 1) / t)
    e1p, e1m = math.exp(eta1 / t), math.exp(-eta1 / t)
    e2p, e2m = math.exp(eta2 / t), math.exp(-eta2 / t)
    c0, s0 = math.cos(phi0) ** 2, math.sin(phi0) ** 2
    c1, s1 = math.cos(phi1) ** 2, math.sin(phi1) ** 2
    u = x1 * (e1m * c0 + e1p * s0)
    v = x2 * (e2m * c1 + e2p * s1)
    w1 = x2 * (2 * math.exp(2 * (lam - 1) / t) + e2p * c1 + e2m * s1) / 3
    w2 = x1 * (2 * math.exp(2 * (lam + 1) / t) + e1p * c0 + e1m * s0) / 3
    y1 = x2 * (-math.exp(2 * (lam - 1) / t) + e2p * c1 + e2m * s1) / 3
    y2 = x1 * (-math.exp(2 * (lam + 1) / t) + e1p * c0 + e1m * s0) / 3
    q1 = -2 / math.sqrt(3) * x1 * math.cos(phi0) * math.sin(phi0) * math.sinh(eta1 / t)
    q2 = -2 / math.sqrt(3) * x2 * math.cos(phi1) * math.sin(phi1) * math.sinh(eta2 / t)
    z = tfi_partition(params, t)
    # v/q2 family on the |ddd> corner, w1/y1 on the two-up block; u/q1 on
    # the |uuu> corner, w2/y2 on the one-up block
    rho = _assemble_symmetric_thermal(v, u, w2, w1, y2, y1, q2, q1, z)
    info = TFIAnalytic(eta1=eta1, eta2=eta2, phi0=phi0, phi1=phi1, z=z)
    return rho, info


def analytic_partition(params: ModelParams, t: float) -> float:
    """Closed-form Z for any model that has one (xyz, xxz, tfi)."""
    if params.model == XYZ:
        return xyz_partition(params, t)
    if params.model == XXZ:
        return xxz_partition(params, t)
    if params.model == TFI:
        return tfi_partition(params, t)
    raise ValueError(f"no closed-form partition function for {params.model}")


def ground_state(h: np.ndarray) -> np.ndarray:
    """Lowest eigenvector, phase-fixed; refuses a gap <= 1e-10 as degenerate."""
    w, v = eig_hermitian(h)
    gap = float(w[1] - w[0])
    if gap <= 1e-10:
        raise ValueError(f"ground state is degenerate (gap {gap:.3e}); "
                         "refusing to pick an eigenvector arbitrarily")
    return fix_phase(v[:, 0])


def fit_tfi_angle(ground: np.ndarray) -> tuple[float, float]:
    """Fit the symmetric two-level mixing angle of a TFI ground state.

    Projects onto span{|000>, (|011>+|101>+|110>)/sqrt(3)} and returns
    (phi, overlap) where overlap = |<psi(phi)|ground>| should be 1 when
    the ground state really lives in that sector.
    """
    ground = fix_phase(np.asarray(ground, dtype=complex))
    a = ground[0].real
    b = float(np.vdot(wbar(), ground).real)
    phi = math.atan2(a, b)
    model = np.sin(phi) * _basis_vec(0) + np.cos(phi) * wbar()
    overlap = abs(np.vdot(model, ground))
    return phi, overlap


def _basis_vec(i: int) -> np.ndarray:
    v = np.zeros(8, dtype=complex)
    v[i] = 1.0
    return v


def cyclic_shift_matrix() -> np.ndarray:
    """Permutation matrix of the cyclic site shift (1,2,3) -> (3,1,2)."""
    p = np.zeros((8, 8))
    for i in range(8):
        b1, b2, b3 = (i >> 2) & 1, (i >> 1) & 1, i & 1
        p[(b3 << 2) | (b1 << 1) | b2, i] = 1.0
    return p.astype(complex)
