"""Dense complex linear algebra for small quantum systems (dim <= 8).

Everything here operates on plain ``numpy`` arrays of ``complex128``.  A
density matrix is an ordinary square array that passes
:func:`validate_density`; there is no wrapper class.  Qubit 1 is the
leftmost tensor factor (most significant bit of the basis index), so
``|011>`` is basis index 3 of an 8-dimensional state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# largest |H - H^dag| entry eig_hermitian accepts, looser than HERM_TOL
EIG_HERM_TOL = 1e-10

# Floor on sigma's eigenvalues inside the logs and powers of every Renyi
# divergence (``renyi.Divergence``): small enough not to move any optimizer
# objective, large enough to regularize rank-deficient states.
DEFAULT_FLOOR = 1e-12


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending, real) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class Bipartition:
    """A fixed A:B split of a tensor-product space.

    ``dim_a`` is the dimension of the leading (leftmost) factor.  For three
    qubits the 1:23 cut is ``Bipartition(2, 4)`` and the 1:2 / 1:3 cuts act
    on the reduced 4-dimensional states as ``Bipartition(2, 2)``.
    """

    dim_a: int
    dim_b: int

    def __post_init__(self) -> None:
        if self.dim_a < 1 or self.dim_b < 1:
            raise ValueError("bipartition dimensions must be positive")

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the leading factor on the left."""
    return np.kron(np.asarray(a), np.asarray(b))


def validate_density(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return rho as complex128.

    Raises ``ValueError`` naming the violated property.  Non-finite
    entries are rejected first: NaN fails every comparison below.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite (NaN or inf) entries")
    dev = np.abs(rho - rho.conj().T).max()
    if dev > HERM_TOL:
        raise ValueError(f"not Hermitian: max |M - M^dag| = {dev:.3e} > {HERM_TOL:.0e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace {tr} deviates from 1 by more than {TRACE_TOL:.0e}")
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < -PSD_TOL:
        raise ValueError(f"not PSD: smallest eigenvalue {lo:.3e} < -{PSD_TOL:.0e}")
    return rho


def eig_hermitian(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Backed by LAPACK (``numpy.linalg.eigh``); rejects non-Hermitian input.
    """
    h = np.asarray(h, dtype=complex)
    if not (h.shape[0] == h.shape[1] and np.abs(h - h.conj().T).max() <= EIG_HERM_TOL):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    return SpectralDecomposition(w, v)


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` lists the factor dimensions left to right (factor 0 is the
    most significant index).  The kept factors stay in their original
    order.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    n = len(dims)
    if math.prod(dims) != rho.shape[0] or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"product of dims {dims} does not match matrix dim {rho.shape}")
    keep = sorted(set(keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"keep indices {keep} invalid for {n} factors")
    work = rho.reshape(dims + dims)
    traced = 0
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        m = n - traced
        work = np.trace(work, axis1=idx, axis2=idx + m)
        traced += 1
    d_keep = math.prod(dims[k] for k in keep)
    return work.reshape(d_keep, d_keep)


def partial_transpose(rho: np.ndarray, dims: Sequence[int], sys: int) -> np.ndarray:
    """Transpose tensor factor ``sys`` of ``rho``, the others untouched.

    ``dims`` lists the factor dimensions left to right, as in
    :func:`partial_trace`.  For two qubits, ``rho`` is separable exactly
    when this is positive semidefinite (Peres-Horodecki).
    """
    rho = np.asarray(rho, dtype=complex)
    dims = list(dims)
    n = len(dims)
    if math.prod(dims) != rho.shape[0] or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"product of dims {dims} does not match matrix dim {rho.shape}")
    if not 0 <= sys < n:
        raise ValueError(f"factor {sys} invalid for {n} factors")
    return rho.reshape(dims + dims).swapaxes(sys, n + sys).reshape(rho.shape)


def random_density_matrix(dim: int, rank: int, seed) -> np.ndarray:
    """Seeded random density matrix of exact numerical rank ``rank``.

    Built as G G^dag / Tr from a complex normal ``dim x rank`` factor, so
    the result is PSD with probability-one rank ``rank``.
    """
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Seeded Haar-ish random unitary via QR of a complex normal matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a state vector."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    return np.outer(psi, psi.conj())


def fix_phase(psi: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first amplitude above 1e-12 is real positive."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    for a in psi:
        if abs(a) > 1e-12:
            return psi * (abs(a) / a)
    return psi
