"""Renyi entropies and the traditional / sandwiched Renyi relative entropies.

All values are in nats.  Divergences are computed with the 1/(alpha - 1)
prefactor, so they are non-negative and reduce to the Kullback-Leibler
quantum relative entropy as alpha -> 1; alpha = 1 is always routed to the
exact KL expression instead of a numerical limit.

An infinite divergence (KL with a support mismatch) is reported as
``math.inf``, never as an exception, so that minimizers can treat it as a
penalty and move away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import DEFAULT_FLOOR, eig_hermitian

TRADITIONAL = "traditional"
SANDWICHED = "sandwiched"

# rho-weight on the null space of sigma above which KL is declared infinite
SUPPORT_WEIGHT_TOL = 1e-10

_VARIANT_ALIASES = {
    "traditional": TRADITIONAL, "trad": TRADITIONAL, "t": TRADITIONAL,
    "sandwiched": SANDWICHED, "sand": SANDWICHED, "s": SANDWICHED,
}


def normalize_variant(name: str) -> str:
    try:
        return _VARIANT_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}; use 'trad' or 'sand'") from None


@dataclass(frozen=True)
class RenyiParameter:
    """Generalization parameter alpha plus the divergence variant.

    Joint convexity restricts the traditional form to 0 < alpha <= 2 and
    the sandwiched form to alpha >= 1/2; both meet KL at alpha = 1.
    """

    alpha: float
    variant: str = TRADITIONAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "variant", normalize_variant(self.variant))
        a = self.alpha
        if a <= 0:
            raise ValueError("alpha must be positive")
        if self.variant == TRADITIONAL and a > 2:
            raise ValueError(f"traditional variant requires alpha <= 2, got {a}")
        if self.variant == SANDWICHED and a < 0.5:
            raise ValueError(f"sandwiched variant requires alpha >= 0.5, got {a}")

    @property
    def is_kl(self) -> bool:
        return self.alpha == 1.0


def _state_eigs(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a state with numerical-noise zeros dropped."""
    w = eig_hermitian(rho).eigenvalues
    cutoff = max(w[-1], 0.0) * len(w) * np.finfo(float).eps
    return w[w > cutoff]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr rho ln rho with the 0 ln 0 = 0 convention."""
    p = _state_eigs(rho)
    return float(-np.sum(p * np.log(p)))


def renyi_entropy(rho: np.ndarray, alpha: float) -> float:
    """S_alpha(rho) = ln Tr[rho^alpha] / (1 - alpha); von Neumann at alpha = 1.

    Evaluated in log space (log-sum-exp over eigenvalue logs) so very large
    alpha does not underflow.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha == 1.0:
        return von_neumann_entropy(rho)
    logp = np.log(_state_eigs(rho))
    m = alpha * logp.max()
    log_tr = m + math.log(np.sum(np.exp(alpha * logp - m)))
    return log_tr / (1.0 - alpha)


def min_entropy(rho: np.ndarray) -> float:
    """S_min = -ln ||rho|| (alpha -> infinity limit)."""
    w = eig_hermitian(rho).eigenvalues
    return float(-np.log(w[-1]))


def max_entropy(rho: np.ndarray, tol: float = 1e-10) -> float:
    """S_max = ln rank(rho) (alpha -> 0 limit)."""
    w = eig_hermitian(rho).eigenvalues
    return float(np.log(np.count_nonzero(w > tol)))


def collision_entropy(rho: np.ndarray) -> float:
    """S_c = -ln Tr[rho^2] (alpha -> 2 limit)."""
    rho = np.asarray(rho, dtype=complex)
    return float(-np.log(np.trace(rho @ rho).real))


def kl_rel_entropy(rho: np.ndarray, sigma: np.ndarray,
                   floor: float = DEFAULT_FLOOR) -> float:
    """Quantum relative entropy Tr rho (ln rho - ln sigma).

    Returns ``math.inf`` when rho carries more than SUPPORT_WEIGHT_TOL of
    weight on eigenvectors of sigma with eigenvalue below ``floor``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != np.asarray(sigma).shape:
        raise ValueError("dimension mismatch between rho and sigma")
    ws, vs = eig_hermitian(sigma)
    weights = np.einsum("ij,ji->i", vs.conj().T @ rho, vs).real
    null_weight = weights[ws <= floor].sum()
    if null_weight > SUPPORT_WEIGHT_TOL:
        return math.inf
    cross = float(np.sum(weights * np.log(np.maximum(ws, floor))))
    return -von_neumann_entropy(rho) - cross


def trad_rel_entropy(rho: np.ndarray, sigma: np.ndarray, alpha: float,
                     floor: float = DEFAULT_FLOOR) -> float:
    """Traditional (Petz) Renyi relative entropy ln Tr(rho^a sigma^(1-a)) / (a-1).

    Valid for 0 < alpha <= 2.  sigma's eigenvalues are floored before the
    1-alpha power, which regularizes rank-deficient sigma for alpha > 1.
    """
    if not 0 < alpha <= 2:
        raise ValueError(f"traditional variant requires 0 < alpha <= 2, got {alpha}")
    if alpha == 1.0:
        return kl_rel_entropy(rho, sigma, floor)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != np.asarray(sigma).shape:
        raise ValueError("dimension mismatch between rho and sigma")
    wr, vr = eig_hermitian(rho)
    rho_a = (vr * np.maximum(wr, 0.0) ** alpha) @ vr.conj().T
    ws, vs = eig_hermitian(sigma)
    sig_1a = (vs * np.maximum(ws, floor) ** (1.0 - alpha)) @ vs.conj().T
    tr = np.trace(rho_a @ sig_1a).real
    return math.log(tr) / (alpha - 1.0)


def sand_rel_entropy(rho: np.ndarray, sigma: np.ndarray, alpha: float,
                     floor: float = DEFAULT_FLOOR) -> float:
    """Sandwiched Renyi relative entropy ln Tr[(s^c rho s^c)^a] / (a-1),
    c = (1-a)/(2a).  Valid for alpha >= 1/2.
    """
    if alpha < 0.5:
        raise ValueError(f"sandwiched variant requires alpha >= 0.5, got {alpha}")
    if alpha == 1.0:
        return kl_rel_entropy(rho, sigma, floor)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != np.asarray(sigma).shape:
        raise ValueError("dimension mismatch between rho and sigma")
    c = (1.0 - alpha) / (2.0 * alpha)
    ws, vs = eig_hermitian(sigma)
    s_c = (vs * np.maximum(ws, floor) ** c) @ vs.conj().T
    m = s_c @ rho @ s_c
    wm = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    tr = float(np.sum(_drop_rounding_zeros(wm) ** alpha))
    return math.log(tr) / (alpha - 1.0)


def _drop_rounding_zeros(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues along the last axis, with those within
    rounding of zero set to zero: raised to a power alpha < 1, rounding
    noise of 1e-17 would count as 1e-17**alpha (3e-9 at alpha = 1/2)."""
    cutoff = w.shape[-1] * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    return np.where(w > cutoff, w, 0.0)


def rel_entropy(rho: np.ndarray, sigma: np.ndarray, p: RenyiParameter,
                floor: float = DEFAULT_FLOOR) -> float:
    """Dispatch to the variant selected by ``p``; alpha = 1 goes to KL."""
    if p.is_kl:
        return kl_rel_entropy(rho, sigma, floor)
    if p.variant == TRADITIONAL:
        return trad_rel_entropy(rho, sigma, p.alpha, floor)
    return sand_rel_entropy(rho, sigma, p.alpha, floor)
