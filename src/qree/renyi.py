"""Renyi entropies and the traditional / sandwiched Renyi relative entropies.

All values are in nats.  Divergences are computed with the 1/(alpha - 1)
prefactor, so they are non-negative and reduce to the Kullback-Leibler
quantum relative entropy as alpha -> 1; alpha = 1 is always routed to the
exact KL expression instead of a numerical limit.

Every divergence is evaluated by ``Divergence``, which holds a stack of
states of one rank, each as its rank-r eigen-factor, and evaluates
batches of sigma from their eigenpairs: the floored values and their
sigma-gradient that a minimizer descends on, and the reported value.
``rel_entropy`` and the ``*_rel_entropy`` functions are a stack of one
state and a batch of one sigma.

An infinite divergence (KL with a support mismatch) is reported as
``math.inf``, never as an exception.
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
        # NaN fails every comparison, and the sandwiched range has no upper end
        if not (math.isfinite(a) and a > 0):
            raise ValueError(f"alpha must be finite and positive, got {a}")
        if self.variant == TRADITIONAL and a > 2:
            raise ValueError(f"traditional variant requires alpha <= 2, got {a}")
        if self.variant == SANDWICHED and a < 0.5:
            raise ValueError(f"sandwiched variant requires alpha >= 0.5, got {a}")

    @property
    def is_kl(self) -> bool:
        return self.alpha == 1.0


def _drop_rounding_zeros(w: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues along the last axis, with those within
    rounding of zero (d * eps * max) set to zero: raised to a power
    alpha < 1, rounding noise of 1e-17 would count as 1e-17**alpha (3e-9
    at alpha = 1/2)."""
    cutoff = w.shape[-1] * np.finfo(float).eps * np.maximum(w[..., -1:], 0.0)
    return np.where(w > cutoff, w, 0.0)


def _state_eigs(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a state with rounding zeros dropped."""
    w = _drop_rounding_zeros(eig_hermitian(rho).eigenvalues)
    return w[w > 0]


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(rho) = -Tr rho ln rho with the 0 ln 0 = 0 convention."""
    p = _state_eigs(rho)
    return float(-np.sum(p * np.log(p)))


def renyi_entropy(rho: np.ndarray, alpha: float) -> float:
    """S_alpha(rho) = ln Tr[rho^alpha] / (1 - alpha); von Neumann at alpha = 1.

    Evaluated in log space (log-sum-exp over eigenvalue logs) so a large
    finite alpha does not underflow; ``min_entropy`` is the alpha -> infinity
    limit.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
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


def max_entropy(rho: np.ndarray) -> float:
    """S_max = ln rank(rho) (alpha -> 0 limit), the rank counted with
    rounding zeros dropped, as in ``renyi_entropy``."""
    return float(np.log(len(_state_eigs(rho))))


def collision_entropy(rho: np.ndarray) -> float:
    """S_c = -ln Tr[rho^2] (alpha -> 2 limit)."""
    rho = np.asarray(rho, dtype=complex)
    return float(-np.log(np.trace(rho @ rho).real))


def _divided_diff(w: np.ndarray, g: np.ndarray, gp: np.ndarray) -> np.ndarray:
    """First divided differences of the floored scalar function, (B, d, d)."""
    wi, wj = w[:, :, None], w[:, None, :]
    dw = wi - wj
    near = np.abs(dw) < 1e-8 * (1.0 + np.abs(wi) + np.abs(wj))
    return np.where(near, 0.5 * (gp[:, :, None] + gp[:, None, :]),
                    (g[:, :, None] - g[:, None, :]) / np.where(near, 1.0, dw))


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(1, 2)


def _gram(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(B, r, r) y^dag diag(g^2) y: with g = sigma's floored eigenvalues to
    the power c, it has the nonzero spectrum of s rho s."""
    return _adjoint(y) @ (y * (g * g)[:, :, None])


def _scaled_power_sum(mu: np.ndarray, alpha: float):
    """(top, rest) with sum_i mu_i^alpha = top^alpha rest along the last
    axis, top the largest mu (ascending) and rounding zeros dropped: the
    sum in log space, alpha ln top + ln rest, stays finite at a large
    alpha where mu^alpha overflows, as in ``renyi_entropy``."""
    top = mu[:, -1]
    return top, ((_drop_rounding_zeros(mu) / top[:, None]) ** alpha).sum(axis=1)


class Divergence:
    """The divergence D(rho || sigma) selected by ``p`` for a stack of S
    fixed states rho of one rank, evaluated on batches of sigma given by
    their (B, d) eigenvalues and (B, d, d) eigenvectors.  ``Divergence(rho,
    p)`` is a stack of one, which broadcasts against every row of a batch;
    with ``of_states`` each row of a batch names its state, and one batch
    serves the descents of several states.

    Each rho is held as its rank-r eigen-factor rho = R diag(lam) R^dag, R
    of shape (d, r), with eigenvalues within rounding of zero dropped (the
    rule of ``_drop_rounding_zeros``); every per-state array has a leading
    axis of S.  Every evaluation works in sigma's eigenbasis through x =
    V^dag R, of shape (B, d, r): the occupations <v_i|rho^a|v_i> are sums
    of the non-negative |x_ik|^2 lam_k^a, and the sandwiched trace is Tr
    (y^dag diag(w^2c) y)^alpha with y = x sqrt(lam), an r x r matrix with
    the nonzero spectrum of s rho s, s = sigma^c.  ``factor`` holds R, or
    R sqrt(lam) for the sandwiched form.

    sigma's eigenvalues are floored at ``qmat.DEFAULT_FLOOR`` inside logs
    and powers, so the values and the gradient are finite everywhere: a KL
    support mismatch becomes a large smooth penalty an optimizer can
    descend away from.  ``value(..., reported=True)`` is the user-facing
    divergence, which differs only there: KL is ``math.inf`` when rho
    carries more than SUPPORT_WEIGHT_TOL of weight on eigenvectors of
    sigma at or below the floor.

    ``lower_bound`` bounds the floored value from below in closed form,
    from Tr(rho sigma) of a sigma given as weighted product vectors, with
    no eigendecomposition; the sampling oracle
    (``sepstates.sample_upper_bound``) scores only the samples it cannot
    rule out.
    """

    def __init__(self, rho: np.ndarray, p: RenyiParameter):
        w, v = eig_hermitian(rho)
        self._hold(w[None], v[None], p)

    @classmethod
    def of_states(cls, w: np.ndarray, v: np.ndarray,
                  p: RenyiParameter) -> "Divergence":
        """One Divergence for S states of one rank, from their (S, d)
        ascending eigenvalues and (S, d, d) eigenvectors; ``value`` and
        ``sigma_grad`` then take each row's state index.  States whose
        ranks differ belong to separate Divergences."""
        div = cls.__new__(cls)
        div._hold(w, v, p)
        return div

    def _hold(self, wr: np.ndarray, vr: np.ndarray, p: RenyiParameter) -> None:
        self.alpha = p.alpha
        wr = _drop_rounding_zeros(wr)
        ranks = np.count_nonzero(wr > 0, axis=-1)
        r = int(np.max(ranks))
        if np.any(ranks != r):
            raise ValueError("the states of one Divergence must share their rank")
        # the kept eigenvalues are the top r (ascending order)
        lam, self.factor = wr[..., -r:], np.ascontiguousarray(vr[..., -r:])
        self.weight = self.s_rho = None
        self.lam = lam
        if p.is_kl:
            self.kind = "kl"
            self.s_rho = -(lam * np.log(lam)).sum(axis=-1)
            self.weight = lam
        elif p.variant == TRADITIONAL:
            self.kind = "trad"
            self.weight = lam ** self.alpha
        else:
            self.kind = "sand"
            self.c = (1.0 - self.alpha) / (2.0 * self.alpha)
            self.factor = self.factor * np.sqrt(lam)[..., None, :]

    def _at(self, state: np.ndarray | None):
        """Each row's factor, weight and KL entropy term, gathered by each
        row's index in ``state``; with no ``state``, a stack of one
        broadcasts over the rows."""
        if state is None:
            return self.factor, self.weight, self.s_rho
        return tuple(None if a is None else a[state]
                     for a in (self.factor, self.weight, self.s_rho))

    def value(self, ws: np.ndarray, vs: np.ndarray, reported: bool = False,
              state: np.ndarray | None = None) -> np.ndarray:
        """(B,) divergences, floored unless ``reported`` (see the class);
        ``state`` holds each row's state index, and may be left out for a
        stack of one."""
        factor, weight, s_rho = self._at(state)
        wf = np.maximum(ws, DEFAULT_FLOOR)
        x = _adjoint(vs) @ factor          # y for the sandwiched form
        if self.kind == "sand":
            g = wf ** self.c
            if self.alpha < 1.0:
                # the Gram spectrum as the squared singular values of diag(g)
                # y: an error of eps |g y| in a singular value s is one of
                # 2 eps |g y| s in s^2, where eigvalsh of the Gram matrix errs
                # by eps |g y|^2, which x^alpha, alpha < 1, magnifies at small
                # x.  g y has full column rank, so no zero is dropped
                wm = np.linalg.svd(x * g[:, :, None], compute_uv=False)[:, ::-1] ** 2
                top, rest = wm[:, -1], ((wm / wm[:, -1:]) ** self.alpha).sum(axis=1)
            else:
                top, rest = _scaled_power_sum(np.linalg.eigvalsh(_gram(x, g)),
                                              self.alpha)
            return (self.alpha * np.log(top) + np.log(rest)) / (self.alpha - 1.0)
        occ = ((x.real ** 2 + x.imag ** 2) @ weight[..., None])[..., 0]
        if self.kind == "kl":
            kl = -s_rho - (occ * np.log(wf)).sum(axis=1)
            if reported:
                null = np.where(ws <= DEFAULT_FLOOR, occ, 0.0).sum(axis=1)
                kl[null > SUPPORT_WEIGHT_TOL] = math.inf
            return kl
        tr = (occ * wf ** (1.0 - self.alpha)).sum(axis=1)
        return np.log(tr) / (self.alpha - 1.0)

    def lower_bound(self, psi: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(B,) lower bounds on the floored ``value`` of a stack of one at
        the states sigma = sum_k w_k |psi_k><psi_k| of (B, K, d) vectors
        ``psi`` and (B, K) weights ``w``, which are neither realized nor
        decomposed.

        With rho's kept eigenvalues lam (``_hold``), s = sum lam, r its
        rank and f = ``qmat.DEFAULT_FLOOR``, the bound is

            KL:                L = -S(rho) - s ln(Tr(rho sigma) / s + f)
            traditional alpha: L = ln T / (alpha - 1)
                                   - ln(Tr(rho^alpha sigma) / T + f),
                               T = Tr rho^alpha
            sandwiched alpha:  L = alpha ln s / (alpha - 1) + L_1 (alpha > 1)
                                   or - ln(r (Tr(rho sigma) / s + f)) (alpha < 1),
                               L_1 = -S(rho) / s - ln s - ln(Tr(rho sigma) / s + f)

        where Tr(rho^a sigma) = sum_k w_k <psi_k|rho^a|psi_k> comes from
        the rank-r factor, as the occupations of ``value`` do.

        Why it holds.  Let sigma = sum_i mu_i |v_i><v_i| and let f_i =
        max(mu_i, f) <= mu_i + f be the floored eigenvalues ``value``
        uses; the occupations o_i = <v_i|rho^a|v_i> sum to s (a = 1) or T.
        KL and traditional: Jensen's inequality over the f_i, weighted by
        o_i / s or o_i / T.  -ln is convex, so sum o_i ln f_i <= s ln(sum
        o_i f_i / s); x^(1 - alpha) is convex for alpha > 1 and concave
        for alpha < 1, and the sign of 1 / (alpha - 1) makes both a lower
        bound on ln(sum o_i f_i^(1 - alpha)) / (alpha - 1); and sum o_i f_i
        <= Tr(rho^a sigma) + f sum o_i.  Sandwiched: with rho = s rho_1,
        the value is D~_alpha(rho_1 || sigma_f) + alpha ln s / (alpha - 1),
        and D~_alpha is non-decreasing in alpha (Muller-Lennert et al., J.
        Math. Phys. 54, 122203 (2013)).  For alpha > 1, D~_alpha >= D, the
        KL bound of rho_1.  For alpha < 1, D~_alpha >= D~_1/2 = -2 ln F, F
        = || sqrt(sigma_f) sqrt(rho_1) ||_1, and F^2 <= r Tr(rho_1 sigma_f)
        by Cauchy-Schwarz on the r nonzero singular values.

        The bound and ``value`` reach Tr(rho sigma) along different
        rounding, so a caller that rules a sigma out must leave an
        allowance for it (see ``sepstates.BOUND_ALLOWANCE``).
        """
        a, lam, r = self.alpha, self.lam[0], self.factor.shape[-1]
        s = lam.sum()
        if self.kind == "kl":
            shift, scale, norm = -self.s_rho[0], s, s
        elif self.kind == "trad":
            norm = self.weight[0].sum()
            shift, scale = math.log(norm) / (a - 1.0), 1.0
        else:
            # the KL bound of rho / s for alpha > 1, -ln r for alpha < 1
            at_one = ((lam * np.log(lam)).sum() / s - math.log(s) if a > 1.0
                      else -math.log(r))
            shift, scale, norm = a * math.log(s) / (a - 1.0) + at_one, 1.0, s
        # rho_w = F F^dag with F = R sqrt(weight), or the sandwiched factor;
        # |psi^T conj(F_j)| = |<psi|F_j>|, so <psi|rho_w|psi> is the squared
        # norm of psi^T conj(F)
        root = self.factor[0]
        if self.weight is not None:
            root = root * np.sqrt(self.weight[0])
        z = (psi.reshape(-1, psi.shape[-1]) @ root.conj()).view(float)
        z *= z
        # a product with ones: numpy sums along a short last axis far slower
        occ = z @ np.ones(z.shape[1])
        tr = (w * occ.reshape(w.shape)).sum(axis=1)
        return shift - scale * np.log(tr / norm + DEFAULT_FLOOR)

    def sigma_grad(self, ws: np.ndarray, vs: np.ndarray,
                   state: np.ndarray | None = None) -> np.ndarray:
        """(B, d, d) gradients of the floored value in sigma, Hermitian up
        to rounding; ``state`` as in ``value``."""
        factor, weight, _ = self._at(state)
        vh = _adjoint(vs)
        f = DEFAULT_FLOOR
        wf = np.maximum(ws, f)
        live = ws > f
        x = vh @ factor
        if self.kind == "sand":
            # the derivative of Tr (s rho s)^alpha in s = sigma^c is rho s H
            # + h.c. with H = alpha (s rho s)^(alpha - 1); for M = y^dag
            # diag(g^2) y = U mu U^dag, V^dag rho s H V = A diag(g) with A =
            # y U alpha mu^(alpha - 1) U^dag y^dag.  rho s annihilates the
            # null space of s rho s, so that adds nothing
            g, gp = wf ** self.c, np.where(live, self.c * wf ** (self.c - 1.0), 0.0)
            wm, vm = np.linalg.eigh(_gram(x, g))
            # H and the trace both scaled by top^(1 - alpha), as in value
            top, rest = _scaled_power_sum(wm, self.alpha)
            tr = top * rest
            hp = self.alpha * (np.maximum(wm, f) / top[:, None]) ** (self.alpha - 1.0)
            yu = x @ vm
            a = (yu * hp[:, None, :]) @ _adjoint(yu)
            occ = a * (g[:, :, None] + g[:, None, :])
        else:
            occ = (x * weight[..., None, :]) @ _adjoint(x)
            if self.kind == "kl":
                g, gp = np.log(wf), np.where(live, 1.0 / wf, 0.0)
                return -(vs @ (occ * _divided_diff(ws, g, gp)) @ vh)
            e = 1.0 - self.alpha
            g, gp = wf ** e, np.where(live, e * wf ** (e - 1.0), 0.0)
            tr = (np.diagonal(occ, axis1=1, axis2=2).real * g).sum(axis=1)
        grad = vs @ (occ * _divided_diff(ws, g, gp)) @ vh
        return grad / ((self.alpha - 1.0) * tr)[:, None, None]


def rel_entropy(rho: np.ndarray, sigma: np.ndarray, p: RenyiParameter) -> float:
    """The reported divergence selected by ``p`` (alpha = 1 is KL)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != np.asarray(sigma).shape:
        raise ValueError("dimension mismatch between rho and sigma")
    ws, vs = eig_hermitian(sigma)
    return float(Divergence(rho, p).value(ws[None], vs[None], reported=True)[0])


def kl_rel_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy Tr rho (ln rho - ln sigma); ``math.inf`` on
    a support mismatch (see ``Divergence``)."""
    return rel_entropy(rho, sigma, RenyiParameter(1.0))


def trad_rel_entropy(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Traditional (Petz) Renyi relative entropy ln Tr(rho^a sigma^(1-a)) / (a-1),
    0 < alpha <= 2.  sigma's eigenvalues are floored before the 1-alpha
    power, which regularizes rank-deficient sigma for alpha > 1."""
    return rel_entropy(rho, sigma, RenyiParameter(alpha, TRADITIONAL))


def sand_rel_entropy(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi relative entropy ln Tr[(s^c rho s^c)^a] / (a-1),
    c = (1-a)/(2a).  Valid for alpha >= 1/2."""
    return rel_entropy(rho, sigma, RenyiParameter(alpha, SANDWICHED))
