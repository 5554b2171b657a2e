"""Separable-state search space and the relative-entropy-of-entanglement
minimization.

A candidate separable state is a K-term convex mixture of product pure
states across a fixed bipartition,

    sigma(theta) = sum_k p_k |a_k><a_k| (x) |b_k><b_k|,

parametrized without constraints: mixture weights through a softmax over
logits and component vectors through explicit normalization.  Pure product
components lose no generality (every separable state is such a mixture),
and the unconstrained parametrization lets plain gradient descent with a
backtracking line search do the minimization.  Non-convexity in the
parameters is handled by independent seeded restarts; the reported value
is the best restart, which upper-bounds the true minimum.

A candidate exists only as a real parameter row [logits | a | b], the
complex vector entries stored as (re, im) pairs.  Everything runs on
batches: one ansatz kernel maps B parameter rows to B states, and the
objective is a ``renyi.Divergence`` evaluated on those states, B values
per call.  All restarts of one ``ree`` descend in lockstep as the rows of
one batch, each with its own Barzilai-Borwein step, Armijo test,
convergence flag and iteration count, and leave the batch once
converged.  The line search evaluates a ladder of trial steps
(t, t/2, t/4) per restart in one call and takes the largest that passes,
the step halving one trial at a time would take; the gradient there
continues from that evaluation.  A restart's trajectory does not depend
on which other restarts share its batch.

The descent follows the analytic gradient: the divergence's
sigma-gradient chained through the parametrization.  Central finite
differences (``_Objective._fd_grad``) are its reference; the test suite
requires the two to agree to 1e-4 relative error.

The descent runs on the floored divergence, which is finite everywhere;
the reported value is re-evaluated with the user-facing divergence at the
end (see ``ree``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qmat import Bipartition, eig_hermitian, validate_density
from .renyi import (SANDWICHED, Divergence, RenyiParameter,
                    _drop_rounding_zeros, rel_entropy)

# beyond this alpha the sandwiched divergence is effectively its
# alpha -> infinity limit; refuse rather than return noise
SANDWICHED_ALPHA_CAP = 64.0

# trial steps t, t/2, ... per line-search call, and per iteration before a
# restart counts as stationary (a multiple of LADDER)
LADDER = 3
MAX_HALVINGS = 60

# default mixture components K per dimension of the cut, for the descent
# and the sampling oracle alike
COMPONENTS_PER_DIM = 4

# share of the maximally mixed state in the closest state (see ``ree``);
# it must keep CLOSEST_STATE_MIXING / d > qmat.DEFAULT_FLOOR at every
# dimension d, or the lifted eigenvalues stay at the floor and a KL value
# is reported as inf
CLOSEST_STATE_MIXING = 1e-9

# central finite-difference step of the tests' reference gradient
FD_STEP = 1e-5
# a restart whose objective improves by less than this over a sweep of 10
# iterations counts as converged
TOL_OBJECTIVE = 1e-7

# Sweep caches key on this; bump it whenever a change can move an optimizer
# result.  Version 1 ran restarts one after another, one trial step a call;
# version 2 counted rounding-level eigenvalues of rho in the traditional
# rho^alpha, which moves alpha < 1 values of low-rank rho by up to ~1e-5;
# version 3 ran a descent for every pair cut of a monogamy point, where
# PPT pairs now return 0 and E(1:3) reuses E(1:2)'s closest state when
# rho_13 is rho_12 up to a SWAP; version 4 ran a descent for every rank-1
# cut of a monogamy point, where the Schmidt-diagonal closest state
# (``pure_ree``) now gives the value; version 5 evaluated the divergence
# from rho itself, whose ~1e-17 rounding components ``renyi.Divergence``
# now drops with its rank-r eigen-factor, which moves descents at rounding
# level.
ALGORITHM_VERSION = 6


@dataclass(frozen=True)
class OptimizerOptions:
    """Knobs for the multi-start descent.

    ``components`` defaults to COMPONENTS_PER_DIM * dim_a * dim_b when
    left as None.  The stall tolerance and the divergence floor are
    constants: TOL_OBJECTIVE and ``qmat.DEFAULT_FLOOR``.
    """

    restarts: int = 16
    max_iters: int = 2000
    seed: int = 0
    components: int | None = None

    def __post_init__(self) -> None:
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")
        if self.components is not None and self.components < 1:
            raise ValueError("components must be >= 1")

    def n_components(self, cut: Bipartition) -> int:
        return self.components or COMPONENTS_PER_DIM * cut.dim


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended.  ``value`` is its floored objective, which
    ranks restarts; ``evaluations`` counts the parameter rows the objective
    was evaluated at: the start and each ladder rung."""

    seed: int
    value: float
    iterations: int
    evaluations: int
    converged: bool


@dataclass
class REEResult:
    """Outcome of one relative-entropy-of-entanglement minimization.
    ``restarts`` holds one record per restart; ``converged`` and
    ``iterations`` describe the best, the first with the least value, and
    ``evaluations`` sums over all.

    ``path`` says how the value was found: ``"descent"`` by ``ree``, or by
    one of the exact shortcuts ``entscan.monogamy`` takes.  A ``"ppt"``
    result (pair cuts) ran no descent: the value is exactly 0,
    ``converged`` is True, ``iterations`` and ``evaluations`` are 0 and
    ``restarts`` is empty.  A ``"pure"`` result (any rank-1 cut, see
    ``pure_ree``) has the same fields, with the value of the
    Schmidt-diagonal closest state.  A ``"swap"`` result keeps every
    descent field of the E(1:2) result whose closest state it reuses.
    """

    value: float
    closest_state: np.ndarray
    converged: bool
    iterations: int
    evaluations: int
    restarts: tuple[RestartRecord, ...]
    path: str = "descent"


def _mixtures(logits: np.ndarray, vectors_a: np.ndarray, vectors_b: np.ndarray):
    """The ansatz kernel: (B, K) logits with (B, K, dim_a) and (B, K, dim_b)
    vectors to the (B, d, d) states sum_k w_k |psi_k><psi_k|, Hermitian up
    to rounding, of the products psi_k = a_k (x) b_k with the normalization
    folded into the weights, w_k = p_k / (|a_k|^2 |b_k|^2).  Also returns
    (p, w, |a|^2, |b|^2, psi), which the parameter gradient continues from.
    """
    na2 = (vectors_a.real ** 2 + vectors_a.imag ** 2).sum(axis=-1)
    nb2 = (vectors_b.real ** 2 + vectors_b.imag ** 2).sum(axis=-1)
    if na2.min() < 1e-60 or nb2.min() < 1e-60:
        raise ValueError("ansatz contains a zero component vector")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    w = p / (na2 * nb2)
    psi = (vectors_a[..., :, None] * vectors_b[..., None, :]).reshape(p.shape + (-1,))
    q = psi.conj()
    q *= w[..., None]
    return psi.swapaxes(1, 2) @ q, (p, w, na2, nb2, psi)


# ----------------------------------------------------------------------
# the divergence on realized ansatze: values and gradients of parameter rows

class _Objective:
    def __init__(self, rho: np.ndarray, cut: Bipartition, p: RenyiParameter):
        self.cut = cut
        self.div = Divergence(rho, p)

    def split(self, theta: np.ndarray):
        """Views (logits, vectors_a, vectors_b) of (B, n) parameter rows."""
        rows, n = theta.shape
        k = n // (1 + 2 * (self.cut.dim_a + self.cut.dim_b))
        end_a = k * (1 + 2 * self.cut.dim_a)
        return (theta[:, :k],
                theta[:, k:end_a].view(complex).reshape(rows, k, self.cut.dim_a),
                theta[:, end_a:].view(complex).reshape(rows, k, self.cut.dim_b))

    def value(self, theta: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(B,) values of parameter rows, and the evaluation ``gradient``
        continues from: the rows, the ansatz parts and sigma's eigenpairs."""
        sigma, parts = _mixtures(*self.split(theta))
        ws, vs = np.linalg.eigh(sigma)
        return self.div.value(ws, vs), (theta, *parts, ws, vs)

    def gradient(self, ev: tuple) -> np.ndarray:
        """(B, n) analytic gradients at an evaluation."""
        theta, p, w, na2, nb2, psi, ws, vs = ev
        grad_s = self.div.sigma_grad(ws, vs)
        _, a, b = self.split(theta)
        rows, k, da = a.shape
        # dD/dp_k = c_k w_k / p_k; in a_k, 2 w_k times the part of r_k =
        # (1 (x) b_k^dag) G psi_k orthogonal to a_k (likewise for b_k)
        u = psi @ grad_s.swapaxes(1, 2)            # row k holds G psi_k
        c = (psi.conj() * u).sum(axis=2).real
        u4 = u.reshape(rows, k, da, -1)
        r = (u4 @ b.conj()[..., None])[..., 0]
        s_vec = (a.conj()[..., None, :] @ u4)[..., 0, :]
        ga = (2 * w)[..., None] * (r - (c / na2)[..., None] * a)
        gb = (2 * w)[..., None] * (s_vec - (c / nb2)[..., None] * b)
        wc = w * c
        g_logits = wc - p * wc.sum(axis=1, keepdims=True)
        return np.concatenate([g_logits, ga.reshape(rows, -1).view(float),
                               gb.reshape(rows, -1).view(float)], axis=1)

    def _fd_grad(self, theta: np.ndarray, h: float) -> np.ndarray:
        """Central finite differences, evaluated as one batched sweep: the
        reference the tests check ``gradient`` against."""
        rows, n = theta.shape
        idx = np.arange(n)
        thetas = np.repeat(theta[:, None, :], 2 * n, axis=1)
        thetas[:, idx, idx] += h
        thetas[:, n + idx, idx] -= h
        vals = self.value(thetas.reshape(-1, n))[0].reshape(rows, 2 * n)
        return (vals[:, :n] - vals[:, n:]) / (2 * h)


# ----------------------------------------------------------------------
# descent loop

_RUNGS = 0.5 ** np.arange(LADDER)


def _line_search(obj: _Objective, theta: np.ndarray, f: np.ndarray,
                 g: np.ndarray, gsq: np.ndarray, t: np.ndarray):
    """Armijo backtracking from trial steps ``t``, one row per restart.

    Each objective call evaluates LADDER halvings of the step for every row
    still searching; a row takes its largest step with sufficient decrease.
    Returns the rows that found a step (none with a vanishing gradient or
    after MAX_HALVINGS trials) in the order found, their steps, values and
    evaluations there, and the objective evaluations spent on every row.
    """
    n = theta.shape[1]
    evals = np.zeros(len(theta), dtype=int)
    todo = np.flatnonzero(gsq >= 1e-28)
    if not todo.size:
        return todo, None, None, None, evals
    t = t[todo]
    found = []
    for _ in range(MAX_HALVINGS // LADDER):
        steps = t[:, None] * _RUNGS
        trial = theta[todo, None] - steps[..., None] * g[todo, None]
        vals, ev = obj.value(trial.reshape(-1, n))
        ok = vals.reshape(steps.shape) <= f[todo, None] - 1e-4 * steps * gsq[todo, None]
        evals[todo] += LADDER
        hit = ok.any(axis=1)
        pick = np.flatnonzero(hit) * LADDER + ok.argmax(axis=1)[hit]
        found.append((todo[hit], steps.ravel()[pick], vals[pick],
                      *(x[pick] for x in ev)))
        todo, t = todo[~hit], steps[~hit, -1] * 0.5
        if not todo.size:
            break
    rows, steps, vals, *ev = (found[0] if len(found) == 1 else
                              [np.concatenate(x) for x in zip(*found)])
    return rows, steps, vals, ev, evals


def _descend(obj: _Objective, theta: np.ndarray, opts: OptimizerOptions):
    """Gradient descent with Armijo backtracking, one row per restart.

    A row's trial step is the Barzilai-Borwein estimate from its previous
    accepted step (falling back to doubling).  A row converges, and leaves
    the batch, when no step along its gradient descends or its objective
    improves by less than TOL_OBJECTIVE over a sweep of 10 iterations.
    Returns per-row (value, theta, iterations, evaluations, converged).
    """
    rows = len(theta)
    f, ev = obj.value(theta)
    g = obj.gradient(ev)
    theta, step, sweep_ref = theta.copy(), np.ones(rows), f.copy()
    iters = np.full(rows, opts.max_iters)
    evals = np.ones(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    act = np.arange(rows)
    for it in range(1, opts.max_iters + 1):
        ga = g[act]
        gsq = (ga ** 2).sum(axis=1)
        found, t, f_try, ev, n_evals = _line_search(
            obj, theta[act], f[act], ga, gsq, step[act])
        evals[act] += n_evals
        if found.size < act.size:  # the rest are numerically stationary
            stuck = np.setdiff1d(act, act[found])
            converged[stuck], iters[stuck] = True, it
        act, ga, gsq = act[found], ga[found], gsq[found]
        if not act.size:
            break
        g_new = obj.gradient(ev)
        curv = -t * (ga * (g_new - ga)).sum(axis=1)
        step[act] = np.where(curv > 1e-30,
                             (t * t * gsq / np.maximum(curv, 1e-30)).clip(1e-10, 1e4),
                             np.minimum(t * 2.0, 1e4))
        theta[act], f[act], g[act] = ev[0], f_try, g_new
        if it % 10 == 0:
            stalled = sweep_ref[act] - f[act] < TOL_OBJECTIVE
            converged[act[stalled]], iters[act[stalled]] = True, it
            sweep_ref[act] = f[act]
            act = act[~stalled]
            if not act.size:
                break
    return f, theta, iters, evals, converged


def _restart_seed(seed: int, restart: int) -> int:
    return (int(seed) * 1_000_003 + restart) & 0x7FFFFFFF


def _initial_ansatz(rho: np.ndarray, cut: Bipartition, k: int, restart: int,
                    rng: np.random.Generator) -> np.ndarray:
    """A restart's first parameter row [logits | a | b], complex entries as
    (re, im) pairs, which ``_Objective.split`` views without copying.
    Restart 0 starts near the computational-basis diagonal of rho (a
    separable state already); later restarts start fully random:
    Haar-direction product vectors with softmax-normal weights."""
    da, db = cut.dim_a, cut.dim_b
    if restart > 0:
        logits = rng.normal(size=k)
        va = rng.normal(size=(k, da)) + 1j * rng.normal(size=(k, da))
        vb = rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db))
    else:
        # spare components start at negligible weight so nearly-dead mixture
        # weight does not have to bleed out through slow softmax dynamics
        logits = np.full(k, -12.0)
        va = 0.02 * (rng.normal(size=(k, da)) + 1j * rng.normal(size=(k, da)))
        vb = 0.02 * (rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db)))
        diag = np.clip(np.diagonal(rho).real, 1e-9, None)
        for idx in range(min(k, da * db)):
            ia, ib = divmod(idx, db)
            logits[idx] = math.log(diag[idx])
            va[idx, ia] += 1.0
            vb[idx, ib] += 1.0
    return np.concatenate([logits, va.ravel().view(float), vb.ravel().view(float)])


def _check_ree_args(rho: np.ndarray, cut: Bipartition, p: RenyiParameter) -> None:
    if rho.shape[0] != cut.dim:
        raise ValueError(f"state dim {rho.shape[0]} does not match cut "
                         f"{cut.dim_a}x{cut.dim_b}")
    validate_density(rho)
    if p.variant == SANDWICHED and p.alpha > SANDWICHED_ALPHA_CAP:
        raise ValueError(f"sandwiched alpha capped at {SANDWICHED_ALPHA_CAP}")


def _closest_state(sigma: np.ndarray) -> np.ndarray:
    """The reported closest state: sigma Hermitized, with a
    CLOSEST_STATE_MIXING share of the maximally mixed state (see ``ree``)."""
    d = len(sigma)
    return ((1.0 - CLOSEST_STATE_MIXING) * 0.5 * (sigma + sigma.conj().T)
            + CLOSEST_STATE_MIXING / d * np.eye(d))


def ree(rho: np.ndarray, cut: Bipartition, p: RenyiParameter,
        opts: OptimizerOptions = OptimizerOptions()) -> REEResult:
    """Relative entropy of entanglement: min over separable sigma of the
    selected divergence, by multi-start descent.

    The returned value is the divergence re-evaluated at the best state
    found, so it is reproducible from ``closest_state`` alone and is an
    upper bound on the true minimum.  That state mixes the best ansatz
    state with a CLOSEST_STATE_MIXING share of the (separable) maximally
    mixed state, lifting eigenvalues the floored objective cannot tell from
    zero, where a KL value would be infinite; the mixing raises the value
    by at most -ln(1 - CLOSEST_STATE_MIXING).
    """
    rho = np.asarray(rho, dtype=complex)
    _check_ree_args(rho, cut, p)
    obj = _Objective(rho, cut, p)
    k = opts.n_components(cut)
    seeds = [_restart_seed(opts.seed, r) for r in range(opts.restarts)]
    theta = np.stack([_initial_ansatz(rho, cut, k, r, np.random.default_rng(s))
                      for r, s in enumerate(seeds)])
    f, theta, iters, evals, conv = _descend(obj, theta, opts)
    best = int(np.argmin(f))
    sigma = _closest_state(_mixtures(*obj.split(theta[best:best + 1]))[0][0])
    records = tuple(map(RestartRecord, seeds, f.tolist(), iters.tolist(),
                        evals.tolist(), conv.tolist()))
    return REEResult(value=float(rel_entropy(rho, sigma, p)),
                     closest_state=sigma, converged=bool(conv[best]),
                     iterations=int(iters[best]), evaluations=int(evals.sum()),
                     restarts=records)


def schmidt_closest_state(psi: np.ndarray, cut: Bipartition,
                          beta: float) -> tuple[float, np.ndarray]:
    """The Renyi entropy S_beta of the Schmidt weights of a normalized pure
    state across ``cut``, and the Schmidt-diagonal separable state

        sigma_beta = sum_i q_i |a_i b_i><a_i b_i|,   q_i ~ lambda_i^beta,

    built from its Schmidt decomposition psi = sum_i sqrt(lambda_i) a_i (x) b_i.
    Weights within rounding of zero (below min(dim_a, dim_b) eps) are
    dropped.  ``beta = math.inf`` puts all of q on the largest weight
    (S_min = -ln lambda_1).  For the matching divergence order (see
    ``pure_ree``), D(psi || sigma_beta) = S_beta.
    """
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    if len(psi) != cut.dim:
        raise ValueError("state dimension does not match cut")
    u, s, vh = np.linalg.svd(psi.reshape(cut.dim_a, cut.dim_b),
                             full_matrices=False)
    lam = s * s   # descending, so the kept weights are a prefix
    n = (1 if beta == math.inf
         else np.count_nonzero(lam > len(lam) * np.finfo(float).eps))
    logs = np.log(lam[:n])
    if beta == 1.0:
        entropy = -float(np.sum(lam[:n] * logs))
    elif beta == math.inf:
        entropy = -float(logs[0])
    else:   # log-sum-exp, so a large beta does not underflow
        m = beta * logs[0]
        entropy = (m + math.log(np.sum(np.exp(beta * logs - m)))) / (1.0 - beta)
    logits = beta * logs if n > 1 else np.zeros(1)
    sigma = _mixtures(logits[None], u.T[None, :n], vh[None, :n])[0][0]
    return entropy, sigma


def schmidt_entropy(psi: np.ndarray, cut: Bipartition) -> float:
    """Von Neumann entropy across ``cut`` of a normalized pure state.

    Independent oracle for ree at alpha = 1 on pure states: the REE of a
    pure bipartite state is the entropy of its Schmidt weights.
    """
    return schmidt_closest_state(psi, cut, 1.0)[0]


def _schmidt_order(p: RenyiParameter) -> float:
    """The order beta at which S_beta of the Schmidt weights is the
    divergence ``p`` from a pure state to its sigma_beta: 1 for KL, 1/alpha
    for the traditional form, alpha/(2 alpha - 1) for the sandwiched form
    (infinite at alpha = 1/2)."""
    if p.is_kl:
        return 1.0
    if p.variant != SANDWICHED:
        return 1.0 / p.alpha
    return math.inf if p.alpha == 0.5 else p.alpha / (2.0 * p.alpha - 1.0)


def pure_ree(rho: np.ndarray, cut: Bipartition,
             p: RenyiParameter) -> REEResult | None:
    """The REE of a rank-1 rho without a descent; None for any other rho.

    rho counts as rank 1 when its second eigenvalue is within rounding of
    zero, lambda_2 <= d eps lambda_1 (the rounding rule of ``renyi``).
    The closest state is sigma_beta of rho's top eigenvector at
    beta = ``_schmidt_order(p)``, mixed with CLOSEST_STATE_MIXING as in
    ``ree``, and the value is the divergence re-evaluated there.  For a
    pure psi, rho^alpha = rho, so the traditional Q = sum_i lambda_i
    q_i^(1-alpha) and the sandwiched Q = <psi| sigma^((1-alpha)/alpha)
    |psi>^alpha; one Lagrange step over Schmidt-diagonal q gives q ~
    lambda^beta and D = S_beta(lambda).  That this is the minimum over all
    separable states is proved for KL (Vedral & Plenio, PRA 57, 1619
    (1998)) and for sandwiched alpha = 1/2, the geometric measure (Wei &
    Goldbart, PRA 68, 042307 (2003)).  Elsewhere sigma_beta is still
    separable, so the value is an upper bound reproducible from
    ``closest_state``, as every ``ree`` value is.
    """
    rho = np.asarray(rho, dtype=complex)
    _check_ree_args(rho, cut, p)
    w, v = eig_hermitian(rho)
    if np.count_nonzero(_drop_rounding_zeros(w)) > 1:
        return None
    _, sigma = schmidt_closest_state(v[:, -1], cut, _schmidt_order(p))
    sigma = _closest_state(sigma)
    return REEResult(value=rel_entropy(rho, sigma, p), closest_state=sigma,
                     converged=True, iterations=0, evaluations=0, restarts=(),
                     path="pure")


def _sample_eigenpairs(cut: Bipartition, n: int, components: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (n, d) and eigenvectors (n, d, d) of ``n`` random
    separable states (see ``sample_separable_batch``).

    The generic family is realized and decomposed; the product-basis
    family is drawn as its eigenpairs, the Dirichlet weights and the
    product basis, and never realized.  Eigenvalues come unsorted.
    """
    k, da, db, d = components, cut.dim_a, cut.dim_b, cut.dim
    n_diag = n // 2
    n_gen = n - n_diag
    ws = np.empty((n, d))
    vs = np.empty((n, d, d), dtype=complex)

    logits = rng.normal(size=(n_gen, k))
    a = rng.normal(size=(n_gen, k, da)) + 1j * rng.normal(size=(n_gen, k, da))
    b = rng.normal(size=(n_gen, k, db)) + 1j * rng.normal(size=(n_gen, k, db))
    for lo in range(0, n_gen, 1024):  # chunks bound the kernel's temporaries
        hi = min(lo + 1024, n_gen)
        sig = _mixtures(logits[lo:hi], a[lo:hi], b[lo:hi])[0]
        ws[lo:hi], vs[lo:hi] = np.linalg.eigh(0.5 * (sig + sig.conj().swapaxes(1, 2)))

    if n_diag:
        ga = rng.normal(size=(n_diag, da, da)) + 1j * rng.normal(size=(n_diag, da, da))
        gb = rng.normal(size=(n_diag, db, db)) + 1j * rng.normal(size=(n_diag, db, db))
        qa = np.linalg.qr(ga)[0]
        qb = np.linalg.qr(gb)[0]
        # sparse weights reach the low-rank corners where optima live
        ws[n_gen:] = rng.dirichlet(np.full(d, 0.35), size=n_diag)
        # column i * db + j is column i of qa times column j of qb
        vs[n_gen:] = (qa[:, :, None, :, None]
                      * qb[:, None, :, None, :]).reshape(n_diag, d, d)
    return ws, vs


def sample_separable_batch(cut: Bipartition, n: int, components: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` random separable states as an (n, d, d) stack, each
    V diag(w) V^dag of its eigenpairs from ``_sample_eigenpairs``.

    Two sub-families alternate: generic mixtures of independent Haar
    product vectors with softmax weights, and Dirichlet-weighted diagonal
    mixtures in a random product basis.  The second family contains the
    closest separable state of every pure state (a weighted product-basis
    diagonal), which makes the sampled minimum a usefully tight upper
    bound.
    """
    ws, vs = _sample_eigenpairs(cut, n, components, rng)
    return (vs * ws[:, None, :]) @ vs.conj().swapaxes(1, 2)


def sample_upper_bound(rho: np.ndarray, cut: Bipartition, p: RenyiParameter,
                       n_samples: int, seed: int) -> float:
    """Brute-force oracle: minimum divergence over random separable states.

    Every sample is separable by construction, so the result upper-bounds
    the true REE (and hence any correct optimizer output, within
    tolerance).  Deterministic for a fixed seed.  The samples are those of
    ``sample_separable_batch``, scored from their eigenpairs: the
    product-basis family from the weights and basis it is drawn as.
    """
    rho = np.asarray(rho, dtype=complex)
    _check_ree_args(rho, cut, p)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    k = COMPONENTS_PER_DIM * cut.dim
    div = Divergence(rho, p)
    rng = np.random.default_rng(seed)
    best = math.inf
    remaining = n_samples
    while remaining > 0:
        bsz = min(remaining, 4096)
        vals = div.value(*_sample_eigenpairs(cut, bsz, k, rng))
        best = min(best, float(vals.min()))
        remaining -= bsz
    return best
