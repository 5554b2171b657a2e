"""Separable-state search space and the relative-entropy-of-entanglement
minimization.

A candidate separable state is a K-term convex mixture of product pure
states across a fixed bipartition,

    sigma(theta) = sum_k p_k |a_k><a_k| (x) |b_k><b_k|,

parametrized without constraints: mixture weights through a softmax over
logits and component vectors through explicit normalization.  Pure product
components lose no generality (every separable state is such a mixture),
and the unconstrained parametrization lets a quasi-Newton descent
(L-BFGS) with a backtracking line search do the minimization.
Non-convexity in the parameters is handled by independent seeded
restarts, each starting from the same kind of draw: normal logits and
Haar-direction vectors scaled to unit norm (``_initial_ansatz``).  The
reported value is the best restart, which upper-bounds the true
minimum.

A candidate exists only as a real parameter row [logits | a | b], the
complex vector entries stored as (re, im) pairs.  Everything runs on
batches: one ansatz kernel maps B parameter rows to B states, and the
objective is a ``renyi.Divergence`` evaluated on those states, B values
per call.  The restarts of every state in a batch (``ree_batch``: states
of one rank, across one cut, at one parameter) descend in lockstep as the
rows of one batch, each row naming its state, with its own L-BFGS
memory and direction, Armijo test, convergence flag and iteration count,
and leave the batch once converged, or once they cannot catch up with a
restart of their own state that has stopped lower (``_descend``).  The
memory is a ring buffer of LBFGS_MEMORY (s, y) pairs per row in the
compact representation of Byrd, Nocedal & Schnabel (``_remember``), so
the direction (``_lbfgs_direction``) is a fixed handful of batched
products however many pairs a row keeps.  Each line-search call
evaluates one trial step along the direction of every restart still
searching, halving the step of those it fails; the gradient at an
accepted step continues from that evaluation.  A restart's trajectory
does not depend on the restarts of other states that share its batch,
so ``ree`` is a batch of one; its own siblings can only stop it early,
and a stopped trajectory is a prefix of the one it would have run alone.

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

# trial steps t, t/2, ... per iteration before a restart counts as
# stationary
MAX_HALVINGS = 60
# (s, y) pairs each restart keeps for its L-BFGS direction
LBFGS_MEMORY = 40

# default mixture components K per dimension of the cut, for the descent
# and the sampling oracle alike
COMPONENTS_PER_DIM = 4

# random separable states realized at once by the sampler and the oracle:
# bounds the ansatz kernel's temporaries
SAMPLE_CHUNK = 1024
# the oracle skips a sample whose lower bound exceeds the running minimum m
# by more than BOUND_ALLOWANCE (1 + |m|).  The bound and the value reach
# Tr(rho sigma) along different rounding, each within ~1e-15 relative of
# exact while Tr(rho sigma) / Tr rho stays well above qmat.DEFAULT_FLOOR,
# which a generic sample of K = COMPONENTS_PER_DIM d terms does; the
# allowance covers that difference a million times over
BOUND_ALLOWANCE = 1e-9

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
# a running restart stops, unconverged, once even this many times its last
# sweep's gain over each remaining sweep leaves it above a stopped sibling
CATCH_UP_FACTOR = 3.0

# Sweep caches key on this; bump it whenever a change can move an optimizer
# result, even at rounding level (CHANGES.md says what moved each version).
ALGORITHM_VERSION = 11


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def n_components(self, cut: Bipartition) -> int:
        return self.components or COMPONENTS_PER_DIM * cut.dim


@dataclass(frozen=True)
class RestartRecord:
    """How one restart ended.  ``value`` is its floored objective, which
    ranks restarts; ``evaluations`` counts the parameter rows the objective
    was evaluated at: the start and each trial step.  An unconverged
    restart with fewer than ``max_iters`` iterations was pruned: it stopped
    where it could no longer catch up with a sibling (see ``_descend``)."""

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


def _products(logits: np.ndarray, vectors_a: np.ndarray, vectors_b: np.ndarray):
    """The parts of the ansatz states of (B, K) logits with (B, K, dim_a)
    and (B, K, dim_b) vectors: (p, w, |a|^2, |b|^2, psi), the softmax
    weights p, the products psi_k = a_k (x) b_k and their weights with the
    normalization folded in, w_k = p_k / (|a_k|^2 |b_k|^2)."""
    na2 = (vectors_a.real ** 2 + vectors_a.imag ** 2).sum(axis=-1)
    nb2 = (vectors_b.real ** 2 + vectors_b.imag ** 2).sum(axis=-1)
    if na2.min() < 1e-60 or nb2.min() < 1e-60:
        raise ValueError("ansatz contains a zero component vector")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    w = p / (na2 * nb2)
    psi = (vectors_a[..., :, None] * vectors_b[..., None, :]).reshape(p.shape + (-1,))
    return p, w, na2, nb2, psi


def _realize(psi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (B, d, d) states sum_k w_k |psi_k><psi_k|, Hermitian up to
    rounding, of (B, K, d) vectors and (B, K) weights."""
    q = psi.conj()
    q *= w[..., None]
    return psi.swapaxes(1, 2) @ q


def _mixtures(logits: np.ndarray, vectors_a: np.ndarray, vectors_b: np.ndarray):
    """The ansatz kernel: parameter rows to the (B, d, d) states sum_k w_k
    |psi_k><psi_k|, and the parts (see ``_products``) the parameter
    gradient continues from."""
    parts = _products(logits, vectors_a, vectors_b)
    return _realize(parts[4], parts[1]), parts


# ----------------------------------------------------------------------
# the divergence on realized ansatze: values and gradients of parameter rows

class _Objective:
    """The divergence ``div`` on parameter rows across ``cut``, each row
    naming its state in ``div``'s stack; rows of a stack of one may leave
    the names out (see ``Divergence``)."""

    def __init__(self, div: Divergence, cut: Bipartition):
        self.cut = cut
        self.div = div

    def split(self, theta: np.ndarray):
        """Views (logits, vectors_a, vectors_b) of (B, n) parameter rows."""
        rows, n = theta.shape
        k = n // (1 + 2 * (self.cut.dim_a + self.cut.dim_b))
        end_a = k * (1 + 2 * self.cut.dim_a)
        return (theta[:, :k],
                theta[:, k:end_a].view(complex).reshape(rows, k, self.cut.dim_a),
                theta[:, end_a:].view(complex).reshape(rows, k, self.cut.dim_b))

    def value(self, theta: np.ndarray,
              state: np.ndarray | None = None) -> tuple[np.ndarray, tuple]:
        """(B,) values of parameter rows of the given states, and the
        evaluation ``gradient`` continues from: the rows, the ansatz parts,
        sigma's eigenpairs and the states."""
        sigma, parts = _mixtures(*self.split(theta))
        ws, vs = np.linalg.eigh(sigma)
        return self.div.value(ws, vs, state=state), (theta, *parts, ws, vs, state)

    def gradient(self, ev: tuple) -> np.ndarray:
        """(B, n) analytic gradients at an evaluation."""
        theta, p, w, na2, nb2, psi, ws, vs, state = ev
        grad_s = self.div.sigma_grad(ws, vs, state=state)
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

def _line_search(obj: _Objective, theta: np.ndarray, state: np.ndarray,
                 f: np.ndarray, d: np.ndarray, slope: np.ndarray, t: np.ndarray):
    """Armijo backtracking along directions ``d`` from trial steps ``t``,
    one row per restart; ``slope`` holds each row's g.d < 0 and ``state``
    its state index.

    Each objective call evaluates one trial step for every row still
    searching; a row takes its first step t with sufficient decrease,
    f(theta + t d) <= f + 1e-4 t g.d, and the others halve t.  Returns the
    rows that found a step (none with a vanishing slope or after
    MAX_HALVINGS trials) in ascending order, their steps, values and
    evaluations there, and the objective evaluations spent on every row.
    """
    evals = np.zeros(len(theta), dtype=int)
    todo = np.flatnonzero(slope <= -1e-28)
    if todo.size < len(theta):
        if not todo.size:
            return todo, None, None, None, evals
        theta, state, f, d, slope, t = (
            x[todo] for x in (theta, state, f, d, slope, t))
    found = []
    for _ in range(MAX_HALVINGS):
        vals, ev = obj.value(theta + t[:, None] * d, state)
        hit = vals <= f + 1e-4 * t * slope
        evals[todo] += 1
        if hit.all():
            found.append((todo, t, vals, *ev))
            break
        found.append((todo[hit], t[hit], vals[hit], *(x[hit] for x in ev)))
        miss = ~hit
        todo, theta, state, f, d, slope, t = (
            x[miss] for x in (todo, theta, state, f, d, slope, t))
        t = t * 0.5
        if not todo.size:
            break
    if len(found) == 1:
        rows, steps, vals, *ev = found[0]
    else:
        parts = [np.concatenate(x) for x in zip(*found)]
        order = np.argsort(parts[0])
        rows, steps, vals, *ev = (x[order] for x in parts)
    return rows, steps, vals, ev, evals


def _lbfgs_direction(g: np.ndarray, memory) -> np.ndarray:
    """The L-BFGS direction -H g of each row in compact form (Byrd,
    Nocedal & Schnabel, Math. Program. 63, 129 (1994), eq. 3.1):

        H = gamma I + [S  gamma Y] [R^-T (D + gamma Y^T Y) R^-1   -R^-T] [S^T      ]
                                   [-R^-1                          0   ] [gamma Y^T]

    so with u = R^-1 S^T g and v = R^-T ((D + gamma Y^T Y) u - gamma Y^T
    g), H g = gamma g + S v - gamma Y u: a fixed number of batched
    products whatever LBFGS_MEMORY is, and no linear solve.

    ``memory`` (see ``_empty_memory`` and ``_remember``) holds each
    row's pairs in the slots of a ring buffer: ``pairs`` (rows, 2,
    LBFGS_MEMORY, n) the s and y of each slot, ``d_diag`` their s.y,
    ``r_inv`` the inverse of R, R_ij = s_i.y_j for pair i no newer than
    pair j, and ``yty`` Y^T Y, both (rows, LBFGS_MEMORY, LBFGS_MEMORY) in
    slot order, and ``gamma``, the scaling H0 = gamma I.  An empty slot is
    a zero pair with a unit diagonal in R^-1 and zeros elsewhere, so it
    changes nothing, and a row with an empty memory and gamma = 1 gets
    exactly -g.
    """
    pairs, d_diag, r_inv, yty, _, gamma = memory
    rows, _, m, n = pairs.shape
    flat = pairs.reshape(rows, 2 * m, n)
    proj = (flat @ g[:, :, None])[:, :, 0]          # [S^T g | Y^T g]
    u = (r_inv @ proj[:, :m, None])[:, :, 0]
    inner = d_diag * u + gamma[:, None] * ((yty @ u[:, :, None])[:, :, 0] - proj[:, m:])
    v = (inner[:, None, :] @ r_inv)[:, 0]           # R^-T applied to inner
    coef = np.concatenate([v, -gamma[:, None] * u], axis=1)
    return -(gamma[:, None] * g + (coef[:, None, :] @ flat)[:, 0])


def _empty_memory(rows: int, n: int):
    """``rows`` empty L-BFGS memories (pairs, s.y, R^-1, Y^T Y, head,
    gamma), laid out as ``_lbfgs_direction`` reads them; ``head`` is the
    slot each row stores its next pair in."""
    m = LBFGS_MEMORY
    return (np.zeros((rows, 2, m, n)), np.zeros((rows, m)),
            np.tile(np.eye(m), (rows, 1, 1)), np.zeros((rows, m, m)),
            np.zeros(rows, dtype=int), np.ones(rows))


def _forget(memory, rows: np.ndarray) -> None:
    """Empty the memories of ``rows``: their direction becomes -g."""
    pairs, d_diag, r_inv, yty, head, gamma = memory
    pairs[rows] = d_diag[rows] = yty[rows] = 0.0
    r_inv[rows] = np.eye(LBFGS_MEMORY)
    head[rows] = 0
    gamma[rows] = 1.0


def _remember(memory, s: np.ndarray, y: np.ndarray) -> None:
    """Store the pair (s[i], y[i]) in row i's ring-buffer slot ``head``,
    overwriting that row's oldest pair, advance the head and rescale
    gamma to s.y / y.y; a pair with s.y <= 1e-12 |s| |y| is not stored.

    R^-1 gains the new pair's column: with r_i = s_i.y over the other
    slots, the block inverse of R bordered by (r, s.y) gives the column
    -R^-1 r / s.y and the diagonal 1 / s.y.  The evicted pair was the
    oldest, so the other slots' block of R^-1 stays the inverse of their
    R; its row is zeroed (every pair left is newer), and its column is
    already zero off the diagonal, so its own entry of S^T y drops out of
    R^-1 r.  Y^T Y gains the new row and column Y^T y.
    """
    pairs, d_diag, r_inv, yty, head, gamma = memory
    sy = (s * y).sum(axis=1)
    yy = (y * y).sum(axis=1)
    keep = np.flatnonzero(sy > 1e-12 * np.sqrt((s * s).sum(axis=1) * yy))
    m = LBFGS_MEMORY
    # S^T y and Y^T y over every row: cheaper than gathering the kept rows
    proj = (pairs.reshape(len(s), 2 * m, -1) @ y[:, :, None])[keep, :, 0]
    s, y, sy, yy, slot = s[keep], y[keep], sy[keep], yy[keep], head[keep]
    at = np.arange(keep.size)
    column = (r_inv[keep] @ proj[:, :m, None])[:, :, 0] / -sy[:, None]
    column[at, slot] = 1.0 / sy
    r_inv[keep, slot, :] = 0.0
    r_inv[keep, :, slot] = column
    ty = proj[:, m:]
    ty[at, slot] = yy
    yty[keep, slot, :] = ty
    yty[keep, :, slot] = ty
    pairs[keep, 0, slot] = s
    pairs[keep, 1, slot] = y
    d_diag[keep, slot] = sy
    head[keep] = (slot + 1) % m
    gamma[keep] = sy / yy


def _descend(obj: _Objective, theta: np.ndarray, state: np.ndarray,
             opts: OptimizerOptions):
    """L-BFGS with Armijo backtracking (Liu & Nocedal, Math. Program. 45,
    503 (1989)), one row per restart, row i a restart of the state
    ``state[i]``.

    Each row keeps its own last LBFGS_MEMORY (s, y) pairs in a ring
    buffer, a new pair over the oldest, and stores a new pair only when
    s.y > 1e-12 |s| |y|.  A row with a memory searches from a unit step
    along its compact-form direction (``_lbfgs_direction``, scaled by the
    newest pair's s.y / y.y).  A row whose direction does not descend
    clears its memory; a row with an empty memory searches along -g from
    twice its last accepted step (1 at the start).  A row converges, and
    leaves the batch, when its line search finds no step or its objective
    improves by less than TOL_OBJECTIVE over a sweep of 10 iterations.

    A row that cannot catch up also leaves, unconverged, in the spirit of
    successive halving (Jamieson & Talwalkar, AISTATS 2016): at the end
    of a sweep, with gain Delta over the sweep and ``it`` < max_iters
    iterations done, a row whose f - CATCH_UP_FACTOR Delta (max_iters -
    it) / 10 still lies above the least f of a converged restart of its
    own state (this sweep's included).  Restarts of other states never
    meet in this test, so a row's trajectory does not depend on them; its
    own siblings can only cut it short.

    The working state (parameters, values, gradients, steps, memories)
    holds the running rows only, compacted when rows leave.  Returns
    per-row (value, theta, iterations, evaluations, converged).
    """
    rows, n = theta.shape
    f_out, theta_out = np.empty(rows), np.empty_like(theta)
    iters = np.full(rows, opts.max_iters)
    evals_out = np.empty(rows, dtype=int)
    converged = np.zeros(rows, dtype=bool)
    # least value of a stopped restart, per state
    best_stopped = np.full(state.max() + 1, np.inf)

    f, ev = obj.value(theta, state)
    g = obj.gradient(ev)
    act, step, evals = np.arange(rows), np.ones(rows), np.ones(rows, dtype=int)
    work = [act, state, theta, f, g, step, f, evals, *_empty_memory(rows, n)]

    def leave(gone: np.ndarray, it: int, conv: bool) -> list:
        """Record the running rows ``gone`` (a mask) as stopped at ``it``,
        converged or not, and return the working state of the others."""
        act, state, theta, f, _, _, _, evals = work[:8]
        out = act[gone]
        f_out[out], theta_out[out], evals_out[out] = f[gone], theta[gone], evals[gone]
        iters[out], converged[out] = it, conv
        if conv:
            np.minimum.at(best_stopped, state[gone], f[gone])
        return [x[~gone] for x in work]

    for it in range(1, opts.max_iters + 1):
        act, state, theta, f, g, step, sweep_ref, evals, *memory = work
        d = _lbfgs_direction(g, memory)
        slope = (g * d).sum(axis=1)
        uphill = slope >= 0
        if uphill.any():
            _forget(memory, uphill)
            d[uphill] = -g[uphill]
            slope[uphill] = -(g[uphill] ** 2).sum(axis=1)
        # a row with pairs, a positive s.y stored, tries t = 1 first
        t0 = np.where(memory[1].any(axis=1), 1.0, step)
        found, t, f_try, ev, n_evals = _line_search(obj, theta, state, f, d,
                                                    slope, t0)
        evals += n_evals
        if found.size < act.size:  # the rest are numerically stationary
            stuck = np.ones(act.size, dtype=bool)
            stuck[found] = False
            work = leave(stuck, it, True)
            if not found.size:
                break
            act, state, theta, f, g, step, sweep_ref, evals, *memory = work
        g_new = obj.gradient(ev)
        _remember(memory, ev[0] - theta, g_new - g)
        theta, f, g, step = ev[0], f_try, g_new, np.minimum(t * 2.0, 1e4)
        work = [act, state, theta, f, g, step, sweep_ref, evals, *memory]
        if it % 10 == 0:
            gain = sweep_ref - f
            work[6] = f  # the next sweep's reference
            stalled = gain < TOL_OBJECTIVE
            if stalled.any():
                work = leave(stalled, it, True)
                f, gain, state = f[~stalled], gain[~stalled], state[~stalled]
            if it < opts.max_iters:  # the cap stops every row anyway
                lost = (f - CATCH_UP_FACTOR * gain * (opts.max_iters - it) / 10
                        > best_stopped[state])
                if lost.any():
                    work = leave(lost, it, False)
            if not work[0].size:
                break
    act, _, theta, f, _, _, _, evals = work[:8]
    f_out[act], theta_out[act], evals_out[act] = f, theta, evals
    return f_out, theta_out, iters, evals_out, converged


def _restart_seed(seed: int, restart: int) -> int:
    return (int(seed) * 1_000_003 + restart) & 0x7FFFFFFF


def _initial_ansatz(cut: Bipartition, k: int, rng: np.random.Generator) -> np.ndarray:
    """A restart's first parameter row [logits | a | b], complex entries as
    (re, im) pairs, which ``_Objective.split`` views without copying:
    normal logits and Haar-direction product vectors, each scaled to unit
    norm.  sigma does not depend on the vectors' norms, so the scaling
    moves only the coordinates the descent sees; with every norm equal,
    no component's gradient and curvature are out of scale with the
    others' (the gradient in a_k scales as 1 / |a_k|)."""
    da, db = cut.dim_a, cut.dim_b
    logits = rng.normal(size=k)
    va = rng.normal(size=(k, da)) + 1j * rng.normal(size=(k, da))
    vb = rng.normal(size=(k, db)) + 1j * rng.normal(size=(k, db))
    va /= np.linalg.norm(va, axis=1, keepdims=True)
    vb /= np.linalg.norm(vb, axis=1, keepdims=True)
    return np.concatenate([logits, va.ravel().view(float), vb.ravel().view(float)])


def check_parameter(p: RenyiParameter) -> None:
    """Refuse a parameter no minimization here accepts: a sandwiched
    alpha above SANDWICHED_ALPHA_CAP."""
    if p.variant == SANDWICHED and p.alpha > SANDWICHED_ALPHA_CAP:
        raise ValueError(f"sandwiched alpha capped at {SANDWICHED_ALPHA_CAP:g}, "
                         f"got {p.alpha:g}")


def _check_ree_args(rho: np.ndarray, cut: Bipartition, p: RenyiParameter) -> None:
    if rho.shape[0] != cut.dim:
        raise ValueError(f"state dim {rho.shape[0]} does not match cut "
                         f"{cut.dim_a}x{cut.dim_b}")
    validate_density(rho)
    check_parameter(p)


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
    by at most -ln(1 - CLOSEST_STATE_MIXING).  A batch of one (see
    ``ree_batch``).
    """
    return ree_batch([(rho, opts.seed)], cut, p, opts)[0]


def ree_batch(jobs: list[tuple[np.ndarray, int]], cut: Bipartition,
              p: RenyiParameter,
              opts: OptimizerOptions = OptimizerOptions()) -> list[REEResult]:
    """``ree`` of every (rho, seed) in ``jobs``, all across ``cut`` at
    ``p`` with the restarts, iteration cap and components of ``opts``
    (whose own seed is unused).

    Each result equals ``ree(rho, cut, p, replace(opts, seed=seed))`` bit
    for bit: a restart's trajectory does not depend on the restarts of
    other states in its batch, and the catch-up test that can stop it
    early compares it with its own siblings only.  The
    restarts of every state of one rank descend as the rows of one batch;
    states of different ranks descend in separate batches.
    """
    rhos = [np.asarray(rho, dtype=complex) for rho, _ in jobs]
    for rho in rhos:
        _check_ree_args(rho, cut, p)
    if not rhos:
        return []
    w, v = np.linalg.eigh(np.stack(rhos))
    ranks = np.count_nonzero(_drop_rounding_zeros(w) > 0, axis=1)
    k, n_restarts = opts.n_components(cut), opts.restarts
    results: list[REEResult] = [None] * len(rhos)
    for rank in dict.fromkeys(ranks.tolist()):
        members = np.flatnonzero(ranks == rank)
        obj = _Objective(Divergence.of_states(w[members], v[members], p), cut)
        seeds = [[_restart_seed(jobs[i][1], r) for r in range(n_restarts)]
                 for i in members]
        theta = np.stack([_initial_ansatz(cut, k, np.random.default_rng(s))
                          for row_seeds in seeds for s in row_seeds])
        state = np.repeat(np.arange(len(members)), n_restarts)
        f, theta, iters, evals, conv = _descend(obj, theta, state, opts)
        for j, i in enumerate(members):
            rows = slice(j * n_restarts, (j + 1) * n_restarts)
            best = j * n_restarts + int(np.argmin(f[rows]))
            sigma = _closest_state(_mixtures(*obj.split(theta[best:best + 1]))[0][0])
            records = tuple(map(RestartRecord, seeds[j], f[rows].tolist(),
                                iters[rows].tolist(), evals[rows].tolist(),
                                conv[rows].tolist()))
            results[i] = REEResult(
                value=float(rel_entropy(rhos[i], sigma, p)), closest_state=sigma,
                converged=bool(conv[best]), iterations=int(iters[best]),
                evaluations=int(evals[rows].sum()), restarts=records)
    return results


def _schmidt(psi: np.ndarray, cut: Bipartition):
    """The Schmidt decomposition psi = sum_i sqrt(lambda_i) a_i (x) b_i of
    a normalized pure state across ``cut``: the weights lambda, descending,
    and the (n, dim_a) and (n, dim_b) Schmidt vectors, with weights within
    rounding of zero (below min(dim_a, dim_b) eps) dropped."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state vector is not normalized")
    if len(psi) != cut.dim:
        raise ValueError("state dimension does not match cut")
    u, s, vh = np.linalg.svd(psi.reshape(cut.dim_a, cut.dim_b),
                             full_matrices=False)
    lam = s * s   # descending, so the kept weights are a prefix
    n = np.count_nonzero(lam > len(lam) * np.finfo(float).eps)
    return lam[:n], u.T[:n], vh[:n]


def schmidt_entropy(psi: np.ndarray, cut: Bipartition) -> float:
    """Von Neumann entropy across ``cut`` of a normalized pure state.

    Independent oracle for ree at alpha = 1 on pure states: the REE of a
    pure bipartite state is the entropy of its Schmidt weights.
    """
    lam = _schmidt(psi, cut)[0]
    return -float(np.sum(lam * np.log(lam)))


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
    With rho's top eigenvector psi = sum_i sqrt(lambda_i) a_i (x) b_i (see
    ``_schmidt``) and beta = ``_schmidt_order(p)``, the closest state is
    the Schmidt-diagonal separable state

        sigma_beta = sum_i q_i |a_i b_i><a_i b_i|,   q_i ~ lambda_i^beta,

    all of q on the largest weight at beta = infinity, mixed with
    CLOSEST_STATE_MIXING as in ``ree``; the value is the divergence
    re-evaluated there.  For a pure psi, rho^alpha = rho, so the
    traditional Q = sum_i lambda_i q_i^(1-alpha) and the sandwiched Q =
    <psi| sigma^((1-alpha)/alpha) |psi>^alpha; one Lagrange step over
    Schmidt-diagonal q gives q ~ lambda^beta and D = S_beta(lambda), the
    Renyi entropy of the Schmidt weights.  That this is the minimum over all
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
    beta = _schmidt_order(p)
    lam, a, b = _schmidt(v[:, -1], cut)
    if beta == math.inf:
        lam, a, b = lam[:1], a[:1], b[:1]
    logits = beta * np.log(lam) if len(lam) > 1 else np.zeros(1)
    sigma = _closest_state(_mixtures(logits[None], a[None], b[None])[0][0])
    return REEResult(value=rel_entropy(rho, sigma, p), closest_state=sigma,
                     converged=True, iterations=0, evaluations=0, restarts=(),
                     path="pure")


def _check_count(name: str, value, least: int) -> None:
    """Refuse a count or seed that is not an integer >= ``least``."""
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _draw_samples(cut: Bipartition, n: int, components: int,
                  rng: np.random.Generator):
    """The draws of ``n`` random separable states (see
    ``sample_separable_batch``), in the generator's order: the generic
    family's (logits, a, b) parameter arrays for the first n - n // 2,
    then the product-basis family for the rest as its eigenpairs (w, v),
    the Dirichlet weights and the product basis."""
    k, da, db, d = components, cut.dim_a, cut.dim_b, cut.dim
    n_diag = n // 2
    n_gen = n - n_diag
    logits = rng.normal(size=(n_gen, k))
    a = rng.normal(size=(n_gen, k, da)) + 1j * rng.normal(size=(n_gen, k, da))
    b = rng.normal(size=(n_gen, k, db)) + 1j * rng.normal(size=(n_gen, k, db))
    ws, vs = np.empty((0, d)), np.empty((0, d, d), dtype=complex)
    if n_diag:
        ga = rng.normal(size=(n_diag, da, da)) + 1j * rng.normal(size=(n_diag, da, da))
        gb = rng.normal(size=(n_diag, db, db)) + 1j * rng.normal(size=(n_diag, db, db))
        qa = np.linalg.qr(ga)[0]
        qb = np.linalg.qr(gb)[0]
        # sparse weights reach the low-rank corners where optima live
        ws = rng.dirichlet(np.full(d, 0.35), size=n_diag)
        # column i * db + j is column i of qa times column j of qb
        vs = (qa[:, :, None, :, None] * qb[:, None, :, None, :]).reshape(n_diag, d, d)
    return (logits, a, b), (ws, vs)


def _decompose(sigma: np.ndarray):
    """Eigenpairs of (B, d, d) states Hermitian up to rounding."""
    return np.linalg.eigh(0.5 * (sigma + sigma.conj().swapaxes(1, 2)))


def _sample_eigenpairs(cut: Bipartition, n: int, components: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (n, d) and eigenvectors (n, d, d) of ``n`` random
    separable states (see ``sample_separable_batch``).

    The generic family is realized and decomposed; the product-basis
    family comes as drawn (``_draw_samples``), never realized.
    Eigenvalues come unsorted.
    """
    (logits, a, b), (w_diag, v_diag) = _draw_samples(cut, n, components, rng)
    n_gen = len(logits)
    ws = np.empty((n, cut.dim))
    vs = np.empty((n, cut.dim, cut.dim), dtype=complex)
    for lo in range(0, n_gen, SAMPLE_CHUNK):
        hi = min(lo + SAMPLE_CHUNK, n_gen)
        ws[lo:hi], vs[lo:hi] = _decompose(_mixtures(logits[lo:hi], a[lo:hi], b[lo:hi])[0])
    ws[n_gen:], vs[n_gen:] = w_diag, v_diag
    return ws, vs


def sample_separable_batch(cut: Bipartition, n: int, components: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` random separable states as an (n, d, d) stack, each
    V diag(w) V^dag of its eigenpairs from ``_sample_eigenpairs``.

    Two sub-families alternate: generic mixtures of ``components``
    independent Haar product vectors with softmax weights, and
    Dirichlet-weighted diagonal mixtures in a random product basis.  The
    second family contains the closest separable state of every pure
    state (a weighted product-basis diagonal), which makes the sampled
    minimum a usefully tight upper bound.
    """
    _check_count("n", n, 0)
    _check_count("components", components, 1)
    ws, vs = _sample_eigenpairs(cut, n, components, rng)
    return (vs * ws[:, None, :]) @ vs.conj().swapaxes(1, 2)


def sample_upper_bound(rho: np.ndarray, cut: Bipartition, p: RenyiParameter,
                       n_samples: int, seed: int) -> float:
    """Brute-force oracle: minimum divergence over random separable states.

    Every sample is separable by construction, so the result upper-bounds
    the true REE (and hence any correct optimizer output, within
    tolerance).  Deterministic for a fixed seed.  The samples are those of
    ``sample_separable_batch``, drawn 4096 at a time.

    A branch and bound over the samples.  Each draw's product-basis half
    is scored first, from the weights and basis it is drawn as.  Then,
    SAMPLE_CHUNK at a time, every generic sample sigma = sum_k w_k
    |psi_k><psi_k| gets the closed-form lower bound L of
    ``Divergence.lower_bound``, from Tr(rho sigma) = sum_k w_k
    <psi_k|rho|psi_k> (Jensen's inequality over sigma's floored spectrum;
    for the sandwiched form, D~_alpha's monotonicity in alpha), and only
    the samples with L <= best + BOUND_ALLOWANCE (1 + |best|), best the
    running minimum, are realized, decomposed and scored.  A skipped
    sample's floored value is at least L, which lies above the running
    minimum by more than rounding, so it could not have lowered the
    minimum; the survivors are scored by the same arithmetic as every
    sample of the unscreened minimum, so the result is that minimum bit
    for bit.
    """
    rho = np.asarray(rho, dtype=complex)
    _check_ree_args(rho, cut, p)
    _check_count("n_samples", n_samples, 1)
    _check_count("seed", seed, 0)
    k = COMPONENTS_PER_DIM * cut.dim
    div = Divergence(rho, p)
    rng = np.random.default_rng(seed)
    best = math.inf
    for done in range(0, n_samples, 4096):
        best = _screened_minimum(div, _draw_samples(
            cut, min(4096, n_samples - done), k, rng), best)
    return best


def _screened_minimum(div: Divergence, draws, best: float) -> float:
    """The least of ``best`` and the floored values of the samples of
    ``draws`` (see ``_draw_samples``), each generic sample realized and
    scored only where its lower bound does not rule it out (see
    ``sample_upper_bound``).  A function of its own, so that one draw's
    arrays are freed before the next is drawn."""
    (logits, a, b), (ws, vs) = draws
    if len(ws):
        best = min(best, float(div.value(ws, vs).min()))
    for lo in range(0, len(logits), SAMPLE_CHUNK):
        hi = lo + SAMPLE_CHUNK
        _, w, _, _, psi = _products(logits[lo:hi], a[lo:hi], b[lo:hi])
        bound = div.lower_bound(psi, w)
        # a NaN bound rules nothing out
        keep = np.flatnonzero(~(bound > best + BOUND_ALLOWANCE * (1.0 + abs(best))))
        if keep.size < len(w):
            psi, w = psi[keep], w[keep]
        if keep.size:
            best = min(best, float(div.value(*_decompose(_realize(psi, w))).min()))
        del w, psi  # before the next chunk's products
    return best
