"""Exact REE of two-qubit X-states up to a local rotation.

A two-qubit state is an X-state when it commutes with Z (x) Z: its only
nonzero entries sit on the diagonal and the anti-diagonal.  A state that
commutes with (n1.sigma) (x) (n2.sigma) for unit vectors n1, n2 is one after
the local rotation that takes n1 and n2 to z (``x_frame``).

For such a rho the separable minimization shrinks to a convex problem in
five real numbers.  Twirling sigma over {I, Z (x) Z}, a mixture of local
unitaries, keeps it separable, leaves rho fixed and cannot raise any
divergence here (data processing), so the closest state may be taken to be
an X-state too (Vollbrecht & Werner, PRA 64, 062307 (2001)).  Once local Z
phases make rho's two coherences real and non-negative, rho equals its
transpose, and averaging sigma with its transpose keeps it separable and,
by convexity, cannot raise the objective either, so sigma may be taken
real:

    sigma = [[a, 0, 0, x], [0, b, y, 0], [0, y, c, 0], [x, 0, 0, d]],

a + b + c + d = 1.  A two-qubit state is separable exactly when its partial
transpose is positive (Peres; Horodecki), which for this sigma is the four
smooth constraints

    x^2 <= a d,  x^2 <= b c  (positivity and PPT of the outer block),
    y^2 <= b c,  y^2 <= a d  (the same for the inner block),

each a rotated second-order cone, which also keep a, b, c, d >= 0.  The
objective is convex in sigma: D itself for KL, Q = exp((alpha - 1) D) for
alpha > 1 and -Q for alpha < 1, over the parameter ranges ``renyi``
accepts (joint convexity and concavity of Q: Lieb; Frank & Lieb, J. Math.
Phys. 54, 122201 (2013)).

``_Kernel`` gives D, its gradient and its Hessian in z in closed form.
rho and sigma split into the outer block on |00>, |11> and the inner one
on |01>, |10>, and each divergence is a sum over the two 2x2 blocks: KL
is -S(rho) - sum_B Tr rho_B ln sigma_B, Petz Q = sum_B Tr rho_B^alpha
sigma_B^(1 - alpha), and sandwiched Q = sum_B Tr h(N_B), h(x) = x^alpha,
N_B = rho_B^(1/2) sigma_B^(2c) rho_B^(1/2) and c = (1 - alpha) / (2
alpha).  A block's eigenpairs are closed form, its smaller eigenvalue as
det / (larger eigenvalue), which keeps its relative accuracy near 0; so
is N_B's, whose determinant is det rho_B (det sigma_B)^(2c).  The
derivatives of Tr A g(sigma_B) in the block's (p, q, u) come from the
first and second divided differences of g at sigma_B's eigenvalues
(Daleckii-Krein); the sandwiched Hessian adds the first divided
differences of h' at N_B's.  sigma's eigenvalues are floored at the floor
of ``renyi`` and rho's eigenvalues within rounding of zero are dropped by
its rule, so the kernel computes the value of ``renyi.Divergence``, and
the derivatives of that value.

``solve_batch`` minimizes f for every state of a batch at once with a
log-barrier method: Newton steps on t f - sum log(cone slacks), both
Hessians in closed form, t multiplied by BARRIER_GROWTH each time a row
is centered: its Newton decrement squared below CENTERED, or no step
found by its line search.  A centered row with an active cone, no step,
or its weight at the cap is polished by Newton steps on the optimality
conditions with an active set (``_polish``): the cones whose slack shrank
by at least sqrt(BARRIER_GROWTH) since the previous centered point.  On
the central path an active cone's slack falls as 1 / t, an inactive
one's tends to a positive limit.  Keeping the four constraints separate
matters: W's optimum has y^2 = a d = b c, the kink of min(a d, b c).

Rows certify a lower bound from convexity: f* >= f(z) + min over the
feasible set of grad f . (z' - z) at any feasible z, the Frank-Wolfe gap.
The linear minimum has a closed form.  For fixed (a, b, c, d) the
coherences reach |x|, |y| <= sqrt(min(a d, b c)), so with k = |c_x| +
|c_y| it is the minimum over the simplex of c_a a + c_b b + c_c c + c_d d
- k min(sqrt(a d), sqrt(b c)).  Writing that min as the least of theta
sqrt(a d) + (1 - theta) sqrt(b c) over theta in [0, 1] and swapping min
and max (the expression is convex in (a, b, c, d) and linear in theta),
the minimum is the largest over theta of min(phi_ad, phi_bc), with

    phi_ad(theta) = (c_a + c_d) / 2 - sqrt((c_a - c_d)^2 + (k theta)^2) / 2

(the minimum of c_a a + c_d d - k theta sqrt(a d) over a + d = 1) and
phi_bc the same in (c_b, c_c, 1 - theta).  Any theta gives a valid bound,
and the best is where the falling phi_ad crosses the rising phi_bc.  The
bound is taken at every polished point where each block's smaller
eigenvalue, in closed form, sits above the floor of ``renyi`` (the polish
mixes in enough of I/4 to keep it there, even at W's rank-deficient
optimum) and turns into one on D.  It is only as valid as the kernel's
value, so the kernel keeps every eigenvalue of N_B above zero: its
smaller one, det / (larger), keeps its relative accuracy however small
it is, and at sandwiched alpha < 1 dropping it as a rounding zero would
lower Q's power sum, raise D, and let the bound exceed the minimum (by
about 3e-8 on near-pure states).

A row stops once its value is within XSTATE_GAP of its best bound (within
XSTATE_TOLERANCE at the cap), when its line search finds no step, or
after XSTATE_MAX_ITERS iterations.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .qmat import DEFAULT_FLOOR, Bipartition
from .renyi import TRADITIONAL, Divergence, RenyiParameter, rel_entropy
from .sepstates import TOL_OBJECTIVE, REEResult, _check_ree_args, _closest_state

CUT_PAIR = Bipartition(2, 2)

# a pair counts as an X-state in a frame when every entry of the rotated
# rho off the X pattern is at most XSTATE_ROUNDING * lambda_max(rho): the
# d^2 eps rounding rule, d = 4, one eps per entry the rotation sums
XSTATE_ROUNDING = 16 * np.finfo(float).eps
# a candidate symmetry from the commutant's null space is tried when its
# singular value is below this share of rho's largest eigenvalue; the
# XSTATE_ROUNDING test on the rotated state then decides
NULL_SPACE_SHARE = math.sqrt(np.finfo(float).eps)

# a row stops once its value is within XSTATE_GAP of its certified lower
# bound; the barrier weight t starts at 1 and grows by BARRIER_GROWTH each
# time the Newton decrement squared falls below CENTERED.  The weight on D,
# w = t |df/dD|, is capped at BARRIER_T_MAX.  The barrier's share of the
# gap there, 8 / w = 2.7e-9, exceeds XSTATE_GAP, so a row at the cap stops
# once its certificate holds within XSTATE_TOLERANCE, tried at each of its
# centered points.  The cap keeps sigma's smallest eigenvalues, about 1 /
# w, well above the floor of ``renyi`` and the Newton system solvable: at a
# cap of 3e30, random rotated near-pure X-states at sandwiched alpha = 64
# make ``_newton`` raise LinAlgError
XSTATE_GAP = 1e-10
# an xstate result counts as converged when its reported value exceeds its
# certified lower bound by at most this: the stall tolerance of the descent
XSTATE_TOLERANCE = TOL_OBJECTIVE
BARRIER_GROWTH = 30.0
CENTERED = 1e-2
BARRIER_T_MAX = 3e9
XSTATE_MAX_ITERS = 200
# steps of ``_polish``
POLISH_STEPS = 5
# the share of I/4 mixed into a polished point where it is evaluated and
# certified: its eigenvalues are then at least twice the floor of ``renyi``
POLISH_MIXING = 8.0 * DEFAULT_FLOOR
# Armijo constant and most step halvings of the line search
ARMIJO = 1e-4
MAX_HALVINGS = 30

_PAULI = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))
# sigma_i (x) sigma_j at index 3 i + j
_PAULI_PAIRS = np.stack([np.kron(a, b) for a in _PAULI for b in _PAULI])
# (i, j) of the products sigma_i (x) sigma_j tried before the null space:
# Z (x) Z, X (x) X, Y (x) Y
_ALIGNED = ((2, 2), (0, 0), (1, 1))
_X_PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]

# z = (a, b, c, d, x, y); the cones (p, q, u) hold u^2 <= p q
CONES = ((0, 3, 4), (1, 2, 4), (1, 2, 5), (0, 3, 5))
_P, _Q, _U = (np.array(c) for c in zip(*CONES))
_K = np.arange(len(CONES))
# the Hessian of each g_k = p q - u^2
_CURVE = np.zeros((len(CONES), 6, 6))
_CURVE[_K, _P, _Q] = _CURVE[_K, _Q, _P] = 1.0
_CURVE[_K, _U, _U] = -2.0
# grad g_k = z @ _NORMALS[:, k]: q at p, p at q, -2 u at u
_NORMALS = np.zeros((6, len(CONES), 6))
_NORMALS[_Q, _K, _P] = _NORMALS[_P, _K, _Q] = 1.0
_NORMALS[_U, _K, _U] = -2.0
_NORMALS = _NORMALS.reshape(6, -1)
# the free coordinates (a, b, c, x, y), d = 1 - a - b - c
_FREE = np.zeros((6, 5))
_FREE[[0, 1, 2, 4, 5], [0, 1, 2, 3, 4]] = 1.0
_FREE[3, :3] = -1.0
_START = np.array([0.25, 0.25, 0.25, 0.25, 0.0, 0.0])
# the Hessians of the g_k in the free coordinates
_CURVE_FREE = _FREE.T @ _CURVE @ _FREE


def _rows(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x @ m row by row, as a stack of (1, n) @ (n, k) products: one
    matrix product over all rows may round a row differently with the
    number of rows, and a row's result must not depend on its batch."""
    return (x[:, None, :] @ m)[:, 0]


def _rotation(n: np.ndarray) -> np.ndarray:
    """The 2x2 unitary whose columns are the +1 and -1 eigenvectors of
    n.sigma for a unit vector n, so U^dag (n.sigma) U = Z."""
    theta = math.acos(max(-1.0, min(1.0, float(n[2]))))
    phase = np.exp(1j * math.atan2(float(n[1]), float(n[0])))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s / phase], [s * phase, c]])


def _candidates(rho: np.ndarray, scale: float):
    """Unit-vector pairs (n1, n2) such that rho may commute with
    (n1.sigma) (x) (n2.sigma): Z (x) Z, X (x) X and Y (x) Y, then the leading
    singular pair of every real 3x3 c in the null space of c -> [rho, sum
    c_ij sigma_i (x) sigma_j]."""
    eye = np.eye(3)
    for i, j in _ALIGNED:
        yield eye[i], eye[j]
    k = (rho @ _PAULI_PAIRS - _PAULI_PAIRS @ rho).reshape(9, 16)
    _, s, vt = np.linalg.svd(np.concatenate([k.real, k.imag], axis=1).T)
    for c in vt[s <= NULL_SPACE_SHARE * scale]:
        u, _, wt = np.linalg.svd(c.reshape(3, 3))
        yield u[:, 0], wt[0]


def x_frame(rho: np.ndarray):
    """(frame, rho_x) with rho_x = frame^dag rho frame a real X-state and
    frame = U1 (x) U2 a local unitary, or None when no candidate of
    ``_candidates`` passes the XSTATE_ROUNDING test.  rho_x keeps only the
    X pattern, with the coherences <00|rho|11> and <01|rho|10> made real and
    non-negative by local Z phases."""
    rho = np.asarray(rho, dtype=complex)
    scale = float(np.linalg.eigvalsh(rho)[-1])
    for n1, n2 in _candidates(rho, scale):
        # U1 (x) U2: the products np.kron forms, without its overhead
        frame = (_rotation(n1)[:, None, :, None] * _rotation(n2)[None, :, None, :]).reshape(4, 4)
        turned = frame.conj().T @ rho @ frame
        if np.abs(turned[~_X_PATTERN]).max() > XSTATE_ROUNDING * scale:
            continue
        # diag(1, e^{i p1}) (x) diag(1, e^{i p2}) turns <00|.|11> by
        # -(p1 + p2) and <01|.|10> by p2 - p1
        outer, inner = np.angle(turned[0, 3]), np.angle(turned[1, 2])
        p1, p2 = 0.5 * (outer + inner), 0.5 * (outer - inner)
        frame = frame @ np.diag(np.exp(-1j * np.array([0.0, p2, p1, p1 + p2])))
        turned = frame.conj().T @ rho @ frame
        rho_x = np.diag(np.diagonal(turned).real).astype(complex)
        rho_x[0, 3] = rho_x[3, 0] = abs(turned[0, 3])
        rho_x[1, 2] = rho_x[2, 1] = abs(turned[1, 2])
        return frame, rho_x
    return None


def x_sigma(z: np.ndarray) -> np.ndarray:
    """The (B, 4, 4) real X-states of (B, 6) rows (a, b, c, d, x, y)."""
    sigma = np.zeros((len(z), 4, 4))
    idx = np.arange(4)
    sigma[:, idx, idx] = z[:, :4]
    sigma[:, 0, 3] = sigma[:, 3, 0] = z[:, 4]
    sigma[:, 1, 2] = sigma[:, 2, 1] = z[:, 5]
    return sigma


# z index of each block's (p, q, u), sigma_B = [[p, u], [u, q]]: the outer
# block on |00>, |11> and the inner one on |01>, |10>
_BLOCKS = np.array([[0, 3, 4], [1, 2, 5]])
# the rows and columns of each block in the 4x4 state
_BLOCK_ROWS = np.array([[0, 3], [1, 2]])
# two eigenvalues closer than NEAR times the larger count as equal in the
# divided differences: their first ones are then the mean derivative and
# their second ones the matching weighted mean of second derivatives, whose
# error, second order in the distance, is then below the rounding of the
# differences themselves
NEAR = 1e-5
# entry [i, j, k] of a 2x2x2 second divided difference is its value at i + j
# + k ones; _SYM2 takes [[d0, off], [off, d1]] from (d0, off, d1)
_ONES3 = np.indices((2, 2, 2)).sum(axis=0)
_SYM2 = _ONES3[0]
_SIGNS = np.array([-1.0, 1.0])


def _sum4(x: np.ndarray) -> np.ndarray:
    """The sums over the last two axes, of length 2 each, in one order
    whatever the batch: numpy's reductions may order a sum differently
    with the number of rows, and a row's result must not depend on its
    batch (see ``_rows``)."""
    return (x[..., 0, 0] + x[..., 0, 1]) + (x[..., 1, 0] + x[..., 1, 1])


def _sym2(d0, off, d1) -> np.ndarray:
    """The symmetric (..., 2, 2) [[d0, off], [off, d1]]."""
    out = np.empty(np.shape(off) + (3,))
    out[..., 0], out[..., 1], out[..., 2] = d0, off, d1
    return out.take(_SYM2, axis=-1)


def _eig2(p, q, u, det):
    """Ascending eigenvalues (..., 2) and eigenvectors (..., 2, 2), as
    columns, of the real symmetric [[p, u], [u, q]] with determinant ``det``
    in closed form; the smaller eigenvalue is det / (larger), which keeps its
    relative accuracy where it nears 0."""
    m, h = 0.5 * (p + q), 0.5 * (p - q)
    r = np.hypot(h, u)
    vals = m[..., None] + r[..., None] * _SIGNS      # m - r, m + r
    hi = vals[..., 1]
    np.divide(det, hi, out=vals[..., 0], where=hi > 0)
    phi = 0.5 * np.arctan2(u, h)
    c, s = np.cos(phi), np.sin(phi)
    return vals, _sym2(-s, c, s)


def _sigma_eigs(z: np.ndarray):
    """Each block's (n, 2, 2) ascending eigenvalues and (n, 2, 2, 2)
    eigenvectors at rows z."""
    # the columns of _BLOCKS: p = (a, b), q = (d, c), u = (x, y)
    p, q, u = z[:, :2], z[:, 3:1:-1], z[:, 4:]
    return _eig2(p, q, u, p * q - u * u)


def _first(mu, g, gp):
    """The first divided difference of a scalar function at ascending pairs
    mu, from its values g and derivatives gp there (see NEAR); with the
    pairs that count as equal, and the gaps mu_1 - mu_0."""
    gap = mu[..., 1] - mu[..., 0]
    near = gap <= NEAR * np.abs(mu[..., 1])
    first = g[..., 1] - g[..., 0]
    np.divide(first, gap, out=first, where=~near)
    if near.any():
        np.multiply(gp[..., 0] + gp[..., 1], 0.5, out=first, where=near)
    return first, near, gap


def _divided(mu, g, gp, gpp):
    """First (..., 2, 2) and second (..., 2, 2, 2) divided differences of a
    scalar function at ascending pairs mu, from its values g, first
    derivatives gp and second derivatives gpp there (see NEAR): entry [i,
    j] of the first, and [i, j, k] of the second, is its value at i + j,
    or i + j + k, ones."""
    first, near, gap = _first(mu, g, gp)
    # the second ones at 0 to 3 ones: gpp_0 / 2, (first - gp_0) / gap,
    # (gp_1 - first) / gap, as -(first - gp_1) / gap, and gpp_1 / 2
    ends = np.empty(first.shape + (4,))
    np.multiply(gpp, 0.5, out=ends[..., ::3])
    mid = np.subtract(first[..., None], gp, out=ends[..., 1:3])
    np.divide(mid, gap[..., None], out=mid, where=~near[..., None])
    np.negative(mid[..., 1], out=mid[..., 1])
    if near.any():
        # (2 gpp_0 + gpp_1) / 6 and (gpp_0 + 2 gpp_1) / 6
        np.divide(2.0 * gpp + gpp[..., ::-1], 6.0, out=mid, where=near[..., None])
    return _sym2(gp[..., 0], first, gp[..., 1]), ends.take(_ONES3, axis=-1)


def _directions(vecs: np.ndarray) -> np.ndarray:
    """(..., 3, 2, 2) derivatives of a block in p, q and u, in its
    eigenbasis: V^T E V for E = [[1, 0], [0, 0]], [[0, 0], [0, 1]] and
    [[0, 1], [1, 0]]."""
    out = np.empty(vecs.shape[:-2] + (3, 2, 2))
    np.multiply(vecs[..., :, :, None], vecs[..., :, None, :], out=out[..., :2, :, :])
    e01 = vecs[..., 0, :, None] * vecs[..., 1, None, :]
    np.add(e01, e01.swapaxes(-1, -2), out=out[..., 2, :, :])
    return out


def _spectral(at, dirs, first, second):
    """Gradient (..., 3) and Hessian (..., 3, 3) in (p, q, u) of Tr(A
    g(sigma_B)), A given in sigma_B's eigenbasis as ``at``, from the divided
    differences of g (Daleckii-Krein): the gradient is sum_ij A_ij g[i, j]
    E_ij, the Hessian sum_ijk g[i, j, k] A_ki (E_ij E'_jk + E'_ij E_jk)."""
    grad = _sum4(dirs * (at * first)[..., None, :, :])
    t = second * at.swapaxes(-1, -2)[..., :, None, :]
    half = (dirs[..., :, 0, :, None] * t[..., None, 0, :, :]
            + dirs[..., :, 1, :, None] * t[..., None, 1, :, :])
    flat = dirs.reshape(*dirs.shape[:-2], 4)
    half = half.reshape(flat.shape) @ flat.swapaxes(-1, -2)
    return grad, half + half.swapaxes(-1, -2)


def _power(x, e, live):
    """x^e at x > 0, and its first two derivatives where ``live``, 0
    elsewhere."""
    y = x ** e
    yp = np.where(live, e * y / x, 0.0)
    return y, yp, np.where(live, (e - 1.0) * yp / x, 0.0)


# the entries of a flattened gradient (6) and Hessian (36) in z that each
# block's (p, q, u) entries fill, in the blocks' order
_GRAD_SLOTS = _BLOCKS.ravel()
_HESS_SLOTS = (6 * _BLOCKS[:, :, None] + _BLOCKS[:, None, :]).ravel()


def _scatter(blocks: np.ndarray) -> np.ndarray:
    """(n, 6) gradients or (n, 6, 6) Hessians in z from (n, 2, 3) or (n, 2,
    3, 3) ones in each block's (p, q, u)."""
    n = len(blocks)
    if blocks.ndim == 3:
        out = np.zeros((n, 6))
        out[:, _GRAD_SLOTS] = blocks.reshape(n, 6)
        return out
    out = np.zeros((n, 36))
    out[:, _HESS_SLOTS] = blocks.reshape(n, 18)
    return out.reshape(n, 6, 6)


class _Kernel:
    """D(rho || sigma) of real X-states sigma against a stack of real
    X-states rho, with its gradient and Hessian in z = (a, b, c, d, x, y),
    in closed form block by block (see the module): the floored divergence
    of ``renyi.Divergence``, with rho's eigenvalues within rounding of zero
    dropped by the rule of ``renyi._drop_rounding_zeros``.  ``start`` holds
    (D, f, grad f, Hessian of f) at I/4, where every solve starts, from the
    one evaluation there that also gives Q0; ``evaluations`` counts the
    sigmas each state was evaluated at, that one included."""

    def __init__(self, rho_xs: list[np.ndarray], p: RenyiParameter):
        self.p = p
        rho = np.stack(rho_xs).real
        lam, u = np.linalg.eigh(rho[:, _BLOCK_ROWS[:, :, None], _BLOCK_ROWS[:, None, :]])
        cutoff = 4 * np.finfo(float).eps * np.maximum(lam.max(axis=(1, 2)), 0.0)
        kept = lam > cutoff[:, None, None]
        lam = np.where(kept, lam, 0.0)
        safe = np.where(kept, lam, 1.0)
        self.neg_entropy = _sum4(np.where(kept, lam * np.log(safe), 0.0))
        # each block as its eigenvectors and the weights of the matrix its
        # value is a trace against: lam for rho_B (KL), lam^alpha for
        # rho_B^alpha (Petz), and sqrt(lam) for the factor R sqrt(lam) of
        # rho_B (sandwiched), as in ``renyi.Divergence``: in sigma_B's
        # eigenbasis the occupations are then sums of non-negative terms,
        # which keep their relative accuracy where sigma_B nears singular
        power = (1.0 if p.is_kl else p.alpha if p.variant == TRADITIONAL else 0.5)
        self.factor = u
        self.weight = np.where(kept, safe ** power, 0.0)
        self.det = lam[..., 0] * lam[..., 1]
        n, every = len(rho_xs), np.arange(len(rho_xs))
        d, grad, hess, _ = self.divergence(np.tile(_START, (n, 1)), every)
        self.q0 = np.ones(n) if p.is_kl else np.exp((p.alpha - 1.0) * d)
        self.evaluations = np.ones(n, dtype=int)
        self.start = self._objective(d, grad, hess, every)

    def divergence(self, z: np.ndarray, rows: np.ndarray):
        """(D, grad D, Hessian of D, each block's smaller sigma eigenvalue)
        at rows z of the states ``rows``: (n,), (n, 6), (n, 6, 6) and (n,
        2)."""
        p, n = self.p, len(z)
        mu, vecs = _sigma_eigs(z)
        dirs = _directions(vecs)
        live = mu > DEFAULT_FLOOR
        wf = np.maximum(mu, DEFAULT_FLOOR)
        # rho_B's eigenvectors in sigma_B's eigenbasis, scaled by the weights,
        # and each block's weight matrix there
        x = vecs.swapaxes(-1, -2) @ self.factor[rows]
        y = x * self.weight[rows][..., None, :]
        at = y @ x.swapaxes(-1, -2)
        occupations = np.diagonal(at, axis1=-2, axis2=-1)
        if p.is_kl:
            g = np.log(wf)
            gp = np.where(live, 1.0 / wf, 0.0)
            first, second = _divided(mu, g, gp, -gp * gp)
            grad, hess = _spectral(at, dirs, first, second)
            d = self.neg_entropy[rows] - _sum4(occupations * g)
            grad, hess = _scatter(grad), _scatter(hess)
            return d, np.negative(grad, out=grad), np.negative(hess, out=hess), mu[..., 0]
        a = p.alpha
        if p.variant == TRADITIONAL:
            g, gp, gpp = _power(wf, 1.0 - a, live)
            first, second = _divided(mu, g, gp, gpp)
            q = _sum4(occupations * g)
            grad, hess = _spectral(at, dirs, first, second)
            log_q = np.log(q)
        else:
            # Tr h(N_B), h(x) = x^alpha, N_B = y^T diag(k) y with k =
            # sigma_B's eigenvalues to the power 2c and y the factor of
            # rho_B in sigma_B's eigenbasis: the Gram matrix of
            # ``renyi.Divergence``, or it and zeros, of det rho_B k_0 k_1
            k, kp, kpp = _power(wf, (1.0 - a) / a, live)
            first, second = _divided(mu, k, kp, kpp)
            ny = y.swapaxes(-1, -2) * k[..., None, :] @ y
            nu, w = _eig2(ny[..., 0, 0], ny[..., 1, 1], ny[..., 0, 1],
                          self.det[rows] * k[..., 0] * k[..., 1])
            # sum_i nu_i^alpha = top^alpha rest.  Every nu > 0 is kept: the
            # smaller of a block's two is det / (larger eigenvalue), accurate
            # to its last digits, not rounding noise
            top = nu.max(axis=(1, 2))
            kept = nu > 0.0
            scaled = nu / top[:, None, None]
            h, hp, hpp = _power(np.where(kept, scaled, 1.0), a, kept)
            h = np.where(kept, h, 0.0)
            hp, hpp = hp / top[:, None, None], hpp / (top * top)[:, None, None]
            c = y @ w               # N_B's eigenvectors, in sigma_B's eigenbasis
            grad, hess = _spectral((c * hp[..., None, :]) @ c.swapaxes(-1, -2),
                                   dirs, first, second)
            # plus the second derivative of Tr h through N_B
            moved = (c.swapaxes(-1, -2)[..., None, :, :] @ (first[..., None, :, :] * dirs)
                     @ c[..., None, :, :])
            hdd = _sym2(hpp[..., 0], _first(nu, hp, hpp)[0], hpp[..., 1])
            flat = moved.reshape(n, 2, 3, 4)
            hess = hess + ((moved * hdd[..., None, :, :]).reshape(flat.shape)
                           @ flat.swapaxes(-1, -2))
            q = _sum4(h)
            log_q = a * np.log(top) + np.log(q)
        grad, hess = _scatter(grad), _scatter(hess)
        grad /= q[:, None]
        hess /= q[:, None, None]
        hess -= grad[:, :, None] * grad[:, None, :]
        grad /= a - 1.0
        hess /= a - 1.0
        return log_q / (a - 1.0), grad, hess, mu[..., 0]

    def __call__(self, z: np.ndarray, rows: np.ndarray):
        """(D, f, grad f, Hessian of f in the free coordinates, each block's
        smaller sigma eigenvalue) at rows z of the states ``rows``: f = D
        (KL), Q / Q0 (alpha > 1) or -Q / Q0 (alpha < 1), Q0 the value of Q
        at I/4."""
        self.evaluations += np.bincount(rows, minlength=len(self.evaluations))
        d, grad, hess, low = self.divergence(z, rows)
        return (*self._objective(d, grad, hess, rows), low)

    def _objective(self, d: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                   rows: np.ndarray):
        """(D, f, grad f, Hessian of f in the free coordinates) from D and
        its derivatives at points of the states ``rows``."""
        if self.p.is_kl:
            return d, d, grad, _FREE.T @ hess @ _FREE
        a = self.p.alpha
        # exp((alpha - 1) D) overflows at large alpha at trial points far
        # above the minimum: f = +inf there fails the Armijo test
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.exp((a - 1.0) * d) / self.q0[rows]
            w = abs(a - 1.0) * q
            hess = w[:, None, None] * (hess + (a - 1.0) * grad[:, :, None] * grad[:, None, :])
            grad = w[:, None] * grad
            return d, math.copysign(1.0, a - 1.0) * q, grad, _FREE.T @ hess @ _FREE

    def slope(self, f: np.ndarray) -> np.ndarray:
        """|df/dD| at values f: 1 for KL, |alpha - 1| |f| otherwise.  A
        barrier weight t on f is t times this on D."""
        if self.p.is_kl:
            return np.ones_like(f)
        return abs(self.p.alpha - 1.0) * np.abs(f)

    def lower_divergence(self, d: np.ndarray, f: np.ndarray, gap_f: np.ndarray,
                         rows: np.ndarray) -> np.ndarray:
        """The lower bound on D implied by f* >= f - gap_f."""
        if self.p.is_kl:
            return d - gap_f
        a = self.p.alpha
        q_low = (f - gap_f if a > 1.0 else gap_f - f) * self.q0[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q_low > 0, np.log(q_low) / (a - 1.0), -np.inf)


def _normals(z: np.ndarray):
    """(B, K, 6) gradients grad g_k and (B, K) slacks g_k = p q - u^2."""
    # grad g_k is linear in z, and grad g_k . z = 2 g_k
    dg = _rows(z, _NORMALS).reshape(len(z), len(CONES), 6)
    return dg, 0.5 * (dg @ z[:, :, None])[:, :, 0]


class _Barrier:
    """The cone slacks g_k = p q - u^2 of rows z and the value of F = -sum_k
    log g_k; ``ok`` marks the feasible rows, and F is +inf at the others.
    ``derivatives``, (grad F, Hessian of F in the free coordinates), is
    computed when first asked for: a trial point of the line search needs
    only the value."""

    def __init__(self, z: np.ndarray):
        self.normals, g = _normals(z)
        self.ok = np.minimum(z[:, :4].min(axis=1), g.min(axis=1)) > 0
        # the other rows' terms are left finite and unused
        self.slack = np.where(self.ok[:, None], g, 1.0)
        self.value = np.where(self.ok, -np.log(self.slack).sum(axis=1), np.inf)

    @functools.cached_property
    def derivatives(self):
        g = self.slack
        m = self.normals / g[:, :, None]
        hess = m.swapaxes(1, 2) @ m - ((1.0 / g)[:, :, None, None] * _CURVE).sum(axis=1)
        return -m.sum(axis=1), _FREE.T @ hess @ _FREE


def _newton(t, grad, bar: _Barrier, hess_f):
    """Newton steps (B, 6) of t f + F on the plane sum p = 1, and their
    decrements squared."""
    bar_grad, bar_hess = bar.derivatives
    gv = _rows(t[:, None] * grad + bar_grad, _FREE)
    hv = t[:, None, None] * hess_f + bar_hess
    # Jacobi scaling: the barrier's entries span many orders of magnitude
    scale = 1.0 / np.sqrt(np.abs(np.diagonal(hv, axis1=1, axis2=2)))
    hs = hv * scale[:, :, None] * scale[:, None, :]
    dv = -scale * np.linalg.solve(hs, (scale * gv)[:, :, None])[:, :, 0]
    return _rows(dv, _FREE.T), -(gv * dv).sum(axis=1)


def _lmo(c: np.ndarray) -> np.ndarray:
    """(B,) lower bounds, exact up to rounding, on the minimum of c.z over
    the feasible set for (B, 6) rows c: the largest of min(phi_ad, phi_bc)
    over theta = 0, 1 and the crossing (see the module)."""
    k = np.abs(c[:, 4]) + np.abs(c[:, 5])
    mid_ad, gap_ad = 0.5 * (c[:, 0] + c[:, 3]), c[:, 0] - c[:, 3]
    mid_bc, gap_bc = 0.5 * (c[:, 1] + c[:, 2]), c[:, 1] - c[:, 2]

    def phi(theta):
        r_ad, r_bc = np.hypot(gap_ad, k * theta), np.hypot(gap_bc, k * (1.0 - theta))
        return mid_ad - 0.5 * r_ad, mid_bc - 0.5 * r_bc, r_ad, r_bc

    # phi_ad = phi_bc, squared twice, is a quadratic in u = k theta; its
    # roots, then one Newton step on phi_ad - phi_bc against their rounding
    delta = 2.0 * (mid_ad - mid_bc)
    k2, delta2, bc2 = k ** 2, delta ** 2, gap_bc ** 2
    e = gap_ad ** 2 - bc2 - delta2 - k2
    qa = k2 - delta2
    qb = k * (e + 2.0 * delta2)
    qc = 0.25 * e ** 2 - delta2 * (bc2 + k2)
    # theta = 0, 1 and the two roots as the rows of one array; a root that
    # is NaN (0 / 0) counts as 0, and fmax and fmin clip every root,
    # infinite ones included, to [0, 1]
    theta = np.empty((4, len(c)))
    theta[0], theta[1] = 0.0, 1.0
    roots = theta[2:]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        np.divide(q, 2.0 * qa * k, out=roots[0])
        np.divide(2.0 * qc, q * k, out=roots[1])
        np.fmin(np.fmax(roots, 0.0, out=roots), 1.0, out=roots)
        ad, bc, r_ad, r_bc = phi(theta)
        slope = -0.5 * k * k * (roots / r_ad[2:] + (1.0 - roots) / r_bc[2:])
        roots = np.fmin(np.fmax(roots - (ad[2:] - bc[2:]) / slope, 0.0), 1.0)
        ends, low = np.minimum(ad[:2], bc[:2]), np.minimum(*phi(roots)[:2])
    return np.maximum(np.maximum(np.maximum(ends[0], ends[1]), low[0]), low[1])


def _lower_bound(obj, d, f, z, grad, rows, low):
    """The lower bound on each row's minimum D from convexity at z, f* >=
    f(z) + min over the feasible set of grad f . (z' - z) (see the module);
    -inf where a block's smaller eigenvalue ``low`` (n, 2), in closed form
    as the kernel gives it, is at or below the floor of ``renyi``: the
    floored value is not convex there."""
    bound = obj.lower_divergence(d, f, (grad * z).sum(axis=1) - _lmo(grad), rows)
    return np.where(low.min(axis=1) > DEFAULT_FLOOR, bound, -np.inf)


def _polish(obj, z, d, f, grad, hess_f, rows, active, lam):
    """Up to POLISH_STEPS Newton steps on the optimality conditions of f
    with the ``active`` cones held at equality, from the barrier's centered
    point: the barrier stops about 8 / w short of the minimum, w its weight
    on D, and these steps converge to it quadratically.  The Lagrangian's
    Hessian is that of f at the current point minus sum_k lam_k hess g_k,
    lam first the barrier's multipliers 1 / (t g_k) and then those of the
    previous step.  Each step's coherences are clipped back into the cones
    and the step is mixed with POLISH_MIXING of I/4, which keeps sigma's
    eigenvalues above the floor of ``renyi``: there the floored value is
    the divergence and the certificate may be taken.  A row keeps a step
    unless it raises the floored divergence by more than rounding, 4 eps
    max(|D|, 1): the KL value is a difference of terms of order one, so
    its rounding does not shrink with D.  It stops at the first step it
    does not keep or once its value is within XSTATE_GAP of its
    certificate, taken at the start and after every kept step.  Returns
    the rows' z and value at their last kept point, and their best bound;
    z before the mixing, which is the point reported: ``ree_batch`` mixes
    in CLOSEST_STATE_MIXING anyway, and POLISH_MIXING on top of it would
    raise the value by about 4e-12."""
    z, d, f, grad, hess_f = (x.copy() for x in (z, d, f, grad, hess_f))
    unmixed = z.copy()
    lam = lam * active
    lb = _lower_bound(obj, d, f, z, grad, rows, _sigma_eigs(z)[0][..., 0])
    live = np.flatnonzero(d - lb > XSTATE_GAP)
    eps = np.finfo(float).eps
    k = len(CONES)
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        dg, g = _normals(z[live])
        on = active[live]
        jac = (dg @ _FREE) * on[:, :, None]
        kkt = np.zeros((live.size, 5 + k, 5 + k))
        kkt[:, :5, :5] = hess_f[live] - (lam[live, :, None, None] * _CURVE_FREE).sum(axis=1)
        kkt[:, :5, 5:] = -jac.swapaxes(1, 2)
        kkt[:, 5:, :5] = jac
        kkt[:, 5:, 5:] = np.eye(k) * ~on[:, None, :]
        rhs = np.concatenate([-_rows(grad[live], _FREE), -g * on], axis=1)
        sol = (np.linalg.pinv(kkt) @ rhs[:, :, None])[:, :, 0]
        trial = z[live] + _rows(sol[:, :5], _FREE.T)
        valid = (trial[:, :4] >= 0).all(axis=1)
        reach = np.sqrt(np.maximum(np.minimum(trial[:, 0] * trial[:, 3],
                                              trial[:, 1] * trial[:, 2]), 0.0))
        trial[:, 4:] = np.clip(trial[:, 4:], -reach[:, None], reach[:, None])
        mixed = (1.0 - POLISH_MIXING) * trial + POLISH_MIXING * _START
        d_t, f_t, g_t, h_t, low_t = obj(mixed, rows[live])
        keep = valid & (d_t <= d[live] + 4.0 * eps * np.maximum(np.abs(d[live]), 1.0))
        at = live[keep]
        kept = [x[keep] for x in (mixed, d_t, f_t, g_t, h_t, trial, sol[:, 5:])]
        for out, x in zip((z, d, f, grad, hess_f, unmixed, lam), kept):
            out[at] = x
        z_k, d_k, f_k, g_k = kept[:4]
        lb[at] = np.maximum(lb[at], _lower_bound(obj, d_k, f_k, z_k, g_k, rows[at],
                                                 low_t[keep]))
        live = at[d[at] - lb[at] > XSTATE_GAP]
    return unmixed, d, lb


def solve_batch(rho_xs: list[np.ndarray], p: RenyiParameter):
    """Minimize the divergence over separable real X-states for every real
    X-state in ``rho_xs`` (see the module), all rows of one batch.

    Each iteration takes one Newton step per row still running; every
    trial point of the line search is evaluated with its Hessian.  Every
    row centers, polishes and stops by one rule, at the cap or not.
    Returns per row (z, lower bound, iterations, evaluations): the closest
    state's (a, b, c, d, x, y), the best certified lower bound on the
    minimum, the Newton iterations and the sigmas evaluated."""
    n = len(rho_xs)
    obj = _Kernel(rho_xs, p)
    # each row's z and lower bound where it stopped
    record = [np.empty((n, 6)), np.empty(n)]
    iters = np.full(n, XSTATE_MAX_ITERS)

    rows = np.arange(n)
    z = np.tile(_START, (n, 1))
    t = np.ones(n)
    lb = np.full(n, -np.inf)
    # whether each row's line search found no step, and its weight is capped
    stalled = capped = np.zeros(n, dtype=bool)
    # each row's cone slacks at its previous centered point, nan before it
    before = np.full((n, len(CONES)), np.nan)
    shrink = math.sqrt(BARRIER_GROWTH)
    bar = _Barrier(z)
    d, f, grad, hess_f = obj.start
    for it in range(1, XSTATE_MAX_ITERS + 1):
        dz, lam2 = _newton(t, grad, bar, hess_f)
        centered = (lam2 < CENTERED) | stalled
        stop = np.zeros(len(z), dtype=bool)
        # a centered row with a cone whose slack shrank with the weight (the
        # optimum of an entangled rho lies on the boundary, so some cone is
        # active there), with no step, or at the cap tries to finish:
        # polish, then certify; it stops once certified within XSTATE_GAP
        # (XSTATE_TOLERANCE at the cap), or when it found no step
        active = before >= shrink * bar.slack
        c = np.flatnonzero(centered & (active.any(axis=1) | stalled | capped))
        if c.size:
            zp, dp, lp = _polish(obj, z[c], d[c], f[c], grad[c], hess_f[c], rows[c],
                                 active[c], 1.0 / (t[c, None] * bar.slack[c]))
            lb[c] = np.maximum(lb[c], lp)
            gap = np.where(capped[c], XSTATE_TOLERANCE, XSTATE_GAP)
            done = (dp - lb[c] <= gap) | stalled[c]
            at = c[done]
            z[at], d[at] = zp[done], dp[done]
            stop[at] = True
        np.copyto(before, bar.slack, where=centered[:, None])
        grow = centered & ~stop & ~capped
        if grow.any():
            weight = t * obj.slope(f)
            hit = grow & (weight * BARRIER_GROWTH >= BARRIER_T_MAX)
            t = np.where(hit, t * BARRIER_T_MAX / weight,
                         np.where(grow, t * BARRIER_GROWTH, t))
            capped = capped | hit
            dz, lam2 = _newton(t, grad, bar, hess_f)
        phi = t * f + bar.value

        # Armijo line search from the full step; a row's accepted point
        # replaces its current one at once, which the halvings of the rows
        # still searching do not read
        frac = np.ones(len(z))
        todo = np.flatnonzero(~stop)
        first = None
        for _ in range(MAX_HALVINGS):
            if not todo.size:
                break
            trial = z[todo] + frac[todo, None] * dz[todo]
            bar_t = _Barrier(trial)
            hit = np.zeros(todo.size, dtype=bool)
            ok = np.flatnonzero(bar_t.ok)
            if ok.size:
                at = todo[ok]
                d_t, f_t, g_t, h_t, _ = obj(trial[ok], rows[at])
                armijo = phi - ARMIJO * frac * lam2
                good = t[at] * f_t + bar_t.value[ok] <= armijo[at]
                acc = at[good]
                for out, x in zip((z, d, f, grad, hess_f), (trial[ok], d_t, f_t, g_t, h_t)):
                    out[acc] = x[good]
                hit[ok[good]] = True
            if first is None:
                first = bar_t if hit.all() and todo.size == len(z) else False
            todo = todo[~hit]
            frac[todo] *= 0.5
        stalled = np.zeros(len(z), dtype=bool)
        stalled[todo] = True
        if stop.any():
            gone = rows[stop]
            for out, x in zip(record, (z, lb)):
                out[gone] = x[stop]
            iters[gone] = it
            keep = ~stop
            rows, z, d, f, grad, hess_f, t, lb, stalled, capped, before = (
                x[keep] for x in (rows, z, d, f, grad, hess_f, t, lb, stalled,
                                  capped, before))
            if not rows.size:
                break
            first = False
        # every row took its full step: the barrier there is already known
        bar = first if first else _Barrier(z)
    for out, x in zip(record, (z, lb)):
        out[rows] = x
    return record[0], record[1], iters, obj.evaluations


def ree_batch(rhos: list[np.ndarray], p: RenyiParameter) -> list[REEResult | None]:
    """The ``xstate`` REE of every two-qubit state in ``rhos`` that is an
    X-state up to a local rotation (``x_frame``), all solved as one batch
    (``solve_batch``); None for every other state.

    The closest state is the solver's, rotated back to rho's frame and
    mixed with CLOSEST_STATE_MIXING of I/4 as in ``sepstates.ree``; the
    value is re-evaluated at it against rho, so it is an upper bound
    reproducible from ``closest_state``.  ``lower_bound`` is the solver's
    certified bound, and ``converged`` says that the value exceeds it by at
    most XSTATE_TOLERANCE.  ``iterations`` counts Newton iterations,
    ``evaluations`` the sigmas evaluated, and ``restarts`` is empty.
    """
    rhos = [np.asarray(rho, dtype=complex) for rho in rhos]
    for rho in rhos:
        _check_ree_args(rho, CUT_PAIR, p)
    return _ree_batch(rhos, p)


def _ree_batch(rhos: list[np.ndarray], p: RenyiParameter) -> list[REEResult | None]:
    """``ree_batch`` of complex states that have passed ``_check_ree_args``."""
    frames = [x_frame(rho) for rho in rhos]
    found = [i for i, fr in enumerate(frames) if fr is not None]
    out: list[REEResult | None] = [None] * len(rhos)
    if not found:
        return out
    z, lower, iters, evals = solve_batch([frames[i][1] for i in found], p)
    for j, i in enumerate(found):
        frame = frames[i][0]
        sigma = _closest_state(frame @ x_sigma(z[j:j + 1])[0] @ frame.conj().T)
        value = rel_entropy(rhos[i], sigma, p)
        out[i] = REEResult(value=value, closest_state=sigma,
                           converged=bool(value - lower[j] <= XSTATE_TOLERANCE),
                           iterations=int(iters[j]), evaluations=int(evals[j]),
                           restarts=(), path="xstate", lower_bound=float(lower[j]))
    return out
