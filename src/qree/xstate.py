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
Phys. 54, 122201 (2013)).  Values and sigma-gradients come from
``renyi.Divergence`` on the 4x4 sigma, chained through the linear map
(a, b, c, d, x, y) -> sigma.

``solve_batch`` minimizes it for every state of a batch at once with a
log-barrier method: Newton steps on t f - sum log(cone slacks), the
barrier Hessian in closed form and the Hessian of f by forward
differences of its gradient, t multiplied by BARRIER_GROWTH each time a
row's Newton decrement falls below CENTERED.  From POLISH_FROM on, each
centered point is polished by active-set Newton steps (``_polish``).
Keeping the four constraints separate matters: W's optimum has y^2 = a d
= b c, the kink of min(a d, b c).

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
bound is taken at the centered and the polished points and turns into
one on D.  It is exact up to rounding wherever sigma's eigenvalues sit
above the floor of ``renyi``, and is not taken elsewhere.

A row stops once its value is within XSTATE_GAP of its best bound; once
centered at the cap of its barrier weight; when its line search finds no
step; or after XSTATE_MAX_ITERS iterations.
"""

from __future__ import annotations

import math

import numpy as np

from .qmat import DEFAULT_FLOOR, Bipartition
from .renyi import Divergence, RenyiParameter, _drop_rounding_zeros, rel_entropy
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
# w = t |df/dD|, is capped at BARRIER_T_MAX, where the barrier's own share
# of the gap, 8 / w, is far below XSTATE_GAP and sigma's smallest
# eigenvalues, about 1 / w, are still well above the floor of ``renyi``.
# At the cap a row centers further, until its decrement squared falls below
# CAP_CENTERED or, below CENTERED, shrinks by less than STALL in a step: the
# certificate is only as good as the centering
XSTATE_GAP = 1e-10
# an xstate result counts as converged when its reported value exceeds its
# certified lower bound by at most this: the stall tolerance of the descent
XSTATE_TOLERANCE = TOL_OBJECTIVE
BARRIER_GROWTH = 30.0
CENTERED = 1e-2
BARRIER_T_MAX = 3e9
CAP_CENTERED = 1e-10
STALL = 0.5
XSTATE_MAX_ITERS = 200
# the weight on D from which a centered row tries to finish by ``_polish``
POLISH_FROM = 1e5
# forward-difference step of the Hessian of f along a coordinate e: at
# most FD_HESSIAN_STEP, and at most DIKIN_SHARE / ||e|| in the barrier's
# local norm, a share of the radius of the barrier's Dikin ellipsoid, which
# lies inside the feasible set
FD_HESSIAN_STEP = 1e-6
DIKIN_SHARE = 1e-3
# singular values of the dual fit below this share of the largest count
# as zero (see ``_fitted_duals``)
FIT_RCOND = 1e-10
# steps of ``_polish``; it holds a cone active where w g_k <= POLISH_ACTIVE,
# w the weight on D: on the central path w g_k is 1 / lam_k, lam_k the
# cone's multiplier on D
POLISH_STEPS = 3
POLISH_ACTIVE = 30.0
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
# the cones that keep sigma's blocks positive; the other two are the PPT ones
_POSITIVITY = [0, 2]
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
_SUM_P = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
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
        frame = np.kron(_rotation(n1), _rotation(n2))
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


class _PairObjective:
    """f = D (KL), Q / Q0 (alpha > 1) or -Q / Q0 (alpha < 1) of real
    X-states against a stack of real X-state rhos, Q0 the value at I/4,
    with its gradient in z = (a, b, c, d, x, y).  States of one rank share a
    ``renyi.Divergence``; ``evaluations`` counts the sigmas each state was
    evaluated at."""

    def __init__(self, rho_xs: list[np.ndarray], p: RenyiParameter):
        self.p = p
        # real X-states in, real eigenvectors out: every product stays real
        w, v = np.linalg.eigh(np.stack(rho_xs).real)
        ranks = np.count_nonzero(_drop_rounding_zeros(w) > 0, axis=1)
        self.groups = []
        self.where = np.empty(len(rho_xs), dtype=int)
        for rank in dict.fromkeys(ranks.tolist()):
            members = np.flatnonzero(ranks == rank)
            self.where[members] = np.arange(len(members))
            self.groups.append((members, Divergence.of_states(w[members], v[members], p)))
        self.group_of = np.empty(len(rho_xs), dtype=int)
        for g, (members, _) in enumerate(self.groups):
            self.group_of[members] = g
        self.evaluations = np.zeros(len(rho_xs), dtype=int)
        self.q0 = np.ones(len(rho_xs))
        if not p.is_kl:
            at_start = np.tile(_START, (len(rho_xs), 1))
            d0 = self._parts(at_start, np.arange(len(rho_xs)), grad=False)[0]
            self.q0 = np.exp((p.alpha - 1.0) * d0)

    def _parts(self, z: np.ndarray, rows: np.ndarray, grad: bool):
        ws, vs = np.linalg.eigh(x_sigma(z))
        if len(self.groups) == 1:
            div, state = self.groups[0][1], self.where[rows]
            return (div.value(ws, vs, state=state),
                    div.sigma_grad(ws, vs, state=state) if grad else None)
        d = np.empty(len(z))
        g = np.empty((len(z), 4, 4)) if grad else None
        for gi, (_, div) in enumerate(self.groups):
            at = np.flatnonzero(self.group_of[rows] == gi)
            if not at.size:
                continue
            state = self.where[rows[at]]
            d[at] = div.value(ws[at], vs[at], state=state)
            if grad:
                g[at] = div.sigma_grad(ws[at], vs[at], state=state)
        return d, g

    def __call__(self, z: np.ndarray, rows: np.ndarray):
        """(D, f, grad f) at rows z of the states ``rows``."""
        self.evaluations += np.bincount(rows, minlength=len(self.evaluations))
        d, g = self._parts(z, rows, grad=True)
        grad = np.stack([g[:, 0, 0], g[:, 1, 1], g[:, 2, 2], g[:, 3, 3],
                         2.0 * g[:, 0, 3], 2.0 * g[:, 1, 2]], axis=1)
        if self.p.is_kl:
            return d, d, grad
        a = self.p.alpha
        q = np.exp((a - 1.0) * d) / self.q0[rows]
        return d, math.copysign(1.0, a - 1.0) * q, (abs(a - 1.0) * q)[:, None] * grad

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
    """The cone slacks g_k = p q - u^2 of rows z and the value, gradient
    and Hessian of F = -sum_k log g_k; ``ok`` marks the feasible rows, and
    F is +inf at the others."""

    def __init__(self, z: np.ndarray):
        dg, g = _normals(z)
        self.ok = (z[:, :4] > 0).all(axis=1) & (g > 0).all(axis=1)
        # the other rows' terms are left finite and unused
        g = np.where(self.ok[:, None], g, 1.0)
        m = dg / g[:, :, None]
        self.value = np.where(self.ok, -np.log(g).sum(axis=1), np.inf)
        self.hess = m.swapaxes(1, 2) @ m - ((1.0 / g)[:, :, None, None] * _CURVE).sum(axis=1)
        self.grad = -m.sum(axis=1)


def _fd_points(z: np.ndarray, hess_barrier: np.ndarray):
    """(B, 5, 6) points z + h_j e_j for the forward differences of the
    Hessian of f along the free coordinates e_j, and the steps h_j."""
    local = np.sqrt(np.diagonal(_FREE.T @ hess_barrier @ _FREE, axis1=1, axis2=2))
    step = np.minimum(FD_HESSIAN_STEP, DIKIN_SHARE / local)
    return z[:, None, :] + step[:, :, None] * _FREE.T[None], step


def _fd_hessian(grad: np.ndarray, moved_grad: np.ndarray,
                step: np.ndarray) -> np.ndarray:
    """(B, 5, 5) Hessians of f in the free coordinates from the gradients
    at z and at its (B, 5) forward-difference points, symmetrized, with
    the negative eigenvalues that only the differences' error makes (f is
    convex) set to 0: t times one would turn the Newton step uphill."""
    diff = (moved_grad - grad[:, None, :]) @ _FREE / step[:, :, None]
    w, v = np.linalg.eigh(0.5 * (diff + diff.swapaxes(1, 2)))
    return (v * np.maximum(w, 0.0)[:, None, :]) @ v.swapaxes(1, 2)


def _newton(t, grad, bar: _Barrier, hess_f):
    """Newton steps (B, 6) of t f + F on the plane sum p = 1, and their
    decrements squared."""
    gv = _rows(t[:, None] * grad + bar.grad, _FREE)
    hv = t[:, None, None] * hess_f + _FREE.T @ bar.hess @ _FREE
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
    e = gap_ad ** 2 - gap_bc ** 2 - delta ** 2 - k ** 2
    qa = k ** 2 - delta ** 2
    qb = k * (e + 2.0 * delta ** 2)
    qc = 0.25 * e ** 2 - delta ** 2 * (gap_bc ** 2 + k ** 2)
    ends = np.zeros(len(c)), np.ones(len(c))
    best = np.maximum(*(np.minimum(*phi(theta)[:2]) for theta in ends))
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -(qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
        for theta in (q / (2.0 * qa * k), 2.0 * qc / (q * k)):
            theta = np.clip(np.nan_to_num(theta, nan=0.0), 0.0, 1.0)
            ad, bc, r_ad, r_bc = phi(theta)
            slope = -0.5 * k * k * (theta / r_ad + (1.0 - theta) / r_bc)
            theta = np.clip(np.nan_to_num(theta - (ad - bc) / slope, nan=0.0), 0.0, 1.0)
            best = np.maximum(best, np.minimum(*phi(theta)[:2]))
    return best


def _lower_bound(obj, d, f, z, grad, rows):
    """The lower bound on each row's minimum D from convexity at z, f* >=
    f(z) + min over the feasible set of grad f . (z' - z) (see the module);
    -inf where an eigenvalue of sigma may sit at or below the floor of
    ``renyi``, whose floored value is not convex.  Each block's smallest
    eigenvalue is at least its determinant, the slack of its positivity
    cone."""
    bound = obj.lower_divergence(d, f, (grad * z).sum(axis=1) - _lmo(grad), rows)
    return np.where(_normals(z)[1][:, _POSITIVITY].min(axis=1) > DEFAULT_FLOOR,
                    bound, -np.inf)


def _fitted_duals(z: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """(B, K) multipliers lam >= 0 fitting grad f = sum_k lam_k grad g_k +
    mu (1, 1, 1, 1, 0, 0) by minimum-norm least squares; cones whose lam_k
    comes out negative leave the fit, which is then repeated.  The four
    normals are always dependent (grad g_1 - grad g_2 + grad g_3 - grad
    g_4 = 0), so the minimum-norm fit can split a multiplier across cones
    with a negative share where a non-negative fit exists."""
    dg, _ = _normals(z)
    a = np.concatenate([dg.swapaxes(1, 2), np.broadcast_to(
        _SUM_P[:, None], (len(z), 6, 1))], axis=2)
    used = np.ones((len(z), len(CONES) + 1))
    for _ in range(len(CONES)):
        lam = (np.linalg.pinv(a * used[:, None, :], rcond=FIT_RCOND)
               @ grad[:, :, None])[:, :-1, 0]
        if not (lam < 0).any():
            break
        used[:, :-1] *= lam >= 0
    return np.maximum(lam, 0.0)


def _polish(obj, z, d, f, grad, hess_f, rows, weight):
    """Up to POLISH_STEPS Newton steps on the optimality conditions of f
    with the cones of w g_k <= POLISH_ACTIVE held active, from the
    barrier's last point at weight w on D: the barrier stops about 8 / w
    short of the minimum, and these steps converge to it quadratically.
    The Hessian of f is the barrier's last; the Lagrangian adds -sum_k
    lam_k hess g_k, lam from ``_fitted_duals``.  Each step's
    coherences are clipped back into the cones and the step is mixed with
    POLISH_MIXING of I/4, which keeps sigma's eigenvalues above the floor of
    ``renyi``: there the floored value is the divergence.  A row keeps a
    step only where it lowers the floored divergence, and stops at the
    first step it does not keep.  Returns the rows' (z, d, f, grad) at
    their last kept point and that point before the mixing, which is the
    one reported: ``ree_batch`` mixes in CLOSEST_STATE_MIXING anyway, and
    POLISH_MIXING on top of it would raise the value by about 4e-12."""
    z, d, f, grad = (x.copy() for x in (z, d, f, grad))
    unmixed = z.copy()
    live = np.arange(len(z))
    for _ in range(POLISH_STEPS):
        if not live.size:
            break
        dg, g = _normals(z[live])
        lam = _fitted_duals(z[live], grad[live])
        on = (weight[live, None] * g <= POLISH_ACTIVE)[:, :, None]
        jac = (dg @ _FREE) * on
        n, k = live.size, len(CONES)
        kkt = np.zeros((n, 5 + k, 5 + k))
        kkt[:, :5, :5] = hess_f[live] - (lam[:, :, None, None] * _CURVE_FREE).sum(axis=1)
        kkt[:, :5, 5:] = -jac.swapaxes(1, 2)
        kkt[:, 5:, :5] = jac
        kkt[:, 5:, 5:] = np.eye(k) * ~on
        rhs = np.concatenate([-_rows(grad[live], _FREE), -g * on[:, :, 0]], axis=1)
        step = (np.linalg.pinv(kkt) @ rhs[:, :, None])[:, :5, 0]
        trial = z[live] + _rows(step, _FREE.T)
        valid = (trial[:, :4] >= 0).all(axis=1)
        reach = np.sqrt(np.maximum(np.minimum(trial[:, 0] * trial[:, 3],
                                              trial[:, 1] * trial[:, 2]), 0.0))
        trial[:, 4:] = np.clip(trial[:, 4:], -reach[:, None], reach[:, None])
        mixed = (1.0 - POLISH_MIXING) * trial + POLISH_MIXING * _START
        d_t, f_t, g_t = obj(mixed, rows[live])
        better = valid & (d_t < d[live])
        live = live[better]
        z[live], d[live], f[live], grad[live], unmixed[live] = (
            mixed[better], d_t[better], f_t[better], g_t[better], trial[better])
    return z, d, f, grad, unmixed


def solve_batch(rho_xs: list[np.ndarray], p: RenyiParameter):
    """Minimize the divergence over separable real X-states for every real
    X-state in ``rho_xs`` (see the module), all rows of one batch.

    Each iteration takes one Newton step per row still running; every
    trial point of the line search is evaluated together with the
    forward-difference points of its Hessian of f.  The certificate is
    computed at every centered point from POLISH_FROM on, and where a line
    search finds no step.  Returns per row (z, lower bound, iterations,
    evaluations): the closest state's (a, b, c, d, x, y), the best
    certified lower bound on the minimum, the Newton iterations and the
    sigmas evaluated."""
    n = len(rho_xs)
    obj = _PairObjective(rho_xs, p)
    # each row's z and lower bound where it stopped
    record = [np.empty((n, 6)), np.empty(n)]
    iters = np.full(n, XSTATE_MAX_ITERS)

    rows = np.arange(n)
    z = np.tile(_START, (n, 1))
    t = np.ones(n)
    lb = np.full(n, -np.inf)
    # the decrement of each row's last step, and whether its line search
    # found no step
    last = np.full(n, np.inf)
    stalled = capped = np.zeros(n, dtype=bool)
    bar = _Barrier(z)
    moved, step = _fd_points(z, bar.hess)
    d, f, grad = (x.reshape(n, 6, *x.shape[1:]) for x in
                  obj(np.concatenate([z[:, None], moved], axis=1).reshape(-1, 6),
                      np.repeat(rows, 6)))
    hess_f = _fd_hessian(grad[:, 0], grad[:, 1:], step)
    d, f, grad = d[:, 0], f[:, 0], grad[:, 0]
    for it in range(1, XSTATE_MAX_ITERS + 1):
        dz, lam2 = _newton(t, grad, bar, hess_f)
        # at the cap a row centers until its decrement stops falling fast
        cap_centered = (lam2 < CAP_CENTERED) | ((lam2 < CENTERED) & (lam2 > STALL * last))
        centered = np.where(capped, cap_centered, lam2 < CENTERED) | stalled
        stop = np.zeros(len(z), dtype=bool)
        # the barrier weight on D
        weight = t * obj.slope(f)
        # from POLISH_FROM on, a centered row tries to finish: polish, then
        # certify; it stops once the certificate holds, at the cap, or when
        # its line search found no step
        c = np.flatnonzero(centered & ((weight >= POLISH_FROM) | stalled))
        if c.size:
            zp, dp, fp, gp, zu = _polish(obj, z[c], d[c], f[c], grad[c], hess_f[c],
                                         rows[c], weight[c])
            lb[c] = np.maximum(lb[c], np.maximum(
                _lower_bound(obj, d[c], f[c], z[c], grad[c], rows[c]),
                _lower_bound(obj, dp, fp, zp, gp, rows[c])))
            done = (dp - lb[c] <= XSTATE_GAP) | capped[c] | stalled[c]
            at = c[done]
            z[at], d[at] = zu[done], dp[done]
            stop[at] = True
        grow = centered & ~stop & ~capped
        if grow.any():
            hit = grow & (weight * BARRIER_GROWTH >= BARRIER_T_MAX)
            t = np.where(hit, t * BARRIER_T_MAX / weight,
                         np.where(grow, t * BARRIER_GROWTH, t))
            capped = capped | hit
            dz, lam2 = _newton(t, grad, bar, hess_f)
        last = lam2
        phi = t * f + bar.value

        # Armijo line search from the full step, each trial evaluated with
        # its forward-difference points
        new = [z.copy(), d.copy(), f.copy(), grad.copy(), hess_f.copy()]
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
                moved, step = _fd_points(trial[ok], bar_t.hess[ok])
                d_t, f_t, g_t = (x.reshape(ok.size, 6, *x.shape[1:]) for x in obj(
                    np.concatenate([trial[ok, None], moved], axis=1).reshape(-1, 6),
                    np.repeat(rows[at], 6)))
                good = (t[at] * f_t[:, 0] + bar_t.value[ok]
                        <= phi[at] - ARMIJO * frac[at] * lam2[at])
                acc = at[good]
                new[0][acc], new[1][acc], new[2][acc], new[3][acc] = (
                    trial[ok][good], d_t[good, 0], f_t[good, 0], g_t[good, 0])
                new[4][acc] = _fd_hessian(g_t[good, 0], g_t[good, 1:], step[good])
                hit[ok[good]] = True
            if first is None:
                first = bar_t if hit.all() and todo.size == len(z) else False
            frac[todo[~hit]] *= 0.5
            todo = todo[~hit]
        stalled = np.zeros(len(z), dtype=bool)
        stalled[todo] = True
        z, d, f, grad, hess_f = new
        if stop.any():
            gone = rows[stop]
            for out, x in zip(record, (z, lb)):
                out[gone] = x[stop]
            iters[gone] = it
            keep = ~stop
            rows, z, d, f, grad, hess_f, t, lb, last, stalled, capped = (
                x[keep] for x in (rows, z, d, f, grad, hess_f, t, lb, last,
                                  stalled, capped))
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
