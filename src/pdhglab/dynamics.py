"""High-resolution ODE system associated with the PDHG iteration.

For smooth f, g* the iteration is an implicit-Euler discretization (step s)
of the coupled system

    (s/tau) X' - s F^T Y' = -F^T Y - grad f(X)
    (s/sigma) Y' - s F X' =  F X  - grad g*(Y)

whose mass matrix M = [[ (s/tau) I, -s F^T ], [ -s F, (s/sigma) I ]] is
invertible whenever tau * sigma = s^2 and s ||F|| < 1.  This module
integrates the system with implicit Euler so discrete iterates can be
compared against near-continuous reference trajectories (h = s/100).

:func:`integrate` is the stepper; it returns the states as two arrays, X and
Y, one row per step.  Each step solves M (z+ - z) = h G(z+) for z = (X, Y)
by Newton's method.  It accepts z+ once H = M (z+ - z) - h G(z+) has
||H|| <= NEWTON_TOL or, past z itself, once H less what one ulp in each
coordinate of z+ can change it by, EPS |N| |z+| for the Newton matrix N,
is at most NEWTON_TOL max(1, ||M (z+ - z)|| + h ||G(z+)||): a large scale
or a stiff step (mu = 1e200) keeps ||H|| far above NEWTON_TOL.  It gives
up after NEWTON_MAX_ITER updates.  One call fixes h, s,
tau, sigma and the problem, so it builds M, checks its condition number and
inverts the Newton matrix M - h dG once; affine gradients then cost one
update per step, and the matrix is re-taken only when an update fails to
halve the residual.

The steps run in blocks of :data:`~pdhglab.engine.STEP_BLOCK`.  Each step
of a block takes one update, z+ = z - N^-1 H0 with H0 = M 0 - h G(z), and
evaluates G(z+).  The block then reads both tests of its steps at once, on
stacked rows that keep each row's bits: ||H0|| > NEWTON_TOL, and ||H|| <=
NEWTON_TOL at z+.  A step that meets both is the Newton loop's iterations 0
and 1.  The first step that fails one is retaken by the full loop, which
finishes the block, and the steps computed after it are dropped; so the
states have the bits of the full loop at every step.

Restricted to problems carrying gradient oracles; the right-hand side needs
grad f and grad g* pointwise.  M is assembled from the coupling's dense
``F.matrix``, so the coupling must be :class:`~pdhglab.problems.Dense`: of
the zoo's kinds, only ``quad_pair`` has both gradients, and its coupling is
dense.
"""

from __future__ import annotations

import numpy as np

from .engine import STEP_BLOCK
from .problems import Dense, PrimalDualPair, SaddleProblem, _norm, matvec

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
EPS = np.finfo(float).eps


def mass_matrix(s: float, tau: float, sigma: float, F: np.ndarray) -> np.ndarray:
    """The block mass matrix M of the system, stacked as (X, Y)."""
    d2, d1 = F.shape
    M = np.zeros((d1 + d2, d1 + d2))
    M[:d1, :d1] = (s / tau) * np.eye(d1)
    M[:d1, d1:] = -s * F.T
    M[d1:, :d1] = -s * F
    M[d1:, d1:] = (s / sigma) * np.eye(d2)
    return M


def _rhs_jacobian(problem: SaddleProblem, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    # Central finite differences on the gradient oracles; exact (to rounding)
    # for the affine gradients of quadratic f, g*.
    F = problem.F.matrix
    d1, d2 = X.size, Y.size
    J = np.zeros((d1 + d2, d1 + d2))
    eps = 1e-6

    for i in range(d1):
        e = np.zeros(d1)
        e[i] = eps
        J[:d1, i] = -(problem.grad_f(X + e) - problem.grad_f(X - e)) / (2 * eps)
    J[:d1, d1:] = -F.T
    J[d1:, :d1] = F
    for j in range(d2):
        e = np.zeros(d2)
        e[j] = eps
        J[d1:, d1 + j] = -(problem.grad_gstar(Y + e) - problem.grad_gstar(Y - e)) / (
            2 * eps
        )
    return J


def integrate(
    init: PrimalDualPair,
    T: float,
    h: float,
    s: float,
    tau: float,
    sigma: float,
    problem: SaddleProblem,
) -> tuple[np.ndarray, np.ndarray]:
    """n = ceil(T/h) implicit-Euler steps from ``init``.

    Returns (X, Y) of shapes (n+1, d1) and (n+1, d2); row j is the state at
    t = j h.  Newton runs with (M - h dG)^-1 taken at the first state and
    re-taken at the current iterate whenever an update fails to halve the
    residual; G(z+) of each step seeds the next.  Raises ValueError on a
    problem without both gradient oracles or without a dense coupling, or on
    an ill-conditioned mass matrix, and RuntimeError when a Newton solve
    does not converge.
    """
    if T <= 0 or h <= 0:
        raise ValueError("T and h must be positive")
    if problem.grad_f is None or problem.grad_gstar is None:
        raise ValueError(
            "the ODE system needs smooth oracles: supply grad_f and grad_gstar"
        )
    if s <= 0 or tau <= 0 or sigma <= 0:
        raise ValueError("s, tau, sigma must be positive")
    if not isinstance(problem.F, Dense):
        raise ValueError(
            "the ODE system needs a dense coupling (problems.Dense) to assemble "
            f"its mass matrix; got {type(problem.F).__name__}"
        )
    F, d1 = problem.F.matrix, problem.d1
    M = mass_matrix(s, tau, sigma, F)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(
            f"mass matrix is ill-conditioned: condition number {cond:.3g} > 1e14 "
            "(tau * sigma * ||F||^2 near 1, or tau and sigma far apart in scale)"
        )

    FT, grad_f, grad_gstar = F.T, problem.grad_f, problem.grad_gstar

    def rhs(z):
        # G(z) = (-F^T Y - grad f(X), F X - grad g*(Y))
        X, Y = z[:d1], z[d1:]
        return np.concatenate([-(FT @ Y) - grad_f(X), F @ X - grad_gstar(Y)])

    def newton_matrix(z):  # N^-1 and |N| for the Newton matrix N = M - h dG at z
        N = M - h * _rhs_jacobian(problem, z[:d1], z[d1:])
        return np.linalg.inv(N), np.abs(N)

    def newton_step(z, G):  # z+ from z, and G(z+), by the full Newton loop
        nonlocal J_inv, N_abs
        z_new = z
        last = np.inf
        for i in range(NEWTON_MAX_ITER):
            MD = M @ (z_new - z)
            H = MD - h * G
            res = _norm(H)
            if res <= NEWTON_TOL:
                break
            if i:  # z itself is held to the absolute test: it spares each step the scaled one
                beyond = np.maximum(np.abs(H) - EPS * (N_abs @ np.abs(z_new)), 0.0)
                if _norm(beyond) <= NEWTON_TOL * max(1.0, _norm(MD) + h * _norm(G)):
                    break
            if res > 0.5 * last:
                J_inv, N_abs = newton_matrix(z_new)
            z_new = z_new - J_inv @ H
            G = rhs(z_new)
            last = res
        else:
            raise RuntimeError(
                f"implicit-Euler Newton solve did not reach residual {NEWTON_TOL}"
            )
        return z_new, G

    n_steps = int(np.ceil(T / h - 1e-12))
    Z = np.empty((n_steps + 1, d1 + problem.d2))
    z = Z[0] = np.concatenate([init.x, init.y])
    J_inv, N_abs = newton_matrix(z)
    G = rhs(z)
    # M (z - z) at a finite z: +0 in every row, since every row of M has a
    # positive diagonal entry
    zero = M @ np.zeros(len(z))
    # In a block, a floating-point error numpy would report stops the steps
    # at that step, or the tests at the block's first step: the full loop
    # retakes from there, under the caller's settings, and reports it.
    strict = {kind: "raise" for kind, mode in np.geterr().items() if mode != "ignore"}
    # G at a block's first state, then at each of its steps' states
    Gb = np.empty((min(STEP_BLOCK, n_steps) + 1, len(z)))
    for j in range(1, n_steps + 1, STEP_BLOCK):
        stop = min(j + STEP_BLOCK, n_steps + 1)
        Gb[0] = G
        # a step the block keeps is the full loop's iterations 0 and 1
        end = stop if NEWTON_MAX_ITER > 1 else j
        with np.errstate(**strict):
            k = j
            try:
                for k in range(j, end):
                    z = Z[k] = z - J_inv @ (zero - h * G)
                    G = Gb[k - j + 1] = rhs(z)
                k = end
            except FloatingPointError:
                pass  # step k raised: steps j .. k-1 stand
            try:
                res0 = _norm(zero - h * Gb[: k - j])
                res1 = _norm(matvec(M, Z[j:k] - Z[j - 1 : k - 1]) - h * Gb[1 : k - j + 1])
                kept = (res0 > NEWTON_TOL) & (res1 <= NEWTON_TOL)
                k = k if kept.all() else j + int(np.argmin(kept))
            except FloatingPointError:
                k = j
        # the first step not kept, and the rest of the block, by the full loop
        z, G = Z[k - 1], Gb[k - j]
        for k in range(k, stop):
            z, G = newton_step(z, G)
            Z[k] = z
    return Z[:, :d1], Z[:, d1:]
