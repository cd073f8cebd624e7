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
by Newton's method and accepts z+ once the residual is at most
NEWTON_TOL, giving up after NEWTON_MAX_ITER updates.  One call fixes h, s,
tau, sigma and the problem, so it builds M, checks its condition number and
inverts the Newton matrix M - h dG once; affine gradients then cost one
update per step, and the matrix is re-taken only when an update fails to
halve the residual.

Restricted to problems carrying gradient oracles; the right-hand side needs
grad f and grad g* pointwise.
"""

from __future__ import annotations

import numpy as np

from .problems import PrimalDualPair, SaddleProblem

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


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
    F = problem.F
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
    problem without both gradient oracles or on a singular mass matrix, and
    RuntimeError when a Newton solve does not converge.
    """
    if T <= 0 or h <= 0:
        raise ValueError("T and h must be positive")
    if problem.grad_f is None or problem.grad_gstar is None:
        raise ValueError(
            "the ODE system needs smooth oracles: supply grad_f and grad_gstar"
        )
    if s <= 0 or tau <= 0 or sigma <= 0:
        raise ValueError("s, tau, sigma must be positive")
    F, d1 = problem.F, problem.d1
    M = mass_matrix(s, tau, sigma, F)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(
            "mass matrix is singular (tau * sigma * ||F||^2 = 1 degeneracy); "
            "choose admissible steps with s * ||F|| < 1"
        )

    def rhs(z):
        # G(z) = (-F^T Y - grad f(X), F X - grad g*(Y))
        X, Y = z[:d1], z[d1:]
        return np.concatenate(
            [-(F.T @ Y) - problem.grad_f(X), F @ X - problem.grad_gstar(Y)]
        )

    def newton_inverse(z):
        return np.linalg.inv(M - h * _rhs_jacobian(problem, z[:d1], z[d1:]))

    n_steps = int(np.ceil(T / h - 1e-12))
    Z = np.empty((n_steps + 1, d1 + problem.d2))
    z = Z[0] = np.concatenate([init.x, init.y])
    J_inv = newton_inverse(z)
    G = rhs(z)
    for j in range(1, n_steps + 1):
        z_new = z
        last = np.inf
        for _ in range(NEWTON_MAX_ITER):
            H = M @ (z_new - z) - h * G
            res = np.linalg.norm(H)
            if res <= NEWTON_TOL:
                break
            if res > 0.5 * last:
                J_inv = newton_inverse(z_new)
            z_new = z_new - J_inv @ H
            G = rhs(z_new)
            last = res
        else:
            raise RuntimeError(
                f"implicit-Euler Newton solve did not reach residual {NEWTON_TOL}"
            )
        z = Z[j] = z_new
    return Z[:, :d1], Z[:, d1:]
