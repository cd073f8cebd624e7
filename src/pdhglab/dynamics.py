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
Y, one row per step.  It serves affine gradients with Hessians mu I and
gamma I (the moduli of the problem), as the zoo's ``quad_pair`` has: then the
right-hand side is G(z) = J z + g with J = [[-mu I, -F^T], [F, -gamma I]]
and g = G(0), and each step M (z+ - z) = h G(z+) is the one linear map
z+ = P z + c, (M - h J) [P | c] = [M | h g].  One call fixes h, s, tau,
sigma and the problem, so it builds M, checks its condition number and
solves for P and c once.

A certificate then runs on every returned state: the gradient oracles must
equal the affine map, |G(z) - (J z + g)| <= (n + 4) EPS (|J| |z| + |g|) in
each of the n = d1 + d2 coordinates.  That floor bounds the rounding of
each side, an n-term product and a few further operations, with room.  A
cubic gradient, a Hessian other than mu I or gamma I, or a state that is
not finite fails it.  It reads :data:`~pdhglab.engine.STEP_BLOCK` states at
a time, so the gradient oracles take stacked rows (..., d), as a stacked
run's prox oracles do.

Restricted to problems carrying gradient oracles; the right-hand side needs
grad f and grad g*.  M is assembled from the coupling's dense
``F.matrix``, so the coupling must be :class:`~pdhglab.problems.Dense`: of
the zoo's kinds, only ``quad_pair`` has both gradients, and its coupling is
dense.
"""

from __future__ import annotations

import numpy as np

from .engine import STEP_BLOCK
from .problems import Dense, PrimalDualPair, SaddleProblem

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
    t = j h.  Raises ValueError on a problem without both gradient oracles
    or without a dense coupling, or on an ill-conditioned mass matrix, and
    RuntimeError at the first state whose gradients are not the affine map
    J z + G(0), or that is not finite, naming its time and the step h.
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
    F, d1, d2 = problem.F.matrix, problem.d1, problem.d2
    M = mass_matrix(s, tau, sigma, F)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(
            f"mass matrix is ill-conditioned: condition number {cond:.3g} > 1e14 "
            "(tau * sigma * ||F||^2 near 1, or tau and sigma far apart in scale)"
        )

    def rhs(Z):  # G(z) = (-F^T Y - grad f(X), F X - grad g*(Y)) per row of Z
        X, Y = Z[..., :d1], Z[..., d1:]
        return np.concatenate(
            [-(Y @ F) - problem.grad_f(X), X @ F.T - problem.grad_gstar(Y)], axis=-1
        )

    J = np.block([[-problem.mu * np.eye(d1), -F.T], [F, -problem.gamma * np.eye(d2)]])
    n_steps = int(np.ceil(T / h - 1e-12))
    Z = np.empty((n_steps + 1, d1 + d2))
    z = Z[0] = np.concatenate([init.x, init.y])
    # a state that overflows fails the certificate, which names it
    with np.errstate(over="ignore", invalid="ignore"):
        g = rhs(np.zeros(d1 + d2))
        Pc = np.linalg.solve(M - h * J, np.column_stack([M, h * g]))
        P, c = Pc[:, :-1], Pc[:, -1]
        for j in range(1, n_steps + 1):
            z = Z[j] = P @ z + c

        J_abs, g_abs, rounding = np.abs(J), np.abs(g), (d1 + d2 + 4) * EPS
        for j in range(0, n_steps + 1, STEP_BLOCK):
            Zb = Z[j : j + STEP_BLOCK]
            off = np.abs(rhs(Zb) - (Zb @ J.T + g))
            floor = rounding * (np.abs(Zb) @ J_abs.T + g_abs)
            ok = np.isfinite(Zb).all(axis=1) & (off <= floor).all(axis=1)
            if not ok.all():
                k = j + int(np.argmin(ok))
                raise RuntimeError(
                    f"implicit-Euler reference state at t={k * h:.6g} is not finite, or its "
                    "gradients are not the affine map J z + G(0) of moduli mu and gamma "
                    f"at step h={h:.6g}"
                )
    return Z[:, :d1], Z[:, d1:]
