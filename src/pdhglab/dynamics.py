"""High-resolution ODE system associated with the PDHG iteration.

For smooth f, g* the iteration is an implicit-Euler discretization (step s)
of the coupled system

    (s/tau) X' - s F^T Y' = -F^T Y - grad f(X)
    (s/sigma) Y' - s F X' =  F X  - grad g*(Y)

whose mass matrix M = [[ (s/tau) I, -s F^T ], [ -s F, (s/sigma) I ]] is
invertible whenever tau * sigma = s^2 and s ||F|| < 1.  This module
integrates the system with implicit Euler so discrete iterates can be
compared against near-continuous reference trajectories (h = s/100).

Restricted to problems carrying gradient oracles; the right-hand side needs
grad f and grad g* pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import SaddleProblem


@dataclass(frozen=True, eq=False)
class OdeState:
    """Continuous-time state (X(t), Y(t)) at time t."""

    X: np.ndarray
    Y: np.ndarray
    t: float


def _require_gradients(problem: SaddleProblem) -> None:
    if problem.grad_f is None or problem.grad_gstar is None:
        raise ValueError(
            "the ODE system needs smooth oracles: supply grad_f and grad_gstar"
        )


def mass_matrix(s: float, tau: float, sigma: float, F: np.ndarray) -> np.ndarray:
    """The block mass matrix M of the system, stacked as (X, Y)."""
    d2, d1 = F.shape
    M = np.zeros((d1 + d2, d1 + d2))
    M[:d1, :d1] = (s / tau) * np.eye(d1)
    M[:d1, d1:] = -s * F.T
    M[d1:, :d1] = -s * F
    M[d1:, d1:] = (s / sigma) * np.eye(d2)
    return M


def _rhs(problem: SaddleProblem, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    F = problem.F
    return np.concatenate(
        [-(F.T @ Y) - problem.grad_f(X), F @ X - problem.grad_gstar(Y)]
    )


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


def hires_ode_step(
    state: OdeState,
    h: float,
    s: float,
    tau: float,
    sigma: float,
    problem: SaddleProblem,
    newton_tol: float = 1e-10,
    newton_max_iter: int = 50,
) -> OdeState:
    """One implicit-Euler step: solve M (z_new - z) = h G(z_new).

    The inner Newton iteration (a single linear solve when grad f, grad g*
    are affine) runs until the nonlinear residual drops below ``newton_tol``.
    Raises on a singular mass matrix or Newton non-convergence.  h = 0
    returns the state unchanged.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    _require_gradients(problem)
    if h == 0.0:
        return state
    if s <= 0 or tau <= 0 or sigma <= 0:
        raise ValueError("s, tau, sigma must be positive")

    M = mass_matrix(s, tau, sigma, problem.F)
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(
            "mass matrix is singular (tau * sigma * ||F||^2 = 1 degeneracy); "
            "choose admissible steps with s * ||F|| < 1"
        )

    d1 = state.X.size
    z = np.concatenate([state.X, state.Y])
    z_new = z.copy()
    for _ in range(newton_max_iter):
        H = M @ (z_new - z) - h * _rhs(problem, z_new[:d1], z_new[d1:])
        if np.linalg.norm(H) <= newton_tol:
            break
        J = M - h * _rhs_jacobian(problem, z_new[:d1], z_new[d1:])
        z_new = z_new + np.linalg.solve(J, -H)
    else:
        raise RuntimeError(
            f"implicit-Euler Newton solve did not reach residual {newton_tol}"
        )
    return OdeState(X=z_new[:d1], Y=z_new[d1:], t=state.t + h)


def integrate(
    init: OdeState,
    T: float,
    h: float,
    s: float,
    tau: float,
    sigma: float,
    problem: SaddleProblem,
) -> list[OdeState]:
    """ceil(T/h) implicit-Euler steps; returns states including the initial one."""
    if T <= 0 or h <= 0:
        raise ValueError("T and h must be positive")
    n_steps = int(np.ceil(T / h - 1e-12))
    states = [init]
    for _ in range(n_steps):
        states.append(hires_ode_step(states[-1], h, s, tau, sigma, problem))
    return states

