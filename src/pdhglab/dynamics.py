"""High-resolution ODE system associated with the PDHG iteration.

For smooth f, g* the iteration is an implicit-Euler discretization (step s)
of the coupled system

    (s/tau) X' - s F^T Y' = -F^T Y - grad f(X)
    (s/sigma) Y' - s F X' =  F X  - grad g*(Y)

whose mass matrix M = [[ (s/tau) I, -s F^T ], [ -s F, (s/sigma) I ]] is
invertible whenever tau * sigma = s^2 and s ||F|| < 1.  This module
integrates the system with implicit Euler so discrete iterates can be
compared against near-continuous reference trajectories (h = s/100).

Each step solves M (z+ - z) = h G(z+) for z = (X, Y) by Newton's method and
accepts z+ once the residual is at most 1e-10.  One ``integrate`` call fixes
h, s, tau, sigma and the problem, so it builds M, checks its condition number
and inverts the Newton matrix M - h dG once; affine gradients then cost one
update per step, and the matrix is re-taken only when an update fails to
halve the residual.

Restricted to problems carrying gradient oracles; the right-hand side needs
grad f and grad g* pointwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import SaddleProblem

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


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


class _ImplicitEuler:
    """Implicit-Euler steps M (z+ - z) = h G(z+) for one (h, s, tau, sigma,
    problem), with z = (X, Y) stacked.

    The mass matrix and its condition check are built once, and so is the
    inverse Newton matrix (M - h dG)^-1, taken at the first state.  Each step
    runs Newton with that frozen matrix (one update for affine gradients) and
    re-takes it at the current iterate whenever an update fails to halve the
    residual, so non-affine gradients still converge as plain Newton does.
    """

    def __init__(self, z0, h, s, tau, sigma, problem, newton_tol, newton_max_iter):
        if s <= 0 or tau <= 0 or sigma <= 0:
            raise ValueError("s, tau, sigma must be positive")
        M = mass_matrix(s, tau, sigma, problem.F)
        cond = np.linalg.cond(M)
        if not np.isfinite(cond) or cond > 1e14:
            raise ValueError(
                "mass matrix is singular (tau * sigma * ||F||^2 = 1 degeneracy); "
                "choose admissible steps with s * ||F|| < 1"
            )
        self.M, self.h, self.problem = M, h, problem
        self.d1 = problem.F.shape[1]
        self.newton_tol, self.newton_max_iter = newton_tol, newton_max_iter
        self._newton_at(z0)

    def _newton_at(self, z):
        d1 = self.d1
        J = self.M - self.h * _rhs_jacobian(self.problem, z[:d1], z[d1:])
        self._J_inv = np.linalg.inv(J)

    def rhs(self, z: np.ndarray) -> np.ndarray:
        """G(z) = (-F^T Y - grad f(X), F X - grad g*(Y))."""
        problem, X, Y = self.problem, z[: self.d1], z[self.d1 :]
        F = problem.F
        return np.concatenate(
            [-(F.T @ Y) - problem.grad_f(X), F @ X - problem.grad_gstar(Y)]
        )

    def step(self, z: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(z+, G(z+)) from z and G = G(z); raises RuntimeError when the
        residual does not reach ``newton_tol``."""
        M, h = self.M, self.h
        z_new = z
        last = np.inf
        for _ in range(self.newton_max_iter):
            H = M @ (z_new - z) - h * G
            res = np.linalg.norm(H)
            if res <= self.newton_tol:
                return z_new, G
            if res > 0.5 * last:
                self._newton_at(z_new)
            z_new = z_new - self._J_inv @ H
            G = self.rhs(z_new)
            last = res
        raise RuntimeError(
            f"implicit-Euler Newton solve did not reach residual {self.newton_tol}"
        )


def hires_ode_step(
    state: OdeState,
    h: float,
    s: float,
    tau: float,
    sigma: float,
    problem: SaddleProblem,
    newton_tol: float = NEWTON_TOL,
    newton_max_iter: int = NEWTON_MAX_ITER,
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
    z = np.concatenate([state.X, state.Y])
    stepper = _ImplicitEuler(z, h, s, tau, sigma, problem, newton_tol, newton_max_iter)
    z_new, _ = stepper.step(z, stepper.rhs(z))
    return OdeState(X=z_new[: stepper.d1], Y=z_new[stepper.d1 :], t=state.t + h)


def integrate(
    init: OdeState,
    T: float,
    h: float,
    s: float,
    tau: float,
    sigma: float,
    problem: SaddleProblem,
) -> list[OdeState]:
    """ceil(T/h) implicit-Euler steps; returns states including the initial one.

    Each step is the step of :func:`hires_ode_step` at its default Newton
    settings; the setup (mass matrix, condition check, Newton matrix) is done
    once per call, and G(z+) of each step seeds the next.
    """
    if T <= 0 or h <= 0:
        raise ValueError("T and h must be positive")
    _require_gradients(problem)
    n_steps = int(np.ceil(T / h - 1e-12))
    z = np.concatenate([init.X, init.Y])
    stepper = _ImplicitEuler(z, h, s, tau, sigma, problem, NEWTON_TOL, NEWTON_MAX_ITER)
    G = stepper.rhs(z)
    d1 = stepper.d1
    states = [init]
    for _ in range(n_steps):
        z, G = stepper.step(z, G)
        states.append(OdeState(X=z[:d1], Y=z[d1:], t=states[-1].t + h))
    return states
