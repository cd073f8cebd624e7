"""High-resolution ODE system associated with the PDHG iteration.

For smooth f, g* the iteration is an implicit-Euler discretization (step s)
of the coupled system

    (s/tau) X' - s F^T Y' = -F^T Y - grad f(X)
    (s/sigma) Y' - s F X' =  F X  - grad g*(Y)

whose mass matrix M = [[ (s/tau) I, -s F^T ], [ -s F, (s/sigma) I ]] is
invertible whenever tau * sigma = s^2 and s ||F|| < 1.  This module gives
the reference trajectories that discrete iterates are compared against.

Both entry points serve affine gradients with Hessians mu I and gamma I (the
moduli of the problem), as the zoo's ``quad_pair`` has: then the right-hand
side is G(z) = J z + g with J = [[-mu I, -F^T], [F, -gamma I]] and g = G(0),
and the system M z' = J (z - z*), J z* = -g, is linear.

:func:`reference_states` returns the states at the PDHG times t = j s.  It
reads the exact flow z(t) - z* = exp(t A) (z0 - z*), A = M^-1 J, from one
eigendecomposition A = V diag(lam) V^-1 per call, evaluated at each t
directly (Moler & Van Loan, SIAM Review 2003, method 14).  The flow is taken
only where a rounding model bounds its error; see :func:`_exact_flow`.
Elsewhere (the stiff moduli near 1e200, say) it falls back to
:func:`integrate` at h = s/100 and keeps every 100th state.

:func:`integrate` is the implicit-Euler stepper; it returns the states as two
arrays, X and Y, one row per step.  Each step M (z+ - z) = h G(z+) is the one
linear map z+ = P z + c, (M - h J) [P | c] = [M | h g].  One call fixes h, s,
tau, sigma and the problem, so it builds M, checks its condition number and
solves for P and c once.

A certificate then runs on every returned state of either path: the
gradient oracles must equal the affine map, |G(z) - (J z + g)| <= (n + 4)
EPS (|J| |z| + |g|) in each of the n = d1 + d2 coordinates.  That floor
bounds the rounding of each side, an n-term product and a few further
operations, with room.  A cubic gradient, a Hessian other than mu I or
gamma I, or a state that is not finite fails it.  It reads
:data:`~pdhglab.engine.STEP_BLOCK` states at a time, so the gradient oracles
take stacked rows (..., d), as a stacked run's prox oracles do.

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
# largest modelled rounding error of an exact-flow state, relative to
# ||z0 - z*||: far below the O(s) errors of the iterates it is compared with
FLOW_TOL = 1e-8
# the reference a call of reference_states used
EXACT_FLOW, IMPLICIT_EULER = "exact_flow", "implicit_euler"
# implicit-Euler steps per PDHG step where the exact flow is refused
FALLBACK_STEPS = 100


def mass_matrix(s: float, tau: float, sigma: float, F: np.ndarray) -> np.ndarray:
    """The block mass matrix M of the system, stacked as (X, Y)."""
    d2, d1 = F.shape
    M = np.zeros((d1 + d2, d1 + d2))
    M[:d1, :d1] = (s / tau) * np.eye(d1)
    M[:d1, d1:] = -s * F.T
    M[d1:, :d1] = -s * F
    M[d1:, d1:] = (s / sigma) * np.eye(d2)
    return M


def _affine_system(s: float, tau: float, sigma: float, problem: SaddleProblem):
    """The mass matrix M, J, g = G(0) and the right-hand side G of the
    system; raises ValueError on a problem without both gradient oracles or
    without a dense coupling, or on an ill-conditioned mass matrix."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        g = rhs(np.zeros(d1 + d2))
    return M, J, g, rhs


def _certify(Z: np.ndarray, J, g, rhs, name: str, step: str, dt: float) -> None:
    """RuntimeError at the first row of Z, the state at t = j dt, that is not
    finite or whose gradients are not the affine map J z + g; ``name`` and
    ``step`` name the reference and its step."""
    J_abs, g_abs, rounding = np.abs(J), np.abs(g), (len(g) + 4) * EPS
    for j in range(0, len(Z), STEP_BLOCK):
        Zb = Z[j : j + STEP_BLOCK]
        off = np.abs(rhs(Zb) - (Zb @ J.T + g))
        floor = rounding * (np.abs(Zb) @ J_abs.T + g_abs)
        ok = np.isfinite(Zb).all(axis=1) & (off <= floor).all(axis=1)
        if not ok.all():
            k = j + int(np.argmin(ok))
            raise RuntimeError(
                f"{name} reference state at t={k * dt:.6g} is not finite, or its "
                "gradients are not the affine map J z + G(0) of moduli mu and gamma "
                f"at step {step}={dt:.6g}"
            )


def _exact_flow(z0: np.ndarray, t: np.ndarray, M, J, g) -> np.ndarray | None:
    """The states z* + exp(t A) (z0 - z*), A = M^-1 J, one row per time, or
    None where z* or A is not finite, a solve is singular, z0 = z*, or the
    rounding model below exceeds FLOW_TOL ||z0 - z*||.

    The computed eigendecomposition is exact for A + E with ||E|| <= n EPS
    ||A|| (a backward-stable QR algorithm), so each state carries (i) the
    flow's change under E, at most t ||E|| kappa(V)^2 ||z0 - z*|| since
    ||exp(t (A + E))|| <= kappa(V); (ii) the rounding of V^-1 and V applied
    to z0 - z*, n EPS kappa(V) ||z0 - z*||; and (iii) that of z*, n EPS
    kappa(J) ||z*||, moved by I - exp(t A).  A flow whose slow and fast
    modes lie far apart in scale (||A|| near 1e200) or whose V is near
    singular is refused."""
    n = len(z0)
    try:
        z_star = np.linalg.solve(J, -g)
        A = np.linalg.solve(M, J)
        if not (np.isfinite(z_star).all() and np.isfinite(A).all()):
            return None
        lam, V = np.linalg.eig(A)
        w = np.linalg.solve(V, z0 - z_star)
    except np.linalg.LinAlgError:
        return None
    e_max, kappa_V = np.abs(z0 - z_star).max(), np.linalg.cond(V)
    if not e_max > 0:
        return None
    # (i) to (iii) over ||z0 - z*||, bounding ||z*|| / ||z0 - z*|| by
    # sqrt(n) max|z*| / max|z0 - z*|, which cannot overflow
    relative = n * EPS * (
        kappa_V * (1.0 + t[-1] * np.linalg.norm(A, 2) * kappa_V)
        + (1.0 + kappa_V) * np.linalg.cond(J) * np.sqrt(n) * np.abs(z_star).max() / e_max
    )
    if not relative <= FLOW_TOL:
        return None
    return z_star + ((np.exp(np.outer(t, lam)) * w) @ V.T).real


def reference_states(
    init: PrimalDualPair,
    T: float,
    s: float,
    tau: float,
    sigma: float,
    problem: SaddleProblem,
) -> tuple[np.ndarray, np.ndarray, str]:
    """The certified states of the ODE from ``init`` at t = j s, j = 0..n,
    n = ceil(T/s), and the reference that gave them.

    Returns (X, Y, source): X and Y of shapes (n+1, d1) and (n+1, d2), and
    source :data:`EXACT_FLOW` or, where the exact flow is refused,
    :data:`IMPLICIT_EULER` (:func:`integrate` at h = s / FALLBACK_STEPS,
    every FALLBACK_STEPS-th state).  Raises as :func:`integrate` does; a
    certificate failure names the reference, its time and its step.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    M, J, g, rhs = _affine_system(s, tau, sigma, problem)
    n_steps = int(np.ceil(T / s - 1e-12))
    t = s * np.arange(n_steps + 1)
    # a state that overflows fails the certificate, which names it
    with np.errstate(over="ignore", invalid="ignore"):
        Z = _exact_flow(np.concatenate([init.x, init.y]), t, M, J, g)
        if Z is None:
            X, Y = integrate(init, t[-1], s / FALLBACK_STEPS, s, tau, sigma, problem)
            every = slice(0, FALLBACK_STEPS * n_steps + 1, FALLBACK_STEPS)
            return X[every], Y[every], IMPLICIT_EULER
        _certify(Z, J, g, rhs, "exact-flow", "s", s)
    return Z[:, : problem.d1], Z[:, problem.d1 :], EXACT_FLOW


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
    M, J, g, rhs = _affine_system(s, tau, sigma, problem)
    n_steps = int(np.ceil(T / h - 1e-12))
    Z = np.empty((n_steps + 1, len(g)))
    z = Z[0] = np.concatenate([init.x, init.y])
    # a state that overflows fails the certificate, which names it
    with np.errstate(over="ignore", invalid="ignore"):
        Pc = np.linalg.solve(M - h * J, np.column_stack([M, h * g]))
        P, c = Pc[:, :-1], Pc[:, -1]
        for j in range(1, n_steps + 1):
            z = Z[j] = P @ z + c
        _certify(Z, J, g, rhs, "implicit-Euler", "h", h)
    return Z[:, : problem.d1], Z[:, problem.d1 :]
