"""High-resolution ODE system associated with the PDHG iteration.

For smooth f, g* the iteration is an implicit-Euler discretization (step s)
of the coupled system

    (s/tau) X' - s F^T Y' = -F^T Y - grad f(X)
    (s/sigma) Y' - s F X' =  F X  - grad g*(Y)

whose mass matrix M = [[ (s/tau) I, -s F^T ], [ -s F, (s/sigma) I ]] is
invertible whenever tau * sigma = s^2 and s ||F|| < 1.  Both entry points
serve affine gradients with Hessians mu I and gamma I, as the zoo's
``quad_pair`` has: then G(z) = J z + g with J = [[-mu I, -F^T], [F, -gamma
I]] and g = G(0), and M z' = G(z) is linear.

:func:`reference_states` gives the exact flow at the PDHG times t = j s.
With F = U diag(sv) V^T, x = V x~ and y = U y~ split the system into 2x2
blocks M_i = [[s/tau, -s sv_i], [-s sv_i, s/sigma]], J_i = [[-mu, -sv_i],
[sv_i, -gamma]] (sv_i = 0 holds the 1x1 rates -mu tau/s and -gamma sigma/s
where d1 != d2).  Each block's z(t) - z0 is a closed form in G(z0), so z*
is never formed.  Where its rates lam_j are real and 4 times apart, it is
the sum of [expm1(t lam_j) / lam_j] v_j l_j^T G / (l_j^T M_i v_j), v_j and
l_j the right and left null vectors of J_i - lam_j M_i (Hochbruck &
Ostermann, Acta Numerica 2010); where they are complex or close, it is
(exp(t A_i) - I) J_i^-1 G, A_i = M_i^-1 J_i, with exp in divided-difference
form (Moler & Van Loan, SIAM Review 2003).

Rounding: the SVD is backward stable and U, V orthogonal, so the rotations
in and out add a few n EPS of each vector's norm.  The rates solve a quadratic
scaled by the block's largest entry of J_i, which cannot overflow; the large
rate is taken without cancellation and the small one as the product of the
rates over it, each to a few EPS.  A null vector read from the larger row
or column of J_i - lam_j M_i is good to a few EPS of its norm, and rates 4
times apart keep l_j^T M_i v_j from cancelling.  No term has the size of
z*, which lies near 1e200 at (mu, gamma) = (1e-200, 1e200) while the states
stay near 1.  Rates within a factor 4 leave the block unstiff, so
J_i^-1 G = z0 - z* has the size of its data and the divided-difference
form's error, a few EPS |J_i^-1 G|, is rounding too.

:func:`integrate` is the implicit-Euler stepper, the h -> 0 cross-check of
the flow; no command steps it.  Each step M (z+ - z) = h G(z+) is the one
linear map z+ = P z + c, (M - h J) [P | c] = [M | h g], solved once per call
after M's condition number is checked.  Both return X and Y, one row per t.

A certificate runs on every returned state: the gradient oracles must
equal the affine map, |G(z) - (J z + g)| <= (n + 4) EPS (|J| |z| + |g|) in
each of the n = d1 + d2 coordinates, the rounding of each side's n-term
product and a few further operations.  A cubic gradient, a Hessian other
than mu I or gamma I, or a state that is not finite fails it.  It checks the
oracles, not the flow: a state off the flow whose gradients are the affine
map passes, so the flow's accuracy rests on the argument above.  It reads
:data:`~pdhglab.engine.STEP_BLOCK` states at a time, so the gradient oracles
take stacked rows (..., d), as a stacked run's prox oracles do.

The right-hand side needs grad f and grad g*, and M a dense ``F.matrix``
(:class:`~pdhglab.problems.Dense`): of the zoo's kinds, ``quad_pair``.
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


def _block_flow(t, G0, s, tau, sigma, problem):
    """z(t) - z0 at each t (rows) of the flow whose right-hand side at z0 is
    G0, block by block in the singular vectors of F (module docstring)."""
    F, mu, gamma, d1, d2 = problem.F.matrix, problem.mu, problem.gamma, problem.d1, problem.d2
    U, sv, Vh = np.linalg.svd(F)
    # max(d1, d2) blocks: a block of sv = 0 holds the two 1x1 blocks' rates
    sv = np.pad(sv, (0, max(d1, d2) - len(sv)))
    gx, gy = (np.pad(g, (0, len(sv) - len(g))) for g in (Vh @ G0[:d1], U.T @ G0[d1:]))
    a, b, c = s / tau, s / sigma, s * sv
    # the rates kap nu of J_i / kap, kap its largest entry, solve P2 nu^2 + P1 nu + P0 = 0
    kap = np.maximum(max(mu, gamma), sv)
    mh, gh, vh = mu / kap, gamma / kap, sv / kap
    P2, P1, P0 = a * b - c * c, mh * b + gh * a, mh * gh + vh * vh
    root = np.sqrt(P1 * P1 - 4 * P0 * P2 + 0j)
    # real rates at least 4 times apart (small over large: 4 P0 P2 / (P1 + root)^2)
    apart = (root.imag == 0) & (16 * P0 * P2 <= (P1 + root.real) ** 2)
    fast = -(P1 + root.real) / (2 * P2)
    larger = lambda p, q, u, w: np.maximum(abs(p), abs(q)) >= np.maximum(abs(u), abs(w))
    ux = uy = 0.0
    for nu in (fast, (mh / fast * gh + vh * (vh / fast)) / P2):
        # null vectors of (J_i - kap nu M_i) / kap from its larger row and column
        n11, n12, n21, n22 = -mh - nu * a, nu * c - vh, nu * c + vh, -gh - nu * b
        v = np.where(larger(n11, n12, n21, n22), [-n12, n11], [n22, -n21])
        l = np.where(larger(n11, n21, n12, n22), [n21, -n11], [n22, -n12])
        v, l = v / abs(v).max(axis=0), l / abs(l).max(axis=0)
        lMv = l[0] * (a * v[0] - c * v[1]) + l[1] * (b * v[1] - c * v[0])
        coef = (l[0] * gx + l[1] * gy) / lMv
        # expm1(t lam) / lam coef, t coef where |t lam| < EPS; lam = kap nu
        # is never formed, as past the double range it overflows
        x = np.multiply.outer(t, nu) * kap
        term = np.where(abs(x) < EPS, np.multiply.outer(t, coef), np.expm1(x) * (coef / kap / nu))
        ux, uy = ux + term * v[0], uy + term * v[1]
    # complex or close rates kap (m +- delta): exp(t A_i) = exp(t kap m) (cosh(t kap delta)
    # + sinh(t kap delta) (A_i - kap m) / (kap delta)) in (exp(t A_i) - I) J_i^-1 G
    m, delta = -P1 / (2 * P2), root / (2 * P2)
    wx, wy = (vh * gy - gh * gx) / P0, -(vh * gx + mh * gy) / P0  # kap J_i^-1 G
    rx = (b * gx + c * gy) / P2 - m * wx  # (A_i - kap m) J_i^-1 G
    ry = (c * gx + a * gy) / P2 - m * wy
    up, down = (np.exp(np.multiply.outer(t, m + d) * kap) for d in (delta, -delta))
    q = np.multiply.outer(t, delta) * kap
    cosh = ((up + down) / 2).real - 1
    small = np.exp(np.multiply.outer(t, m) * kap) * t[:, None] * np.sinc(1j * q / np.pi)
    sinh = np.where(abs(q) < 1, small, (up - down) / (2 * delta * kap)).real
    ux = np.where(apart, ux, cosh * (wx / kap) + sinh * rx)
    uy = np.where(apart, uy, cosh * (wy / kap) + sinh * ry)
    return np.concatenate([ux[:, :d1] @ Vh, uy[:, :d2] @ U.T], axis=1)


def reference_states(
    init: PrimalDualPair,
    T: float,
    s: float,
    tau: float,
    sigma: float,
    problem: SaddleProblem,
) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) of shapes (n+1, d1) and (n+1, d2): the certified states of the
    ODE from ``init`` at t = j s, j = 0..n, n = ceil(T/s).  Raises as
    :func:`integrate` does, naming the time and step s."""
    if T <= 0:
        raise ValueError("T must be positive")
    M, J, g, rhs = _affine_system(s, tau, sigma, problem)
    t = s * np.arange(int(np.ceil(T / s - 1e-12)) + 1)
    z0 = np.concatenate([init.x, init.y])
    # a state that overflows fails the certificate, which names it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Z = z0 + _block_flow(t, rhs(z0), s, tau, sigma, problem)
        _certify(Z, J, g, rhs, "exact-flow", "s", s)
    return Z[:, : problem.d1], Z[:, problem.d1 :]


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
