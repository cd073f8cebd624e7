"""Closed-form and cached-factorization proximal operators.

Covers the objective families used by the problem zoo: indicators of
l-infinity balls (clipping), least-squares data fidelity (via a one-time
spectral decomposition of A^T A, so that an iteration-varying prox weight
costs one matrix-vector pass per call), and shifted quadratics.  The exact
normal-cone residual of the l-infinity ball, the one nonsmooth term, lives
here as well.
"""

from __future__ import annotations

import numpy as np


def project_linf_ball(w: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection onto {y : ||y||_inf <= r} (componentwise clamp).

    This is the prox of the indicator function for any prox weight, so no
    step-size argument is taken.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    return np.clip(np.asarray(w, dtype=float), -r, r)


class QuadraticProxCache:
    """Spectral cache for f(x) = 0.5 * ||A x - b||^2.

    Stores the eigendecomposition A^T A = V diag(eigvals) V^T (eigenvalues
    ascending) and A^T b, so that the prox for any weight t is a single
    matrix-vector pass.  ``mu`` is the certified strong-convexity modulus
    lambda_min(A^T A); it is zero for rank-deficient A.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError("A and b have incompatible shapes")
        self.A = A
        self.b = b
        gram = A.T @ A
        eigvals, eigvecs = np.linalg.eigh(gram)
        self.eigvals = np.maximum(eigvals, 0.0)  # clip rounding negatives
        self.eigvecs = eigvecs
        self.Atb = A.T @ b
        self.mu = float(self.eigvals[0])


def prox_least_squares(cache: QuadraticProxCache, v: np.ndarray, t: float) -> np.ndarray:
    """Minimizer of 0.5 ||A u - b||^2 + ||u - v||^2 / (2 t).

    Solves (I + t A^T A) u = v + t A^T b through the cached decomposition.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    v = np.asarray(v, dtype=float).ravel()
    rhs = v + t * cache.Atb
    return cache.eigvecs @ ((cache.eigvecs.T @ rhs) / (1.0 + t * cache.eigvals))


def prox_shifted_quadratic(a: np.ndarray, m: float, v: np.ndarray, t: float) -> np.ndarray:
    """Minimizer of (m/2) ||u - a||^2 + ||u - v||^2 / (2 t): (v + t m a) / (1 + t m)."""
    if m <= 0:
        raise ValueError("m must be positive")
    if t <= 0:
        raise ValueError("t must be positive")
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    return (v + t * m * a) / (1.0 + t * m)


def linf_normal_cone_dist(y: np.ndarray, w: np.ndarray, r: float) -> float:
    """dist(0, N(y) + w) for the normal cone N of {||y||_inf <= r}.

    Coordinates strictly inside the box contribute |w_i|; coordinates pinned
    at +r (resp. -r) contribute max(w_i, 0) (resp. max(-w_i, 0)).  Boundary
    membership is decided with an absolute slack of 1e-12 * max(1, r) so that
    exactly clamped iterates test as pinned.  Returns inf if y is infeasible.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    eps = 1e-12 * max(1.0, r)
    if np.any(np.abs(y) > r + eps):
        return float("inf")
    at_upper = y >= r - eps
    at_lower = y <= -r + eps
    per = np.abs(w).astype(float)
    per = np.where(at_upper, np.maximum(w, 0.0), per)
    per = np.where(at_lower, np.maximum(-w, 0.0), per)
    # pinned at both bounds (degenerate ball): the cone is all of R
    per = np.where(at_upper & at_lower, 0.0, per)
    return float(np.linalg.norm(per))
