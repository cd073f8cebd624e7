"""Closed-form and cached-factorization proximal operators.

Covers the objective families used by the problem zoo: indicators of
l-infinity balls (clipping), least-squares data fidelity (via a one-time
spectral decomposition of A^T A, so that an iteration-varying prox weight
costs one matrix-vector pass per call), and shifted quadratics.  The exact
normal-cone residual of the l-infinity ball, the one nonsmooth term, lives
here as well.

The cached eigenvector matrix starts on a 64-byte (cache-line) boundary,
since the BLAS matrix-vector kernel streams it by cache lines and eigh's
own result starts wherever earlier allocations leave it: at d = 400 the
prox took 36-40 us on the boundary and 43-57 us off it (one thread,
OpenBLAS 0.3.31 Haswell kernel), with the same bits.

Each prox takes one point v (d,) with a float weight t, or stacked points
(B, d) with a (B, 1) column of weights, one per row; each row of a stack
gets the bits of its own call.  A weight is checked as cheaply as a float
compares, and an array of weights is refused if any entry is nonpositive.
"""

from __future__ import annotations

import numpy as np

from .problems import matvec


def project_linf_ball(w: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection onto {y : ||y||_inf <= r} (componentwise clamp).

    This is the prox of the indicator function for any prox weight, so no
    step-size argument is taken.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    # np.clip's bits, at half its cost at small d; this argument order also
    # keeps clip's sign of zero at r = 0
    return np.minimum(r, np.maximum(-r, np.asarray(w, dtype=float)))


def _cache_line_aligned(M: np.ndarray) -> np.ndarray:
    """A C-ordered copy of M whose data starts on a 64-byte boundary."""
    # numpy's data is at least 8-byte aligned, so the offset is whole doubles
    buf = np.empty(M.size + 8)
    start = -buf.ctypes.data % 64 // 8
    out = buf[start:start + M.size].reshape(M.shape)
    out[...] = M
    return out


class QuadraticProxCache:
    """Spectral cache for f(x) = 0.5 * ||A x - b||^2.

    Stores the eigendecomposition A^T A = V diag(eigvals) V^T (eigenvalues
    ascending) and A^T b, so that the prox for any weight t is a single
    matrix-vector pass.  ``mu`` is the certified strong-convexity modulus
    lambda_min(A^T A); it is zero for rank-deficient A.

    ``eigvecs`` is a C-ordered copy of eigh's V that starts on a 64-byte
    boundary, so both products of the prox (with V and with the view V^T)
    read whole cache lines wherever eigh's result fell; the copy keeps
    every bit and the BLAS kernel of each product.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] != b.shape[0]:
            raise ValueError("A and b have incompatible shapes")
        gram = A.T @ A
        eigvals, eigvecs = np.linalg.eigh(gram)
        self.eigvals = np.maximum(eigvals, 0.0)  # clip rounding negatives
        self.eigvecs = _cache_line_aligned(eigvecs)
        self.Atb = A.T @ b
        self.mu = float(self.eigvals[0])


def prox_least_squares(cache: QuadraticProxCache, v: np.ndarray, t: float) -> np.ndarray:
    """Minimizer of 0.5 ||A u - b||^2 + ||u - v||^2 / (2 t).

    Solves (I + t A^T A) u = v + t A^T b through the cached decomposition,
    row by row on a stack.
    """
    if t <= 0 if isinstance(t, float) else (np.asarray(t) <= 0).any():
        raise ValueError("t must be positive")
    rhs = np.asarray(v, dtype=float) + t * cache.Atb
    V = cache.eigvecs
    return matvec(V, matvec(V.T, rhs) / (1.0 + t * cache.eigvals))


def prox_shifted_quadratic(a: np.ndarray, m: float, v: np.ndarray, t: float) -> np.ndarray:
    """Minimizer of (m/2) ||u - a||^2 + ||u - v||^2 / (2 t): (v + t m a) / (1 + t m)."""
    if m <= 0:
        raise ValueError("m must be positive")
    if t <= 0 if isinstance(t, float) else (np.asarray(t) <= 0).any():
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
