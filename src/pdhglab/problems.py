"""Domain types for convex-concave saddle problems.

A problem

    min_x max_y  f(x) + <F x, y> - g*(y)

is described by its two proximal oracles, the coupling matrix ``F`` and the
strong-convexity moduli ``(mu, gamma)`` of ``f`` and ``g*``.  The solver
engine never inspects ``f`` or ``g*`` directly; the prox oracles are the unit
of extension.  Gradient and subdifferential-residual oracles are optional and
only required by the continuous dynamics and by saddle certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ProxOracle = Callable[[np.ndarray, float], np.ndarray]
GradOracle = Callable[[np.ndarray], np.ndarray]
SubdiffOracle = Callable[[np.ndarray, np.ndarray], float]


class PowerIterationError(RuntimeError):
    """Power iteration failed to converge; carries the last estimate."""

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True, eq=False)
class SaddleProblem:
    """Immutable description of a saddle problem via its prox oracles.

    Fields
    ------
    d1, d2 : primal and dual dimensions.
    F : (d2, d1) coupling matrix.
    prox_f : (v, t) -> argmin_u f(u) + ||u - v||^2 / (2 t).
    prox_gstar : (w, t) -> argmin_u g*(u) + ||u - w||^2 / (2 t).
    mu, gamma : strong-convexity moduli of f and g* (0 means merely convex).
    grad_f, grad_gstar : optional gradient oracles (smooth terms only).
    subdiff_f, subdiff_gstar : optional residual oracles; ``subdiff_f(x, w)``
        returns dist(0, df(x) + w) for a linear offset ``w``.
    """

    d1: int
    d2: int
    F: np.ndarray
    prox_f: ProxOracle
    prox_gstar: ProxOracle
    mu: float = 0.0
    gamma: float = 0.0
    grad_f: Optional[GradOracle] = None
    grad_gstar: Optional[GradOracle] = None
    subdiff_f: Optional[SubdiffOracle] = None
    subdiff_gstar: Optional[SubdiffOracle] = None

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        if F.shape != (self.d2, self.d1):
            raise ValueError(
                f"F has shape {F.shape}, expected ({self.d2}, {self.d1})"
            )
        if self.mu < 0 or self.gamma < 0:
            raise ValueError("strong-convexity moduli must be nonnegative")
        object.__setattr__(self, "F", F)


@dataclass(frozen=True, eq=False)
class PrimalDualPair:
    """A primal/dual point (x, y)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).ravel())
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())


@dataclass(frozen=True)
class Admissibility:
    """Verdict of the step-scale admissibility test s * ||F|| < 1."""

    admissible: bool
    margin: float

    def __bool__(self) -> bool:
        return self.admissible


def operator_norm(F: np.ndarray, tol: float = 1e-12, max_iter: int = 10_000) -> float:
    """Largest singular value of ``F`` by power iteration on F^T F.

    The start vector is the normalized all-ones vector perturbed by a seeded
    pseudo-random draw, so repeated calls are deterministic.  Returns 0.0 for
    the zero matrix.  Raises :class:`PowerIterationError` (carrying the last
    Rayleigh-quotient estimate) if the estimate has not stabilized to relative
    tolerance ``tol`` within ``max_iter`` iterations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    F = np.asarray(F, dtype=float)
    if F.ndim != 2:
        raise ValueError("F must be a matrix")
    if not np.any(F):
        return 0.0

    d = F.shape[1]
    rng = np.random.default_rng(0)
    v = np.ones(d) / np.sqrt(d) + 1e-3 * rng.standard_normal(d)
    v /= np.linalg.norm(v)

    lam = 0.0
    for _ in range(max_iter):
        w = F.T @ (F @ v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # v is in the null space; restart from a fresh seeded direction.
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            continue
        lam_new = float(v @ w)  # Rayleigh quotient of F^T F
        v = w / norm_w
        if abs(lam_new - lam) <= tol * max(lam_new, np.finfo(float).tiny):
            return float(np.sqrt(lam_new))
        lam = lam_new
    raise PowerIterationError(
        f"power iteration did not converge within {max_iter} iterations",
        estimate=float(np.sqrt(max(lam, 0.0))),
    )


def check_admissibility(s: float, F_norm: float) -> Admissibility:
    """Check the step-scale condition s * F_norm < 1 (strict).

    Returns the verdict together with the margin ``1 - s * F_norm``.
    """
    if s <= 0:
        raise ValueError("s must be positive")
    if F_norm < 0:
        raise ValueError("F_norm must be nonnegative")
    margin = 1.0 - s * F_norm
    return Admissibility(admissible=margin > 0.0, margin=margin)



def inclusion_residuals(
    problem: SaddleProblem,
    x: np.ndarray,
    w_x: np.ndarray,
    y: np.ndarray,
    w_y: np.ndarray,
) -> tuple[float, float]:
    """Inclusion residuals (dist(0, @f(x) + w_x), dist(0, @g*(y) + w_y)).

    Each term uses its subdifferential-distance oracle when the problem has
    one, else the norm of gradient plus offset; raises ValueError when a
    term has neither.
    """
    return (
        _inclusion_residual(problem.subdiff_f, problem.grad_f, x, w_x, "f"),
        _inclusion_residual(problem.subdiff_gstar, problem.grad_gstar, y, w_y, "gstar"),
    )


def _inclusion_residual(subdiff, grad, point, offset, name: str) -> float:
    if subdiff is not None:
        return float(subdiff(point, offset))
    if grad is not None:
        return float(np.linalg.norm(grad(point) + offset))
    raise ValueError(
        f"problem has neither subdiff_{name} nor grad_{name}; supply a "
        "subdifferential oracle to evaluate the inclusion residual"
    )
