"""Domain types for convex-concave saddle problems.

A problem

    min_x max_y  f(x) + <F x, y> - g*(y)

is described by its two proximal oracles, the coupling matrix ``F`` and the
strong-convexity moduli ``(mu, gamma)`` of ``f`` and ``g*``.  The solver
engine never inspects ``f`` or ``g*`` directly; the prox oracles are the unit
of extension.  The gradient oracles and the residual oracle of ``g*`` are
optional: the continuous dynamics need both gradients, and saddle
certification needs ``grad_f`` plus ``subdiff_gstar`` or ``grad_gstar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

ProxOracle = Callable[[np.ndarray, float], np.ndarray]
GradOracle = Callable[[np.ndarray], np.ndarray]
SubdiffOracle = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True, eq=False)
class SaddleProblem:
    """Immutable description of a saddle problem via its prox oracles.

    Fields
    ------
    F : (d2, d1) coupling matrix; the primal and dual dimensions ``d1`` and
        ``d2`` are read from its shape.
    F_norm : spectral norm ||F||_2, derived from F at construction by SVD
        (0.0 for the zero matrix); every admissibility test s * ||F|| < 1
        reads it.
    prox_f : (v, t) -> argmin_u f(u) + ||u - v||^2 / (2 t).
    prox_gstar : (w, t) -> argmin_u g*(u) + ||u - w||^2 / (2 t).
    mu, gamma : strong-convexity moduli of f and g* (0 means merely convex).
    grad_f, grad_gstar : optional gradient oracles (smooth terms only).
    subdiff_gstar : optional residual oracle; ``subdiff_gstar(y, w)`` returns
        dist(0, dg*(y) + w) for a linear offset ``w``.
    """

    F: np.ndarray
    prox_f: ProxOracle
    prox_gstar: ProxOracle
    mu: float = 0.0
    gamma: float = 0.0
    grad_f: Optional[GradOracle] = None
    grad_gstar: Optional[GradOracle] = None
    subdiff_gstar: Optional[SubdiffOracle] = None
    F_norm: float = field(init=False)

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        if F.ndim != 2:
            raise ValueError(f"F must be 2-D, got shape {F.shape}")
        if self.mu < 0 or self.gamma < 0:
            raise ValueError("strong-convexity moduli must be nonnegative")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "F_norm", float(np.linalg.norm(F, 2)))

    @property
    def d1(self) -> int:
        return self.F.shape[1]

    @property
    def d2(self) -> int:
        return self.F.shape[0]


@dataclass(frozen=True, eq=False)
class PrimalDualPair:
    """A primal/dual point (x, y)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).ravel())
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).ravel())


def _norm(r: np.ndarray) -> float:
    """||r|| as sqrt(r @ r), rescaled by max |r| when only the square overflows."""
    value = math.sqrt(float(r @ r))
    if value == math.inf and np.isfinite(r).all():
        scale = float(np.abs(r).max())
        r = r / scale
        value = scale * math.sqrt(float(r @ r))
    return value


def inclusion_residuals(
    problem: SaddleProblem,
    x: np.ndarray,
    w_x: np.ndarray,
    y: np.ndarray,
    w_y: np.ndarray,
) -> tuple[float, float]:
    """Inclusion residuals (dist(0, @f(x) + w_x), dist(0, @g*(y) + w_y)).

    The f term is the norm of gradient plus offset; the g* term uses the
    subdifferential-distance oracle when the problem has one, else the
    gradient.  Raises ValueError when a term has no oracle.
    """
    if problem.grad_f is None:
        raise ValueError(
            "problem has no grad_f; supply it to evaluate the inclusion residual"
        )
    r_x = _norm(problem.grad_f(x) + w_x)
    if problem.subdiff_gstar is not None:
        return r_x, float(problem.subdiff_gstar(y, w_y))
    if problem.grad_gstar is not None:
        return r_x, _norm(problem.grad_gstar(y) + w_y)
    raise ValueError(
        "problem has neither subdiff_gstar nor grad_gstar; supply a "
        "subdifferential oracle to evaluate the inclusion residual"
    )
