"""Domain types for convex-concave saddle problems.

A problem

    min_x max_y  f(x) + <F x, y> - g*(y)

is described by its two proximal oracles, the coupling operator ``F`` and
the strong-convexity moduli ``(mu, gamma)`` of ``f`` and ``g*``.  The solver
engine never inspects ``f`` or ``g*`` directly; the prox oracles are the unit
of extension.

A coupling operator has a ``shape`` (d2, d1), its spectral norm ``norm`` and
the actions ``apply(v)`` = F v and ``apply_T(w)`` = F^T w.  Both act on the
last axis, so one call serves a single state (d,) or stacked rows (..., d),
and each row of a stack gets the bits of its own call.
:class:`Identity` and :class:`FirstDifference` are matrix-free; :class:`Dense`
wraps any other matrix, and ``SaddleProblem`` wraps an ndarray ``F`` in it.

The gradient oracles and the residual oracle of ``g*`` are optional: the
continuous dynamics need both gradients, and saddle certification needs
``grad_f`` plus ``subdiff_gstar`` or ``grad_gstar``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ProxOracle = Callable[[np.ndarray, float], np.ndarray]
GradOracle = Callable[[np.ndarray], np.ndarray]
SubdiffOracle = Callable[[np.ndarray, np.ndarray], float]


class Identity:
    """F = I on R^d: norm 1, and both actions return their input itself."""

    def __init__(self, d: int):
        self.shape = (d, d)
        self.norm = 1.0

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v

    apply_T = apply


class FirstDifference:
    """The (d-1) x d first difference D, (D v)_i = v_{i+1} - v_i.

    D annihilates constants; its norm is 2 cos(pi / (2d)).  Both actions
    take the same bits as the products with the dense matrix of D.
    """

    def __init__(self, d: int):
        if d < 2:
            raise ValueError("the first difference needs d >= 2")
        self.shape = (d - 1, d)
        self.norm = 2.0 * math.cos(math.pi / (2 * d))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v[..., 1:] - v[..., :-1]

    def apply_T(self, w: np.ndarray) -> np.ndarray:
        # D^T w = (w_{i-1} - w_i)_i with w_{-1} = w_{d-1} = 0
        p = np.zeros(w.shape[:-1] + (w.shape[-1] + 2,))
        p[..., 1:-1] = w
        return p[..., :-1] - p[..., 1:]


def matvec(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for one vector (d,), or per row of stacked rows (..., d): one
    matrix-vector product each, with the bits of ``M @ row`` (a product of
    the whole stack, v M^T, rounds differently)."""
    return M @ v if v.ndim == 1 else np.matmul(M, v[..., None])[..., 0]


class Dense:
    """An explicit (d2, d1) matrix; its norm is the largest singular value
    (0.0 for the zero matrix)."""

    def __init__(self, matrix):
        M = np.asarray(matrix, dtype=float)
        if M.ndim != 2:
            raise ValueError(f"F must be 2-D, got shape {M.shape}")
        self.matrix = M
        self._T = M.T  # one view, not one per product
        self.shape = M.shape
        self.norm = float(np.linalg.norm(M, 2))

    def apply(self, v: np.ndarray) -> np.ndarray:
        return matvec(self.matrix, v)

    def apply_T(self, w: np.ndarray) -> np.ndarray:
        return matvec(self._T, w)


@dataclass(frozen=True, eq=False)
class SaddleProblem:
    """Immutable description of a saddle problem via its prox oracles.

    Fields
    ------
    F : (d2, d1) coupling operator (an ndarray is wrapped in :class:`Dense`);
        the primal and dual dimensions ``d1`` and ``d2`` are read from its
        shape, and ``F_norm``, which every admissibility test s * ||F|| < 1
        reads, is its ``norm``.
    prox_f : (v, t) -> argmin_u f(u) + ||u - v||^2 / (2 t).
    prox_gstar : (w, t) -> argmin_u g*(u) + ||u - w||^2 / (2 t).
    mu, gamma : strong-convexity moduli of f and g* (0 means merely convex).
    grad_f, grad_gstar : optional gradient oracles (smooth terms only).
    subdiff_gstar : optional residual oracle; ``subdiff_gstar(y, w)`` returns
        dist(0, dg*(y) + w) for a linear offset ``w``.
    """

    F: object
    prox_f: ProxOracle
    prox_gstar: ProxOracle
    mu: float = 0.0
    gamma: float = 0.0
    grad_f: Optional[GradOracle] = None
    grad_gstar: Optional[GradOracle] = None
    subdiff_gstar: Optional[SubdiffOracle] = None

    def __post_init__(self):
        if self.mu < 0 or self.gamma < 0:
            raise ValueError("strong-convexity moduli must be nonnegative")
        if not hasattr(self.F, "apply_T"):
            object.__setattr__(self, "F", Dense(self.F))

    @property
    def F_norm(self) -> float:
        return self.F.norm

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


def _norm(r: np.ndarray):
    """||r|| as sqrt(r @ r), rescaled by max |r| when only the square
    overflows.  The square is np.vdot(r, r): the bits of r @ r, 1 us
    sooner, and no overflow warning where it turns inf.

    On stacked (..., d) rows, the norms of the rows, of shape (...,), each
    with the bits of its own call: the stacked (1, d) @ (d, 1) products
    square a row as np.vdot does.
    """
    if r.ndim > 1:
        with np.errstate(over="ignore"):  # an inf square is rescaled below
            values = np.sqrt((r[..., None, :] @ r[..., :, None])[..., 0, 0])
        for i in zip(*np.nonzero(values == math.inf)):
            values[i] = _norm(r[i])
        return values
    value = math.sqrt(float(np.vdot(r, r)))
    if value == math.inf and np.isfinite(r).all():
        scale = float(np.abs(r).max())
        r = r / scale
        value = scale * math.sqrt(float(np.vdot(r, r)))
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
