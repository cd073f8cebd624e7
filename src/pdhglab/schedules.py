"""Per-iteration step-size schedules (tau_k, sigma_k, theta_k).

Four regimes are supported:

==============  ===========================================================
``fixed``       tau_k = tau, sigma_k = sigma with tau * sigma = s^2, theta = 1
``varying_sc``  tau_k = 1/(c (k+1)), sigma_k = c s^2 (k+1), theta = 1;
                requires f strongly convex and c in (0, 2 mu)
``accelerated`` tau_k = 1/(c k), sigma_k = c s^2 (k+1), theta_k = k/(k+1);
                requires f strongly convex and c in (0, mu); starts at k = 1
``optimal_ss``  tau = s sqrt(gamma/mu), sigma = s sqrt(mu/gamma), theta = 1;
                requires both moduli positive
==============  ===========================================================

Every regime checks the admissibility condition s * ||F|| < 1 at
construction.  Schedules are immutable, pure functions of the iteration
index: no state accumulates between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

FIXED = "fixed"
VARYING_SC = "varying_sc"
ACCELERATED = "accelerated"
OPTIMAL_SS = "optimal_ss"
REGIMES = (FIXED, VARYING_SC, ACCELERATED, OPTIMAL_SS)

#: Default step scale as a fraction of the admissibility bound 1 / ||F||.
DEFAULT_S_FRACTION = 0.9


@dataclass(frozen=True)
class Schedule:
    """Immutable step-size schedule; query with :func:`schedule_at`."""

    regime: str
    s: float
    c: Optional[float] = None
    tau: Optional[float] = None
    sigma: Optional[float] = None

    @property
    def k_start(self) -> int:
        """The first iteration index: 1 for ``accelerated``, else 0."""
        return 1 if self.regime == ACCELERATED else 0


def _default_s(F_norm: float) -> float:
    return DEFAULT_S_FRACTION / F_norm if F_norm > 0 else 1.0


def make_schedule(
    regime: str,
    F_norm: float,
    *,
    s: Optional[float] = None,
    c: Optional[float] = None,
    tau: Optional[float] = None,
    sigma: Optional[float] = None,
    mu: float = 0.0,
    gamma: float = 0.0,
) -> Schedule:
    """Build and validate a schedule for the given regime.

    Omitted parameters are defaulted: s = 0.9 / F_norm (1.0 for F = 0),
    c = mu/2 for ``varying_sc`` and c = 2 mu / 3 for ``accelerated``.  Raises
    ValueError naming the offending parameter when a regime precondition is
    violated (mu/gamma missing, c outside its open interval, s * F_norm >= 1,
    or a parameter that the regime does not accept).
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    if F_norm < 0:
        raise ValueError("F_norm must be nonnegative")

    if regime == FIXED:
        if c is not None:
            raise ValueError("c is not a fixed-regime parameter")
        if tau is not None or sigma is not None:
            if tau is None or sigma is None:
                raise ValueError("fixed regime needs both tau and sigma (or neither)")
            if tau <= 0 or sigma <= 0:
                raise ValueError("tau and sigma must be positive")
            s_implied = math.sqrt(tau * sigma)
            if s is not None and abs(tau * sigma - s * s) > 1e-12 * s * s:
                raise ValueError("tau * sigma must equal s^2")
            s = s_implied
        else:
            s = _default_s(F_norm) if s is None else s
            tau = sigma = s
    elif regime == VARYING_SC:
        if tau is not None or sigma is not None:
            raise ValueError("tau/sigma are derived in the varying_sc regime")
        if mu <= 0:
            raise ValueError("mu must be positive for the varying_sc regime")
        s = _default_s(F_norm) if s is None else s
        c = mu / 2.0 if c is None else c
        if not 0.0 < c < 2.0 * mu:
            raise ValueError(f"c must lie strictly inside (0, 2*mu) = (0, {2 * mu})")
    elif regime == ACCELERATED:
        if tau is not None or sigma is not None:
            raise ValueError("tau/sigma are derived in the accelerated regime")
        if mu <= 0:
            raise ValueError("mu must be positive for the accelerated regime")
        s = _default_s(F_norm) if s is None else s
        c = 2.0 * mu / 3.0 if c is None else c
        if not 0.0 < c < mu:
            raise ValueError(f"c must lie strictly inside (0, mu) = (0, {mu})")
    else:  # OPTIMAL_SS
        if c is not None:
            raise ValueError("c is not an optimal_ss parameter")
        if tau is not None or sigma is not None:
            raise ValueError("tau/sigma are derived from s, mu, gamma in optimal_ss")
        if mu <= 0:
            raise ValueError("mu must be positive for the optimal_ss regime")
        if gamma <= 0:
            raise ValueError("gamma must be positive for the optimal_ss regime")
        s = _default_s(F_norm) if s is None else s
        tau = s * math.sqrt(gamma / mu)
        sigma = s * math.sqrt(mu / gamma)
        if not (0.0 < tau < math.inf and 0.0 < sigma < math.inf):
            raise ValueError(
                f"gamma/mu = {gamma / mu:g} puts the derived steps out of the double "
                f"range: tau = {tau:g}, sigma = {sigma:g}"
            )

    if s <= 0:
        raise ValueError("s must be positive")
    if s * F_norm >= 1.0:
        raise ValueError(
            f"s * F_norm = {s * F_norm} violates the admissibility condition s * ||F|| < 1"
        )

    return Schedule(
        regime=regime,
        s=float(s),
        c=None if c is None else float(c),
        tau=None if tau is None else float(tau),
        sigma=None if sigma is None else float(sigma),
    )


def schedule_at(sched: Schedule, k):
    """Return (tau_k, sigma_k, theta_k) for iteration k >= k_start.

    ``k`` is an int or an integer array; for an array each of the three is
    an array of k's shape.  The int path makes no numpy call: the engine
    takes it once per step.
    """
    rows = isinstance(k, np.ndarray)
    first = k.min(initial=sched.k_start) if rows else k
    if first < sched.k_start:
        raise ValueError(f"k = {first} precedes the schedule start k_start = {sched.k_start}")
    one = np.ones(k.shape) if rows else 1.0
    if sched.regime in (FIXED, OPTIMAL_SS):
        return sched.tau * one, sched.sigma * one, one
    if sched.regime == VARYING_SC:
        return 1.0 / (sched.c * (k + 1)), sched.c * sched.s**2 * (k + 1), one
    # ACCELERATED
    return 1.0 / (sched.c * k), sched.c * sched.s**2 * (k + 1), k / (k + 1)


def k0_threshold(mu: float, c: float) -> int:
    """Iteration index ceil(c / (2 mu - 2 c)) past which the accelerated
    descent coefficient is nonnegative, clamped below at the schedule start 1."""
    if not 0.0 < c < mu:
        raise ValueError("k0_threshold requires 0 < c < mu")
    ratio = c / (2.0 * mu - 2.0 * c)
    # c = 2*mu/3 gives ratio = 1 exactly, but rounding in the division can
    # land a hair above an integer and inflate the ceiling by a full step
    return max(1, math.ceil(ratio - 1e-9 * max(1.0, ratio)))
