"""Lyapunov diagnostics for PDHG runs.

Three discrete Lyapunov functions are evaluated, one per analysis regime:

* fixed steps:      E(k) = ||x_k - x*||^2/(2 tau) + ||y_k - y*||^2/(2 sigma)
                           - <F (x_k - x*), y_k - y*>
* varying steps:    same form with (tau_k, sigma_k) (:func:`lyapunov_fixed`
                    evaluated at the step sizes of iteration k)
* accelerated:      E(k) = ||x_k - x*||^2/(2 tau_k^2) + ||y_{k-1} - y*||^2/(2 s^2)
                           + <F (x_k - x_{k-1}), y_{k-1} - y*>/tau_{k-1}
                           + ||x_k - x_{k-1}||^2/(2 tau_{k-1}^2)

Each regime's descent lemma bounds E(k+1) - E(k) by an explicit nonpositive
(or sign-determined) right-hand side.  :func:`lyapunov_table` evaluates the
Lyapunov values, NE terms and saddle distances along a recorded trajectory
in one pass; :func:`check_lemma` adds the lemma's right-hand side and
reports per-step slack.  The closed-form convergence guarantees of each
regime are exposed through :func:`theorem_bound`.

All evaluators are pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import Trajectory
from .problems import PrimalDualPair, SaddleProblem, operator_norm
from .schedules import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    k0_threshold,
    schedule_at,
)


class NoMatchingLemma(ValueError):
    """No descent lemma / rate guarantee covers the requested configuration.

    Raised, for example, when a fixed-step run on a merely convex problem is
    handed to :func:`check_lemma`: every available lemma needs at least one
    strong-convexity modulus.  Callers that merely report diagnostics should
    catch this and mark the check as skipped rather than failed.
    """


@dataclass(frozen=True)
class LyapunovRecord:
    """Per-transition diagnostic: Lyapunov value, numerical-error term,
    descent-lemma right-hand side, and the certified slack

        lemma_slack = lemma_rhs - (E(k+1) - E(k))

    so that lemma_slack >= -slack_tolerance(E) certifies the lemma at this
    step.
    """

    k: int
    E: float
    ne: float
    lemma_rhs: float
    lemma_slack: float


@dataclass(frozen=True, eq=False)
class LyapunovTable:
    """Diagnostics of one trajectory against one saddle, as columns aligned
    with ``trajectory.records`` (entry i describes the transition k -> k+1
    of record i): the regime's Lyapunov values E(k) and E(k+1), the
    numerical-error term NE, and the squared distances of the pre-state
    (x_k, y_k) and the post-state (x_{k+1}, y_{k+1}) to the saddle.
    Undefined entries are nan.
    """

    k: tuple[int, ...]
    E: tuple[float, ...]
    ne: tuple[float, ...]
    dist_x: tuple[float, ...]
    dist_y: tuple[float, ...]
    E_next: tuple[float, ...]
    dist_x_next: tuple[float, ...]
    dist_y_next: tuple[float, ...]


def slack_tolerance(E_k: float) -> float:
    """Relative-absolute tolerance 1e-8 (1 + |E(k)|) on the lemma slack.

    The inequalities are exact in exact arithmetic; this covers prox-solve
    and rounding error only.
    """
    return 1e-8 * (1.0 + abs(E_k))


def lyapunov_fixed(
    x_k: np.ndarray,
    y_k: np.ndarray,
    saddle: PrimalDualPair,
    tau: float,
    sigma: float,
    F: np.ndarray,
) -> float:
    """Fixed-step Lyapunov value at (x_k, y_k).

    Nonnegative whenever tau * sigma = s^2 and s ||F|| < 1, with the sandwich
    (1 - s||F||)/2 * (||dx||^2/tau + ||dy||^2/sigma) <= E <= (1 + s||F||)/2 * (same).
    """
    if tau <= 0 or sigma <= 0:
        raise ValueError("step sizes must be positive")
    dx = x_k - saddle.x
    dy = y_k - saddle.y
    return float(
        dx @ dx / (2.0 * tau) + dy @ dy / (2.0 * sigma) - (F @ dx) @ dy
    )


def lyapunov_accelerated(
    x_k: np.ndarray,
    x_prev: np.ndarray,
    y_prev: np.ndarray,
    saddle: PrimalDualPair,
    tau_k: float,
    tau_prev: Optional[float],
    s: float,
    F: np.ndarray,
) -> float:
    """Accelerated Lyapunov value at index k.

    ``y_prev`` is y_{k-1} — the accelerated function pairs the current primal
    iterate with the previous dual one.  ``tau_prev = None`` encodes the
    1/tau_0 := 0 convention at k = 1: both terms carrying tau_{k-1} vanish.
    Bounded below by ||x_k - x*||^2/(2 tau_k^2) under tau_{k+1} sigma_k = s^2
    and s ||F|| < 1.
    """
    if tau_k <= 0 or s <= 0:
        raise ValueError("tau_k and s must be positive")
    dx = x_k - saddle.x
    dy = y_prev - saddle.y
    value = dx @ dx / (2.0 * tau_k**2) + dy @ dy / (2.0 * s**2)
    if tau_prev is not None:
        if tau_prev <= 0:
            raise ValueError("tau_prev must be positive (or None for 1/tau_0 := 0)")
        step = x_k - x_prev
        value += (F @ step) @ dy / tau_prev + step @ step / (2.0 * tau_prev**2)
    return float(value)


def numerical_error(
    dx: np.ndarray,
    dy: np.ndarray,
    tau: Optional[float],
    sigma: float,
    F: np.ndarray,
    accelerated: bool = False,
) -> float:
    """Numerical-error term NE of the implicit discretization.

    Fixed/varying form (default):

        NE = ||dx||^2/(2 tau) + ||dy||^2/(2 sigma) - <F dx, dy>

    Accelerated form (``accelerated=True``, where ``tau`` is tau_{k-1} and
    ``sigma`` plays the role of s):

        NE = ||dx||^2/(2 tau^2) - <F dx, dy>/tau + ||dy||^2/(2 s^2)

    with ``tau = None`` encoding 1/tau_0 := 0 (only the dy term survives).
    Nonnegative whenever the step sizes obey the regime's coupling to s^2 and
    s ||F|| < 1; exactly zero on the admissibility boundary s ||F|| = 1 for
    aligned displacements.
    """
    if sigma <= 0:
        raise ValueError("sigma (or s) must be positive")
    if accelerated:
        value = dy @ dy / (2.0 * sigma**2)
        if tau is not None:
            if tau <= 0:
                raise ValueError("tau must be positive (or None for 1/tau_0 := 0)")
            value += dx @ dx / (2.0 * tau**2) - (F @ dx) @ dy / tau
        return float(value)
    if tau is None or tau <= 0:
        raise ValueError("tau must be positive")
    return float(dx @ dx / (2.0 * tau) + dy @ dy / (2.0 * sigma) - (F @ dx) @ dy)


def alpha_rate(mu: float, c: float, s: float, F_norm: float) -> float:
    """Sublinear decay exponent alpha = min((2 mu - c)/(s + c), 1/(1 + c s ||F||^2))."""
    if mu <= 0 or not 0.0 < c < 2.0 * mu:
        raise ValueError("alpha_rate needs mu > 0 and c in (0, 2*mu)")
    if s <= 0 or F_norm < 0:
        raise ValueError("alpha_rate needs s > 0 and F_norm >= 0")
    return min((2.0 * mu - c) / (s + c), 1.0 / (1.0 + c * s * F_norm**2))


def rho_rate(mu: float, gamma: float, s: float, F_norm: float) -> float:
    """Linear contraction factor rho = (1 + s||F||) / (1 + s||F|| + 2 s sqrt(mu gamma))."""
    if mu <= 0 or gamma <= 0:
        raise ValueError("rho_rate needs both moduli positive")
    if s <= 0 or F_norm < 0:
        raise ValueError("rho_rate needs s > 0 and F_norm >= 0")
    q = s * F_norm
    return (1.0 + q) / (1.0 + q + 2.0 * s * math.sqrt(mu * gamma))


def _gamma_ratio(a: float, b: float) -> float:
    """Gamma(a)/Gamma(b) in the log domain (stable past k ~ 170)."""
    return math.exp(math.lgamma(a) - math.lgamma(b))


def theorem_bound(
    regime: str,
    k: int,
    *,
    mu: float = 0.0,
    gamma: float = 0.0,
    c: Optional[float] = None,
    s: Optional[float] = None,
    F_norm: Optional[float] = None,
    E0: Optional[float] = None,
    E_K0: Optional[float] = None,
    dx0: Optional[float] = None,
    dy0: Optional[float] = None,
    form: str = "lyapunov",
) -> float:
    """Closed-form convergence bound of the given regime, evaluated at k.

    ``varying_sc``
        form "lyapunov": E(k) <= (1 + alpha) Gamma(k+2)/Gamma(k+2+alpha) E(0),
        needing mu, c, s, F_norm, E0.  The generalized factorial ratio
        (k+1)!/(k+1+alpha)! with real alpha is read through the Gamma
        function and evaluated in the log domain.
        form "trajectory": ||x_k - x*||^2 <=
        (1 + s||F||)/(1 - s||F||) (1 + alpha) Gamma(k+1)/Gamma(k+2+alpha)
        (dx0 + dy0/(c^2 s^2)), needing additionally dx0, dy0 — the squared
        initial distances.

    ``accelerated``
        ||x_k - x*||^2 <= 2 E(K0) / (c^2 k^2) for k >= K0 (NaN below K0,
        where no bound is asserted), needing mu, c, E_K0.

    ``optimal_ss``
        form "lyapunov": E(k) <= rho^k E(0), needing mu, gamma, s, F_norm, E0.
        form "trajectory": mu ||x_k - x*||^2 + gamma ||y_k - y*||^2 <=
        (1 + s||F||)/(1 - s||F||) rho^k (mu dx0 + gamma dy0).

    Raises NoMatchingLemma for the plain fixed regime (no closed-form rate)
    and ValueError when a needed constant is missing.
    """
    if form not in ("lyapunov", "trajectory"):
        raise ValueError(f"unknown bound form {form!r}")
    if regime == FIXED:
        raise NoMatchingLemma("the fixed regime has no closed-form rate guarantee")

    if regime == VARYING_SC:
        if c is None or s is None or F_norm is None:
            raise ValueError("varying_sc bound needs c, s and F_norm")
        if k < 0:
            raise ValueError("k must be >= 0")
        alpha = alpha_rate(mu, c, s, F_norm)
        if form == "lyapunov":
            if E0 is None:
                raise ValueError("varying_sc Lyapunov bound needs E0")
            return (1.0 + alpha) * _gamma_ratio(k + 2.0, k + 2.0 + alpha) * E0
        if dx0 is None or dy0 is None:
            raise ValueError("varying_sc trajectory bound needs dx0 and dy0")
        q = s * F_norm
        if q >= 1.0:
            raise ValueError("trajectory bound needs s * F_norm < 1")
        pref = (1.0 + q) / (1.0 - q)
        weight = dx0 + dy0 / (c**2 * s**2)
        return pref * (1.0 + alpha) * _gamma_ratio(k + 1.0, k + 2.0 + alpha) * weight

    if regime == ACCELERATED:
        if c is None or E_K0 is None:
            raise ValueError("accelerated bound needs c and E_K0")
        K0 = k0_threshold(mu, c)
        if k < K0:
            return float("nan")
        return 2.0 * E_K0 / (c**2 * k**2)

    if regime == OPTIMAL_SS:
        if s is None or F_norm is None:
            raise ValueError("optimal_ss bound needs s and F_norm")
        if k < 0:
            raise ValueError("k must be >= 0")
        rho = rho_rate(mu, gamma, s, F_norm)
        if form == "lyapunov":
            if E0 is None:
                raise ValueError("optimal_ss Lyapunov bound needs E0")
            return rho**k * E0
        if dx0 is None or dy0 is None:
            raise ValueError("optimal_ss trajectory bound needs dx0 and dy0")
        q = s * F_norm
        if q >= 1.0:
            raise ValueError("trajectory bound needs s * F_norm < 1")
        pref = (1.0 + q) / (1.0 - q)
        return pref * rho**k * (mu * dx0 + gamma * dy0)

    raise ValueError(f"unknown regime {regime!r}")


def lyapunov_table(
    trajectory: Trajectory, problem: SaddleProblem, saddle: PrimalDualPair
) -> LyapunovTable:
    """Evaluate the regime's Lyapunov diagnostics along a recorded trajectory.

    One walk over the records.  Each state's E and distances are evaluated
    once: E(k+1) of a record is E(k) of the next one when that record is its
    successor, so fresh post-state values are computed only for the last
    record and across ``record_every`` gaps.  The accelerated form needs the
    record of step k - 1; at the first iteration k_start it uses the
    convention 1/tau_0 := 0 with y_0 the run's init, and after a gap its
    E(k) and NE are nan.
    """
    sched = trajectory.schedule
    s, F = sched.s, problem.F
    accelerated = sched.regime == ACCELERATED
    nan = float("nan")

    def state(k, x, y, before):
        # (E(k), ||x - x*||^2, ||y - y*||^2) at (x_k, y_k); ``before`` is
        # the record of step k - 1, or None when it was not recorded.
        tau, sigma, _ = schedule_at(sched, k)
        if not accelerated:
            E = lyapunov_fixed(x, y, saddle, tau, sigma, F)
        elif before is not None:
            E = lyapunov_accelerated(x, before.x, before.y, saddle, tau, before.tau, s, F)
        elif k == sched.k_start:
            E = lyapunov_accelerated(x, x, trajectory.init.y, saddle, tau, None, s, F)
        else:
            E = nan
        dx = x - saddle.x
        dy = y - saddle.y
        return E, float(dx @ dx), float(dy @ dy)

    rows = []
    prev = post = None
    for rec in trajectory.records:
        before = prev if prev is not None and prev.k == rec.k - 1 else None
        pre = post if before is not None else state(rec.k, rec.x, rec.y, None)
        post = state(rec.k + 1, rec.x_next, rec.y_next, rec)
        if not accelerated:
            ne = numerical_error(
                rec.x_next - rec.x, rec.y_next - rec.y, rec.tau, rec.sigma, F
            )
        elif before is not None:
            ne = numerical_error(
                rec.x - before.x, rec.y - before.y, before.tau, s, F, accelerated=True
            )
        elif rec.k == sched.k_start:
            ne = numerical_error(
                np.zeros_like(rec.x), rec.y - trajectory.init.y, None, s, F,
                accelerated=True,
            )
        else:
            ne = nan
        rows.append((rec.k, pre[0], ne, pre[1], pre[2]) + post)
        prev = rec
    columns = tuple(zip(*rows)) if rows else ((),) * 8
    return LyapunovTable(*columns)


def lemma_records(
    regime: str,
    trajectory: Trajectory,
    problem: SaddleProblem,
    table: LyapunovTable,
    F_norm: Optional[float] = None,
) -> list[LyapunovRecord]:
    """:func:`check_lemma` on a precomputed :func:`lyapunov_table` of the
    trajectory; same preconditions, dispatch and result."""
    sched = trajectory.schedule
    if regime != sched.regime:
        raise ValueError(
            f"regime {regime!r} does not match the trajectory's schedule "
            f"({sched.regime!r})"
        )
    records = trajectory.records
    if not records:
        return []
    if F_norm is None:
        F_norm = operator_norm(problem.F)
    if sched.s * F_norm >= 1.0:
        raise ValueError(
            f"inadmissible trajectory: s * ||F|| = {sched.s * F_norm} >= 1; "
            "the descent lemmas assume s * ||F|| < 1"
        )

    mu, gamma = problem.mu, problem.gamma
    if regime == ACCELERATED:
        if mu <= 0:
            raise NoMatchingLemma("the accelerated lemma needs mu > 0")
        if records[0].k != sched.k_start:
            raise ValueError(
                "accelerated lemma checking needs the trajectory recorded from its "
                f"first iteration k = {sched.k_start}"
            )
        if any(b.k != a.k + 1 for a, b in zip(records, records[1:])):
            raise ValueError(
                "accelerated lemma checking needs consecutively recorded "
                "steps (record_every = 1)"
            )
    elif regime == VARYING_SC:
        if mu <= 0:
            raise NoMatchingLemma("the iteration-varying lemma needs mu > 0")
    elif regime in (FIXED, OPTIMAL_SS):
        if mu <= 0 or gamma <= 0:
            raise NoMatchingLemma(
                "fixed-step runs are covered only by the doubly-strongly-convex "
                "lemma, which needs mu > 0 and gamma > 0"
            )
    else:
        raise ValueError(f"unknown regime {regime!r}")

    out = []
    for rec, E_k, ne, E_n, dxn, dyn in zip(
        records, table.E, table.ne, table.E_next, table.dist_x_next, table.dist_y_next
    ):
        tau_k, sigma_k = rec.tau, rec.sigma
        tau_n, sigma_n, _ = schedule_at(sched, rec.k + 1)
        if regime == ACCELERATED:
            rhs = -(mu / tau_k + 1.0 / (2.0 * tau_k**2) - 1.0 / (2.0 * tau_n**2)) * dxn
        elif regime == VARYING_SC:
            rhs = (
                -(mu + 1.0 / (2.0 * tau_k) - 1.0 / (2.0 * tau_n)) * dxn
                - (1.0 / (2.0 * sigma_k) - 1.0 / (2.0 * sigma_n)) * dyn
            )
        else:
            rhs = -(mu * dxn + gamma * dyn)
        out.append(
            LyapunovRecord(
                k=rec.k, E=E_k, ne=ne, lemma_rhs=rhs, lemma_slack=rhs - (E_n - E_k)
            )
        )
    return out


def check_lemma(
    regime: str,
    trajectory: Trajectory,
    problem: SaddleProblem,
    saddle: PrimalDualPair,
    F_norm: Optional[float] = None,
) -> list[LyapunovRecord]:
    """Evaluate the regime's descent lemma along a recorded trajectory.

    Returns one LyapunovRecord per checkable transition, carrying
    lemma_slack = lemma_rhs - (E(k+1) - E(k)); a slack below
    -slack_tolerance(E(k)) invalidates the run.

    Dispatch: varying_sc -> iteration-varying lemma; accelerated ->
    accelerated lemma (needs consecutively recorded steps starting at
    k_start); optimal_ss, and fixed with both moduli positive -> the
    doubly-strongly-convex lemma.  A fixed-step run on a merely convex
    problem raises NoMatchingLemma.  The admissibility precondition
    s ||F|| < 1 is re-verified against a freshly computed operator norm;
    an inadmissible trajectory is refused outright.
    """
    table = lyapunov_table(trajectory, problem, saddle)
    return lemma_records(regime, trajectory, problem, table, F_norm)
