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
as columns, a block of rows at a time; :func:`lemma_records` reads that
table for the lemma's right-hand side and per-step slack, so checking a
lemma is those two calls in turn.  :func:`theorem_bound` is the one
source of each regime's closed-form convergence guarantee: it reads its
constants from the schedule, the problem and that table, and gives the
bound on every row.

All evaluators are pure functions of their arguments.  The Lyapunov and NE
evaluators take one state (and return a float) or stacked rows of states
with per-row step sizes (and return one value per row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Trajectory
from .problems import PrimalDualPair, SaddleProblem
from .schedules import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    Schedule,
    k0_threshold,
    schedule_at,
)


#: Entries per state array in one row block of :func:`lyapunov_table`
#: (128 KiB of doubles); it bounds the memory the block's temporaries take.
BLOCK_ELEMENTS = 2**14


class NoMatchingLemma(ValueError):
    """No descent lemma / rate guarantee covers the requested configuration.

    Raised, for example, when a fixed-step run on a merely convex problem is
    handed to :func:`lemma_records`: every available lemma needs at least one
    strong-convexity modulus.  Callers that merely report diagnostics should
    catch this and mark the check as skipped rather than failed.
    """


@dataclass(frozen=True, eq=False)
class LyapunovTable:
    """Diagnostics of one trajectory against one saddle, as columns aligned
    with the trajectory's rows (entry i describes the transition k -> k+1
    of row i): the regime's Lyapunov values E(k) and E(k+1), the
    numerical-error term NE, and the squared distances of the pre-state
    (x_k, y_k) and the post-state (x_{k+1}, y_{k+1}) to the saddle.
    Undefined entries are nan.
    """

    k: np.ndarray
    E: np.ndarray
    ne: np.ndarray
    dist_x: np.ndarray
    dist_y: np.ndarray
    E_next: np.ndarray
    dist_x_next: np.ndarray
    dist_y_next: np.ndarray


def _rowdot(a: np.ndarray, b: np.ndarray):
    """Inner product over the last axis: one per row for stacked vectors."""
    return np.einsum("...i,...i->...", a, b)


def _as_result(value):
    """A float for one state, the array for stacked rows."""
    return float(value) if np.ndim(value) == 0 else value


def _coupled_form(dx, dy, tau, sigma, F):
    """||dx||^2/(2 tau) + ||dy||^2/(2 sigma) - <F dx, dy>, per row."""
    return _rowdot(dx, dx) / (2.0 * tau) + _rowdot(dy, dy) / (2.0 * sigma) - _rowdot(dx @ F.T, dy)


def slack_tolerance(E_k: float) -> float:
    """Relative-absolute tolerance 1e-8 (1 + |E(k)|) on the lemma slack
    (elementwise for an array of E values).

    The inequalities are exact in exact arithmetic; this covers prox-solve
    and rounding error only.
    """
    return 1e-8 * (1.0 + abs(E_k))


def lyapunov_fixed(
    x_k: np.ndarray,
    y_k: np.ndarray,
    saddle: PrimalDualPair,
    tau,
    sigma,
    F: np.ndarray,
):
    """Fixed-step Lyapunov value at (x_k, y_k).

    Nonnegative whenever tau * sigma = s^2 and s ||F|| < 1, with the sandwich
    (1 - s||F||)/2 * (||dx||^2/tau + ||dy||^2/sigma) <= E <= (1 + s||F||)/2 * (same).
    Stacked rows (R, d) take step sizes of shape (R,) and give R values.
    """
    if np.any(tau <= 0) or np.any(sigma <= 0):
        raise ValueError("step sizes must be positive")
    return _as_result(_coupled_form(x_k - saddle.x, y_k - saddle.y, tau, sigma, F))


def lyapunov_accelerated(
    x_k: np.ndarray,
    x_prev: np.ndarray,
    y_prev: np.ndarray,
    saddle: PrimalDualPair,
    tau_k,
    tau_prev,
    s: float,
    F: np.ndarray,
):
    """Accelerated Lyapunov value at index k.

    ``y_prev`` is y_{k-1} — the accelerated function pairs the current primal
    iterate with the previous dual one.  ``tau_prev = None`` encodes the
    1/tau_0 := 0 convention at k = 1: both terms carrying tau_{k-1} vanish.
    Bounded below by ||x_k - x*||^2/(2 tau_k^2) under tau_{k+1} sigma_k = s^2
    and s ||F|| < 1.  Stacked rows take per-row ``tau_k`` and ``tau_prev``.
    """
    if np.any(tau_k <= 0) or s <= 0:
        raise ValueError("tau_k and s must be positive")
    dx = x_k - saddle.x
    dy = y_prev - saddle.y
    value = _rowdot(dx, dx) / (2.0 * tau_k**2) + _rowdot(dy, dy) / (2.0 * s**2)
    if tau_prev is not None:
        if np.any(tau_prev <= 0):
            raise ValueError("tau_prev must be positive (or None for 1/tau_0 := 0)")
        step = x_k - x_prev
        value += _rowdot(step @ F.T, dy) / tau_prev + _rowdot(step, step) / (2.0 * tau_prev**2)
    return _as_result(value)


def numerical_error(
    dx: np.ndarray,
    dy: np.ndarray,
    tau,
    sigma,
    F: np.ndarray,
    accelerated: bool = False,
):
    """Numerical-error term NE of the implicit discretization.

    Fixed/varying form (default):

        NE = ||dx||^2/(2 tau) + ||dy||^2/(2 sigma) - <F dx, dy>

    Accelerated form (``accelerated=True``, where ``tau`` is tau_{k-1} and
    ``sigma`` plays the role of s):

        NE = ||dx||^2/(2 tau^2) - <F dx, dy>/tau + ||dy||^2/(2 s^2)

    with ``tau = None`` encoding 1/tau_0 := 0 (only the dy term survives).
    Nonnegative whenever the step sizes obey the regime's coupling to s^2 and
    s ||F|| < 1; exactly zero on the admissibility boundary s ||F|| = 1 for
    aligned displacements.  Stacked displacement rows take per-row step
    sizes.
    """
    if np.any(sigma <= 0):
        raise ValueError("sigma (or s) must be positive")
    if accelerated:
        value = _rowdot(dy, dy) / (2.0 * sigma**2)
        if tau is not None:
            if np.any(tau <= 0):
                raise ValueError("tau must be positive (or None for 1/tau_0 := 0)")
            value += _rowdot(dx, dx) / (2.0 * tau**2) - _rowdot(dx @ F.T, dy) / tau
        return _as_result(value)
    if tau is None or np.any(tau <= 0):
        raise ValueError("tau must be positive")
    return _as_result(_coupled_form(dx, dy, tau, sigma, F))


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


def _sandwich(s: float, F_norm: float) -> float:
    """(1 + s||F||)/(1 - s||F||): the Lyapunov sandwich's distance factor."""
    q = s * F_norm
    if q >= 1.0:
        raise ValueError("trajectory bound needs s * F_norm < 1")
    return (1.0 + q) / (1.0 - q)


def _lgamma(a: np.ndarray) -> np.ndarray:
    """math.lgamma elementwise, without holding an array of Python floats."""
    return np.fromiter(map(math.lgamma, np.ravel(a)), float).reshape(np.shape(a))


def theorem_bound(
    schedule: Schedule, problem: SaddleProblem, table: LyapunovTable
) -> tuple[np.ndarray, np.ndarray]:
    """The closed-form convergence bound of the schedule's regime, one value
    per row of ``table``, as ``(bound, trajectory)``.

    Every constant is read from its source: regime, s and c from
    ``schedule``; mu, gamma and ||F|| from ``problem``; E(0) and the squared
    initial distances dx0, dy0 from the table's row k = 0, and E(K0) from
    its row K0.

    ``varying_sc``
        bound: E(k) <= (1 + alpha) Gamma(k+2)/Gamma(k+2+alpha) E(0), the
        generalized factorial ratio (k+1)!/(k+1+alpha)! read through the
        Gamma function in the log domain.  trajectory: ||x_k - x*||^2 <=
        (1 + s||F||)/(1 - s||F||) (1 + alpha) Gamma(k+1)/Gamma(k+2+alpha)
        (dx0 + dy0/(c^2 s^2)), at each row's pre-state.

    ``accelerated``
        ||x_k - x*||^2 <= 2 E(K0) / (c^2 k^2) for k >= K0, NaN below K0,
        where no bound is asserted; bound and trajectory are one array.

    ``optimal_ss``
        bound: E(k) <= rho^k E(0).  trajectory: mu ||x_{k+1} - x*||^2 +
        gamma ||y_{k+1} - y*||^2 <= (1 + s||F||)/(1 - s||F||) rho^(k+1)
        (mu dx0 + gamma dy0), at each row's post-state.

    Raises NoMatchingLemma for the fixed regime (no closed-form rate), for
    a run not recorded from k = 0 (or with no E(0)), and for an accelerated
    table without E(K0).
    """
    regime, k, mu = schedule.regime, table.k, problem.mu
    if regime == FIXED:
        raise NoMatchingLemma("fixed regime has no closed-form rate guarantee")
    if regime == ACCELERATED:
        K0 = k0_threshold(mu, schedule.c)
        at = np.flatnonzero((k == K0) & ~np.isnan(table.E))
        if not at.size:
            raise NoMatchingLemma(
                f"E(K0) unavailable: no Lyapunov value at K0={K0}, last k={k[-1]}"
            )
        E_K0 = float(table.E[at[0]])
        k_sq = np.square(np.maximum(k, K0), dtype=float)  # K0 >= 1: no division by zero
        bound = np.where(k < K0, np.nan, 2.0 * E_K0 / (np.float64(schedule.c) ** 2 * k_sq))
        return bound, bound
    if k[0] != 0 or math.isnan(table.E[0]):
        raise NoMatchingLemma("bound constants unavailable (run not recorded from its start)")
    E0, dx0, dy0 = float(table.E[0]), float(table.dist_x[0]), float(table.dist_y[0])
    s, F_norm = schedule.s, problem.F_norm
    if regime == VARYING_SC:
        c = schedule.c
        alpha = alpha_rate(mu, c, s, F_norm)
        lg = _lgamma(k + 2.0 + alpha)
        bound = (1.0 + alpha) * np.exp(_lgamma(k + 2.0) - lg) * E0
        # numpy's power overflows to inf (and the term to 0) where float ** raises
        weight = dx0 + dy0 / (np.float64(c) ** 2 * s**2)
        trajectory = _sandwich(s, F_norm) * (1.0 + alpha) * np.exp(_lgamma(k + 1.0) - lg) * weight
        return bound, trajectory
    if regime == OPTIMAL_SS:
        gamma = problem.gamma
        rho = rho_rate(mu, gamma, s, F_norm)
        trajectory = _sandwich(s, F_norm) * rho ** (k + 1) * (mu * dx0 + gamma * dy0)
        return rho**k * E0, trajectory
    raise ValueError(f"unknown regime {regime!r}")


def _sq_dist(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return _rowdot(diff, diff)


def lyapunov_table(
    trajectory: Trajectory, problem: SaddleProblem, saddle: PrimalDualPair
) -> LyapunovTable:
    """Evaluate the regime's Lyapunov diagnostics along a recorded trajectory.

    Rows are evaluated in blocks of about BLOCK_ELEMENTS entries per state
    array, so the working set stays small.  E(k+1) is evaluated for every
    row.  The accelerated E(k) and NE need the row of step k - 1: where the
    rows are consecutive they are the previous row's E(k+1) and its
    transition's NE; at the first iteration k_start they use the convention
    1/tau_0 := 0 with y_0 the run's init, and after a gap they are nan.
    """
    t = trajectory
    sched = t.schedule
    s, F = sched.s, problem.F
    accelerated = sched.regime == ACCELERATED
    tau_n, sigma_n, _ = schedule_at(sched, t.k + 1)
    rows = len(t.k)
    E, ne, E_next, dist_x, dist_y, dist_x_next, dist_y_next = np.empty((7, rows))
    step = max(1, BLOCK_ELEMENTS // max(problem.d1, problem.d2))
    for lo in range(0, rows, step):
        b = slice(lo, lo + step)
        x, y, x_next, y_next, tau = t.x[b], t.y[b], t.x_next[b], t.y_next[b], t.tau[b]
        dist_x[b], dist_y[b] = _sq_dist(x, saddle.x), _sq_dist(y, saddle.y)
        dist_x_next[b], dist_y_next[b] = _sq_dist(x_next, saddle.x), _sq_dist(y_next, saddle.y)
        if accelerated:
            E_next[b] = lyapunov_accelerated(x_next, x, y, saddle, tau_n[b], tau, s, F)
            # the NE of the following row
            ne[b] = numerical_error(x_next - x, y_next - y, tau, s, F, accelerated=True)
        else:
            E[b] = lyapunov_fixed(x, y, saddle, tau, t.sigma[b], F)
            E_next[b] = lyapunov_fixed(x_next, y_next, saddle, tau_n[b], sigma_n[b], F)
            ne[b] = numerical_error(x_next - x, y_next - y, tau, t.sigma[b], F)
    if accelerated:
        follows = np.zeros(rows, dtype=bool)
        follows[1:] = t.k[1:] == t.k[:-1] + 1
        E = np.where(follows, np.roll(E_next, 1), np.nan)
        ne = np.where(follows, np.roll(ne, 1), np.nan)
        if t.k[0] == sched.k_start:
            x0 = t.x[0]
            E[0] = lyapunov_accelerated(x0, x0, t.init.y, saddle, t.tau[0], None, s, F)
            ne[0] = numerical_error(
                np.zeros_like(x0), t.y[0] - t.init.y, None, s, F, accelerated=True
            )
    return LyapunovTable(
        k=t.k, E=E, ne=ne, dist_x=dist_x, dist_y=dist_y,
        E_next=E_next, dist_x_next=dist_x_next, dist_y_next=dist_y_next,
    )


def lemma_records(
    trajectory: Trajectory,
    problem: SaddleProblem,
    table: LyapunovTable,
) -> tuple[np.ndarray, np.ndarray]:
    """The descent lemma of the trajectory's regime (read from its
    schedule) along the recorded steps, on its precomputed
    :func:`lyapunov_table`.

    Returns ``(lemma_rhs, lemma_slack)`` per row: the lemma's right-hand
    side and the slack lemma_slack = lemma_rhs - (E(k+1) - E(k)); a slack
    below -slack_tolerance(table.E) invalidates the run.

    Dispatch: varying_sc -> iteration-varying lemma; accelerated ->
    accelerated lemma (needs consecutively recorded steps starting at
    k_start); optimal_ss, and fixed with both moduli positive -> the
    doubly-strongly-convex lemma.  A fixed-step run on a merely convex
    problem raises NoMatchingLemma.  The admissibility precondition
    s ||F|| < 1 is re-verified against the problem's exact ``F_norm``;
    an inadmissible trajectory is refused outright.
    """
    sched = trajectory.schedule
    regime = sched.regime
    if sched.s * problem.F_norm >= 1.0:
        raise ValueError(
            f"inadmissible trajectory: s * ||F|| = {sched.s * problem.F_norm} >= 1; "
            "the descent lemmas assume s * ||F|| < 1"
        )

    k = trajectory.k
    mu, gamma = problem.mu, problem.gamma
    if regime == ACCELERATED:
        if mu <= 0:
            raise NoMatchingLemma("the accelerated lemma needs mu > 0")
        if k[0] != sched.k_start:
            raise ValueError(
                "accelerated lemma checking needs the trajectory recorded from its "
                f"first iteration k = {sched.k_start}"
            )
        if np.any(np.diff(k) != 1):
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

    tau_k, sigma_k = trajectory.tau, trajectory.sigma
    tau_n, sigma_n, _ = schedule_at(sched, k + 1)
    dxn, dyn = table.dist_x_next, table.dist_y_next
    if regime == ACCELERATED:
        rhs = -(mu / tau_k + 1.0 / (2.0 * tau_k**2) - 1.0 / (2.0 * tau_n**2)) * dxn
    elif regime == VARYING_SC:
        rhs = (
            -(mu + 1.0 / (2.0 * tau_k) - 1.0 / (2.0 * tau_n)) * dxn
            - (1.0 / (2.0 * sigma_k) - 1.0 / (2.0 * sigma_n)) * dyn
        )
    else:
        rhs = -(mu * dxn + gamma * dyn)
    return rhs, rhs - (table.E_next - table.E)
