"""Lyapunov diagnostics for PDHG runs.

Three discrete Lyapunov functions are evaluated, one per analysis regime:

* fixed steps:      E(k) = ||x_k - x*||^2/(2 tau) + ||y_k - y*||^2/(2 sigma)
                           - <F (x_k - x*), y_k - y*>
* varying steps:    same form with (tau_k, sigma_k), the step sizes of
                    iteration k
* accelerated:      E(k) = ||x_k - x*||^2/(2 tau_k^2) + ||y_{k-1} - y*||^2/(2 s^2)
                           + <F (x_k - x_{k-1}), y_{k-1} - y*>/tau_{k-1}
                           + ||x_k - x_{k-1}||^2/(2 tau_{k-1}^2)

Each regime's descent lemma bounds E(k+1) - E(k) by an explicit nonpositive
(or sign-determined) right-hand side.  :class:`TableAccumulator` evaluates
the Lyapunov values, NE terms and saddle distances as columns, one step
block's rows at a time, as the block observer a run hands its states to;
a row's values do not depend on the block it comes in.  Both results are
read from that table as :class:`Claim` records, each a measured column that
must stay under a bound column:
:func:`lemma_records` states the descent lemma, E(k+1) - E(k) under its
right-hand side, and :func:`theorem_bound`, the one source of each regime's
closed-form convergence guarantee, reads its constants from the problem
and that table, which holds its schedule, and states the theorem as a list
of claims.

All evaluators are pure functions of their arguments.  The Lyapunov and NE
evaluators take one state (and return a float) or stacked rows of states
with per-row step sizes (and return one value per row); the coupling ``F``
is a :mod:`~pdhglab.problems` operator, whose ``apply`` serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import PrimalDualPair, SaddleProblem
from .rates import contraction_factors
from .schedules import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    Schedule,
    k0_threshold,
    schedule_at,
)


class NoMatchingLemma(ValueError):
    """No descent lemma / rate guarantee covers the requested configuration.

    Raised, for example, when a fixed-step run on a merely convex problem is
    handed to :func:`lemma_records`: every available lemma needs at least one
    strong-convexity modulus.  Callers that merely report diagnostics should
    catch this and mark the check as skipped rather than failed.
    """


@dataclass(frozen=True, eq=False)
class LyapunovTable:
    """Diagnostics of one run under ``schedule`` against one saddle, as
    columns aligned by row (entry i describes the transition k -> k+1 of
    row i, whose steps are ``schedule_at(schedule, k)``): the regime's
    Lyapunov values E(k) and E(k+1), the numerical-error term NE, and the
    squared distances of the pre-state (x_k, y_k) and the post-state
    (x_{k+1}, y_{k+1}) to the saddle.  Undefined entries are nan.
    ``dist_x_floor`` = ||eps max(|x*|, |x_K|)||^2 and ``dist_y_floor`` are
    what rounding alone can put between the final post-state (x_K, y_K)
    and the saddle, eps the machine epsilon.
    """

    schedule: Schedule
    k: np.ndarray
    E: np.ndarray
    ne: np.ndarray
    dist_x: np.ndarray
    dist_y: np.ndarray
    E_next: np.ndarray
    dist_x_next: np.ndarray
    dist_y_next: np.ndarray
    dist_x_floor: float
    dist_y_floor: float


@dataclass(frozen=True, eq=False)
class Claim:
    """One "measured <= bound" claim of a lemma or theorem on the table rows
    it covers, whose indices are ``k``: it fails at a row where
    measured > bound (1 + rtol) + atol.  ``atol`` is one float or one per
    row."""

    name: str
    k: np.ndarray
    measured: np.ndarray
    bound: np.ndarray
    rtol: float = 0.0
    atol: float | np.ndarray = 0.0


@dataclass(frozen=True, eq=False)
class Theorem:
    """A regime's theorem on one table: its claims, in the order they are
    checked, and ``bound``, the trajectory CSV's bound column."""

    claims: tuple[Claim, ...]
    bound: np.ndarray


def _rowdot(a: np.ndarray, b: np.ndarray):
    """Inner product over the last axis: one per row for stacked vectors,
    each with the bits of its own call.  numpy sums a row of more than 8192
    entries in buffered chunks among other rows and in one pass alone, so
    such rows are taken one at a time."""
    if a.ndim > 1 and a.shape[-1] > 8192:
        return np.array([_rowdot(u, v) for u, v in zip(*np.broadcast_arrays(a, b))])
    return np.einsum("...i,...i->...", a, b)


def _sq_dist(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    diff = points - center
    return _rowdot(diff, diff)


def _as_result(value):
    """A float for one state, the array for stacked rows."""
    return float(value) if np.ndim(value) == 0 else value


def _coupled_form(dx, dy, tau, sigma, F, dx_sq=None, dy_sq=None):
    """||dx||^2/(2 tau) + ||dy||^2/(2 sigma) - <F dx, dy>, per row, given
    the squared norms ``dx_sq`` and ``dy_sq`` where the caller has them."""
    if dx_sq is None:
        dx_sq, dy_sq = _rowdot(dx, dx), _rowdot(dy, dy)
    # at extreme steps a term leaves the double range: the value is inf or nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return dx_sq / (2.0 * tau) + dy_sq / (2.0 * sigma) - _rowdot(F.apply(dx), dy)


def slack_tolerance(E_k: float) -> float:
    """Relative-absolute tolerance 1e-8 (1 + |E(k)|) on the lemma slack
    (elementwise for an array of E values).

    The inequalities are exact in exact arithmetic; this covers prox-solve
    and rounding error only.
    """
    return 1e-8 * (1.0 + abs(E_k))


def lyapunov_accelerated(
    x_k: np.ndarray,
    x_prev: np.ndarray,
    y_prev: np.ndarray,
    saddle: PrimalDualPair,
    tau_k,
    tau_prev,
    s: float,
    F,
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
    if tau_prev is not None and np.any(tau_prev <= 0):
        raise ValueError("tau_prev must be positive (or None for 1/tau_0 := 0)")
    dy = y_prev - saddle.y
    # at extreme moduli tau_k**2 overflows or underflows: the value is inf or nan
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = _sq_dist(x_k, saddle.x) / (2.0 * tau_k**2) + _rowdot(dy, dy) / (2.0 * s**2)
        if tau_prev is not None:
            step = x_k - x_prev
            value += _rowdot(F.apply(step), dy) / tau_prev + _rowdot(step, step) / (2.0 * tau_prev**2)
    return _as_result(value)


def numerical_error(
    dx: np.ndarray,
    dy: np.ndarray,
    tau,
    sigma,
    F,
    accelerated: bool = False,
):
    """Numerical-error term NE of the implicit discretization.

    Fixed/varying form (default):

        NE = ||dx||^2/(2 tau) + ||dy||^2/(2 sigma) - <F dx, dy>

    the coupled form of E(k): at dx = x_k - x*, dy = y_k - y* and the steps
    (tau_k, sigma_k) of iteration k it is the fixed and varying E(k).  Under
    tau sigma = s^2 it lies between (1 - s||F||)/2 and (1 + s||F||)/2 times
    ||dx||^2/tau + ||dy||^2/sigma.

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
        if tau is not None and np.any(tau <= 0):
            raise ValueError("tau must be positive (or None for 1/tau_0 := 0)")
        # as in lyapunov_accelerated, tau**2 may leave the double range
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = _rowdot(dy, dy) / (2.0 * sigma**2)
            if tau is not None:
                value += _rowdot(dx, dx) / (2.0 * tau**2) - _rowdot(F.apply(dx), dy) / tau
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


def theorem_bound(problem: SaddleProblem, table: LyapunovTable) -> Theorem:
    """The closed-form convergence theorem of the table's regime on its
    rows.

    Every constant is read from its source: regime, s and c from the
    table's schedule; mu, gamma and ||F|| from ``problem``; E(0) and the
    squared initial distances dx0, dy0 from the table's row k = 0, and E(K0)
    from its row K0.  The claims, with q = s||F||:

    ``varying_sc``, every row, rtol 1e-6
        "Lyapunov bound" E(k) <= (1 + alpha) Gamma(k+2)/Gamma(k+2+alpha)
        E(0), the generalized factorial ratio (k+1)!/(k+1+alpha)! read in
        the log domain; "trajectory bound" ||x_k - x*||^2 <= (1 + q)/(1 - q)
        (1 + alpha) Gamma(k+1)/Gamma(k+2+alpha) (dx0 + dy0/(c^2 s^2)).
    ``accelerated``, the rows k >= K0, rtol 1e-6
        "O(1/k^2) bound" ||x_k - x*||^2 <= 2 E(K0) / (c^2 k^2).
    ``optimal_ss``
        "contraction": the per-step ratios of :func:`contraction_factors`
        on the (k, E) rows, which stop at the first E below its
        TRUNCATION_FLOOR, are at most rho, atol 1e-8; a ratio sits at the
        k of its first row.  "terminal sandwich" mu ||x_K - x*||^2 +
        gamma ||y_K - y*||^2 <= (1 + q)/(1 - q) rho^K (mu dx0 + gamma dy0)
        at the final post-state K = last k + 1, rtol 1e-9, atol the
        rounding floor mu dist_x_floor + gamma dist_y_floor.

    The CSV bound is the first claim's bound (nan below K0), and for
    ``optimal_ss`` rho^k E(0), which no claim checks.

    Raises NoMatchingLemma for the fixed regime (no closed-form rate), for
    a run not recorded from k = 0 (or with no E(0)), and for an accelerated
    table without E(K0).
    """
    schedule, k, mu = table.schedule, table.k, problem.mu
    regime = schedule.regime
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
        # c**2 past the double range, or c**2 = 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            bound = np.where(k < K0, np.nan, 2.0 * E_K0 / (np.float64(schedule.c) ** 2 * k_sq))
        after = k >= K0
        claim = Claim("O(1/k^2) bound", k[after], table.dist_x[after], bound[after], rtol=1e-6)
        return Theorem((claim,), bound)
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
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            weight = dx0 + dy0 / (np.float64(c) ** 2 * s**2)
        trajectory = _sandwich(s, F_norm) * (1.0 + alpha) * np.exp(_lgamma(k + 1.0) - lg) * weight
        claims = (
            Claim("Lyapunov bound", k, table.E, bound, rtol=1e-6),
            Claim("trajectory bound", k, table.dist_x, trajectory, rtol=1e-6),
        )
        return Theorem(claims, bound)
    if regime == OPTIMAL_SS:
        gamma = problem.gamma
        rho = rho_rate(mu, gamma, s, F_norm)
        try:
            ratios = contraction_factors(k, table.E).ratios
        except ValueError:  # fewer than two rows above the floor
            ratios = np.empty(0)
        rows = k[: len(ratios)]
        K = k[-1:] + 1
        weighted = mu * table.dist_x_next[-1:] + gamma * table.dist_y_next[-1:]
        sandwich = _sandwich(s, F_norm) * rho**K * (mu * dx0 + gamma * dy0)
        floor = mu * table.dist_x_floor + gamma * table.dist_y_floor
        claims = (
            Claim("contraction", rows, ratios, np.full(len(rows), rho), atol=1e-8),
            Claim("terminal sandwich", K, weighted, sandwich, rtol=1e-9, atol=floor),
        )
        return Theorem(claims, rho**k * E0)
    raise ValueError(f"unknown regime {regime!r}")


@np.errstate(over="ignore")  # past ~1e170 the floor is inf: rounding allows any distance
def _rounding_floor(a: np.ndarray, b: np.ndarray) -> float:
    """||eps max(|a|, |b|)||^2: the squared distance between a and b that
    rounding alone can give."""
    scale = np.finfo(float).eps * np.maximum(np.abs(a), np.abs(b))
    return float(scale @ scale)


class TableAccumulator:
    """The :class:`LyapunovTable` of one run of at most ``rows`` rows,
    filled a block of rows at a time: the block observer
    :func:`~pdhglab.engine.run` hands its states to.

    Each call takes the consecutive rows ``(k, x, y, x_next, y_next)`` of
    one step block and fills the table's columns for them, each row with
    the bits it has in any other block; :meth:`table` returns the table of
    every row seen.  A hand-over is valid only during the call; of its
    states only the last post-state is kept, a copy, which after the run's
    last block is the run's final state.  The columns, ``k`` among them,
    are reserved once, for ``rows`` rows, and a reservation that fails
    raises MemoryError; the block bounds the memory the call's temporaries
    take.  The step sizes of row k are read from ``schedule``.

    Each row's post-state values are evaluated: the squared distances of
    (x_{k+1}, y_{k+1}), and E(k+1), which takes its squared norms from
    them.  A row whose k follows the previous row's, in its block or the
    one before, copies its pre-state values, E(k) and the distances of
    (x_k, y_k), from that row's post-state ones, which measure the same
    state; so they are evaluated only for a run's first row and after a
    gap.  The accelerated E(k) and NE need the row of step k - 1: where
    the rows are consecutive they are the previous row's E(k+1) and its
    transition's NE; at the first iteration k_start they use the
    convention 1/tau_0 := 0 with y_0 = ``init.y``, and after a gap they are
    nan.
    """

    def __init__(
        self, schedule: Schedule, problem: SaddleProblem, saddle: PrimalDualPair,
        init: PrimalDualPair, rows: int,
    ):
        self._schedule, self._F, self._saddle, self._init = schedule, problem.F, saddle, init
        try:
            self._k = np.empty(rows, dtype=np.int64)
            # the pre-state E, dist_x, dist_y, the post-state E_next, dist_x_next,
            # dist_y_next, and ne
            self._columns = np.empty((7, rows))
        except (MemoryError, ValueError) as exc:  # ValueError: past numpy's dimension limit
            raise MemoryError(f"a Lyapunov table of {rows} rows cannot be reserved ({exc})") from exc
        self._rows = 0
        self._final = None  # the last post-state seen
        self._last_ne = math.nan  # accelerated: the NE of the last row's transition

    def _state_values(self, x, y, tau, sigma):
        """E and the squared distances to the saddle of the stacked states
        (x, y) at steps (tau, sigma), E taking its squared norms from the
        distances; the accelerated E, which needs the previous state, is
        nan."""
        saddle = self._saddle
        dx, dy = x - saddle.x, y - saddle.y
        dist_x, dist_y = _rowdot(dx, dx), _rowdot(dy, dy)
        if self._schedule.regime == ACCELERATED:
            return math.nan, dist_x, dist_y
        return _coupled_form(dx, dy, tau, sigma, self._F, dist_x, dist_y), dist_x, dist_y

    def __call__(self, k, x, y, x_next, y_next) -> None:
        sched, F, saddle = self._schedule, self._F, self._saddle
        accelerated = sched.regime == ACCELERATED
        columns, lo, hi = self._columns, self._rows, self._rows + len(k)
        E, dist_x, dist_y, E_next, dist_x_next, dist_y_next, ne = columns[:, lo:hi]
        tau, sigma, _ = schedule_at(sched, k)
        tau_n, sigma_n, _ = schedule_at(sched, k + 1)
        E_next[:], dist_x_next[:], dist_y_next[:] = self._state_values(
            x_next, y_next, tau_n, sigma_n
        )
        if accelerated:
            E_next[:] = lyapunov_accelerated(x_next, x, y, saddle, tau_n, tau, sched.s, F)
        follows = np.empty(len(k), dtype=bool)
        follows[0] = lo > 0 and k[0] == self._k[lo - 1] + 1
        follows[1:] = k[1:] == k[:-1] + 1
        after = np.flatnonzero(follows) + lo
        columns[:3, after] = columns[3:6, after - 1]
        fresh = np.flatnonzero(~follows)
        if fresh.size:
            E[fresh], dist_x[fresh], dist_y[fresh] = self._state_values(
                x[fresh], y[fresh], tau[fresh], sigma[fresh]
            )
        if not accelerated:
            ne[:] = numerical_error(x_next - x, y_next - y, tau, sigma, F)
        else:
            transition = numerical_error(x_next - x, y_next - y, tau, sched.s, F, accelerated=True)
            ne[:] = np.where(follows, np.concatenate(([self._last_ne], transition[:-1])), math.nan)
            self._last_ne = transition[-1]
            if lo == 0 and k[0] == sched.k_start:
                x0, init_y = x[0], self._init.y
                E[0] = lyapunov_accelerated(x0, x0, init_y, saddle, tau[0], None, sched.s, F)
                ne[0] = numerical_error(
                    np.zeros_like(x0), y[0] - init_y, None, sched.s, F, accelerated=True
                )
        self._k[lo:hi] = k
        self._rows, self._final = hi, (x_next[-1].copy(), y_next[-1].copy())

    def table(self) -> LyapunovTable:
        """The table of the rows seen, its floors taken at the last
        post-state; ValueError if no block was handed over."""
        if self._final is None:
            raise ValueError("the Lyapunov table has no rows: no block was handed over")
        E, dist_x, dist_y, E_next, dist_x_next, dist_y_next, ne = self._columns[:, : self._rows]
        saddle, (x_K, y_K) = self._saddle, self._final
        return LyapunovTable(
            schedule=self._schedule, k=self._k[: self._rows], E=E, ne=ne,
            dist_x=dist_x, dist_y=dist_y,
            E_next=E_next, dist_x_next=dist_x_next, dist_y_next=dist_y_next,
            dist_x_floor=_rounding_floor(saddle.x, x_K),
            dist_y_floor=_rounding_floor(saddle.y, y_K),
        )


def lemma_records(problem: SaddleProblem, table: LyapunovTable) -> Claim:
    """The descent lemma of the table's regime (read from its schedule)
    along its rows.

    Returns the "descent lemma" :class:`Claim` on every row: the measured
    E(k+1) - E(k) stays under the bound, the lemma's right-hand side, up to
    the per-row atol slack_tolerance(table.E).  Its slack is bound -
    measured.

    Dispatch: varying_sc -> iteration-varying lemma; accelerated ->
    accelerated lemma (needs consecutively recorded steps starting at
    k_start); optimal_ss, and fixed with both moduli positive -> the
    doubly-strongly-convex lemma.  A fixed-step run on a merely convex
    problem raises NoMatchingLemma.  The admissibility precondition
    s ||F|| < 1 is re-verified against the problem's exact ``F_norm``;
    an inadmissible trajectory is refused outright.
    """
    sched = table.schedule
    regime = sched.regime
    if sched.s * problem.F_norm >= 1.0:
        raise ValueError(
            f"inadmissible trajectory: s * ||F|| = {sched.s * problem.F_norm} >= 1; "
            "the descent lemmas assume s * ||F|| < 1"
        )

    k = table.k
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

    tau_k, sigma_k, _ = schedule_at(sched, k)
    tau_n, sigma_n, _ = schedule_at(sched, k + 1)
    dxn, dyn = table.dist_x_next, table.dist_y_next
    # At extreme moduli the steps' squares and the E values leave the double
    # range: an inf or nan row fails its verdict.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if regime == ACCELERATED:
            rhs = -(mu / tau_k + 1.0 / (2.0 * tau_k**2) - 1.0 / (2.0 * tau_n**2)) * dxn
        elif regime == VARYING_SC:
            rhs = (
                -(mu + 1.0 / (2.0 * tau_k) - 1.0 / (2.0 * tau_n)) * dxn
                - (1.0 / (2.0 * sigma_k) - 1.0 / (2.0 * sigma_n)) * dyn
            )
        else:
            rhs = -(mu * dxn + gamma * dyn)
        measured = table.E_next - table.E
    return Claim("descent lemma", k, measured, rhs, atol=slack_tolerance(table.E))
