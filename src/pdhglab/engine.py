"""The primal-dual hybrid gradient iteration.

One iteration at index k maps (x_k, y_k) to (x_{k+1}, y_{k+1}) through a
proximal descent step on f, an extrapolation, and a proximal ascent step
on g*:

    x_{k+1}    = prox_{tau_k f}(x_k - tau_k F^T y_k)
    xbar_{k+1} = x_{k+1} + theta_k (x_{k+1} - x_k)
    y_{k+1}    = prox_{sigma_k g*}(y_k + sigma_k F xbar_{k+1})

The prox-composed form is an exact rewrite of the defining argmin/argmax
subproblems; the equivalence is itself a tested property.

:func:`run` drives the iteration under a :class:`~pdhglab.schedules.Schedule`
and records a :class:`Trajectory`: one row per recorded step, stored as
columns.  The residuals of each row are fixed-point displacement residuals

    primal: || (x_k - x_{k+1}) / tau_k  - F^T (y_k - y_{k+1}) ||
    dual:   || (y_k - y_{k+1}) / sigma_k - theta_k F (x_k - x_{k+1}) ||

which both vanish exactly at a saddle point and, for smooth terms, equal the
norms of the stationarity gaps || grad f(x_{k+1}) + F^T y_{k+1} || and
|| grad g*(y_{k+1}) - F x_{k+1} ||-like quantities up to the displacement
scaling.  :func:`optimality_residual` evaluates the exact per-step inclusion
residuals instead (zero for exact prox oracles, regardless of distance to the
saddle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import PrimalDualPair, SaddleProblem, _norm, inclusion_residuals
from .schedules import ACCELERATED, Schedule, schedule_at

TERMINATION_BUDGET = "budget"
TERMINATION_RESIDUAL = "residual_tol"
TERMINATION_DIVERGENCE = "divergence_guard"

#: Abort threshold on ||x_k|| + ||y_k||; inadmissible configurations must
#: fail loudly instead of hanging.
DIVERGENCE_GUARD = 1e12


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded steps of one solver run, as columns aligned by row.

    Row i is the transition k[i] -> k[i] + 1: the step sizes ``tau``,
    ``sigma``, ``theta`` and displacement residuals of that step, each of
    shape (R,), and the pre-state ``x``, ``y`` and post-state ``x_next``,
    ``y_next``, each of shape (R, d).

    ``init`` is the user-supplied starting pair.  For the accelerated
    regime the engine performs a preparatory dual half-step before the
    recorded iterations begin (see :func:`run`), so ``init.y`` precedes
    the first row's pre-state dual variable.
    """

    k: np.ndarray
    tau: np.ndarray
    sigma: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    x_next: np.ndarray
    y_next: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    init: PrimalDualPair
    schedule: Schedule
    termination: str

    @property
    def final(self) -> PrimalDualPair:
        return PrimalDualPair(x=self.x_next[-1], y=self.y_next[-1])


def pdhg_step(
    problem: SaddleProblem,
    x_k: np.ndarray,
    y_k: np.ndarray,
    tau_k: float,
    sigma_k: float,
    theta_k: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance one iteration; returns (x_{k+1}, y_{k+1})."""
    if tau_k <= 0 or sigma_k <= 0:
        raise ValueError("step sizes must be positive")
    if not 0.0 <= theta_k <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    x_next = problem.prox_f(x_k - tau_k * (problem.F.T @ y_k), tau_k)
    x_bar = x_next + theta_k * (x_next - x_k)
    y_next = problem.prox_gstar(y_k + sigma_k * (problem.F @ x_bar), sigma_k)
    return x_next, y_next


def step_residuals(
    F: np.ndarray,
    x_k: np.ndarray,
    y_k: np.ndarray,
    x_next: np.ndarray,
    y_next: np.ndarray,
    tau_k: float,
    sigma_k: float,
    theta_k: float,
) -> tuple[float, float]:
    """Displacement (fixed-point) residuals of one transition."""
    dx = x_k - x_next
    dy = y_k - y_next
    rx = dx / tau_k - F.T @ dy
    ry = dy / sigma_k - theta_k * (F @ dx)
    return _norm(rx), _norm(ry)


def run(
    problem: SaddleProblem,
    schedule: Schedule,
    init: PrimalDualPair,
    budget: int,
    tol: float = 1e-10,
    record_every: int = 1,
) -> Trajectory:
    """Iterate under ``schedule`` until the budget is exhausted, both
    displacement residuals fall below ``tol``, or the divergence guard
    trips.

    Every ``record_every``-th step is recorded, plus the final step.  The
    accelerated regime starts at k = 1 from the user pair (x_1, y_0): the
    engine first applies the k = 0 dual half-step
    y_1 = prox_{sigma_0 g*}(y_0 + sigma_0 F x_1) with sigma_0 = c s^2
    (no primal step, no extrapolation — 1/tau_0 := 0), after which every
    recorded transition is a full iteration.

    The trajectory is reserved for the whole budget up front; a reservation
    that fails raises MemoryError before any step.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    x = np.asarray(init.x, dtype=float)
    y = np.asarray(init.y, dtype=float)
    if x.shape != (problem.d1,) or y.shape != (problem.d2,):
        raise ValueError(
            f"init shapes {x.shape}, {y.shape} do not match problem dims "
            f"({problem.d1},), ({problem.d2},)"
        )

    if schedule.regime == ACCELERATED:
        sigma0 = schedule.c * schedule.s**2
        y = problem.prox_gstar(y + sigma0 * (problem.F @ x), sigma0)

    d1, d2 = problem.d1, problem.d2
    # A stride records its rows plus the last step.
    rows = budget if record_every == 1 else -(-budget // record_every) + 1
    try:
        if record_every == 1:
            # Each row's post-state is the next row's pre-state: store it once.
            xs, ys = np.empty((budget + 1, d1)), np.empty((budget + 1, d2))
            X, X_next, Y, Y_next = xs[:-1], xs[1:], ys[:-1], ys[1:]
        else:
            X, X_next = np.empty((rows, d1)), np.empty((rows, d1))
            Y, Y_next = np.empty((rows, d2)), np.empty((rows, d2))
        K = np.empty(rows, dtype=np.int64)
        RP, RD = np.empty(rows), np.empty(rows)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's dimension limit
        raise MemoryError(f"a trajectory of {rows} rows cannot be reserved ({exc})") from exc

    n = 0
    termination = TERMINATION_BUDGET
    for i in range(budget):
        k = schedule.k_start + i
        tau_k, sigma_k, theta_k = schedule_at(schedule, k)
        x_next, y_next = pdhg_step(problem, x, y, tau_k, sigma_k, theta_k)
        rp, rd = step_residuals(problem.F, x, y, x_next, y_next, tau_k, sigma_k, theta_k)

        state_norm = math.sqrt(float(x_next @ x_next)) + math.sqrt(float(y_next @ y_next))
        diverged = (not np.isfinite(state_norm)) or state_norm > DIVERGENCE_GUARD
        hit_tol = max(rp, rd) <= tol
        last = diverged or hit_tol or i == budget - 1

        if i % record_every == 0 or last:
            K[n], RP[n], RD[n] = k, rp, rd
            X[n], Y[n], X_next[n], Y_next[n] = x, y, x_next, y_next
            n += 1
        x, y = x_next, y_next
        if diverged:
            termination = TERMINATION_DIVERGENCE
            break
        if hit_tol:
            termination = TERMINATION_RESIDUAL
            break

    k = K[:n]
    tau, sigma, theta = schedule_at(schedule, k)
    return Trajectory(
        k=k, tau=tau, sigma=sigma, theta=theta, x=X[:n], y=Y[:n],
        x_next=X_next[:n], y_next=Y_next[:n], primal_residual=RP[:n], dual_residual=RD[:n],
        init=init, schedule=schedule, termination=termination,
    )


def optimality_residual(problem: SaddleProblem, traj: Trajectory, i: int) -> tuple[float, float]:
    """Exact inclusion residuals of row ``i`` of a trajectory.

        r_x = dist(0, @f(x_{k+1}) + F^T y_k + (x_{k+1} - x_k)/tau_k)
        r_y = dist(0, @g*(y_{k+1}) - F xbar_{k+1} + (y_{k+1} - y_k)/sigma_k)

    Evaluated by :func:`~pdhglab.problems.inclusion_residuals`.  xbar_{k+1}
    is recomputed with the operations of :func:`pdhg_step`, so it carries
    the same bits as the iterate's.
    """
    F = problem.F
    x, y, x_next, y_next = traj.x[i], traj.y[i], traj.x_next[i], traj.y_next[i]
    x_bar = x_next + traj.theta[i] * (x_next - x)
    return inclusion_residuals(
        problem,
        x_next,
        F.T @ y + (x_next - x) / traj.tau[i],
        y_next,
        -(F @ x_bar) + (y_next - y) / traj.sigma[i],
    )
