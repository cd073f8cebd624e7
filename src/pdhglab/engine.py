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
(R,) columns.  The residuals of each row are fixed-point displacement residuals

    primal: || (x_k - x_{k+1}) / tau_k  - F^T (y_k - y_{k+1}) ||
    dual:   || (y_k - y_{k+1}) / sigma_k - theta_k F (x_k - x_{k+1}) ||

which both vanish exactly at a saddle point and, for smooth terms, equal the
norms of the stationarity gaps || grad f(x_{k+1}) + F^T y_{k+1} || and
|| grad g*(y_{k+1}) - F x_{k+1} ||-like quantities up to the displacement
scaling.  :func:`optimality_residual` evaluates the exact per-step inclusion
residuals of one transition instead (zero for exact prox oracles, regardless
of distance to the saddle).

The step loop only steps: each step is the iteration and the divergence
guard.  The residuals, the ``tol`` stop and the recording are evaluated once
per block of :func:`step_block` steps, and the recorded states of the block
go to the run's observer: a run keeps no states.  Given a list of
schedules, :func:`run` steps their runs in lockstep as one (B, d) stack;
each run keeps the bits it has alone, which are a step-by-step loop's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, Union

import numpy as np

from .problems import PrimalDualPair, SaddleProblem, _norm, inclusion_residuals
from .schedules import ACCELERATED, Schedule, schedule_at

TERMINATION_BUDGET = "budget"
TERMINATION_RESIDUAL = "residual_tol"
TERMINATION_DIVERGENCE = "divergence_guard"

#: Abort threshold on ||x_k|| + ||y_k||; inadmissible configurations must
#: fail loudly instead of hanging.
DIVERGENCE_GUARD = 1e12

#: Steps per block of :func:`run`, and the cap on the entries of a block's
#: stacked states (a wide problem or a large stack takes fewer steps per block).
STEP_BLOCK = 256
STEP_BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded steps of one solver run, as columns aligned by row.

    Row i is the transition k[i] -> k[i] + 1, under the steps
    ``schedule_at(schedule, k[i])``: its displacement residuals, each
    column of shape (R,).  The run handed its states to its observer (see
    :func:`run`) and keeps only ``final``, the last post-state.
    """

    k: np.ndarray
    primal_residual: np.ndarray
    dual_residual: np.ndarray
    schedule: Schedule
    termination: str
    final: PrimalDualPair


class BlockObserver(Protocol):
    """What :func:`run` hands its recorded states to.

    Each call passes the recorded rows of one step block, in order: their
    ``k`` of shape (n,), n >= 1, and the pre- and post-states ``x``, ``y``,
    ``x_next``, ``y_next`` of shape (n, d), read from the block's work
    buffer: views of it when every step is recorded, else copies.  A view
    is valid until the call returns; the next block overwrites it.
    """

    def __call__(self, k, x, y, x_next, y_next) -> None: ...


def step_block(problem: SaddleProblem, runs: int = 1) -> int:
    """Steps per block of :func:`run` on ``problem`` for a stack of ``runs``
    runs: STEP_BLOCK, or fewer so that a block's stacked states hold at most
    STEP_BLOCK_ELEMENTS entries per array, over the whole stack."""
    return max(1, min(STEP_BLOCK, STEP_BLOCK_ELEMENTS // (runs * max(problem.d1, problem.d2))))


def max_recorded_rows(budget: int, record_every: int) -> int:
    """The most rows :func:`run` records in ``budget`` steps: every
    ``record_every``-th step, plus the last one."""
    record_every = min(record_every, budget)
    return budget if record_every == 1 else -(-budget // record_every) + 1


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
    return _step(problem, x_k, y_k, tau_k, sigma_k, theta_k)


def _step(problem, x_k, y_k, tau_k, sigma_k, theta_k):
    """One iteration from (x_k, y_k)."""
    x_next = problem.prox_f(x_k - tau_k * problem.F.apply_T(y_k), tau_k)
    x_bar = x_next + theta_k * (x_next - x_k)
    y_next = problem.prox_gstar(y_k + sigma_k * problem.F.apply(x_bar), sigma_k)
    return x_next, y_next


def step_residuals(
    F,
    x_k: np.ndarray,
    y_k: np.ndarray,
    x_next: np.ndarray,
    y_next: np.ndarray,
    tau_k,
    sigma_k,
    theta_k,
):
    """Displacement (fixed-point) residuals of one transition under the
    coupling operator ``F``.

    On stacked (..., d) rows the steps are per row, of shape (...,), and so
    are the two residuals; each row has the bits of its own call.
    """
    dx = x_k - x_next
    dy = y_k - y_next
    if dx.ndim > 1:
        tau_k, sigma_k, theta_k = (np.asarray(a)[..., None] for a in (tau_k, sigma_k, theta_k))
    rx = dx / tau_k - F.apply_T(dy)
    ry = dy / sigma_k - theta_k * F.apply(dx)
    return _norm(rx), _norm(ry)


def run(
    problem: SaddleProblem,
    schedule: Union[Schedule, Sequence[Schedule]],
    init: PrimalDualPair,
    budget: int,
    tol: float = 1e-10,
    record_every: int = 1,
    observer: Union[None, BlockObserver, Sequence[BlockObserver]] = None,
) -> Union[Trajectory, list[Trajectory]]:
    """Iterate under ``schedule`` until the budget is exhausted, both
    displacement residuals fall below ``tol``, or the divergence guard
    trips.

    Every ``record_every``-th step is recorded, plus the final step.  The
    accelerated regime starts at k = 1 from the user pair (x_1, y_0): the
    engine first applies the k = 0 dual half-step
    y_1 = prox_{sigma_0 g*}(y_0 + sigma_0 F x_1) with sigma_0 = c s^2
    (no primal step, no extrapolation — 1/tau_0 := 0), after which every
    recorded transition is a full iteration.

    The steps are taken in blocks of :func:`step_block` steps (of the
    problem and the number of runs in the stack).  The
    divergence guard is read after every step, so no step runs past a
    diverged state; the residuals and the ``tol`` stop are evaluated after
    each block, and the run is cut back to the first row at ``tol`` (the
    diverged row wins a tie).  The steps of the block past that row are
    discarded.

    The recorded rows of each step block go from the block's work buffer
    to the ``observer``, or are dropped when it is None; the trajectory
    holds its (R,) columns and ``final`` but no states.  The (R,) columns
    are reserved for the whole budget up front; a reservation that fails
    raises MemoryError before any step.  A ``record_every`` past the budget
    records what ``budget`` does: the first row and the last.

    Given a sequence of B schedules of one regime (and one observer each,
    or None), the B runs from ``init`` step in lockstep as a (B, d)
    stack with per-row steps, and the list of their B trajectories is
    returned, each with the bits of its own run.  The guard tests the whole
    stack, whose norm no row's exceeds, and each row only when the stack
    fails it; a row that trips it ends the block for every row, as in its
    own run, and the others carry on.  Each row has its own residuals,
    ``tol`` stop, records and hand-overs, and leaves the stack at the end
    of the block where it stops.
    """
    stacked = not isinstance(schedule, Schedule)
    schedules = list(schedule) if stacked else [schedule]
    observers = list(observer) if stacked and observer is not None else [observer] * len(schedules)
    if not schedules or len({s.regime for s in schedules}) != 1:
        raise ValueError("a stacked run needs at least one schedule, all of one regime")
    if len(observers) != len(schedules):
        raise ValueError(f"{len(observers)} observers for {len(schedules)} schedules")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    record_every = min(record_every, budget, 2**62)  # past it: the first step and the last
    x = np.asarray(init.x, dtype=float)
    y = np.asarray(init.y, dtype=float)
    if x.shape != (problem.d1,) or y.shape != (problem.d2,):
        raise ValueError(
            f"init shapes {x.shape}, {y.shape} do not match problem dims "
            f"({problem.d1},), ({problem.d2},)"
        )

    B = len(schedules)
    first = schedules[0]
    if stacked:  # rows of states and columns of step sizes
        x, y = np.tile(x, (B, 1)), np.tile(y, (B, 1))
    F = problem.F
    if first.regime == ACCELERATED:
        sigma0 = first.c * first.s**2
        if stacked:
            sigma0 = np.array([[sched.c * sched.s**2] for sched in schedules])
        # past the double range the state is inf or nan: the guard reads it as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            y = problem.prox_gstar(y + sigma0 * F.apply(x), sigma0)

    rows = max_recorded_rows(budget, record_every)
    try:  # k and the two residuals of each run
        columns = [
            (np.empty(rows, dtype=np.int64), np.empty(rows), np.empty(rows)) for _ in schedules
        ]
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's dimension limit
        what = "a trajectory" if B == 1 else f"{B} trajectories"
        raise MemoryError(f"{what} of {rows} rows cannot be reserved ({exc})") from exc
    steps_per_block = step_block(problem, B)
    # Row 0 holds a block's first pre-states and row i + 1 the post-states of its step i.
    work_x = np.empty((steps_per_block + 1, B, problem.d1))
    work_y = np.empty((steps_per_block + 1, B, problem.d2))
    work_x[0], work_y[0] = x, y

    active = list(range(B))  # the runs in the stack, by row
    n = [0] * B  # rows recorded
    termination = [TERMINATION_BUDGET] * B
    final = [None] * B
    start = 0
    while active:
        # A block ends at the next multiple of the block size.
        ks = np.arange(start, min((start // steps_per_block + 1) * steps_per_block, budget))
        ks += first.k_start
        # steps[i, j, b] is parameter i (tau, sigma, theta) of step j of row b
        steps = np.stack([schedule_at(schedules[b], ks) for b in active], axis=-1)
        per_step = zip(*(steps[..., None] if stacked else steps[..., 0].tolist()))
        m = 0  # steps taken in this block
        diverged = np.zeros(len(active), dtype=bool)
        for tau_k, sigma_k, theta_k in per_step:
            x, y = _step(problem, x, y, tau_k, sigma_k, theta_k)
            m += 1
            work_x[m], work_y[m] = x, y
            # np.vdot warns of no overflow: the guard reads an inf as divergence
            state_norm = math.sqrt(float(np.vdot(x, x))) + math.sqrt(float(np.vdot(y, y)))
            if not math.isfinite(state_norm) or state_norm > DIVERGENCE_GUARD:
                # no row's norm exceeds the stack's: find the rows past the guard,
                # whose norms _norm takes with np.vdot's bits (or past 1e154)
                diverged = ~(_norm(work_x[m]) + _norm(work_y[m]) <= DIVERGENCE_GUARD)
                if diverged.any():
                    break

        rp, rd = step_residuals(
            F, work_x[:m], work_y[:m], work_x[1:m + 1], work_y[1:m + 1], *steps[:, :m]
        )
        # max(rp, rd) <= tol row by row, max taken as Python takes it of two floats
        at_tol = np.where(rd > rp, rd, rp) <= tol
        stays = []
        for row, b in enumerate(active):
            hits = np.flatnonzero(at_tol[:, row])
            stop = m - 1
            if hits.size and (hits[0] < stop or not diverged[row]):
                stop, termination[b] = int(hits[0]), TERMINATION_RESIDUAL
            elif diverged[row]:
                termination[b] = TERMINATION_DIVERGENCE
            last = termination[b] != TERMINATION_BUDGET or start + m == budget

            if record_every == 1:  # every step up to the stop: views of the buffer
                pre, post = slice(0, stop + 1), slice(1, stop + 2)
            else:
                recorded = np.arange(start, start + stop + 1) % record_every == 0
                recorded[-1] |= last
                pre = np.flatnonzero(recorded)
                post = pre + 1
            kept = ks[pre]
            lo, t = n[b], len(kept)
            for column, value in zip(columns[b], (kept, rp[pre, row], rd[pre, row])):
                column[lo:lo + t] = value
            if observers[b] is not None and t:
                observers[b](
                    columns[b][0][lo:lo + t],
                    work_x[pre, row], work_y[pre, row], work_x[post, row], work_y[post, row],
                )
            n[b] += t
            if last:  # copied out of the work buffer, which the stack reuses
                final[b] = PrimalDualPair(*(w[stop + 1, row].copy() for w in (work_x, work_y)))
            else:
                stays.append(row)
        if len(stays) < len(active):
            active = [active[row] for row in stays]
            if stacked:
                x, y = x[stays], y[stays]
                work_x, work_y = work_x[:, stays], work_y[:, stays]
        work_x[0], work_y[0] = work_x[m], work_y[m]
        start += m

    trajectories = [
        Trajectory(*(column[:n[b]] for column in columns[b]), sched, termination[b], final[b])
        for b, sched in enumerate(schedules)
    ]
    return trajectories if stacked else trajectories[0]


def optimality_residual(
    problem: SaddleProblem,
    x_k: np.ndarray,
    y_k: np.ndarray,
    x_next: np.ndarray,
    y_next: np.ndarray,
    tau_k: float,
    sigma_k: float,
    theta_k: float,
) -> tuple[float, float]:
    """Exact inclusion residuals of the transition (x_k, y_k) ->
    (x_{k+1}, y_{k+1}) under the steps (tau_k, sigma_k, theta_k):

        r_x = dist(0, @f(x_{k+1}) + F^T y_k + (x_{k+1} - x_k)/tau_k)
        r_y = dist(0, @g*(y_{k+1}) - F xbar_{k+1} + (y_{k+1} - y_k)/sigma_k)

    Evaluated by :func:`~pdhglab.problems.inclusion_residuals`.  xbar_{k+1}
    is recomputed with the operations of :func:`pdhg_step`, so it carries
    the same bits as the iterate's.
    """
    F = problem.F
    x_bar = x_next + theta_k * (x_next - x_k)
    return inclusion_residuals(
        problem,
        x_next,
        F.apply_T(y_k) + (x_next - x_k) / tau_k,
        y_next,
        -F.apply(x_bar) + (y_next - y_k) / sigma_k,
    )
