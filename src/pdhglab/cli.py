"""Config-driven experiment runner.

Subcommands:

* ``run <config>``     execute one experiment; write trajectory.csv and
                       summary.txt into the output directory.
* ``sweep <config>``   run a grid over schedule constants c and s on one built
                       instance and saddle, the cells stepping in lockstep as
                       one stacked run; one subdirectory per cell plus an
                       aggregate sweep_summary.csv.
* ``verify <config>``  run the requested checks only; print the summary,
                       write no trajectory CSV.
* ``info <config>``    print resolved defaults, admissibility margin and the
                       rate constants (alpha, rho, K0) without running.

Exit status: 0 when every requested check passed or was skipped, 1 when any
check failed or the run was stopped by the divergence guard (the summary
then names it as ``exit_reason = divergence_guard``), 2 for configuration
errors, including a budget whose per-row columns cannot be reserved in memory
and an instance too large to build, and 3 for any other exception, an internal
error named on stderr as ``internal error: <type>: <message>``.

The trajectory CSV has one row per recorded step.  Row k holds the pre-step
state diagnostics (distances, Lyapunov value) at iterate k together with the
transition quantities of step k -> k+1 (numerical error, lemma slack,
residuals).  Values are written with 17 significant digits so downstream
tolerance checks read back losslessly; entries that are not defined for the
run (no saddle point, no matching lemma, gaps in accelerated rows) are
``nan``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import (
    CHECK_LEMMA,
    CHECK_ODE_COMPARE,
    CHECK_RATE_FIT,
    CHECK_THEOREM,
    ConfigError,
    ExperimentConfig,
    materialize,
    materialize_instance,
    materialize_schedule,
    parse_config,
)
from .dynamics import EPS, reference_states
from .engine import STEP_BLOCK, TERMINATION_DIVERGENCE, max_recorded_rows, run
from .lyapunov import (
    Claim,
    NoMatchingLemma,
    TableAccumulator,
    Theorem,
    alpha_rate,
    lemma_records,
    rho_rate,
    theorem_bound,
)
from .problems import PrimalDualPair
from .rates import contraction_factors, default_window, fit_rate
from .schedules import (
    ACCELERATED, FIXED, OPTIMAL_SS, VARYING_SC, Schedule, k0_threshold, schedule_at,
)
from .zoo import QUAD_PAIR, BuiltInstance, reference_saddle

CSV_COLUMNS = [
    "k", "tau_k", "sigma_k", "theta_k", "dist_x_sq", "dist_y_sq", "lyapunov",
    "ne", "lemma_slack", "theorem_bound", "primal_residual", "dual_residual",
]

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    detail: str = ""

    def line(self) -> str:
        text = f"check.{self.name} = {self.status}"
        if self.detail:
            text += f" ({self.detail})"
        return text


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _resolve_saddle(built: BuiltInstance) -> tuple[Optional[PrimalDualPair], str]:
    if built.saddle is not None:
        source = "kkt_oracle" if built.spec.kind == QUAD_PAIR else "closed_form"
        return built.saddle, source
    try:
        return reference_saddle(built.problem), "reference_run"
    except RuntimeError:
        return None, "unavailable"


def _obtain(evaluate, *args):
    """What ``evaluate(*args)`` states, or the ValueError that withheld it:
    a NoMatchingLemma, or the refusal of an inadmissible trajectory."""
    try:
        return evaluate(*args)
    except ValueError as exc:
        return exc


def _check_claims(name, table, outcome) -> CheckResult:
    """The check ``name`` of what :func:`_obtain` gave for ``table``: a
    lemma's :class:`Claim`, a :class:`Theorem`, or the ValueError that
    withheld them, a skip if it is a NoMatchingLemma and else a fail.  After
    the final post-state, which no claim covers, each claim in turn fails at
    its first nan or inf (an overflowed bound, say), then at its first row
    over allowed = bound (1 + rtol) + atol.  A PASS names, per claim, the
    tightest ratio measured / allowed (0 where allowed <= 0), that ratio at
    the claim's last row, and the least margin, allowed - measured."""
    if table is None:
        return CheckResult(name, SKIPPED, "no certified saddle available")
    if isinstance(outcome, ValueError):
        status = SKIPPED if isinstance(outcome, NoMatchingLemma) else FAIL
        return CheckResult(name, status, str(outcome))
    last = table.k[-1] + 1
    for what, value in (("Lyapunov value", table.E_next[-1]), ("distance", table.dist_x_next[-1])):
        if not math.isfinite(value):
            return CheckResult(name, FAIL, f"{what} is {value:g} at k={last}")
    held = []
    for claim in outcome.claims if isinstance(outcome, Theorem) else (outcome,):
        k, measured, bound = claim.k, claim.measured, claim.bound
        bad = np.flatnonzero(~np.isfinite(measured) | ~np.isfinite(bound))
        if bad.size:
            i = bad[0]
            detail = f"{claim.name} not finite at k={k[i]}: {measured[i]:.6g} vs {bound[i]:.6g}"
            return CheckResult(name, FAIL, detail)
        allowed = bound * (1.0 + claim.rtol) + claim.atol
        over = np.flatnonzero(measured > allowed)
        if over.size:
            i = over[0]
            detail = f"{claim.name} exceeded at k={k[i]}: {measured[i]:.6g} > {bound[i]:.6g}"
            return CheckResult(name, FAIL, detail)
        if not len(k):
            held.append(f"{claim.name} has no rows")
            continue
        ratio = np.divide(measured, allowed, out=np.zeros(len(k)), where=allowed > 0)
        with np.errstate(over="ignore"):  # a margin past the double range is inf
            margin = allowed - measured
        i, j = np.argmax(ratio), np.argmin(margin)
        held.append(
            f"{claim.name} holds: tightest {ratio[i]:.6g} at k={k[i]}, "
            f"final {ratio[-1]:.6g} at k={k[-1]}, least margin {margin[j]:.3e} at k={k[j]}"
        )
    return CheckResult(name, PASS, "; ".join(held))


def _check_rate_fit(problem, table) -> tuple[CheckResult, Optional[float], Optional[float]]:
    if table is None:
        return CheckResult(CHECK_RATE_FIT, SKIPPED, "no certified saddle available"), None, None
    K0 = 1
    if table.schedule.regime == ACCELERATED:
        K0 = k0_threshold(problem.mu, table.schedule.c)
    lo, hi = default_window(K0)
    last = int(table.k[-1])
    if last <= lo:
        detail = f"the fit window starts at k={lo} and the run ends at k={last}"
        return CheckResult(CHECK_RATE_FIT, SKIPPED, detail), None, None
    hi = min(hi, last)
    positive = table.dist_x > 0.0
    try:
        fit = fit_rate(table.k[positive], table.dist_x[positive], window=(lo, hi))
    except ValueError as exc:
        return CheckResult(CHECK_RATE_FIT, SKIPPED, str(exc)), None, None
    detail = f"slope {fit.slope:.6g}, residual {fit.residual:.3g}, window [{lo}, {hi}]"
    return CheckResult(CHECK_RATE_FIT, PASS, detail), fit.slope, fit.residual


def _check_ode_compare(problem, schedule) -> CheckResult:
    if schedule.regime != FIXED:
        return CheckResult(
            CHECK_ODE_COMPARE, SKIPPED, "ODE comparison applies to the fixed regime"
        )
    if problem.grad_f is None or problem.grad_gstar is None:
        return CheckResult(
            CHECK_ODE_COMPARE, SKIPPED, "problem lacks smooth gradient oracles"
        )
    init = PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))

    def counted():  # a sup error at or below its rounding floor counts as zero
        return [sup if sup > floor else 0.0 for sup, floor in levels]

    try:
        levels = [_ode_sup_error(problem, schedule, init, level) for level in range(3)]
        sups = counted()
        # A first halving that is not yet first order takes a fourth level.
        if min(sups) > 0 and sups[1] / sups[0] > 0.7:
            levels.append(_ode_sup_error(problem, schedule, init, 3))
            sups = counted()
    # a reference that fails its certificate, or an ill-conditioned mass matrix
    except (RuntimeError, ValueError) as exc:
        return CheckResult(CHECK_ODE_COMPARE, FAIL, str(exc))
    if not min(sups) > 0:
        if not max(sup for sup, _ in levels) > 0:
            return CheckResult(CHECK_ODE_COMPARE, SKIPPED, "discretization error is zero")
        detail = (
            "discretization error at or below the rounding floor: sup errors "
            + ", ".join(f"{sup:.3g}" for sup, _ in levels)
            + ", floors " + ", ".join(f"{floor:.3g}" for _, floor in levels)
        )
        return CheckResult(CHECK_ODE_COMPARE, SKIPPED, detail)
    ratios = [b / a for a, b in zip(sups, sups[1:])]
    detail = "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    if max(ratios[-2:]) <= 0.7:
        return CheckResult(CHECK_ODE_COMPARE, PASS, detail)
    return CheckResult(CHECK_ODE_COMPARE, FAIL, detail + " exceed 0.7")


def _ode_sup_error(problem, schedule, init, level) -> tuple[float, float]:
    """(sup, floor): the largest distance over t in [0, T] between the
    iterates at the fixed steps halved ``level`` times and the exact-flow
    states at the same times, and its rounding floor.

    Iterate k is reached through k PDHG steps and a flow state through one
    evaluation.  Each of these maps rounds a coordinate by up to (n + 4) EPS
    of the largest, as the certificate allows (an n-term product and a few
    further operations, n = d1 + d2), and to first order the roundings of
    maps that do not expand add up.  So two states that agree up to
    rounding lie at most (k + 1) sqrt(n) (n + 4) EPS times the largest
    reference coordinate apart, k the last compared iterate: that is the
    floor.  Raises as :func:`~pdhglab.dynamics.reference_states` does."""
    T = 10.0
    s, tau, sigma = (v * 0.5**level for v in (schedule.s, schedule.tau, schedule.sigma))
    n_iter = int(math.ceil(T / s))
    sub_sched = Schedule(regime=FIXED, s=s, tau=tau, sigma=sigma)
    post = []  # the post-states x_{k+1}, y_{k+1} by row, copied from each hand-over

    def copy_post(k, x, y, x_next, y_next):
        if not post:  # reserved after the run's own columns, which a huge budget fails
            post.extend(np.empty((n_iter, d)) for d in (problem.d1, problem.d2))
        post[0][k], post[1][k] = x_next, y_next

    sub_traj = run(
        problem, sub_sched, init, budget=n_iter, tol=0.0, record_every=1, observer=copy_post
    )
    X, Y = reference_states(init, T, s, tau, sigma, problem)
    # Iterate k + 1 against the reference state at t = (k + 1) s <= T.
    idx = sub_traj.k + 1
    keep = idx * s <= T + 1e-12
    idx = idx[keep]
    dx = post[0][: len(keep)][keep] - X[idx]
    dy = post[1][: len(keep)][keep] - Y[idx]
    sq = np.einsum("ij,ij->i", dx, dx) + np.einsum("ij,ij->i", dy, dy)
    err = np.sqrt(sq)
    # a square below the normal range lost bits or underflowed: math.hypot scales
    for i in np.flatnonzero(sq < np.finfo(float).tiny):
        err[i] = math.hypot(*dx[i], *dy[i])
    last = int(idx.max(initial=0))
    n = problem.d1 + problem.d2
    largest = max(np.abs(X[idx]).max(initial=0.0), np.abs(Y[idx]).max(initial=0.0))
    floor = (last + 1) * math.sqrt(n) * (n + 4) * EPS * largest
    return float(err.max(initial=0.0)), float(floor)


def _summary_header(config, built, schedule) -> list[str]:
    spec = built.spec
    problem = built.problem
    lines = [f"regime = {config.regime}", f"instance.kind = {spec.kind}"]
    lines.append(f"instance.d1 = {problem.d1}")
    lines.append(f"instance.d2 = {problem.d2}")
    lines.append(f"instance.seed = {spec.seed}")
    if spec.lam is not None:
        lines.append(f"instance.lam = {_fmt(spec.lam)}")
    lines.append(f"instance.mu = {_fmt(problem.mu)}")
    lines.append(f"instance.gamma = {_fmt(problem.gamma)}")
    lines.append(f"F_norm = {_fmt(problem.F_norm)}")
    lines.append(f"admissibility.s_F_norm = {_fmt(schedule.s * problem.F_norm)}")
    lines.append(f"admissibility.margin = {_fmt(1.0 - schedule.s * problem.F_norm)}")
    lines.append(f"schedule.s = {_fmt(schedule.s)}")
    if schedule.c is not None:
        lines.append(f"schedule.c = {_fmt(schedule.c)}")
    if schedule.tau is not None:
        lines.append(f"schedule.tau = {_fmt(schedule.tau)}")
    if schedule.sigma is not None:
        lines.append(f"schedule.sigma = {_fmt(schedule.sigma)}")
    lines.append(f"schedule.k_start = {schedule.k_start}")
    if config.regime == VARYING_SC:
        alpha = alpha_rate(problem.mu, schedule.c, schedule.s, problem.F_norm)
        lines.append(f"rate.alpha = {_fmt(alpha)}")
    elif config.regime == ACCELERATED:
        lines.append(f"rate.K0 = {k0_threshold(problem.mu, schedule.c)}")
    elif config.regime == OPTIMAL_SS:
        rho = rho_rate(problem.mu, problem.gamma, schedule.s, problem.F_norm)
        lines.append(f"rate.rho = {_fmt(rho)}")
    lines.append(f"run.budget = {config.budget}")
    lines.append(f"run.tol = {_fmt(config.tol)}")
    lines.append(f"run.record_every = {config.record_every}")
    return lines


def execute(config: ExperimentConfig, write_trajectory: bool = True):
    """Run one experiment; returns (exit_code, summary_lines, metrics).
    A violated regime precondition raises ConfigError before anything runs."""
    built, schedule = materialize(config)
    saddle, source = _resolve_saddle(built)
    traj, table = _solve(config, built.problem, schedule, saddle)
    return _report(config, built, schedule, source, traj, table, write_trajectory)


def _solve(config, problem, schedule, saddle):
    """:func:`run` from the origin under ``schedule``, or under a list of
    schedules in lockstep; returns the trajectory and the Lyapunov table of
    its states against ``saddle``, or the lists of both.  Without a saddle
    the table is None, and the run drops its states."""
    init = PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))
    stacked = isinstance(schedule, list)
    rows = max_recorded_rows(config.budget, config.record_every)
    try:
        observers = [
            TableAccumulator(one, problem, saddle, init, rows)
            if saddle is not None else None
            for one in (schedule if stacked else [schedule])
        ]
        traj = run(
            problem, schedule, init, budget=config.budget, tol=config.tol,
            record_every=config.record_every, observer=observers if stacked else observers[0],
        )
    except MemoryError as exc:  # the (R,) columns are reserved for the whole budget
        raise ConfigError(f"{exc}; lower budget or raise record_every") from exc
    tables = [None if observer is None else observer.table() for observer in observers]
    return traj, tables if stacked else tables[0]


def _report(config, built, schedule, source, traj, table, write_trajectory):
    """The theorem, checks, summary and files of one solved run and its table."""
    problem = built.problem
    # The regime's theorem, read by its check and the CSV's bound column, and
    # the lemma, read by its check and the CSV's slack column, each as
    # :func:`_obtain` gives it.  The lemma's columns are taken after the rate
    # fit, in the memory its temporaries free, and freed before the CSV write.
    lemma = theorem = None
    if table is not None and (write_trajectory or CHECK_THEOREM in config.checks):
        theorem = _obtain(theorem_bound, problem, table)
    # The sweep aggregate wants a slope even when rate_fit was not requested.
    rate_fit, slope, resid = _check_rate_fit(problem, table)
    metrics = {"slope": slope, "slope_residual": resid, "geomean_ratio": None}
    if table is not None and CHECK_LEMMA in config.checks:
        lemma = _obtain(lemma_records, problem, table)

    results: list[CheckResult] = []
    for name in config.checks:
        if name == CHECK_LEMMA:
            result = _check_claims(name, table, lemma)
        elif name == CHECK_THEOREM:
            result = _check_claims(name, table, theorem)
        elif name == CHECK_RATE_FIT:
            result = rate_fit
        else:
            result = _check_ode_compare(problem, schedule)
        results.append(result)
    slacks = None
    if write_trajectory and isinstance(lemma, Claim):
        with np.errstate(over="ignore", invalid="ignore"):  # where the run left the double range
            slacks = lemma.bound - lemma.measured
    del lemma

    if table is not None:
        defined = ~np.isnan(table.E)
        try:
            summary = contraction_factors(table.k[defined], table.E[defined])
            metrics["geomean_ratio"] = summary.geomean_ratio
        except ValueError:  # not measurable
            pass

    diverged = traj.termination == TERMINATION_DIVERGENCE
    exit_code = 1 if diverged or any(r.status == FAIL for r in results) else 0

    lines = _summary_header(config, built, schedule)
    lines.append(f"run.termination = {traj.termination}")
    lines.append(f"run.last_k = {traj.k[-1]}")
    lines.append(f"run.final_primal_residual = {_fmt(traj.primal_residual[-1])}")
    lines.append(f"run.final_dual_residual = {_fmt(traj.dual_residual[-1])}")
    lines.append(f"saddle.source = {source}")
    if metrics["slope"] is not None:
        lines.append(f"rate_fit.slope = {_fmt(metrics['slope'])}")
        lines.append(f"rate_fit.residual = {_fmt(metrics['slope_residual'])}")
    if metrics["geomean_ratio"] is not None:
        lines.append(f"contraction.geomean_ratio = {_fmt(metrics['geomean_ratio'])}")
    for result in results:
        lines.append(result.line())
    if diverged:
        lines.append(f"exit_reason = {TERMINATION_DIVERGENCE}")
    lines.append(f"exit_status = {exit_code}")

    if write_trajectory:
        out_dir = config.output or "."
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(
            os.path.join(out_dir, "trajectory.csv"),
            traj, table, slacks, theorem.bound if isinstance(theorem, Theorem) else None,
        )
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return exit_code, lines, metrics


def _write_csv(path, traj, table, slacks, bound):
    """The trajectory CSV, formatted STEP_BLOCK rows per ``%`` operation: the
    bytes ``np.savetxt`` gives with ``fmt=["%d"] + ["%.17g"] * 11``, k read
    as a float like every other column."""
    undefined = np.full(len(traj.k), math.nan)
    if table is None:
        diagnostics = [undefined] * 4
    else:
        diagnostics = [table.dist_x, table.dist_y, table.E, table.ne]
    columns = (
        [traj.k, *schedule_at(traj.schedule, traj.k)]
        + diagnostics
        + [undefined if slacks is None else slacks, undefined if bound is None else bound]
        + [traj.primal_residual, traj.dual_residual]
    )
    row = "%d" + ",%.17g" * (len(columns) - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\r\n")
        for lo in range(0, len(traj.k), STEP_BLOCK):
            block = np.column_stack([column[lo:lo + STEP_BLOCK] for column in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def sweep(config: ExperimentConfig) -> int:
    """Grid runner over the schedule constants on one built instance and one
    resolved saddle; every cell's schedule is validated before any cell runs,
    and the cells run as one stacked :func:`run`, each with the bits of its
    own."""
    built = materialize_instance(config)
    base_output = config.output or "."
    cells = []
    for i, c in enumerate(config.sweep_c if config.sweep_c is not None else (config.c,)):
        for j, s in enumerate(config.sweep_s if config.sweep_s is not None else (config.s,)):
            cell = replace(
                config, c=c, s=s, sweep_c=None, sweep_s=None,
                output=os.path.join(base_output, f"cell_{i}_{j}"),
            )
            try:
                cells.append((f"cell_{i}_{j}", cell, materialize_schedule(cell, built)))
            except ConfigError as exc:
                raise ConfigError(f"sweep cell ({i}, {j}) with c={c}, s={s}: {exc}") from exc

    saddle, source = _resolve_saddle(built)
    # the cells step in lockstep, as one stacked run
    schedules = [schedule for _, _, schedule in cells]
    trajs, tables = _solve(config, built.problem, schedules, saddle)
    outcomes = [
        _report(cell, built, schedule, source, traj, table, write_trajectory=True)
        for (_, cell, schedule), traj, table in zip(cells, trajs, tables)
    ]

    os.makedirs(base_output, exist_ok=True)
    agg_path = os.path.join(base_output, "sweep_summary.csv")
    overall = 0
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["cell", "c", "s", "slope", "slope_residual", "geomean_ratio", "exit_status"]
        )
        for (name, cell, _), (code, _, metrics) in zip(cells, outcomes):
            overall = max(overall, code)
            values = (
                cell.c, cell.s,
                metrics["slope"], metrics["slope_residual"], metrics["geomean_ratio"],
            )
            writer.writerow([name] + ["" if v is None else _fmt(v) for v in values] + [str(code)])
    print(f"wrote {agg_path} ({len(outcomes)} cells)")
    return overall


def info(config: ExperimentConfig) -> int:
    built, schedule = materialize(config)
    lines = _summary_header(config, built, schedule)
    lines.append(f"checks = {','.join(config.checks) if config.checks else '(none)'}")
    print("\n".join(lines))
    return 0


def _load(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdhglab",
        description="Primal-dual hybrid gradient experiments with Lyapunov diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("run", "execute one experiment and write trajectory.csv + summary.txt"),
        ("sweep", "run a grid over schedule constants c and s"),
        ("verify", "run the requested checks only (no trajectory CSV)"),
        ("info", "print resolved schedule constants and rate quantities"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("config", help="path to a JSON experiment config")

    args = parser.parse_args(argv)
    try:
        config = _load(args.config)
        if args.command in ("run", "verify"):
            code, lines, _ = execute(config, write_trajectory=args.command == "run")
            print("\n".join(lines))
            return code
        if args.command == "sweep":
            return sweep(config)
        return info(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. an instance too large to build
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, told apart from a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
