"""Config-driven experiment runner.

Subcommands:

* ``run <config>``     execute one experiment; write trajectory.csv and
                       summary.txt into the output directory.
* ``sweep <config>``   run a grid over schedule constants c and s, serially on
                       one built instance and saddle; one subdirectory per
                       cell plus an aggregate sweep_summary.csv.
* ``verify <config>``  run the requested checks only; print the summary,
                       write no trajectory CSV.
* ``info <config>``    print resolved defaults, admissibility margin and the
                       rate constants (alpha, rho, K0) without running.

Exit status: 0 when every requested check passed or was skipped, 1 when any
check failed or the run was stopped by the divergence guard (the summary
then names it as ``exit_reason = divergence_guard``), 2 for configuration
errors, including a budget whose trajectory cannot be reserved in memory
and an instance too large to build.

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
from .dynamics import integrate
from .engine import TERMINATION_DIVERGENCE, run
from .lyapunov import (
    LyapunovTable,
    NoMatchingLemma,
    alpha_rate,
    lemma_records,
    lyapunov_table,
    rho_rate,
    slack_tolerance,
    theorem_bound,
)
from .problems import PrimalDualPair
from .rates import contraction_factors, default_window, fit_rate
from .schedules import ACCELERATED, FIXED, OPTIMAL_SS, VARYING_SC, Schedule, k0_threshold
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


def _check_lemma(problem, traj, table) -> tuple[CheckResult, Optional[np.ndarray]]:
    """The lemma verdict and the per-row slacks (None when not evaluated)."""
    if table is None:
        return CheckResult(CHECK_LEMMA, SKIPPED, "no certified saddle available"), None
    try:
        _, slack = lemma_records(traj, problem, table)
    except NoMatchingLemma as exc:
        return CheckResult(CHECK_LEMMA, SKIPPED, str(exc)), None
    except ValueError as exc:
        return CheckResult(CHECK_LEMMA, FAIL, str(exc)), None
    k = table.k
    nan = np.flatnonzero(np.isnan(slack))
    if nan.size:
        return CheckResult(CHECK_LEMMA, FAIL, f"slack is nan at k={k[nan[0]]}"), slack
    margin = slack + slack_tolerance(table.E)
    worst = np.argmin(margin)
    if margin[worst] < 0.0:
        detail = f"slack violation at k={k[worst]}, margin={margin[worst]:.3e}"
        return CheckResult(CHECK_LEMMA, FAIL, detail), slack
    lowest = np.argmin(slack)
    detail = f"{len(slack)} transitions, min slack {slack[lowest]:.3e} at k={k[lowest]}"
    return CheckResult(CHECK_LEMMA, PASS, detail), slack


def _first_nonfinite(k, *named) -> Optional[CheckResult]:
    """A theorem FAIL naming the first nan or inf among the (name, column)
    pairs: the earliest row of ``k`` first, then the earliest pair."""
    values = np.column_stack([column for _, column in named])
    hits = np.argwhere(~np.isfinite(values))
    if not len(hits):
        return None
    row, pair = hits[0]
    return CheckResult(
        CHECK_THEOREM, FAIL,
        f"{named[pair][0]} is {values[row, pair]:g} at k={np.atleast_1d(k)[row]}",
    )


def _first_over(k, value, bound, what) -> Optional[CheckResult]:
    """A theorem FAIL naming the first row whose ``value`` exceeds its
    ``bound`` by more than 1e-6 relative."""
    over = np.flatnonzero(value > bound * (1.0 + 1e-6))
    if not over.size:
        return None
    i = over[0]
    return CheckResult(
        CHECK_THEOREM, FAIL, f"{what} exceeded at k={k[i]}: {value[i]:.6g} > {bound[i]:.6g}"
    )


def _check_theorem(schedule, problem, table, bounds) -> CheckResult:
    """The regime's closed-form bound against the run.  ``bounds`` is what
    :func:`theorem_bound` gave for ``table``: its ``(bound, trajectory)``
    arrays, or the NoMatchingLemma it raised, whose reason is the skip
    detail.  Any nan or inf compared (an overflowed bound, say) is a FAIL."""
    regime = schedule.regime
    if regime == FIXED:
        return CheckResult(
            CHECK_THEOREM, SKIPPED, "fixed regime has no closed-form rate guarantee"
        )
    if table is None:
        return CheckResult(CHECK_THEOREM, SKIPPED, "no certified saddle available")
    if isinstance(bounds, NoMatchingLemma):
        return CheckResult(CHECK_THEOREM, SKIPPED, str(bounds))
    bound, trajectory = bounds
    k, E, dist = table.k, table.E, table.dist_x
    mu, gamma = problem.mu, problem.gamma
    last = int(k[-1]) + 1
    # The final post-state is compared by no per-row bound below.
    failed = _first_nonfinite(
        last, ("Lyapunov value", table.E_next[-1]), ("distance", table.dist_x_next[-1])
    )
    if failed:
        return failed

    if regime == VARYING_SC:
        failed = _first_nonfinite(k, ("Lyapunov value", E), ("bound", bound))
        if failed:
            return failed
        over = E > bound * (1.0 + 1e-6)
        if over.any():
            ratio = np.divide(
                E[over], bound[over], out=np.full(over.sum(), math.inf),
                where=bound[over] > 0,
            )
            return CheckResult(
                CHECK_THEOREM, FAIL, f"Lyapunov bound exceeded, worst ratio {ratio.max():.6g}"
            )
        failed = _first_nonfinite(k, ("distance", dist), ("trajectory bound", trajectory))
        return failed or _first_over(k, dist, trajectory, "trajectory bound") or CheckResult(
            CHECK_THEOREM, PASS, "Lyapunov and trajectory bounds hold"
        )

    if regime == ACCELERATED:
        K0 = k0_threshold(mu, schedule.c)
        after = k >= K0
        k, dist, bound = k[after], dist[after], bound[after]
        failed = _first_nonfinite(k, ("distance", dist), ("bound", bound))
        return failed or _first_over(k, dist, bound, "O(1/k^2) bound") or CheckResult(
            CHECK_THEOREM, PASS, f"O(1/k^2) bound holds from K0={K0}"
        )

    # OPTIMAL_SS: per-step contraction plus the terminal weighted sandwich.
    rho = rho_rate(mu, gamma, schedule.s, problem.F_norm)
    failed = _first_nonfinite(k, ("Lyapunov value", E))
    if failed:
        return failed
    try:
        summary = contraction_factors(_finite_E(table))
        if summary.max_ratio > rho + 1e-8:
            return CheckResult(
                CHECK_THEOREM, FAIL,
                f"contraction ratio {summary.max_ratio:.12g} exceeds rho={rho:.12g}",
            )
        ratio_detail = f"max ratio {summary.max_ratio:.6g} <= rho {rho:.6g}"
    except ValueError:
        ratio_detail = "contraction ratios not measurable (series too short)"
    weighted = mu * table.dist_x_next[-1] + gamma * table.dist_y_next[-1]
    sandwich = trajectory[-1]
    failed = _first_nonfinite(
        last, ("terminal weighted distance", weighted), ("sandwich", sandwich)
    )
    if failed:
        return failed
    if weighted > sandwich * (1.0 + 1e-9) + 1e-300:
        return CheckResult(
            CHECK_THEOREM, FAIL,
            f"terminal weighted distance {weighted:.6g} exceeds sandwich {sandwich:.6g}",
        )
    return CheckResult(CHECK_THEOREM, PASS, ratio_detail)


def _finite_E(table: LyapunovTable) -> np.ndarray:
    """The (k, E) rows of the table where E is defined, as an (n, 2) array."""
    keep = ~np.isnan(table.E)
    return np.column_stack((table.k[keep], table.E[keep]))


def _check_rate_fit(problem, traj, table) -> tuple[CheckResult, Optional[float], Optional[float]]:
    if table is None:
        return CheckResult(CHECK_RATE_FIT, SKIPPED, "no certified saddle available"), None, None
    K0 = 1
    if traj.schedule.regime == ACCELERATED:
        K0 = k0_threshold(problem.mu, traj.schedule.c)
    lo, hi = default_window(K0)
    last = int(traj.k[-1])
    if last <= lo:
        detail = f"the fit window starts at k={lo} and the run ends at k={last}"
        return CheckResult(CHECK_RATE_FIT, SKIPPED, detail), None, None
    hi = min(hi, last)
    positive = table.dist_x > 0.0
    series = np.column_stack((table.k[positive], table.dist_x[positive]))
    try:
        fit = fit_rate(series, window=(lo, hi))
    except ValueError as exc:
        return CheckResult(CHECK_RATE_FIT, SKIPPED, str(exc)), None, None
    detail = (
        f"slope {fit.slope:.6g}, residual {fit.residual:.3g}, "
        f"window [{fit.window[0]}, {fit.window[1]}]"
    )
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
    T = 10.0
    init = PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))
    sups = []
    for level in range(3):
        s, tau, sigma = (v * 0.5**level for v in (schedule.s, schedule.tau, schedule.sigma))
        n_iter = int(math.ceil(T / s))
        sub_sched = Schedule(regime=FIXED, s=s, tau=tau, sigma=sigma)
        sub_traj = run(problem, sub_sched, init, budget=n_iter, tol=0.0, record_every=1)
        h = s / 100.0
        try:
            X, Y = integrate(init, T, h, s, tau, sigma, problem)
        except RuntimeError as exc:  # a Newton solve that does not converge
            return CheckResult(CHECK_ODE_COMPARE, FAIL, f"{exc} at step h={h:.6g}")
        # Iterate k + 1 against the reference state at t = (k + 1) s.
        idx = (sub_traj.k + 1) * 100
        keep = ((sub_traj.k + 1) * s <= T + 1e-12) & (idx < len(X))
        dx = sub_traj.x_next[keep] - X[idx[keep]]
        dy = sub_traj.y_next[keep] - Y[idx[keep]]
        err = np.sqrt(np.einsum("ij,ij->i", dx, dx) + np.einsum("ij,ij->i", dy, dy))
        sups.append(float(err.max(initial=0.0)))
    if not min(sups) > 0:
        return CheckResult(CHECK_ODE_COMPARE, SKIPPED, "discretization error is zero")
    ratios = [sups[i + 1] / sups[i] for i in range(2)]
    detail = "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    if max(ratios) <= 0.7:
        return CheckResult(CHECK_ODE_COMPARE, PASS, detail)
    return CheckResult(CHECK_ODE_COMPARE, FAIL, detail + " exceed 0.7")


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


def execute(
    config: ExperimentConfig,
    write_trajectory: bool = True,
    quiet: bool = False,
):
    """Run one experiment; returns (exit_code, summary_lines, metrics).
    A violated regime precondition raises ConfigError before anything runs."""
    built, schedule = materialize(config)
    return _execute(config, built, schedule, _resolve_saddle(built), write_trajectory, quiet)


def _execute(config, built, schedule, resolved, write_trajectory, quiet):
    """:func:`execute` on a built instance, its schedule and its resolved
    (saddle, source)."""
    saddle, saddle_source = resolved
    problem = built.problem
    init = PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))
    try:
        traj = run(
            problem, schedule, init,
            budget=config.budget, tol=config.tol, record_every=config.record_every,
        )
    except MemoryError as exc:  # the trajectory is reserved for the whole budget
        raise ConfigError(f"{exc}; lower budget or raise record_every") from exc
    table = lyapunov_table(traj, problem, saddle) if saddle is not None else None
    # The regime's bounds on each row, read by the theorem check and the CSV:
    # (bound, trajectory), or the NoMatchingLemma that withheld them.
    bounds = None
    if table is not None and (write_trajectory or CHECK_THEOREM in config.checks):
        try:
            bounds = theorem_bound(schedule, problem, table)
        except NoMatchingLemma as exc:
            bounds = exc
    # The sweep aggregate wants a slope even when rate_fit was not requested.
    rate_fit, slope, resid = _check_rate_fit(problem, traj, table)
    metrics = {"slope": slope, "slope_residual": resid, "geomean_ratio": None}

    slacks = None
    results: list[CheckResult] = []
    for name in config.checks:
        if name == CHECK_LEMMA:
            result, slacks = _check_lemma(problem, traj, table)
        elif name == CHECK_THEOREM:
            result = _check_theorem(schedule, problem, table, bounds)
        elif name == CHECK_RATE_FIT:
            result = rate_fit
        else:
            result = _check_ode_compare(problem, schedule)
        results.append(result)

    if table is not None:
        try:
            metrics["geomean_ratio"] = contraction_factors(_finite_E(table)).geomean_ratio
        except ValueError:  # not measurable
            pass

    diverged = traj.termination == TERMINATION_DIVERGENCE
    exit_code = 1 if diverged or any(r.status == FAIL for r in results) else 0

    lines = _summary_header(config, built, schedule)
    lines.append(f"run.termination = {traj.termination}")
    lines.append(f"run.last_k = {traj.k[-1]}")
    lines.append(f"run.final_primal_residual = {_fmt(traj.primal_residual[-1])}")
    lines.append(f"run.final_dual_residual = {_fmt(traj.dual_residual[-1])}")
    lines.append(f"saddle.source = {saddle_source}")
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
            traj, table, slacks, bounds[0] if isinstance(bounds, tuple) else None,
        )
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    return exit_code, lines, metrics


def _write_csv(path, traj, table, slacks, bound):
    undefined = np.full(len(traj.k), math.nan)
    if table is None:
        diagnostics = [undefined] * 4
    else:
        diagnostics = [table.dist_x, table.dist_y, table.E, table.ne]
    columns = (
        [traj.k, traj.tau, traj.sigma, traj.theta]
        + diagnostics
        + [undefined if slacks is None else slacks, undefined if bound is None else bound]
        + [traj.primal_residual, traj.dual_residual]
    )
    np.savetxt(
        path, np.column_stack(columns), fmt=["%d"] + ["%.17g"] * 11, delimiter=",",
        newline="\r\n", header=",".join(CSV_COLUMNS), comments="",
    )


def sweep(config: ExperimentConfig) -> int:
    """Grid runner over the schedule constants on one built instance and one
    resolved saddle; every cell's schedule is validated before any cell runs."""
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

    resolved = _resolve_saddle(built)
    outcomes = [
        _execute(cell, built, schedule, resolved, write_trajectory=True, quiet=True)
        for _, cell, schedule in cells
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
        if args.command == "run":
            code, _, _ = execute(config, write_trajectory=True)
            return code
        if args.command == "verify":
            code, _, _ = execute(config, write_trajectory=False)
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


if __name__ == "__main__":
    sys.exit(main())
