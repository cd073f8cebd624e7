"""Config-driven experiment runner.

Subcommands:

* ``run <config>``     execute one experiment; write trajectory.csv and
                       summary.txt into the output directory.
* ``sweep <config>``   run a grid over schedule constants c and s; one
                       subdirectory per cell plus an aggregate sweep_summary.csv.
* ``verify <config>``  run the requested checks only; print the summary,
                       write no trajectory CSV.
* ``info <config>``    print resolved defaults, admissibility margin and the
                       rate constants (alpha, rho, K0) without running.

Exit status: 0 when every requested check passed or was skipped, 1 when any
check failed, 2 for configuration errors.

The trajectory CSV has one row per recorded step.  Row k holds the pre-step
state diagnostics (distances, Lyapunov value) at iterate k together with the
transition quantities of step k -> k+1 (numerical error, lemma slack,
residuals).  Values are written with 17 significant digits so downstream
tolerance checks read back losslessly; entries that are not defined for the
run (no saddle point, no matching lemma, gaps in accelerated records) are
``nan``.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
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
    parse_config,
    serialize_config,
)
from .dynamics import OdeState, integrate
from .engine import run
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

JOBS_ENV_VAR = "PDHGLAB_JOBS"

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
        return reference_saddle(built.problem, F_norm=built.F_norm), "reference_run"
    except RuntimeError:
        return None, "unavailable"


def _bound_constants(built, schedule, table: LyapunovTable) -> Optional[dict]:
    """Keyword arguments of the regime's theorem_bound, or None when unavailable."""
    mu = built.problem.mu
    if schedule.regime == ACCELERATED:
        K0 = k0_threshold(mu, schedule.c)
        for k, E in zip(table.k, table.E):
            if k == K0 and not math.isnan(E):
                return dict(mu=mu, c=schedule.c, E_K0=E)
        return None
    if schedule.regime == FIXED or table.k[0] != 0 or math.isnan(table.E[0]):
        return None
    consts = dict(
        mu=mu, s=schedule.s, F_norm=built.F_norm, E0=table.E[0],
        dx0=table.dist_x[0], dy0=table.dist_y[0],
    )
    if schedule.regime == VARYING_SC:
        consts["c"] = schedule.c
    else:
        consts["gamma"] = built.problem.gamma
    return consts


def _check_lemma(config, built, traj, table) -> tuple[CheckResult, Optional[list]]:
    if table is None:
        return CheckResult(CHECK_LEMMA, SKIPPED, "no certified saddle available"), None
    try:
        records = lemma_records(config.regime, traj, built.problem, table, built.F_norm)
    except NoMatchingLemma as exc:
        return CheckResult(CHECK_LEMMA, SKIPPED, str(exc)), None
    except ValueError as exc:
        return CheckResult(CHECK_LEMMA, FAIL, str(exc)), None
    status, detail = PASS, f"{len(records)} transitions"
    nan_k = next((rec.k for rec in records if math.isnan(rec.lemma_slack)), None)
    if nan_k is not None:
        status, detail = FAIL, f"slack is nan at k={nan_k}"
    elif records:
        worst = min(records, key=lambda rec: rec.lemma_slack + slack_tolerance(rec.E))
        margin = worst.lemma_slack + slack_tolerance(worst.E)
        if margin < 0.0:
            status, detail = FAIL, f"slack violation at k={worst.k}, margin={margin:.3e}"
        else:
            lowest = min(records, key=lambda rec: rec.lemma_slack)
            detail += f", min slack {lowest.lemma_slack:.3e} at k={lowest.k}"
    return CheckResult(CHECK_LEMMA, status, detail), records


def _first_nan(k, *named) -> Optional[CheckResult]:
    """A theorem FAIL naming the first nan among the (name, value) pairs."""
    for name, value in named:
        if math.isnan(value):
            return CheckResult(CHECK_THEOREM, FAIL, f"{name} is nan at k={k}")
    return None


def _check_theorem(config, built, schedule, table, consts, bounds) -> CheckResult:
    """The regime's closed-form bound; ``bounds`` is the default-form
    theorem_bound of each table record.  Any nan it compares is a FAIL."""
    regime = config.regime
    if regime == FIXED:
        return CheckResult(
            CHECK_THEOREM, SKIPPED, "fixed regime has no closed-form rate guarantee"
        )
    if table is None:
        return CheckResult(CHECK_THEOREM, SKIPPED, "no certified saddle available")
    if consts is None:
        return CheckResult(
            CHECK_THEOREM, SKIPPED,
            "bound constants unavailable (run not recorded from its start)",
        )
    mu, gamma = built.problem.mu, built.problem.gamma
    # The final post-state is compared by no per-record bound below.
    failed = _first_nan(
        table.k[-1] + 1,
        ("Lyapunov value", table.E_next[-1]), ("distance", table.dist_x_next[-1]),
    )
    if failed:
        return failed

    if regime == VARYING_SC:
        worst = 0.0
        for k, E, bound in zip(table.k, table.E, bounds):
            failed = _first_nan(k, ("Lyapunov value", E), ("bound", bound))
            if failed:
                return failed
            if E > bound * (1.0 + 1e-6):
                worst = max(worst, E / bound if bound > 0 else math.inf)
        if worst > 0.0:
            return CheckResult(
                CHECK_THEOREM, FAIL, f"Lyapunov bound exceeded, worst ratio {worst:.6g}"
            )
        for k, dist in zip(table.k, table.dist_x):
            tb = theorem_bound(regime, k, form="trajectory", **consts)
            failed = _first_nan(k, ("distance", dist), ("trajectory bound", tb))
            if failed:
                return failed
            if dist > tb * (1.0 + 1e-6):
                return CheckResult(
                    CHECK_THEOREM, FAIL,
                    f"trajectory bound exceeded at k={k}: {dist:.6g} > {tb:.6g}",
                )
        return CheckResult(CHECK_THEOREM, PASS, "Lyapunov and trajectory bounds hold")

    if regime == ACCELERATED:
        K0 = k0_threshold(mu, schedule.c)
        for k, dist, bound in zip(table.k, table.dist_x, bounds):
            if k < K0:
                continue
            failed = _first_nan(k, ("distance", dist), ("bound", bound))
            if failed:
                return failed
            if dist > bound * (1.0 + 1e-6):
                return CheckResult(
                    CHECK_THEOREM, FAIL,
                    f"O(1/k^2) bound exceeded at k={k}: {dist:.6g} > {bound:.6g}",
                )
        return CheckResult(CHECK_THEOREM, PASS, f"O(1/k^2) bound holds from K0={K0}")

    # OPTIMAL_SS: per-step contraction plus the terminal weighted sandwich.
    rho = rho_rate(mu, gamma, schedule.s, built.F_norm)
    for k, E in zip(table.k, table.E):
        failed = _first_nan(k, ("Lyapunov value", E))
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
    sandwich = theorem_bound(regime, table.k[-1] + 1, form="trajectory", **consts)
    failed = _first_nan(
        table.k[-1] + 1, ("terminal weighted distance", weighted), ("sandwich", sandwich)
    )
    if failed:
        return failed
    if weighted > sandwich * (1.0 + 1e-9) + 1e-300:
        return CheckResult(
            CHECK_THEOREM, FAIL,
            f"terminal weighted distance {weighted:.6g} exceeds sandwich {sandwich:.6g}",
        )
    return CheckResult(CHECK_THEOREM, PASS, ratio_detail)


def _finite_E(table: LyapunovTable) -> list[tuple[int, float]]:
    return [(k, E) for k, E in zip(table.k, table.E) if not math.isnan(E)]


def _check_rate_fit(config, built, traj, table) -> tuple[CheckResult, Optional[float], Optional[float]]:
    if table is None:
        return CheckResult(CHECK_RATE_FIT, SKIPPED, "no certified saddle available"), None, None
    K0 = 1
    if config.regime == ACCELERATED:
        K0 = k0_threshold(built.problem.mu, traj.schedule.c)
    lo, hi = default_window(K0)
    hi = min(hi, traj.records[-1].k)
    series = [(k, dist) for k, dist in zip(table.k, table.dist_x) if dist > 0.0]
    try:
        fit = fit_rate(series, window=(lo, hi), name="dist_x_sq")
    except ValueError as exc:
        return CheckResult(CHECK_RATE_FIT, SKIPPED, str(exc)), None, None
    detail = (
        f"slope {fit.slope:.6g}, residual {fit.residual:.3g}, "
        f"window [{fit.window[0]}, {fit.window[1]}]"
    )
    return CheckResult(CHECK_RATE_FIT, PASS, detail), fit.slope, fit.residual


def _check_ode_compare(config, built, schedule, traj) -> CheckResult:
    problem = built.problem
    if schedule.regime != FIXED:
        return CheckResult(
            CHECK_ODE_COMPARE, SKIPPED, "ODE comparison applies to the fixed regime"
        )
    if problem.grad_f is None or problem.grad_gstar is None:
        return CheckResult(
            CHECK_ODE_COMPARE, SKIPPED, "problem lacks smooth gradient oracles"
        )
    T = 10.0
    x0 = np.zeros(problem.d1)
    y0 = np.zeros(problem.d2)
    sups = []
    for level in range(3):
        scale = 0.5**level
        s = schedule.s * scale
        tau = schedule.tau * scale
        sigma = schedule.sigma * scale
        n_iter = int(math.ceil(T / s))
        sub_sched = Schedule(regime=FIXED, s=s, tau=tau, sigma=sigma)
        sub_traj = run(
            problem, sub_sched, PrimalDualPair(x=x0, y=y0),
            budget=n_iter, tol=0.0, record_every=1,
        )
        ref = integrate(OdeState(X=x0, Y=y0, t=0.0), T, s / 100.0, s, tau, sigma, problem)
        sup = 0.0
        for rec in sub_traj.records:
            idx = (rec.k + 1) * 100
            if (rec.k + 1) * s > T + 1e-12 or idx >= len(ref):
                continue
            dx = rec.x_next - ref[idx].X
            dy = rec.y_next - ref[idx].Y
            err = math.sqrt(float(dx @ dx) + float(dy @ dy))
            sup = max(sup, err)
        sups.append(sup)
    ratios = [sups[i + 1] / sups[i] for i in range(2)] if min(sups) > 0 else []
    if ratios and max(ratios) <= 0.7:
        return CheckResult(
            CHECK_ODE_COMPARE, PASS,
            "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios),
        )
    if not ratios:
        return CheckResult(CHECK_ODE_COMPARE, SKIPPED, "discretization error is zero")
    return CheckResult(
        CHECK_ODE_COMPARE, FAIL,
        "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " exceed 0.7",
    )


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
    lines.append(f"F_norm = {_fmt(built.F_norm)}")
    lines.append(f"admissibility.s_F_norm = {_fmt(schedule.s * built.F_norm)}")
    lines.append(f"admissibility.margin = {_fmt(1.0 - schedule.s * built.F_norm)}")
    lines.append(f"schedule.s = {_fmt(schedule.s)}")
    if schedule.c is not None:
        lines.append(f"schedule.c = {_fmt(schedule.c)}")
    if schedule.tau is not None:
        lines.append(f"schedule.tau = {_fmt(schedule.tau)}")
    if schedule.sigma is not None:
        lines.append(f"schedule.sigma = {_fmt(schedule.sigma)}")
    lines.append(f"schedule.k_start = {schedule.k_start}")
    if config.regime == VARYING_SC:
        alpha = alpha_rate(problem.mu, schedule.c, schedule.s, built.F_norm)
        lines.append(f"rate.alpha = {_fmt(alpha)}")
    elif config.regime == ACCELERATED:
        lines.append(f"rate.K0 = {k0_threshold(problem.mu, schedule.c)}")
    elif config.regime == OPTIMAL_SS:
        rho = rho_rate(problem.mu, problem.gamma, schedule.s, built.F_norm)
        lines.append(f"rate.rho = {_fmt(rho)}")
    return lines


def execute(
    config: ExperimentConfig,
    write_trajectory: bool = True,
    quiet: bool = False,
):
    """Run one experiment; returns (exit_code, summary_lines, metrics)."""
    built, schedule = materialize(config)
    problem = built.problem
    init = PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))
    traj = run(
        problem, schedule, init,
        budget=config.budget, tol=config.tol, record_every=config.record_every,
    )
    saddle, saddle_source = _resolve_saddle(built)
    table = lyapunov_table(traj, problem, saddle) if saddle is not None else None
    consts = _bound_constants(built, schedule, table) if table is not None else None
    # The default-form bound of each record, read by the theorem check and the CSV.
    bounds = None
    if consts is not None and (write_trajectory or CHECK_THEOREM in config.checks):
        bounds = [theorem_bound(config.regime, k, **consts) for k in table.k]
    # The sweep aggregate wants a slope even when rate_fit was not requested.
    rate_fit, slope, resid = _check_rate_fit(config, built, traj, table)
    metrics = {"slope": slope, "slope_residual": resid, "geomean_ratio": None}

    slacks = None
    results: list[CheckResult] = []
    for name in config.checks:
        if name == CHECK_LEMMA:
            result, lem_records = _check_lemma(config, built, traj, table)
            if lem_records:
                slacks = [rec.lemma_slack for rec in lem_records]
        elif name == CHECK_THEOREM:
            result = _check_theorem(config, built, schedule, table, consts, bounds)
        elif name == CHECK_RATE_FIT:
            result = rate_fit
        else:
            result = _check_ode_compare(config, built, schedule, traj)
        results.append(result)

    finite_E = _finite_E(table) if table is not None else []
    if len(finite_E) >= 2:
        try:
            metrics["geomean_ratio"] = contraction_factors(finite_E).geomean_ratio
        except ValueError:
            pass

    exit_code = 1 if any(r.status == FAIL for r in results) else 0

    lines = _summary_header(config, built, schedule)
    lines.append(f"run.budget = {config.budget}")
    lines.append(f"run.tol = {_fmt(config.tol)}")
    lines.append(f"run.record_every = {config.record_every}")
    lines.append(f"run.termination = {traj.termination}")
    last = traj.records[-1]
    lines.append(f"run.last_k = {last.k}")
    lines.append(f"run.final_primal_residual = {_fmt(last.primal_residual)}")
    lines.append(f"run.final_dual_residual = {_fmt(last.dual_residual)}")
    lines.append(f"saddle.source = {saddle_source}")
    if metrics["slope"] is not None:
        lines.append(f"rate_fit.slope = {_fmt(metrics['slope'])}")
        lines.append(f"rate_fit.residual = {_fmt(metrics['slope_residual'])}")
    if metrics["geomean_ratio"] is not None:
        lines.append(f"contraction.geomean_ratio = {_fmt(metrics['geomean_ratio'])}")
    for result in results:
        lines.append(result.line())
    lines.append(f"exit_status = {exit_code}")

    if write_trajectory:
        out_dir = config.output or "."
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(
            os.path.join(out_dir, "trajectory.csv"),
            traj, table, slacks, bounds,
        )
        with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if not quiet:
        print("\n".join(lines))
    return exit_code, lines, metrics


def _write_csv(path, traj, table, slacks, bounds):
    nan = float("nan")
    n = len(traj.records)
    if table is None:
        columns = ((nan,) * n,) * 4
    else:
        columns = (table.dist_x, table.dist_y, table.E, table.ne)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for rec, dist_x, dist_y, E, ne, slack, bound in zip(
            traj.records, *columns, slacks or (nan,) * n, bounds or (nan,) * n
        ):
            writer.writerow(
                [str(rec.k)]
                + [
                    _fmt(v)
                    for v in (
                        rec.tau, rec.sigma, rec.theta, dist_x, dist_y, E, ne,
                        slack, bound, rec.primal_residual, rec.dual_residual,
                    )
                ]
            )


def _sweep_cells(config: ExperimentConfig):
    cs = config.sweep_c if config.sweep_c is not None else (config.c,)
    ss = config.sweep_s if config.sweep_s is not None else (config.s,)
    cells = []
    for i, c in enumerate(cs):
        for j, s in enumerate(ss):
            cells.append((i, j, c, s))
    return cells


def _run_cell(payload):
    text, i, j, c, s, base_output = payload
    config = parse_config(text)
    cell = replace(
        config, c=c, s=s, sweep_c=None, sweep_s=None,
        output=os.path.join(base_output, f"cell_{i}_{j}"),
    )
    exit_code, _, metrics = execute(cell, write_trajectory=True, quiet=True)
    return (i, j, c, s, exit_code, metrics)


def _jobs() -> int:
    """Worker count from the environment; anything but a positive integer is a
    ConfigError."""
    text = os.environ.get(JOBS_ENV_VAR, "1")
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"{JOBS_ENV_VAR} must be a positive integer, got {text!r}")
    return jobs


def sweep(config: ExperimentConfig) -> int:
    """Grid runner over the schedule constants; every cell is validated
    before any cell executes."""
    jobs = _jobs()
    cells = _sweep_cells(config)
    base_output = config.output or "."
    for i, j, c, s in cells:
        try:
            materialize(replace(config, c=c, s=s, sweep_c=None, sweep_s=None))
        except ConfigError as exc:
            raise ConfigError(f"sweep cell ({i}, {j}) with c={c}, s={s}: {exc}") from exc

    text = serialize_config(replace(config, sweep_c=None, sweep_s=None))
    payloads = [(text, i, j, c, s, base_output) for i, j, c, s in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            outcomes = list(pool.map(_run_cell, payloads))
    else:
        outcomes = [_run_cell(p) for p in payloads]

    os.makedirs(base_output, exist_ok=True)
    agg_path = os.path.join(base_output, "sweep_summary.csv")
    overall = 0
    with open(agg_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["cell", "c", "s", "slope", "slope_residual", "geomean_ratio", "exit_status"]
        )
        for i, j, c, s, code, metrics in outcomes:
            overall = max(overall, code)
            writer.writerow(
                [
                    f"cell_{i}_{j}",
                    "" if c is None else _fmt(c),
                    "" if s is None else _fmt(s),
                    "" if metrics["slope"] is None else _fmt(metrics["slope"]),
                    "" if metrics["slope_residual"] is None else _fmt(metrics["slope_residual"]),
                    "" if metrics["geomean_ratio"] is None else _fmt(metrics["geomean_ratio"]),
                    str(code),
                ]
            )
    print(f"wrote {agg_path} ({len(outcomes)} cells)")
    return overall


def info(config: ExperimentConfig) -> int:
    built, schedule = materialize(config)
    lines = _summary_header(config, built, schedule)
    lines.append(f"run.budget = {config.budget}")
    lines.append(f"run.tol = {_fmt(config.tol)}")
    lines.append(f"run.record_every = {config.record_every}")
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


if __name__ == "__main__":
    sys.exit(main())
