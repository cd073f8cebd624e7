"""End-to-end CLI tests: exit codes, file outputs, and CSV golden rows.

Everything here goes through ``main(argv)`` exactly as a shell invocation
would, with configs written to pytest temp directories.  The trajectory CSV
is checked against values recomputed through the library API — the CSV uses
17 significant digits, so the round trip must be lossless.
"""

import csv
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from pdhglab import cli, config as config_module, lyapunov, zoo
from pdhglab.cli import CSV_COLUMNS, execute, main
from pdhglab.config import ConfigError, materialize, parse_config
from pdhglab.dynamics import integrate
from pdhglab.engine import run
from pdhglab.lyapunov import lyapunov_fixed, numerical_error
from pdhglab.problems import PrimalDualPair
from pdhglab.schedules import FIXED, Schedule


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# run


def test_run_writes_trajectory_and_summary(tmp_path):
    out = tmp_path / "out"
    doc = {
        "instance": {"kind": "quad_pair", "d": 3, "seed": 0},
        "regime": "optimal_ss",
        "schedule": {"s": 0.5},
        "budget": 200,
        "checks": ["lemma", "theorem"],
        "output": str(out),
    }
    assert main(["run", write_config(tmp_path, doc)]) == 0

    summary = (out / "summary.txt").read_text()
    assert "regime = optimal_ss" in summary
    assert "check.lemma = PASS" in summary
    assert "check.theorem = PASS" in summary
    assert "exit_status = 0" in summary

    with open(out / "trajectory.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_COLUMNS)

    rows = read_rows(out / "trajectory.csv")
    assert int(rows[0]["k"]) == 0
    # optimal_ss holds the step sizes fixed
    taus = {row["tau_k"] for row in rows}
    assert len(taus) == 1


def test_run_budget_one_golden_row(tmp_path):
    out = tmp_path / "out"
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 3},
        "regime": "fixed",
        "schedule": {"s": 0.4},
        "budget": 1,
        "tol": 1e-10,
        "record_every": 1,
        "output": str(out),
    }
    assert main(["run", write_config(tmp_path, doc)]) == 0
    rows = read_rows(out / "trajectory.csv")
    assert len(rows) == 1
    row = rows[0]

    # recompute the single transition through the library
    config = parse_config(json.dumps(doc))
    built, schedule = materialize(config)
    problem = built.problem
    init = PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))
    traj = run(problem, schedule, init, budget=1, tol=1e-10, record_every=1)
    saddle = built.saddle
    assert saddle is not None

    assert int(row["k"]) == traj.k[0] == 0
    assert float(row["tau_k"]) == traj.tau[0]
    assert float(row["sigma_k"]) == traj.sigma[0]
    assert float(row["theta_k"]) == traj.theta[0] == 1.0
    assert float(row["dist_x_sq"]) == float((traj.x[0] - saddle.x) @ (traj.x[0] - saddle.x))
    assert float(row["dist_y_sq"]) == float((traj.y[0] - saddle.y) @ (traj.y[0] - saddle.y))
    E = lyapunov_fixed(traj.x[0], traj.y[0], saddle, traj.tau[0], traj.sigma[0], problem.F)
    ne = numerical_error(
        traj.x_next[0] - traj.x[0], traj.y_next[0] - traj.y[0],
        traj.tau[0], traj.sigma[0], problem.F,
    )
    assert float(row["lyapunov"]) == E
    assert float(row["ne"]) == ne
    # no lemma check requested and no fixed-regime bound: both columns are nan
    assert math.isnan(float(row["lemma_slack"]))
    assert math.isnan(float(row["theorem_bound"]))
    assert float(row["primal_residual"]) == traj.primal_residual[0]
    assert float(row["dual_residual"]) == traj.dual_residual[0]


# ---------------------------------------------------------------------------
# verify


def test_verify_prints_checks_but_writes_nothing(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 100,
        "checks": ["lemma", "theorem"],
        "output": str(out),
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    stdout = capsys.readouterr().out
    assert "check.lemma = PASS" in stdout
    assert re.search(
        r"check\.lemma = PASS \(\d+ transitions, min slack \S+ at k=\d+\)", stdout
    )
    assert "check.theorem = PASS" in stdout
    assert "exit_status = 0" in stdout
    assert not out.exists()


def test_verify_theorem_on_reference_run_saddle(tmp_path, capsys):
    # no closed-form saddle at lam = 0.05: the trajectory bound's initial
    # distances are taken against the reference-run saddle
    doc = {
        "instance": {"kind": "lasso", "d": 10, "seed": 0, "lam": 0.05},
        "regime": "varying_sc",
        "budget": 2000,
        "checks": ["theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    stdout = capsys.readouterr().out
    assert "saddle.source = reference_run" in stdout
    assert "check.theorem = PASS" in stdout


def test_theorem_skip_names_the_missing_E_K0(tmp_path, capsys):
    # c = 0.99 puts K0 = ceil(0.99 / 0.02) = 50 past the last recorded k = 20;
    # the run is recorded from its start, only E(K0) is missing
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "seed": 1},
        "regime": "accelerated",
        "schedule": {"c": 0.99},
        "budget": 20,
        "checks": ["theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert (
        "check.theorem = SKIPPED (E(K0) unavailable: no Lyapunov value at K0=50, last k=20)"
        in capsys.readouterr().out
    )


def test_verify_fails_lemma_on_nan_slack(tmp_path, capsys, monkeypatch):
    # a prox oracle that returns nan trips the divergence guard at k = 0;
    # the one recorded transition has E(1) = nan, so its slack is nan
    monkeypatch.setattr(
        zoo, "prox_shifted_quadratic", lambda a, m, v, t: np.full_like(v, np.nan)
    )
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 0},
        "regime": "fixed",
        "budget": 10,
        "checks": ["lemma"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    stdout = capsys.readouterr().out
    assert "run.termination = divergence_guard" in stdout
    assert "check.lemma = FAIL (slack is nan at k=0)" in stdout


def test_divergence_guard_exits_1_without_checks(tmp_path, capsys, monkeypatch):
    # no check can fail, yet a run the guard stopped is not a success
    monkeypatch.setattr(
        zoo, "prox_shifted_quadratic", lambda a, m, v, t: np.full_like(v, np.nan)
    )
    out = tmp_path / "out"
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 0},
        "regime": "fixed",
        "budget": 10,
        "checks": [],
        "output": str(out),
    }
    assert main(["run", write_config(tmp_path, doc)]) == 1
    stdout = capsys.readouterr().out
    summary = (out / "summary.txt").read_text()
    for text in (stdout, summary):
        assert "run.termination = divergence_guard" in text
        assert "exit_reason = divergence_guard\nexit_status = 1\n" in text


@pytest.mark.parametrize(
    "regime, k_end", [("optimal_ss", 1), ("varying_sc", 1), ("accelerated", 2)]
)
def test_verify_fails_theorem_on_nan_post_state(
    tmp_path, capsys, monkeypatch, regime, k_end
):
    # the divergence guard stops after the first transition, whose post-state
    # (and so the optimal_ss terminal weighted distance) is nan
    monkeypatch.setattr(
        zoo, "prox_shifted_quadratic", lambda a, m, v, t: np.full_like(v, np.nan)
    )
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 0},
        "regime": regime,
        "budget": 10,
        "checks": ["theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    stdout = capsys.readouterr().out
    assert "run.termination = divergence_guard" in stdout
    assert f"check.theorem = FAIL (Lyapunov value is nan at k={k_end})" in stdout


@pytest.mark.parametrize("regime", ["varying_sc", "accelerated"])
def test_theorem_fails_on_nan_bound(monkeypatch, regime):
    monkeypatch.setattr(
        cli, "theorem_bound",
        lambda schedule, problem, table: (np.full(table.k.shape, math.nan),) * 2,
    )
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": regime,
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False, quiet=True)
    assert code == 1
    assert any(
        re.fullmatch(r"check\.theorem = FAIL \(bound is nan at k=\d+\)", line)
        for line in lines
    )


def test_theorem_fails_on_infinite_bound(monkeypatch):
    # an overflowed bound holds every value below it: it must not pass
    monkeypatch.setattr(
        cli, "theorem_bound",
        lambda schedule, problem, table: (np.full(table.k.shape, math.inf),) * 2,
    )
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False, quiet=True)
    assert code == 1
    assert "check.theorem = FAIL (bound is inf at k=0)" in lines


# numpy warns of the overflows this config is built to cause
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_varying_sc_theorem_with_an_overflowing_c_squared_ends_in_a_verdict(tmp_path, capsys):
    # mu = 1e200 puts c = mu/2 past sqrt(max double): c^2 in the trajectory
    # bound's weight dx0 + dy0 / (c^2 s^2) overflows, and the term it divides
    # rounds to 0, so the bound itself stays finite
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "mu": 1e200},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert "check.theorem = PASS (Lyapunov and trajectory bounds hold)" in capsys.readouterr().out


# numpy warns of the overflows this config is built to cause
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_accelerated_with_an_overflowing_c_squared_ends_in_a_verdict(tmp_path, capsys):
    # mu = 1e200: c^2 in the bound 2 E(K0) / (c^2 k^2) overflows, and so does
    # E(K0), so no bound can be evaluated
    out = tmp_path / "out"
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "mu": 1e200},
        "regime": "accelerated",
        "budget": 50,
        "checks": [],
        "output": str(out),
    }
    assert main(["run", write_config(tmp_path, doc)]) == 0
    assert all(math.isnan(float(row["theorem_bound"])) for row in read_rows(out / "trajectory.csv"))
    doc["checks"] = ["theorem"]
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    assert "check.theorem = FAIL (Lyapunov value is inf at k=51)" in capsys.readouterr().out


# numpy warns of the overflows this config is built to cause
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_final_residual_stays_finite_when_its_square_overflows(tmp_path, capsys):
    # mu = 1e300: the primal displacement residual is about 5e296, so its
    # square is past the largest double
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "mu": 1e300},
        "regime": "varying_sc",
        "budget": 50,
        "checks": [],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    value = float(re.search(r"^run\.final_primal_residual = (\S+)$", out, re.M).group(1))
    assert math.isfinite(value) and value > 1e296


def test_ode_compare_matches_a_per_row_reference():
    # the check samples the reference rows in one array expression; here
    # each iterate is compared with its reference state one row at a time
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 2, "seed": 0},
        "regime": "fixed",
        "budget": 10,
        "checks": ["ode_compare"],
    }))
    built, schedule = materialize(config)
    problem, T = built.problem, 10.0
    init = PrimalDualPair(np.zeros(2), np.zeros(2))
    sups = []
    for level in range(3):
        s, tau, sigma = (v * 0.5**level for v in (schedule.s, schedule.tau, schedule.sigma))
        sched = Schedule(regime=FIXED, s=s, tau=tau, sigma=sigma)
        traj = run(problem, sched, init, budget=int(math.ceil(T / s)), tol=0.0)
        X, Y = integrate(init, T, s / 100.0, s, tau, sigma, problem)
        sup = 0.0
        for k, x_next, y_next in zip(traj.k.tolist(), traj.x_next, traj.y_next):
            idx = (k + 1) * 100
            if (k + 1) * s > T + 1e-12 or idx >= len(X):
                continue
            dx, dy = x_next - X[idx], y_next - Y[idx]
            sup = max(sup, math.sqrt(float(dx @ dx) + float(dy @ dy)))
        sups.append(sup)
    ratios = ", ".join(f"{sups[i + 1] / sups[i]:.3f}" for i in range(2))
    result = cli._check_ode_compare(built.problem, schedule)
    assert result.detail in (f"halving ratios {ratios}", f"halving ratios {ratios} exceed 0.7")


# numpy warns of the overflows these moduli are built to cause
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("moduli", [{"mu": 1e200}, {"gamma": 1e200}])
def test_ode_compare_names_a_newton_failure(tmp_path, capsys, moduli):
    # the implicit-Euler reference cannot meet the absolute Newton residual
    # 1e-10 on this scale: a verdict, not a traceback
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, **moduli},
        "regime": "fixed",
        "budget": 50,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    pattern = (
        r"check\.ode_compare = FAIL \(implicit-Euler Newton solve did not reach "
        r"residual 1e-10 at step h=\S+\)"
    )
    assert re.search(pattern, capsys.readouterr().out)


# the instance build squares a residual past the double range and warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_optimal_ss_moduli_ratio_past_the_double_range_is_exit_2(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "mu": 1e-200, "gamma": 1e200},
        "regime": "optimal_ss",
        "budget": 10,
        "checks": [],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert "config error: gamma/mu = inf puts the derived steps" in capsys.readouterr().err


# numpy warns of the overflows these moduli are built to cause
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("regime", ["fixed", "varying_sc", "accelerated", "optimal_ss"])
def test_extreme_moduli_never_exit_through_a_traceback(tmp_path, regime):
    for mu, gamma in [(1, 1), (1e-200, 1e200), (1e200, 1e-200), (1e200, 1), (1, 1e200)]:
        doc = {
            "instance": {"kind": "quad_pair", "d": 2, "mu": mu, "gamma": gamma},
            "regime": regime,
            "budget": 50,
            "checks": ["lemma", "theorem", "rate_fit", "ode_compare"],
        }
        assert main(["verify", write_config(tmp_path, doc)]) in (0, 1, 2), (mu, gamma)


def test_rate_fit_skip_names_the_window_start_and_the_last_k(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 4},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["rate_fit"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert (
        "check.rate_fit = SKIPPED (the fit window starts at k=100 and the run ends at k=49)"
        in capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "regime, form, detail",
    [
        ("varying_sc", "lyapunov", r"Lyapunov bound exceeded, worst ratio \S+"),
        ("varying_sc", "trajectory", r"trajectory bound exceeded at k=0: \S+ > \S+"),
        ("accelerated", "lyapunov", r"O\(1/k\^2\) bound exceeded at k=1: \S+ > \S+"),
        ("optimal_ss", "trajectory",
         r"terminal weighted distance \S+ exceeds sandwich \S+"),
    ],
)
def test_theorem_fails_on_exceeded_bound(monkeypatch, regime, form, detail):
    real_bound = cli.theorem_bound

    def shrunk(schedule, problem, table):
        bound, trajectory = real_bound(schedule, problem, table)
        if form == "lyapunov":
            return bound * 1e-12, trajectory
        return bound, trajectory * 1e-12

    monkeypatch.setattr(cli, "theorem_bound", shrunk)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": regime,
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False, quiet=True)
    assert code == 1
    assert any(re.fullmatch(rf"check\.theorem = FAIL \({detail}\)", line) for line in lines)


def test_theorem_fails_on_contraction_above_rho(monkeypatch):
    monkeypatch.setattr(cli, "rho_rate", lambda *args: 0.125)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "optimal_ss",
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False, quiet=True)
    assert code == 1
    pattern = r"check\.theorem = FAIL \(contraction ratio \S+ exceeds rho=0\.125\)"
    assert any(re.fullmatch(pattern, line) for line in lines)


def test_lemma_fails_on_slack_violation(monkeypatch):
    monkeypatch.setattr(cli, "slack_tolerance", lambda E: -1e9)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["lemma"],
    }))
    code, lines, _ = execute(config, write_trajectory=False, quiet=True)
    assert code == 1
    pattern = r"check\.lemma = FAIL \(slack violation at k=\d+, margin=-1\.000e\+09\)"
    assert any(re.fullmatch(pattern, line) for line in lines)


@pytest.mark.parametrize("regime", ["varying_sc", "accelerated"])
def test_execute_evaluates_each_lyapunov_value_once(monkeypatch, regime):
    calls = {"E": 0, "NE": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, key in (
        ("lyapunov_fixed", "E"), ("lyapunov_accelerated", "E"), ("numerical_error", "NE")
    ):
        monkeypatch.setattr(lyapunov, name, counted(getattr(lyapunov, name), key))
    trajectories = []
    real_run = cli.run

    def recording_run(*args, **kwargs):
        trajectories.append(real_run(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(cli, "run", recording_run)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": regime,
        "budget": 200,
        "record_every": 1,
        "checks": ["lemma", "theorem", "rate_fit"],
    }))
    code, lines, _ = execute(config, write_trajectory=False, quiet=True)
    assert code == 0
    assert any(line.startswith("check.lemma = PASS") for line in lines)
    K = len(trajectories[0].k)
    assert K > 1
    assert calls["E"] <= K + 1
    assert calls["NE"] <= K


def test_theorem_and_csv_share_one_bound_per_record(tmp_path, monkeypatch):
    calls = []
    real_bound = cli.theorem_bound

    def counted(*args, **kwargs):
        calls.append(args)
        return real_bound(*args, **kwargs)

    monkeypatch.setattr(cli, "theorem_bound", counted)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 200,
        "checks": ["theorem"],
        "output": str(tmp_path),
    }))
    code, lines, _ = execute(config, write_trajectory=True, quiet=True)
    assert code == 0
    assert "check.theorem = PASS (Lyapunov and trajectory bounds hold)" in lines
    rows = read_rows(tmp_path / "trajectory.csv")
    K = len(rows)
    assert K > 1
    assert all(math.isfinite(float(row["theorem_bound"])) for row in rows)
    # one call for the CSV column and both bounds of the check: no per-row calls
    assert len(calls) == 1


def test_verify_skips_lemma_outside_its_scope(tmp_path, capsys):
    # fixed-step runs on a merely convex problem: no descent lemma applies,
    # and skipping is not a failure
    doc = {
        "instance": {"kind": "lasso", "d1": 4, "seed": 0, "lam": 0.5},
        "regime": "fixed",
        "budget": 50,
        "checks": ["lemma", "theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    stdout = capsys.readouterr().out
    assert "check.lemma = SKIPPED" in stdout
    assert "check.theorem = SKIPPED" in stdout
    assert "exit_status = 0" in stdout


# ---------------------------------------------------------------------------
# sweep


def sweep_doc(out):
    return {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 1},
        "regime": "varying_sc",
        "budget": 150,
        "checks": ["lemma"],
        "output": str(out),
        "sweep": {"c": [0.5, 0.25], "s": [0.4, 0.2]},
    }


def test_sweep_runs_grid(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", write_config(tmp_path, sweep_doc(out))]) == 0

    rows = read_rows(out / "sweep_summary.csv")
    assert [row["cell"] for row in rows] == [
        "cell_0_0", "cell_0_1", "cell_1_0", "cell_1_1",
    ]
    assert [float(row["c"]) for row in rows] == [0.5, 0.5, 0.25, 0.25]
    assert [float(row["s"]) for row in rows] == [0.4, 0.2, 0.4, 0.2]
    assert all(row["exit_status"] == "0" for row in rows)
    for row in rows:
        cell_dir = out / row["cell"]
        assert (cell_dir / "trajectory.csv").exists()
        assert "check.lemma = PASS" in (cell_dir / "summary.txt").read_text()

    with open(out / "sweep_summary.csv", newline="") as fh:
        header = fh.readline().strip()
    assert header == "cell,c,s,slope,slope_residual,geomean_ratio,exit_status"


def reference_run_sweep_doc(out):
    # lam = 0.05 lies below the closed-form threshold: the saddle is a reference run
    return {
        "instance": {"kind": "gen_lasso", "d": 20, "lam": 0.05, "identity_a": True},
        "regime": "varying_sc",
        "budget": 300,
        "checks": ["lemma", "theorem", "rate_fit"],
        "output": str(out),
        "sweep": {"c": [0.5, 0.25], "s": [0.4, 0.2]},
    }


def test_sweep_cells_match_standalone_runs(tmp_path):
    # the cells share one instance and one saddle, yet each writes what a
    # standalone run of its own config writes
    out = tmp_path / "sweep"
    doc = reference_run_sweep_doc(out)
    assert main(["sweep", write_config(tmp_path, doc)]) == 0
    for row in read_rows(out / "sweep_summary.csv"):
        alone = tmp_path / "alone" / row["cell"]
        cell_doc = {key: value for key, value in doc.items() if key != "sweep"}
        cell_doc.update(schedule={"c": float(row["c"]), "s": float(row["s"])}, output=str(alone))
        code = main(["run", write_config(tmp_path, cell_doc, f"{row['cell']}.json")])
        assert str(code) == row["exit_status"]
        for name in ("trajectory.csv", "summary.txt"):
            assert (out / row["cell"] / name).read_bytes() == (alone / name).read_bytes()


def test_sweep_rejects_bad_cell_before_running_any(tmp_path, capsys):
    out = tmp_path / "out"
    doc = sweep_doc(out)
    doc["sweep"] = {"c": [0.5, 2.0]}  # second cell sits on the c < 2*mu boundary
    assert main(["sweep", write_config(tmp_path, doc)]) == 2
    stderr = capsys.readouterr().err
    assert "sweep cell (1, 0)" in stderr
    assert not (out / "cell_0_0").exists()


def test_sweep_build_error_names_no_cell(tmp_path, capsys):
    # the instance is built once for the whole sweep, so no cell caused it
    out = tmp_path / "out"
    doc = sweep_doc(out)
    doc["instance"]["mu"] = 0.0
    assert main(["sweep", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "config error: instance: quad_pair instances need mu > 0 and gamma > 0\n"
    )
    assert not out.exists()


def test_sweep_runs_when_every_cell_overrides_an_invalid_base_schedule(tmp_path):
    # only the cells' schedules are made, so the base schedule.c never is
    out = tmp_path / "out"
    doc = sweep_doc(out)
    doc["schedule"] = {"c": 2.0}  # on the c < 2*mu boundary
    assert main(["sweep", write_config(tmp_path, doc)]) == 0
    assert len(read_rows(out / "sweep_summary.csv")) == 4


# ---------------------------------------------------------------------------
# instance builds


def count_builds(monkeypatch):
    builds = []
    real_build = config_module.build_instance

    def counted(spec):
        builds.append(spec)
        return real_build(spec)

    monkeypatch.setattr(config_module, "build_instance", counted)
    return builds


@pytest.mark.parametrize("command", ["run", "verify", "info", "sweep"])
def test_each_command_builds_the_instance_once(tmp_path, monkeypatch, command):
    # the sweep's four cells share its one instance
    builds = count_builds(monkeypatch)
    doc = {
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["lemma", "theorem"],
        "output": str(tmp_path / "out"),
        "sweep": {"c": [0.5, 0.25], "s": [0.4, 0.2]},
    }
    assert main([command, write_config(tmp_path, doc)]) == 0
    assert len(builds) == 1


@pytest.mark.parametrize("command, runs", [("run", 1), ("verify", 1), ("info", 0), ("sweep", 1)])
def test_each_command_resolves_the_reference_saddle_at_most_once(
    tmp_path, monkeypatch, command, runs
):
    calls = []
    real_reference_saddle = cli.reference_saddle

    def counted(problem):
        calls.append(problem)
        return real_reference_saddle(problem)

    monkeypatch.setattr(cli, "reference_saddle", counted)
    doc = reference_run_sweep_doc(tmp_path / "out")
    assert main([command, write_config(tmp_path, doc)]) == 0
    assert len(calls) == runs


# ---------------------------------------------------------------------------
# info and error paths


def test_info_prints_resolved_constants(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "seed": 0},
        "regime": "accelerated",
    }
    assert main(["info", write_config(tmp_path, doc)]) == 0
    stdout = capsys.readouterr().out
    assert "regime = accelerated" in stdout
    assert "rate.K0 = 1" in stdout
    assert "admissibility.margin = " in stdout
    assert "checks = (none)" in stdout


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.json")]) == 2
    assert "i/o error" in capsys.readouterr().err


def test_bad_config_is_exit_2(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "fixed",
        "schedule": {"momentum": 0.9},
    }
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "schedule.momentum" in capsys.readouterr().err


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_number_is_exit_2(tmp_path, capsys, number):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "fixed",
        "schedule": {"s": "NUMBER"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc).replace('"NUMBER"', number))
    assert main(["verify", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, doc",
    [
        ("budget", {"budget": True}),
        ("record_every", {"record_every": True}),
        ("instance.d", {"instance": {"kind": "quad_pair", "d": True}}),
        ("instance.d1", {"instance": {"kind": "quad_pair", "d1": True}}),
        ("instance.d2", {"instance": {"kind": "quad_pair", "d": 2, "d2": True}}),
        ("instance.seed", {"instance": {"kind": "quad_pair", "d": 2, "seed": False}}),
        ("instance.m", {"instance": {"kind": "lasso", "d": 2, "lam": 0.5, "m": True}}),
    ],
)
def test_boolean_for_integer_key_is_exit_2(tmp_path, capsys, key, doc):
    # bool subclasses int, yet true/false is no integer
    doc = {"instance": {"kind": "quad_pair", "d": 2}, "regime": "fixed", **doc}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert f'key "{key}" must be an integer' in capsys.readouterr().err


def test_verify_large_total_variation_instance(tmp_path, capsys):
    # the first-difference norm at d = 400 is exact, so every check runs
    doc = {
        "instance": {"kind": "gen_lasso", "d": 400, "lam": 0.05, "identity_a": True},
        "regime": "varying_sc",
        "budget": 200,
        "checks": ["lemma", "theorem", "rate_fit"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    stdout = capsys.readouterr().out
    assert "saddle.source = reference_run" in stdout
    for name in ("lemma", "theorem", "rate_fit"):
        assert f"check.{name} = PASS" in stdout


def test_verify_total_variation_at_large_lam_uses_closed_form(tmp_path, capsys, monkeypatch):
    # lam = 100 exceeds ||y*||_inf, so no reference run is needed
    def no_reference_run(problem):
        raise AssertionError("reference_saddle called")

    monkeypatch.setattr(cli, "reference_saddle", no_reference_run)
    doc = {
        "instance": {"kind": "gen_lasso", "d": 400, "lam": 100.0, "identity_a": True},
        "regime": "varying_sc",
        "budget": 200,
        "checks": ["lemma", "theorem", "rate_fit"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    stdout = capsys.readouterr().out
    assert "saddle.source = closed_form" in stdout
    for name in ("lemma", "theorem", "rate_fit"):
        assert f"check.{name} = PASS" in stdout


@pytest.mark.parametrize(
    "key, instance",
    [
        ("instance.d2", {"kind": "lasso", "d": 4, "lam": 0.5, "d2": 7}),
        ("instance.d2", {"kind": "gen_lasso", "d": 4, "lam": 0.5, "d2": 3}),
        ("instance.lam", {"kind": "quad_pair", "d": 4, "lam": 3.0}),
        ("instance.cond", {"kind": "quad_pair", "d": 4, "cond": 5.0}),
        ("instance.m", {"kind": "quad_pair", "d": 4, "m": 8}),
        ("instance.identity_a", {"kind": "quad_pair", "d": 4, "identity_a": False}),
        ("instance.m", {"kind": "lasso", "d": 4, "lam": 0.5, "identity_a": True, "m": 8}),
        ("instance.cond", {"kind": "gen_lasso", "d": 4, "lam": 0.5, "identity_a": True,
                           "cond": 5.0}),
    ],
)
def test_instance_key_the_kind_ignores_is_exit_2(tmp_path, capsys, key, instance):
    doc = {"instance": instance, "regime": "fixed"}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert f'key "{key}"' in capsys.readouterr().err


def test_duplicate_check_is_exit_2(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "optimal_ss",
        "checks": ["lemma", "theorem", "lemma"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert 'check "lemma" appears twice' in capsys.readouterr().err


def csv_writer_reference(path, columns):
    """The trajectory CSV as ``csv.writer`` writes it: k as an integer, every
    other value with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in zip(*columns):
            writer.writerow([str(int(row[0]))] + [f"{float(v):.17g}" for v in row[1:]])


def test_csv_matches_csv_writer_byte_for_byte(tmp_path):
    rng = np.random.default_rng(0)
    n = 64
    special = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 1.0 / 3.0]
    values = []
    for _ in range(11):
        column = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        column[: len(special)] = rng.permutation(special)
        values.append(column)
    k = np.arange(n) * 7
    traj = SimpleNamespace(
        k=k, tau=values[0], sigma=values[1], theta=values[2],
        primal_residual=values[9], dual_residual=values[10],
    )
    table = SimpleNamespace(dist_x=values[3], dist_y=values[4], E=values[5], ne=values[6])
    cli._write_csv(tmp_path / "got.csv", traj, table, values[7], values[8])
    csv_writer_reference(tmp_path / "want.csv", [k] + values)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    # without a table, slacks or bounds those columns are nan
    cli._write_csv(tmp_path / "got.csv", traj, None, None, None)
    undefined = np.full(n, math.nan)
    csv_writer_reference(
        tmp_path / "want.csv", [k] + values[:3] + [undefined] * 6 + values[9:]
    )
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_cli_csv_is_csv_writer_format(tmp_path):
    out = tmp_path / "out"
    doc = {
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["lemma", "theorem"],
        "output": str(out),
    }
    assert main(["run", write_config(tmp_path, doc)]) == 0
    rows = read_rows(out / "trajectory.csv")
    columns = [[float(row[name]) for row in rows] for name in CSV_COLUMNS]
    csv_writer_reference(tmp_path / "want.csv", columns)
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_unreservable_trajectory_is_exit_2(tmp_path, capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 29.8 GiB")

    monkeypatch.setattr(cli, "run", refused)
    doc = {"instance": {"kind": "quad_pair", "d": 4}, "regime": "fixed", "budget": 10**9}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert "lower budget or raise record_every" in capsys.readouterr().err


def test_budget_past_the_array_size_limit_is_exit_2(tmp_path, capsys):
    # numpy refuses this shape before it allocates anything
    doc = {"instance": {"kind": "quad_pair", "d": 4}, "regime": "fixed", "budget": 10**20}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "cannot be reserved" in err
    assert "lower budget or raise record_every" in err


def test_instance_too_large_to_build_is_exit_2_without_budget_advice(
    tmp_path, capsys, monkeypatch
):
    def refused(spec):
        raise MemoryError("Unable to allocate 14.6 TiB")

    monkeypatch.setattr(config_module, "build_instance", refused)
    doc = {"instance": {"kind": "lasso", "d": 10**6, "lam": 0.1}, "regime": "fixed"}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "config error: Unable to allocate 14.6 TiB\n"


def test_inadmissible_schedule_is_exit_2(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "fixed",
        "schedule": {"s": 1.5},
    }
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "admissibility" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"instance": {"kind": "quad_pair", "d": 4, "seed": 1}, "regime": "varying_sc",
          "schedule": {"c": 2.0}}, r"c must lie strictly inside \(0, 2\*mu\)"),
        ({"instance": {"kind": "quad_pair", "d": 4, "seed": 1}, "regime": "accelerated",
          "schedule": {"c": 1.0}}, r"c must lie strictly inside \(0, mu\)"),
        ({"instance": {"kind": "lasso", "d1": 5, "seed": 0, "lam": 0.5},
          "regime": "optimal_ss"}, "gamma must be positive"),
        ({"instance": {"kind": "lasso", "d1": 5, "m": 3, "seed": 0, "lam": 0.5},
          "regime": "varying_sc"}, "mu must be positive"),
        ({"instance": {"kind": "quad_pair", "d": 4, "seed": 1}, "regime": "fixed",
          "schedule": {"s": 1.5}}, "admissibility"),
        ({"instance": {"kind": "quad_pair", "d": 4, "seed": 1}, "regime": "fixed",
          "schedule": {"c": 0.5}}, "c is not a fixed-regime parameter"),
    ],
)
def test_derived_precondition_is_exit_2_before_any_output(tmp_path, capsys, doc, message):
    with pytest.raises(ConfigError, match=message) as raised:
        materialize(parse_config(json.dumps(doc)))
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, {**doc, "output": str(out)})]) == 2
    assert capsys.readouterr().err == f"config error: {raised.value}\n"
    assert not out.exists()


def test_accelerated_lemma_with_a_record_stride_is_exit_2(tmp_path, capsys):
    # the accelerated lemma needs every step; a stride cannot be checked as asked
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "seed": 1},
        "regime": "accelerated",
        "budget": 30,
        "record_every": 3,
        "checks": ["lemma"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert 'key "record_every" must be 1' in capsys.readouterr().err
