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

from pdhglab import cli, lyapunov, zoo
from pdhglab.cli import CSV_COLUMNS, JOBS_ENV_VAR, execute, main
from pdhglab.config import materialize, parse_config
from pdhglab.engine import run
from pdhglab.lyapunov import lyapunov_fixed, numerical_error
from pdhglab.problems import PrimalDualPair


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
    monkeypatch.setattr(cli, "theorem_bound", lambda *args, **kwargs: math.nan)
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

    def shrunk(regime, k, form="lyapunov", **kwargs):
        value = real_bound(regime, k, form=form, **kwargs)
        return value * 1e-12 if form == shrink else value

    shrink = form
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
    assert len(calls) <= 2 * K


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


def test_sweep_runs_grid(tmp_path, monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    out = tmp_path / "serial"
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


def test_sweep_parallel_output_is_identical(tmp_path, monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    serial = tmp_path / "serial"
    assert main(["sweep", write_config(tmp_path, sweep_doc(serial), "a.json")]) == 0

    monkeypatch.setenv(JOBS_ENV_VAR, "2")
    parallel = tmp_path / "parallel"
    assert main(["sweep", write_config(tmp_path, sweep_doc(parallel), "b.json")]) == 0

    assert (serial / "sweep_summary.csv").read_bytes() == (
        parallel / "sweep_summary.csv"
    ).read_bytes()
    for cell in ("cell_0_0", "cell_0_1", "cell_1_0", "cell_1_1"):
        assert (serial / cell / "trajectory.csv").read_bytes() == (
            parallel / cell / "trajectory.csv"
        ).read_bytes()


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_sweep_rejects_bad_jobs_value(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv(JOBS_ENV_VAR, value)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    assert main(["sweep", write_config(tmp_path, sweep_doc(out))]) == 2
    assert JOBS_ENV_VAR in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_bad_cell_before_running_any(tmp_path, capsys):
    out = tmp_path / "out"
    doc = sweep_doc(out)
    doc["sweep"] = {"c": [0.5, 2.0]}  # second cell sits on the c < 2*mu boundary
    assert main(["sweep", write_config(tmp_path, doc)]) == 2
    stderr = capsys.readouterr().err
    assert "sweep cell (1, 0)" in stderr
    assert not (out / "cell_0_0").exists()


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


def test_inadmissible_schedule_is_exit_2(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "fixed",
        "schedule": {"s": 1.5},
    }
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "admissibility" in capsys.readouterr().err
