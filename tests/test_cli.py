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
    rec = traj.records[0]
    saddle = built.saddle
    assert saddle is not None

    assert int(row["k"]) == rec.k == 0
    assert float(row["tau_k"]) == rec.tau
    assert float(row["sigma_k"]) == rec.sigma
    assert float(row["theta_k"]) == rec.theta == 1.0
    assert float(row["dist_x_sq"]) == float((rec.x - saddle.x) @ (rec.x - saddle.x))
    assert float(row["dist_y_sq"]) == float((rec.y - saddle.y) @ (rec.y - saddle.y))
    E = lyapunov_fixed(rec.x, rec.y, saddle, rec.tau, rec.sigma, problem.F)
    ne = numerical_error(
        rec.x_next - rec.x, rec.y_next - rec.y, rec.tau, rec.sigma, problem.F
    )
    assert float(row["lyapunov"]) == E
    assert float(row["ne"]) == ne
    # no lemma check requested and no fixed-regime bound: both columns are nan
    assert math.isnan(float(row["lemma_slack"]))
    assert math.isnan(float(row["theorem_bound"]))
    assert float(row["primal_residual"]) == rec.primal_residual
    assert float(row["dual_residual"]) == rec.dual_residual


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
    K = len(trajectories[0].records)
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


def test_inadmissible_schedule_is_exit_2(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "fixed",
        "schedule": {"s": 1.5},
    }
    assert main(["run", write_config(tmp_path, doc)]) == 2
    assert "admissibility" in capsys.readouterr().err
