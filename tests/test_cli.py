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
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from pdhglab import cli, config as config_module, dynamics, engine, lyapunov, zoo
from pdhglab.cli import CSV_COLUMNS, execute, main
from pdhglab.config import ConfigError, materialize, parse_config
from pdhglab.dynamics import reference_states
from pdhglab.lyapunov import Claim, numerical_error
from pdhglab.problems import PrimalDualPair
from pdhglab.schedules import FIXED, Schedule, schedule_at
from recording import recorded_run


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def bound_ratios(rows, column):
    """The ``column``/theorem_bound ratios of CSV rows with a finite bound,
    as (ratio, k) pairs in row order."""
    return [
        (float(row[column]) / float(row["theorem_bound"]), int(row["k"]))
        for row in rows if math.isfinite(float(row["theorem_bound"]))
    ]


def tightest_ratio(rows, column):
    """The largest ``column``/theorem_bound ratio of CSV rows with a finite
    bound, and its k."""
    return max(bound_ratios(rows, column), key=lambda pair: pair[0])


def patch_claims(monkeypatch, change):
    """Have the CLI check ``change(claim)`` in place of each claim of the
    regime's real theorem."""
    real_bound = cli.theorem_bound

    def patched(problem, table):
        theorem = real_bound(problem, table)
        return replace(theorem, claims=tuple(change(claim) for claim in theorem.claims))

    monkeypatch.setattr(cli, "theorem_bound", patched)


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
    traj, states, _ = recorded_run(problem, schedule, init, budget=1, tol=1e-10, record_every=1)
    saddle = built.saddle
    assert saddle is not None

    x, y, x_next, y_next = states.x[0], states.y[0], states.x_next[0], states.y_next[0]
    (tau,), (sigma,), (theta,) = schedule_at(schedule, traj.k)
    assert int(row["k"]) == traj.k[0] == 0
    assert float(row["tau_k"]) == tau
    assert float(row["sigma_k"]) == sigma
    assert float(row["theta_k"]) == theta == 1.0
    assert float(row["dist_x_sq"]) == float((x - saddle.x) @ (x - saddle.x))
    assert float(row["dist_y_sq"]) == float((y - saddle.y) @ (y - saddle.y))
    E = numerical_error(x - saddle.x, y - saddle.y, tau, sigma, problem.F)
    ne = numerical_error(x_next - x, y_next - y, tau, sigma, problem.F)
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
        r"check\.lemma = PASS \(descent lemma holds: tightest \S+ at k=\d+, final \S+ at k=\d+, "
        r"least margin \S+ at k=\d+\)", stdout
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


def test_accelerated_theorem_pass_names_its_tightest_ratio(tmp_path, capsys):
    # c = 0.9 puts K0 = ceil(0.9 / 0.2) = 5: rows below K0 carry no bound
    out = tmp_path / "out"
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "seed": 0, "mu": 1.0, "gamma": 1.0},
        "regime": "accelerated",
        "schedule": {"c": 0.9},
        "budget": 300,
        "checks": ["theorem"],
        "output": str(out),
    }
    assert main(["run", write_config(tmp_path, doc)]) == 0
    rows = read_rows(out / "trajectory.csv")
    ratio, k = tightest_ratio(rows, "dist_x_sq")
    final_ratio, last_k = bound_ratios(rows, "dist_x_sq")[-1]
    match = re.search(
        r"check\.theorem = PASS \(O\(1/k\^2\) bound holds: tightest (\S+) at k=(\d+), "
        r"final (\S+) at k=(\d+), least margin \S+ at k=\d+\)",
        capsys.readouterr().out,
    )
    assert match and int(match[2]) == k >= 5 and int(match[4]) == last_k == 300
    assert float(match[1]) == pytest.approx(ratio, rel=1e-5) and 0.0 < ratio <= 1.0
    assert float(match[3]) == pytest.approx(final_ratio, rel=1e-5)


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
    assert "check.lemma = FAIL (Lyapunov value is nan at k=1)" in stdout


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
    patch_claims(monkeypatch, lambda c: replace(c, bound=np.full_like(c.bound, math.nan)))
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": regime,
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False)
    assert code == 1
    first = {"varying_sc": r"Lyapunov bound", "accelerated": r"O\(1/k\^2\) bound"}[regime]
    assert any(
        re.fullmatch(rf"check\.theorem = FAIL \({first} not finite at k=\d+: \S+ vs nan\)", ln)
        for ln in lines
    )


def test_theorem_fails_on_infinite_bound(monkeypatch):
    # an overflowed bound holds every value below it: it must not pass
    patch_claims(monkeypatch, lambda c: replace(c, bound=np.full_like(c.bound, math.inf)))
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False)
    assert code == 1
    pattern = r"check\.theorem = FAIL \(Lyapunov bound not finite at k=0: \S+ vs inf\)"
    assert any(re.fullmatch(pattern, line) for line in lines)


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
    assert re.search(
        r"check\.theorem = PASS \(Lyapunov bound holds: tightest \S+ at k=\d+, final \S+ at k=49, "
        r"least margin \S+ at k=\d+; trajectory bound holds: tightest \S+ at k=\d+, "
        r"final \S+ at k=49, least margin \S+ at k=\d+\)",
        capsys.readouterr().out,
    )


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
        _, states, _ = recorded_run(problem, sched, init, budget=int(math.ceil(T / s)), tol=0.0)
        X, Y = reference_states(init, T, s, tau, sigma, problem)
        sup = 0.0
        for k, x_next, y_next in zip(states.k.tolist(), states.x_next, states.y_next):
            if (k + 1) * s > T + 1e-12:
                continue
            dx, dy = x_next - X[k + 1], y_next - Y[k + 1]
            sup = max(sup, math.sqrt(float(dx @ dx) + float(dy @ dy)))
        sups.append(sup)
    ratios = ", ".join(f"{sups[i + 1] / sups[i]:.3f}" for i in range(2))
    result = cli._check_ode_compare(built.problem, schedule)
    assert result.detail in (f"halving ratios {ratios}", f"halving ratios {ratios} exceed 0.7")


def count_reference_builds(monkeypatch):
    """The reference of each level the check builds, as (s, states)."""
    builds = []

    def counting(init, T, s, *args):
        X, Y = reference_states(init, T, s, *args)
        builds.append((s, len(X)))
        return X, Y

    monkeypatch.setattr(cli, "reference_states", counting)
    return builds


def count_integrate_calls(monkeypatch):
    """The step h of each implicit-Euler run that ``dynamics`` takes."""
    calls = []
    integrate = dynamics.integrate

    def counting(*args):
        calls.append(args[2])
        return integrate(*args)

    monkeypatch.setattr(dynamics, "integrate", counting)
    return calls


def test_ode_compare_takes_a_fourth_level_when_the_first_halving_is_pre_asymptotic(
    tmp_path, capsys, monkeypatch
):
    # the first halving barely shrinks the error (ratio 1.009); from the
    # second on the run is first order, and the verdict reads the last two
    builds = count_reference_builds(monkeypatch)
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "seed": 3},
        "regime": "fixed",
        "budget": 300,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert len(builds) == 4
    match = re.search(
        r"^check\.ode_compare = PASS \(halving ratios (\S+), (\S+), (\S+)\)$",
        capsys.readouterr().out, re.M,
    )
    first, *last_two = map(float, match.groups())
    assert first > 0.7 and max(last_two) <= 0.7


def test_ode_compare_keeps_three_levels_when_the_first_halving_is_first_order(
    tmp_path, capsys, monkeypatch
):
    builds = count_reference_builds(monkeypatch)
    doc = {
        "instance": {"kind": "quad_pair", "d": 16, "seed": 1},
        "regime": "fixed",
        "budget": 2000,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert len(builds) == 3
    want = "PASS (halving ratios 0.587, 0.554)"
    assert f"check.ode_compare = {want}" in capsys.readouterr().out


def test_ode_compare_cost_follows_the_pdhg_steps_not_a_hundred_reference_steps_each(
    tmp_path, capsys, monkeypatch
):
    # at s = 0.1 the exact flow gives the ceil(10/s) + 1 states compared, in
    # place of 100 implicit-Euler steps per PDHG step
    builds = count_reference_builds(monkeypatch)
    calls = count_integrate_calls(monkeypatch)
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "fixed",
        "schedule": {"s": 0.1},
        "budget": 40,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert "check.ode_compare = PASS" in capsys.readouterr().out
    assert len(builds) == 3 and calls == []
    for level, (s, states) in enumerate(builds):
        assert s == 0.1 * 0.5**level
        assert states == math.ceil(10 / s) + 1


def test_ode_compare_takes_no_implicit_euler_step_on_a_stiff_pair(tmp_path, capsys, monkeypatch):
    # mu = 1, gamma = 1e200: one rate of each block lies near 1e200, and the
    # exact flow still gives every level's states
    builds = count_reference_builds(monkeypatch)
    calls = count_integrate_calls(monkeypatch)
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "mu": 1, "gamma": 1e200},
        "regime": "fixed",
        "budget": 50,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert "check.ode_compare = PASS" in capsys.readouterr().out
    assert len(builds) == 3 and calls == []
    assert all(states == math.ceil(10 / s) + 1 for s, states in builds)


@pytest.mark.parametrize("moduli", [{"mu": 1e200}, {"gamma": 1e200}])
def test_ode_compare_refuses_gradients_off_the_affine_map(tmp_path, capsys, monkeypatch, moduli):
    # gradients whose Hessians are not mu I and gamma I fail the reference's
    # certificate: a verdict, not a traceback, and at these moduli no warning
    make_quad_pair = zoo.make_quad_pair

    def anisotropic(a, b_hat, mu, gamma, F):
        problem, saddle = make_quad_pair(a, b_hat, mu, gamma, F)
        wx, wy = np.arange(1.0, a.size + 1), np.arange(1.0, b_hat.size + 1)
        grad_f, grad_gstar = problem.grad_f, problem.grad_gstar
        return replace(
            problem, grad_f=lambda x: wx * grad_f(x), grad_gstar=lambda y: wy * grad_gstar(y)
        ), saddle

    monkeypatch.setattr(zoo, "make_quad_pair", anisotropic)
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, **moduli},
        "regime": "fixed",
        "budget": 50,
        "checks": ["ode_compare"],
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", write_config(tmp_path, doc)]) == 1
    assert not caught
    pattern = (
        r"^check\.ode_compare = FAIL \(exact-flow reference state at t=\S+ is not "
        r"finite, or its gradients are not the affine map J z \+ G\(0\) of moduli mu "
        r"and gamma at step s=\S+\)$"
    )
    assert re.search(pattern, capsys.readouterr().out, re.M)


def test_ode_compare_names_an_ill_conditioned_mass_matrix(tmp_path, capsys):
    # tau sigma ||F||^2 = 0.1, but steps 1e300 and 1e-301 put the mass
    # matrix's diagonal blocks 600 decades apart: a verdict, not a traceback
    doc = {
        "instance": {"kind": "quad_pair", "d": 4},
        "regime": "fixed",
        "schedule": {"tau": 1e300, "sigma": 1e-301},
        "budget": 50,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    pattern = r"^check\.ode_compare = FAIL \(mass matrix is ill-conditioned: condition number inf > 1e14"
    assert re.search(pattern, capsys.readouterr().out, re.M)


@pytest.mark.parametrize("moduli", [{"mu": 1e200}, {"gamma": 1e200}])
def test_ode_compare_certifies_a_stiff_step_at_its_rounding_floor(tmp_path, capsys, moduli):
    # 1e200 (x - a) (or (y - b)) moves by about 1e184 as x (or y) moves
    # one ulp; the certificate's floor scales with |J| |z|, so every
    # reference state meets it, and the halvings pass
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, **moduli},
        "regime": "fixed",
        "budget": 50,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "not the affine map" not in out
    assert re.search(r"^check\.ode_compare = PASS \(halving ratios \S+, \S+\)$", out, re.M)


@pytest.mark.parametrize(
    "moduli, verdict",
    [
        (1e-200, "PASS (halving ratios 0.191, 0.242)"),
        (1e-300, "PASS (halving ratios 0.191, 0.242)"),
        (1e300, "SKIPPED (discretization error at or below the rounding floor: sup errors "
         "5.55e-17, 5.55e-17, 5.55e-17, floors 6.83e-15, 6.83e-15, 6.83e-15)"),
        (1.7e308, "SKIPPED (discretization error at or below the rounding floor: sup errors "
         "4.16e-17, 4.16e-17, 4.16e-17, floors 6.83e-15, 6.83e-15, 6.83e-15)"),
    ],
)
def test_ode_compare_rescales_a_distance_whose_square_underflows(tmp_path, capsys, moduli, verdict):
    # at mu = gamma = 1e-200 the iterates stay about 1e-201 from the
    # reference, whose square underflows to 0: rescaled, the sup errors of
    # levels 0-3 are 1.39e-201, 2.66e-202, 6.42e-203 and 1.59e-203, far
    # above their rounding floors near 2e-214; at 1e300 and 1.7e308 iterate
    # and reference both sit at the saddle, up to the rounding of the
    # reference's rotation into and out of the singular vectors of F
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 0, "mu": moduli, "gamma": moduli},
        "regime": "fixed",
        "budget": 50,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    assert f"check.ode_compare = {verdict}\n" in capsys.readouterr().out


def test_ode_compare_skips_an_error_at_its_rounding_floor(tmp_path, capsys):
    # mu = gamma = 1e200 hold every iterate and reference state within an
    # ulp of the saddle: each level's sup error is 1.12e-16, under its floor
    # of 6.83e-15 (the runs stop at a zero residual after two steps, three
    # maps with the reference's), so the flat series is no first-order
    # failure
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 0, "mu": 1e200, "gamma": 1e200},
        "regime": "fixed",
        "budget": 50,
        "checks": ["ode_compare"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    want = (
        "check.ode_compare = SKIPPED (discretization error at or below the rounding floor: "
        "sup errors 1.12e-16, 1.12e-16, 1.12e-16, floors 6.83e-15, 6.83e-15, 6.83e-15)"
    )
    assert want in out


def test_ode_compare_fails_a_flat_error_above_its_rounding_floor(monkeypatch):
    # a sup error that does not shrink with s, a billion times its floor,
    # is a first-order failure, not rounding
    monkeypatch.setattr(
        cli, "_ode_sup_error", lambda *args: (1e-6, 1e-15)
    )
    built, schedule = materialize(parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 2}, "regime": "fixed", "budget": 10,
    })))
    result = cli._check_ode_compare(built.problem, schedule)
    assert (result.status, result.detail) == (
        cli.FAIL,
        "halving ratios 1.000, 1.000, 1.000 exceed 0.7",
    )


def test_optimal_ss_sandwich_below_the_rounding_floor_passes(tmp_path, capsys):
    # mu = 1e200 puts rho near 1e-100: the sandwich bound falls to about
    # 1e-99 while an x of order 1 lies about 1e-16 from x*, which mu weighs
    # up to about 1e168, the distance's rounding floor
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "mu": 1e200},
        "regime": "optimal_ss",
        "budget": 50,
        "checks": ["lemma", "theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    out = capsys.readouterr().out
    assert "check.lemma = PASS" in out
    assert re.search(
        r"^check\.theorem = PASS \(contraction has no rows; terminal sandwich holds: "
        r"tightest \S+ at k=3, final \S+ at k=3, least margin \S+ at k=3\)$", out, re.M,
    )


def test_optimal_ss_moduli_ratio_past_the_double_range_is_exit_2(tmp_path, capsys):
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "mu": 1e-200, "gamma": 1e200},
        "regime": "optimal_ss",
        "budget": 10,
        "checks": [],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert "config error: gamma/mu = inf puts the derived steps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "instance, regime, checks, k",
    [({"kind": "gen_lasso", "d": 10, "lam": 5, "identity_a": True}, "varying_sc", ["lemma"], 0),
     ({"kind": "quad_pair", "d": 4}, "accelerated", [], 1)],
)
def test_steps_that_underflow_at_the_start_are_exit_2(tmp_path, capsys, instance, regime, checks, k):
    # s = 1e-170 makes sigma = c s^2 underflow to 0
    doc = {"instance": instance, "regime": regime, "schedule": {"s": 1e-170}, "budget": 50,
           "checks": checks}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert f"config error: the steps at k = {k} are out of the double range: " in err
    assert err.rstrip().endswith("sigma = 0")


def test_steps_that_leave_the_double_range_within_the_budget_are_exit_2(tmp_path, capsys):
    # c = mu/2 = 8.5e307: the steps are finite at k = 0 and 1, and c (k + 1)
    # overflows from k = 2 on, inside the budget
    doc = {"instance": {"kind": "quad_pair", "d": 2, "seed": 1, "mu": 1.7e308},
           "regime": "varying_sc", "budget": 40}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == (
        "config error: the steps at k = 40 are out of the double range: "
        "tau = 0, sigma = inf; lower budget\n"
    )


def test_an_accelerated_half_step_past_the_double_range_trips_the_guard_quietly(
    tmp_path, capsys
):
    # sigma_0 gamma = c s^2 gamma overflows in the quadratic prox of the dual
    # half-step before the first step: the state is nan
    doc = {"instance": {"kind": "quad_pair", "d": 2, "seed": 2, "mu": 1e300, "gamma": 1e170},
           "regime": "accelerated", "budget": 7, "checks": ["theorem"]}
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    out, err = capsys.readouterr()
    assert "run.termination = divergence_guard" in out.splitlines()
    assert err == ""


def test_a_budget_and_a_stride_past_int64_run_to_tol(tmp_path, capsys):
    doc = {"instance": {"kind": "quad_pair", "d": 4, "seed": 3}, "regime": "fixed",
           "budget": 10**20, "record_every": 10**26}
    assert main(["verify", write_config(tmp_path, doc)]) == 0
    out, err = capsys.readouterr()
    assert "run.termination = residual_tol" in out.splitlines() and err == ""


def test_a_record_every_past_int64_records_the_first_and_last_rows(tmp_path, capsys):
    doc = {"instance": {"kind": "quad_pair", "d": 4}, "regime": "varying_sc", "budget": 50}
    outputs = []
    for record_every in (50, 10**26):
        out = tmp_path / str(record_every)
        doc.update(record_every=record_every, output=str(out))
        assert main(["run", write_config(tmp_path, doc)]) == 0
        outputs.append((out / "trajectory.csv").read_text())
    assert outputs[0] == outputs[1]
    assert [row["k"] for row in csv.DictReader(outputs[0].splitlines())] == ["0", "49"]


def test_instance_m_below_one_is_a_named_config_error(tmp_path, capsys):
    doc = {"instance": {"kind": "lasso", "d": 10, "lam": 0.1, "m": 0}, "regime": "fixed",
           "budget": 50}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert "config error: instance: m must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [("d2", -3, "d2 must be at least 1"), ("d2", 0, "d2 must be at least 1"),
     ("seed", -1, "seed must be at least 0")],
)
def test_instance_d2_and_seed_out_of_range_are_named_config_errors(
    tmp_path, capsys, key, value, message
):
    doc = {"instance": {"kind": "quad_pair", "d": 3, key: value}, "regime": "fixed"}
    assert main(["info", write_config(tmp_path, doc)]) == 2
    assert f"config error: instance: {message}" in capsys.readouterr().err


# (exit status, check.lemma, check.theorem, check.ode_compare) per (mu,
# gamma) pair, in the order of EXTREME_MODULI; None where the config is
# refused before any check.  ode_compare applies to the fixed regime only.
# At (1e-200, 1e200) and (1e200, 1e-200) one block is pinned to the saddle
# and the other drifts at a constant rate, which implicit Euler follows
# exactly: the sup errors, 2.2e-16 to 1.8e-15, are rounding under floors of
# 3.3e-14 to 3.1e-13, so ode_compare is SKIPPED there.
EXTREME_MODULI = [(1, 1), (1e-200, 1e200), (1e200, 1e-200), (1e200, 1), (1, 1e200)]
EXTREME_VERDICTS = {
    "fixed": [
        (0, "PASS", "SKIPPED", "PASS"), (1, "FAIL", "SKIPPED", "SKIPPED"),
        (1, "FAIL", "SKIPPED", "SKIPPED"), (0, "PASS", "SKIPPED", "PASS"),
        (0, "PASS", "SKIPPED", "PASS"),
    ],
    "varying_sc": [
        (0, "PASS", "PASS", "SKIPPED"), (1, "FAIL", "FAIL", "SKIPPED"),
        (1, "FAIL", "FAIL", "SKIPPED"), (0, "PASS", "PASS", "SKIPPED"),
        (0, "PASS", "PASS", "SKIPPED"),
    ],
    "accelerated": [
        (0, "PASS", "PASS", "SKIPPED"), (1, "FAIL", "SKIPPED", "SKIPPED"),
        (1, "FAIL", "FAIL", "SKIPPED"), (1, "FAIL", "FAIL", "SKIPPED"),
        (0, "PASS", "PASS", "SKIPPED"),
    ],
    "optimal_ss": [
        (0, "PASS", "PASS", "SKIPPED"), (2, None, None, None), (2, None, None, None),
        (0, "PASS", "PASS", "SKIPPED"), (0, "PASS", "PASS", "SKIPPED"),
    ],
}


@pytest.mark.parametrize("regime", ["fixed", "varying_sc", "accelerated", "optimal_ss"])
def test_extreme_moduli_never_exit_through_a_traceback(tmp_path, capsys, regime):
    for (mu, gamma), (code, *want) in zip(EXTREME_MODULI, EXTREME_VERDICTS[regime]):
        doc = {
            "instance": {"kind": "quad_pair", "d": 2, "mu": mu, "gamma": gamma},
            "regime": regime,
            "budget": 50,
            "checks": ["lemma", "theorem", "rate_fit", "ode_compare"],
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", write_config(tmp_path, doc)]) == code, (mu, gamma)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], (mu, gamma)
        verdicts = dict(re.findall(r"^check\.(\w+) = (\w+)", capsys.readouterr().out, re.M))
        assert [verdicts.get(c) for c in ("lemma", "theorem", "ode_compare")] == want, (mu, gamma)


def test_kkt_saddle_of_overflowing_moduli_is_a_named_config_error(tmp_path, capsys):
    # gamma = 1.7e308 overflows gamma * b_hat: the KKT solve gives nan, and
    # its nan residual is refused, with no RuntimeWarning
    doc = {
        "instance": {"kind": "quad_pair", "d": 2, "seed": 2, "gamma": 1.7e308},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["lemma", "theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert "config error: instance: KKT solve residual nan exceeds tolerance" in err
    assert "saddle.source" not in out


def test_accelerated_bound_with_an_underflowing_c_squared_fails_without_a_warning(
    tmp_path, capsys
):
    # c = 1.3e-300 puts c^2 below the smallest double: the bound
    # 2 E(K0) / (c^2 k^2) divides by zero and is inf, which fails
    doc = {
        "instance": {"kind": "quad_pair", "d": 2},
        "regime": "accelerated",
        "schedule": {"c": 1.3e-300},
        "budget": 20,
        "checks": ["lemma", "theorem"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    assert (
        "check.theorem = FAIL (O(1/k^2) bound not finite at k=1: 0.135892 vs inf)"
        in capsys.readouterr().out
    )


def test_claim_check_allows_exactly_its_per_row_atol():
    # measured = bound + atol passes on every row; one ulp above fails at
    # that row's k
    k = np.arange(3, 7)
    bound = np.array([-1.0, -0.3, 0.0, 2.5])
    atol = np.array([0.5, 1e-8, 0.1, 3.0])
    allowed = bound + atol
    table = SimpleNamespace(k=k, E_next=np.ones(4), dist_x_next=np.ones(4))
    result = cli._check_claims("lemma", table, Claim("descent lemma", k, allowed, bound, atol=atol))
    assert result.status == cli.PASS
    assert result.detail.endswith("least margin 0.000e+00 at k=3")
    for i in range(len(k)):
        measured = allowed.copy()
        measured[i] = np.nextafter(allowed[i], np.inf)
        claim = Claim("descent lemma", k, measured, bound, atol=atol)
        result = cli._check_claims("lemma", table, claim)
        assert result.status == cli.FAIL
        assert result.detail.startswith(f"descent lemma exceeded at k={k[i]}: ")


def test_an_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(config):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "materialize", broken)
    doc = {"instance": {"kind": "quad_pair", "d": 2}, "regime": "fixed", "budget": 10}
    assert main(["verify", write_config(tmp_path, doc)]) == 3
    assert capsys.readouterr().err == "internal error: KeyError: 'boom'\n"


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
        ("varying_sc", "lyapunov", r"Lyapunov bound exceeded at k=0: \S+ > \S+"),
        ("varying_sc", "trajectory", r"trajectory bound exceeded at k=0: \S+ > \S+"),
        ("accelerated", "lyapunov", r"O\(1/k\^2\) bound exceeded at k=1: \S+ > \S+"),
        ("optimal_ss", "trajectory", r"terminal sandwich exceeded at k=38: \S+ > \S+"),
    ],
)
def test_theorem_fails_on_exceeded_bound(monkeypatch, regime, form, detail):
    # "lyapunov" shrinks the regime's first claim, "trajectory" its last;
    # the optimal_ss sandwich, shrunk, stays above its rounding floor
    real_bound = cli.theorem_bound

    def shrunk(problem, table):
        theorem = real_bound(problem, table)
        claims = list(theorem.claims)
        i = 0 if form == "lyapunov" else -1
        claims[i] = replace(claims[i], bound=claims[i].bound * 1e-12)
        return replace(theorem, claims=tuple(claims))

    monkeypatch.setattr(cli, "theorem_bound", shrunk)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": regime,
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False)
    assert code == 1
    assert any(re.fullmatch(rf"check\.theorem = FAIL \({detail}\)", line) for line in lines)


def test_theorem_fails_on_contraction_above_rho(monkeypatch):
    monkeypatch.setattr(lyapunov, "rho_rate", lambda *args: 0.125)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "optimal_ss",
        "budget": 50,
        "checks": ["theorem"],
    }))
    code, lines, _ = execute(config, write_trajectory=False)
    assert code == 1
    pattern = r"check\.theorem = FAIL \(contraction exceeded at k=\d+: \S+ > 0\.125\)"
    assert any(re.fullmatch(pattern, line) for line in lines)


def test_lemma_fails_on_slack_violation(monkeypatch):
    monkeypatch.setattr(lyapunov, "slack_tolerance", lambda E: -1e9)
    config = parse_config(json.dumps({
        "instance": {"kind": "quad_pair", "d": 3, "seed": 1},
        "regime": "varying_sc",
        "budget": 50,
        "checks": ["lemma"],
    }))
    code, lines, _ = execute(config, write_trajectory=False)
    assert code == 1
    pattern = r"check\.lemma = FAIL \(descent lemma exceeded at k=\d+: \S+ > \S+\)"
    assert any(re.fullmatch(pattern, line) for line in lines)


@pytest.mark.parametrize("regime", ["varying_sc", "accelerated"])
def test_execute_evaluates_each_lyapunov_value_once(monkeypatch, regime):
    calls = {"E": 0, "NE": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, key in (("lyapunov_accelerated", "E"), ("numerical_error", "NE")):
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
    code, lines, _ = execute(config, write_trajectory=False)
    assert code == 0
    assert any(line.startswith("check.lemma = PASS") for line in lines)
    K = len(trajectories[0].k)
    assert K > 1
    assert calls["E"] <= K + 1
    assert calls["NE"] <= K


def test_only_main_prints_a_summary(tmp_path, capsys):
    # execute returns the summary lines; main prints them for run and
    # verify, and a sweep prints only where it wrote its aggregate
    doc = {"instance": {"kind": "quad_pair", "d": 3, "seed": 1}, "regime": "fixed", "budget": 20}
    code, lines, _ = execute(parse_config(json.dumps(doc)), write_trajectory=False)
    assert capsys.readouterr().out == ""
    assert main(["verify", write_config(tmp_path, doc)]) == code == 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    out = tmp_path / "out"
    doc.update(output=str(out), sweep={"s": [0.2, 0.4]})
    assert main(["sweep", write_config(tmp_path, doc)]) == 0
    assert capsys.readouterr().out == f"wrote {out / 'sweep_summary.csv'} (2 cells)\n"


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
    code, lines, _ = execute(config, write_trajectory=True)
    assert code == 0
    rows = read_rows(tmp_path / "trajectory.csv")
    # the PASS detail names the largest E/bound ratio of the CSV's rows, and
    # the ratio of its last row
    ratio, k = tightest_ratio(rows, "lyapunov")
    final_ratio, last_k = bound_ratios(rows, "lyapunov")[-1]
    (line,) = [line for line in lines if line.startswith("check.theorem")]
    match = re.fullmatch(
        r"check\.theorem = PASS \(Lyapunov bound holds: tightest (\S+) at k=(\d+), "
        r"final (\S+) at k=(\d+), least margin \S+ at k=\d+; trajectory bound holds: "
        r"tightest \S+ at k=\d+, final \S+ at k=\d+, least margin \S+ at k=\d+\)", line
    )
    assert match and int(match[2]) == k and int(match[4]) == last_k
    assert float(match[1]) == pytest.approx(ratio, rel=1e-5)
    assert float(match[3]) == pytest.approx(final_ratio, rel=1e-5)
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


def lockstep_sweep_docs(out):
    """Sweeps whose cells stop on tol in different step blocks, next to
    cells that run out the budget: a dense quad_pair in each regime (with a
    record stride under fixed), a lasso and a TV instance on reference-run
    saddles, and a wide TV instance whose stack takes smaller step blocks
    than a cell alone."""
    quad = {"kind": "quad_pair", "d": 4, "seed": 2}
    docs = [
        {"instance": quad, "regime": "fixed", "budget": 900, "record_every": 7,
         "sweep": {"s": [0.03, 0.06, 0.9]}},
        {"instance": dict(quad, mu=2.0, gamma=0.5), "regime": "optimal_ss", "budget": 900,
         "sweep": {"s": [0.02, 0.05, 0.9]}},
        {"instance": quad, "regime": "varying_sc", "budget": 300,
         "sweep": {"c": [0.5, 1.5], "s": [0.3, 0.9]}},
        {"instance": quad, "regime": "accelerated", "budget": 600, "tol": 1e-6,
         "sweep": {"c": [0.3, 0.9], "s": [0.3, 0.9]}},
        {"instance": {"kind": "lasso", "d": 30, "lam": 0.05}, "regime": "varying_sc",
         "budget": 300, "sweep": {"c": [0.1, 0.2], "s": [0.5, 0.9]}},
        reference_run_sweep_doc(out),
        # 4 cells of d = 9000 pass the 2^15 entries of a step block together,
        # so the stack takes one step per block where each cell alone takes 3
        {"instance": {"kind": "gen_lasso", "d": 9000, "lam": 1e6, "identity_a": True},
         "regime": "varying_sc", "budget": 40, "sweep": {"c": [0.25, 0.5], "s": [0.2, 0.45]}},
    ]
    for i, doc in enumerate(docs):
        doc.update(checks=["lemma", "theorem", "rate_fit"], output=str(out / f"sweep_{i}"))
    return docs


def test_sweep_cells_match_standalone_runs(tmp_path):
    # the cells share one instance and one saddle and step in lockstep, yet
    # each writes what a standalone run of its own config writes
    terminations = set()
    for i, doc in enumerate(lockstep_sweep_docs(tmp_path)):
        out = tmp_path / f"sweep_{i}"
        code = main(["sweep", write_config(tmp_path, doc)])
        rows = read_rows(out / "sweep_summary.csv")
        assert str(code) == max(row["exit_status"] for row in rows)
        for row in rows:
            alone = tmp_path / "alone" / str(i) / row["cell"]
            cell_doc = {key: value for key, value in doc.items() if key != "sweep"}
            schedule = {key: float(row[key]) for key in ("c", "s") if row[key]}
            cell_doc.update(schedule=schedule, output=str(alone))
            code = main(["run", write_config(tmp_path, cell_doc, f"{row['cell']}.json")])
            assert str(code) == row["exit_status"]
            for name in ("trajectory.csv", "summary.txt"):
                assert (out / row["cell"] / name).read_bytes() == (alone / name).read_bytes()
            summary = (alone / "summary.txt").read_text()
            terminations.add(re.search(r"run.termination = (\w+)", summary).group(1))
    assert terminations == {"budget", "residual_tol"}


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


def test_info_on_a_large_tv_instance(tmp_path, capsys):
    # matrix-free F = D and A = I: a dense D alone would take 80 GB here
    doc = {
        "instance": {"kind": "gen_lasso", "d": 100_000, "lam": 0.5, "identity_a": True},
        "regime": "varying_sc",
    }
    assert main(["info", write_config(tmp_path, doc)]) == 0
    assert "instance.d2 = 99999" in capsys.readouterr().out


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


def document_without(key):
    """The command and a document that reads ``key`` but leaves it unset."""
    if key in ("instance.lam", "instance.cond", "instance.m", "instance.identity_a"):
        instance = {"kind": "lasso", "d": 3, "seed": 2, "lam": 0.5, "cond": 2.0, "m": 5}
    else:
        instance = {"kind": "quad_pair", "d": 3, "d2": 2, "seed": 2, "mu": 0.5, "gamma": 0.7}
    doc = {
        "instance": instance,
        "regime": "fixed" if key in ("schedule.tau", "schedule.sigma") else "varying_sc",
        "schedule": {"s": 0.5, "c": 0.2},
        "budget": 60,
        "tol": 1e-6,
        "record_every": 2,
        "checks": ["lemma", "theorem"],
        "output": "out",
    }
    if doc["regime"] == "fixed":
        del doc["schedule"]["c"]
    command = "run"
    if key.startswith("sweep"):
        command, doc["sweep"] = "sweep", {"c": [0.2, 0.1], "s": [0.5]}
    *path, name = key.split(".")
    section = doc
    for part in path:
        section = section[part]
    section.pop(name, None)
    return command, doc


def with_null(doc, key):
    doc = json.loads(json.dumps(doc))
    *path, name = key.split(".")
    section = doc
    for part in path:
        section = section.setdefault(part, {})
    section[name] = None
    return doc


def run_in(cwd, capsys, monkeypatch, command, doc):
    """Exit status, stdout, stderr and every file written by the run, run
    from ``cwd`` (where "output" defaults to)."""
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    path = cwd.parent / f"{cwd.name}.json"
    path.write_text(json.dumps(doc))
    code = main([command, str(path)])
    out, err = capsys.readouterr()
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in cwd.rglob("*") if p.is_file()}
    return code, out, err, files


@pytest.mark.parametrize(
    "key",
    [
        "instance.seed", "instance.d2", "instance.mu", "instance.gamma", "instance.lam",
        "instance.cond", "instance.m", "instance.identity_a",
        "schedule", "schedule.s", "schedule.c", "schedule.tau", "schedule.sigma",
        "budget", "tol", "record_every", "checks", "output",
        "sweep", "sweep.c", "sweep.s",
    ],
)
def test_a_null_key_is_unset(tmp_path, capsys, monkeypatch, key):
    # the field defaults of InstanceSpec and ExperimentConfig apply, and the
    # seed still fixes the instance
    command, doc = document_without(key)
    unset = run_in(tmp_path / "unset", capsys, monkeypatch, command, doc)
    null = run_in(tmp_path / "null", capsys, monkeypatch, command, with_null(doc, key))
    assert null == unset


@pytest.mark.parametrize(
    "key, message",
    [
        ("instance", 'missing required key "instance"'),
        ("regime", 'missing required key "regime"'),
        ("instance.kind", 'missing required key "instance.kind"'),
        ("instance.d", 'missing required key "instance.d1" (or its alias "instance.d")'),
    ],
)
def test_a_null_required_key_is_missing(tmp_path, capsys, key, message):
    doc = with_null({"instance": {"kind": "quad_pair", "d": 3}, "regime": "fixed"}, key)
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("lam", ["absent", None])
@pytest.mark.parametrize("kind", ["lasso", "gen_lasso"])
def test_an_l1_kind_without_lam_is_missing_a_required_key(tmp_path, capsys, kind, lam):
    instance = {"kind": kind, "d": 3} if lam == "absent" else {"kind": kind, "d": 3, "lam": lam}
    doc = {"instance": instance, "regime": "fixed"}
    assert main(["info", write_config(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == 'config error: missing required key "instance.lam"\n'


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


def csv_inputs(monkeypatch, k, values):
    """The run and the table that :func:`cli._write_csv` reads for the
    eleven columns ``values`` after k; the step columns, values 0 to 2,
    come from a patched ``schedule_at``."""
    steps = tuple(values[:3])
    monkeypatch.setattr(cli, "schedule_at", lambda schedule, ks: steps if ks is k else None)
    traj = SimpleNamespace(
        k=k, schedule=None, primal_residual=values[9], dual_residual=values[10]
    )
    table = SimpleNamespace(dist_x=values[3], dist_y=values[4], E=values[5], ne=values[6])
    return traj, table


def test_csv_matches_csv_writer_byte_for_byte(tmp_path, monkeypatch):
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
    traj, table = csv_inputs(monkeypatch, k, values)
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


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 513])
def test_csv_has_the_bytes_of_savetxt(tmp_path, monkeypatch, rows):
    # row counts about the 256-row format block
    rng = np.random.default_rng(rows)
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308]
    values = []
    for j in range(11):
        column = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        at = rng.permutation(rows)[: len(special)]
        column[at] = np.roll(special, j)[: len(at)]
        values.append(column)
    k = np.arange(rows) * 3 + 1
    traj, table = csv_inputs(monkeypatch, k, values)
    cli._write_csv(tmp_path / "got.csv", traj, table, values[7], values[8])
    np.savetxt(
        tmp_path / "want.csv", np.column_stack([k] + values), fmt=["%d"] + ["%.17g"] * 11,
        delimiter=",", newline="\r\n", header=",".join(CSV_COLUMNS), comments="",
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


def refused(*args, **kwargs):
    raise MemoryError("Unable to allocate 29.8 GiB")


def test_unreservable_trajectory_is_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run", refused)
    doc = {"instance": {"kind": "quad_pair", "d": 4}, "regime": "fixed", "budget": 10**9}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    assert "lower budget or raise record_every" in capsys.readouterr().err


class RefusingNumpy:
    """numpy, as the engine sees it, with an ``empty`` that refuses its
    ``n``-th call."""

    def __init__(self, n):
        self.n, self.calls = n, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.calls += 1
        return refused() if self.calls == self.n else np.empty(*args, **kwargs)


def test_sweep_whose_columns_cannot_be_reserved_is_exit_2(tmp_path, capsys, monkeypatch):
    # the stacked run reserves every cell's three columns before its first
    # step: a refusal at the third cell ends the sweep before a cell writes
    # anything
    numpy = RefusingNumpy(7)
    monkeypatch.setattr(engine, "np", numpy)
    out = tmp_path / "out"
    assert main(["sweep", write_config(tmp_path, sweep_doc(out))]) == 2
    err = capsys.readouterr().err
    assert "4 trajectories of 150 rows cannot be reserved" in err
    assert "lower budget or raise record_every" in err
    assert numpy.calls == 7 and not list(out.glob("cell_*"))


def test_budget_past_the_array_size_limit_is_exit_2(tmp_path, capsys):
    # numpy refuses this shape before it allocates anything
    doc = {"instance": {"kind": "quad_pair", "d": 4}, "regime": "fixed", "budget": 10**20}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert "cannot be reserved" in err
    assert "lower budget or raise record_every" in err


def test_a_table_that_cannot_be_reserved_is_exit_2(tmp_path, capsys, monkeypatch):
    # the table alone is refused: the run reserves its own columns
    monkeypatch.setattr(cli, "max_recorded_rows", lambda budget, record_every: 10**20)
    doc = {"instance": {"kind": "quad_pair", "d": 4}, "regime": "fixed", "checks": ["lemma"]}
    assert main(["verify", write_config(tmp_path, doc)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: a Lyapunov table of 100000000000000000000 rows")
    assert "cannot be reserved" in err and "lower budget or raise record_every" in err


def test_fixed_lemma_whose_energy_overflows_fails_without_a_warning(tmp_path, capsys):
    # ||dx||^2 / (2 tau) overflows at tau = 5e-324
    doc = {
        "instance": {"kind": "quad_pair", "d": 2}, "regime": "fixed",
        "schedule": {"tau": 5e-324, "sigma": 1e300}, "budget": 20, "checks": ["lemma"],
    }
    assert main(["verify", write_config(tmp_path, doc)]) == 1
    out, err = capsys.readouterr()
    assert "check.lemma = FAIL (Lyapunov value is inf at k=2)" in out.splitlines()
    assert err == ""


def test_verify_streams_its_states_instead_of_holding_them(monkeypatch):
    # one 4000 x 400 state array is 12.8 MB, and a run that kept its states
    # would hold two (x and y).  On top of the built instance, a streamed
    # run and its diagnostics keep (R,) columns, one hand-over of states
    # (641 rows of x and of y, 4.1 MB) and a row block's temporaries.
    real_materialize = cli.materialize
    held = []

    def materialize_then_reset_peak(config):
        built = real_materialize(config)
        tracemalloc.reset_peak()  # the build's own temporaries are not the run's
        held.append(tracemalloc.get_traced_memory()[0])
        return built

    monkeypatch.setattr(cli, "materialize", materialize_then_reset_peak)
    config = parse_config(json.dumps({
        "instance": {"kind": "lasso", "d": 400, "lam": 0.05},
        "regime": "varying_sc",
        "budget": 4000,
        "checks": ["lemma", "theorem", "rate_fit"],
    }))
    tracemalloc.start()
    try:
        code, _, _ = execute(config, write_trajectory=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak - held[0] < 4000 * 400 * 8 / 2


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
