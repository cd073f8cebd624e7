"""Iteration engine tests: single steps, full runs, termination, residuals."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pdhglab import engine
from pdhglab.engine import (
    DIVERGENCE_GUARD,
    TERMINATION_BUDGET,
    TERMINATION_DIVERGENCE,
    TERMINATION_RESIDUAL,
    run,
    step_residuals,
)
from pdhglab.problems import (
    Dense,
    FirstDifference,
    Identity,
    PrimalDualPair,
    SaddleProblem,
    inclusion_residuals,
)
from pdhglab.schedules import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    Schedule,
    make_schedule,
    schedule_at,
)
from pdhglab.zoo import InstanceSpec, build_instance
from recording import RecordingObserver, recorded_run


def scalar_quadratic_problem():
    """f(x) = x^2/2, g*(y) = y^2/2, F = [1]."""
    return SaddleProblem(
        F=np.array([[1.0]]),
        prox_f=lambda v, t: v / (1.0 + t),
        prox_gstar=lambda w, t: w / (1.0 + t),
        mu=1.0,
        gamma=1.0,
        grad_f=lambda x: x,
        grad_gstar=lambda y: y,
    )


def test_pdhg_step_scalar_example():
    prob = scalar_quadratic_problem()
    x_next, y_next = engine._step(prob, np.array([1.0]), np.array([0.0]), 0.5, 0.5, 1.0)
    assert abs(x_next[0] - 2.0 / 3.0) <= 1e-15
    # the dual step reads xbar = x_next + (x_next - x_k) = 1/3:
    # y_next = (0 + 0.5 * xbar) / (1 + 0.5) = 1/9
    assert abs(y_next[0] - 1.0 / 9.0) <= 1e-15


def test_pdhg_step_saddle_is_fixed_point():
    spec = InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=2, mu=1.0, gamma=2.0)
    built = build_instance(spec)
    sad = built.saddle
    for theta in (0.0, 0.5, 1.0):
        x_next, y_next = engine._step(built.problem, sad.x, sad.y, 0.4, 0.3, theta)
        assert np.linalg.norm(x_next - sad.x) <= 1e-12
        assert np.linalg.norm(y_next - sad.y) <= 1e-12


def test_pdhg_step_theta_zero_disables_extrapolation():
    prob = scalar_quadratic_problem()
    y = np.array([0.3])
    x_next, y_next = engine._step(prob, np.array([1.0]), y, 0.5, 0.5, 0.0)
    # the dual step is taken from x_next itself
    assert np.array_equal(y_next, prob.prox_gstar(y + 0.5 * (prob.F.matrix @ x_next), 0.5))


def test_run_reaches_kkt_saddle():
    spec = InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=0, mu=1.0, gamma=1.0)
    built = build_instance(spec)
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.zeros(4), np.zeros(4))
    traj = run(built.problem, sched, init, budget=2000, tol=1e-10)
    assert traj.termination == TERMINATION_RESIDUAL
    sad = built.saddle
    final = traj.final
    assert np.linalg.norm(final.x - sad.x) <= 1e-8
    assert np.linalg.norm(final.y - sad.y) <= 1e-8


def test_run_budget_one():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=1))
    sched = make_schedule(FIXED, built.problem.F_norm)
    traj = run(built.problem, sched, PrimalDualPair(np.ones(2), np.ones(2)), budget=1)
    assert len(traj.k) == 1
    assert traj.k[0] == 0
    assert traj.termination == TERMINATION_BUDGET


def test_directly_built_accelerated_schedule_starts_at_k_one():
    # the start k = 1 follows from the regime, however the schedule is built
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=4))
    init = PrimalDualPair(np.ones(3), -np.ones(3))
    direct = Schedule(regime=ACCELERATED, s=0.5, c=0.5)
    got, got_states, _ = recorded_run(built.problem, direct, init, budget=20, tol=0.0)
    made = make_schedule(ACCELERATED, built.problem.F_norm, s=0.5, c=0.5, mu=built.problem.mu)
    want, want_states, _ = recorded_run(built.problem, made, init, budget=20, tol=0.0)
    assert direct == made
    assert got.k[0] == 1
    assert np.array_equal(got.k, want.k)
    for name in ("x", "y", "x_next", "y_next"):
        assert np.array_equal(getattr(got_states, name), getattr(want_states, name))


def test_run_from_saddle_stops_immediately():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=4))
    sched = make_schedule(FIXED, built.problem.F_norm)
    traj = run(built.problem, sched, built.saddle, budget=100, tol=1e-10)
    assert traj.termination == TERMINATION_RESIDUAL
    assert traj.k[-1] == sched.k_start
    assert traj.primal_residual[-1] <= 1e-10
    assert traj.dual_residual[-1] <= 1e-10


def test_run_records_chain_and_extrapolation_identity():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=5, seed=3))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(5), -np.ones(5))
    traj, states, _ = recorded_run(built.problem, sched, init, budget=60, tol=0.0)
    assert np.array_equal(states.x[0], init.x)
    assert np.array_equal(states.y[0], init.y)
    for i in range(1, len(traj.k)):
        assert np.array_equal(states.x[i], states.x_next[i - 1])
        assert np.array_equal(states.y[i], states.y_next[i - 1])
    assert np.array_equal(traj.final.x, states.x_next[-1])
    assert np.array_equal(traj.final.y, states.y_next[-1])


def test_run_record_every_keeps_stride_and_last():
    # budget short enough that the iterates keep moving: a longer run would
    # reach an exact floating-point fixed point and stop at tol = 0.0
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=5))
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.ones(2), np.zeros(2))
    traj = run(built.problem, sched, init, budget=40, tol=0.0, record_every=7)
    assert traj.termination == TERMINATION_BUDGET
    ks = traj.k.tolist()
    assert ks == list(range(0, 40, 7)) + [39]


def test_run_is_deterministic():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=0.5))
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.zeros(5), np.zeros(5))
    t1, s1, _ = recorded_run(built.problem, sched, init, budget=50, tol=0.0)
    t2, s2, _ = recorded_run(built.problem, sched, init, budget=50, tol=0.0)
    for i in range(len(t1.k)):
        assert np.array_equal(s1.x_next[i], s2.x_next[i])
        assert np.array_equal(s1.y_next[i], s2.y_next[i])
        assert t1.primal_residual[i] == t2.primal_residual[i]


def test_run_divergence_guard():
    # an amplifying fake "prox" drives the state past the guard threshold
    prob = SaddleProblem(
        F=np.array([[1.0]]),
        prox_f=lambda v, t: 4.0 * v + 1.0,
        prox_gstar=lambda w, t: 4.0 * w + 1.0,
    )
    sched = make_schedule(FIXED, 1.0, s=0.5, tau=0.5, sigma=0.5)
    traj = run(prob, sched, PrimalDualPair(np.ones(1), np.ones(1)), budget=10_000, tol=0.0)
    assert traj.termination == TERMINATION_DIVERGENCE
    assert len(traj.k) < 10_000


def test_run_validates_inputs():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=0))
    sched = make_schedule(FIXED, built.problem.F_norm)
    good = PrimalDualPair(np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        run(built.problem, sched, good, budget=0)
    with pytest.raises(ValueError):
        run(built.problem, sched, good, budget=10, record_every=0)
    with pytest.raises(ValueError):
        run(built.problem, sched, PrimalDualPair(np.zeros(3), np.zeros(2)), budget=10)


def test_step_residuals_vanish_at_fixed_point():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=6))
    sad = built.saddle
    rp, rd = step_residuals(built.problem.F, sad.x, sad.y, sad.x, sad.y, 0.5, 0.5, 1.0)
    assert rp == 0.0 and rd == 0.0


def transition_residuals(problem, traj, states, i, x_next=None):
    """The exact inclusion residuals of row ``i`` of a recorded run (with
    ``x_next`` in place of its post-state, if given):

        r_x = dist(0, @f(x_{k+1}) + F^T y_k + (x_{k+1} - x_k)/tau_k)
        r_y = dist(0, @g*(y_{k+1}) - F xbar_{k+1} + (y_{k+1} - y_k)/sigma_k)

    xbar_{k+1} is formed with the operations of the step, so it carries the
    iterate's bits."""
    x, y, y_next = states.x[i], states.y[i], states.y_next[i]
    x_next = states.x_next[i] if x_next is None else x_next
    tau, sigma, theta = schedule_at(traj.schedule, traj.k[i])
    x_bar = x_next + theta * (x_next - x)
    return inclusion_residuals(
        problem, x_next, problem.F.apply_T(y) + (x_next - x) / tau,
        y_next, -problem.F.apply(x_bar) + (y_next - y) / sigma,
    )


def test_optimality_residual_exact_for_closed_form_prox():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=7))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), np.ones(4))
    traj, states, _ = recorded_run(built.problem, sched, init, budget=40, tol=0.0)
    for i in range(len(traj.k)):
        r_x, r_y = transition_residuals(built.problem, traj, states, i)
        assert r_x <= 1e-9 and r_y <= 1e-9


def test_optimality_residual_detects_corruption():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=7))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), np.ones(4))
    traj, states, _ = recorded_run(built.problem, sched, init, budget=5, tol=0.0)
    r_x, _ = transition_residuals(built.problem, traj, states, 2, states.x_next[2] + 1e-3)
    assert r_x >= 1e-4


def test_optimality_residual_requires_an_oracle():
    prob = SaddleProblem(
        F=np.array([[1.0]]),
        prox_f=lambda v, t: v / (1.0 + t),
        prox_gstar=lambda w, t: w / (1.0 + t),
    )
    sched = make_schedule(FIXED, 1.0)
    traj, states, _ = recorded_run(prob, sched, PrimalDualPair(np.ones(1), np.ones(1)), budget=1)
    with pytest.raises(ValueError):
        transition_residuals(prob, traj, states, 0)


def test_step_residuals_stay_finite_when_their_squares_overflow():
    # ||(3e200, 4e200)|| = 5e200 though its square is past the largest double
    F = Dense(np.eye(2))
    x_k, zero = np.array([3e200, 4e200]), np.zeros(2)
    rp, rd = step_residuals(F, x_k, zero, zero, zero, 1.0, 1.0, 1.0)
    assert rp == pytest.approx(5e200, rel=1e-15)
    assert rd == pytest.approx(5e200, rel=1e-15)
    # stacked among finite rows, the overflowing row keeps its norm
    x_rows = np.array([[1.0, 2.0], [3e200, 4e200], [0.5, 0.0]])
    zeros = np.zeros((3, 2))
    rp, rd = step_residuals(F, x_rows, zeros, zeros, zeros, np.ones(3), np.ones(3), np.ones(3))
    for i, row in enumerate(x_rows):
        assert (rp[i], rd[i]) == step_residuals(F, row, zero, zero, zero, 1.0, 1.0, 1.0)
    assert rp[1] == pytest.approx(5e200, rel=1e-15)


def use_step_block(monkeypatch, step_block):
    """Run the engine in blocks of ``step_block`` steps (None keeps
    STEP_BLOCK); returns the block size in force."""
    if step_block is not None:
        monkeypatch.setattr(engine, "STEP_BLOCK", step_block)
    return engine.STEP_BLOCK


@pytest.mark.parametrize("record_every, budget", [(1, 20), (1, 23), (3, 23)])
def test_streamed_run_hands_every_recorded_row_to_the_observer(monkeypatch, record_every, budget):
    use_step_block(monkeypatch, 4)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=2, seed=3))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, s=0.2, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(3), -np.ones(2))
    want, _, final = reference_run(built.problem, sched, init, budget, 0.0, record_every)
    observer = RecordingObserver()
    streamed = run(
        built.problem, sched, init, budget=budget, tol=0.0, record_every=record_every,
        observer=observer,
    )
    # one hand-over per 4-step block, of the rows recorded in it
    blocks = {}
    for k in want["k"].tolist():
        blocks.setdefault(k // 4, []).append(k)
    assert [block[0].tolist() for block in observer.blocks] == list(blocks.values())
    for got, name in zip(zip(*observer.blocks), ("k", "x", "y", "x_next", "y_next")):
        assert np.array_equal(np.concatenate(got), want[name])
    assert np.array_equal(streamed.k, want["k"])
    assert np.array_equal(streamed.final.x, final.x)
    assert np.array_equal(streamed.final.y, final.y)


class ViewObserver:
    """A block observer that asks whether each block's pre- and post-states
    are views of one buffer, as every recorded step's are."""

    def __init__(self):
        self.shared = []

    def __call__(self, k, x, y, x_next, y_next):
        self.shared.append(
            np.shares_memory(x, x_next) and np.shares_memory(y, y_next)
        )


@pytest.mark.parametrize("record_every, views", [(1, True), (3, False)])
def test_a_run_recording_every_step_hands_over_views_of_its_work_buffer(
    monkeypatch, record_every, views
):
    use_step_block(monkeypatch, 4)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=2, seed=3))
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.ones(3), -np.ones(2))
    observer = ViewObserver()
    run(built.problem, sched, init, budget=23, tol=0.0, record_every=record_every,
        observer=observer)
    assert observer.shared == [views] * 6


def test_max_recorded_rows_bounds_the_rows_a_run_records():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=2, seed=3))
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.ones(3), -np.ones(2))
    for budget in (1, 2, 7, 8, 14, 15, 30):
        for record_every in (1, 2, 3, 7, budget, budget + 1, 10**26):
            rows = len(run(built.problem, sched, init, budget=budget, tol=-1.0,
                           record_every=record_every).k)
            stride = min(record_every, budget)
            # the bound counts the last step as a row of its own, which it is not
            # when it falls on the stride
            last_on_stride = stride > 1 and (budget - 1) % stride == 0
            assert rows == engine.max_recorded_rows(budget, record_every) - last_on_stride


def test_step_block_caps_the_entries_of_a_block():
    # step_block reads only the dimensions
    def dims(d1, d2):
        return SimpleNamespace(d1=d1, d2=d2)

    assert engine.step_block(dims(4, 3)) == engine.STEP_BLOCK
    # a d = 400 block holds 81 rows of 400 entries, at most 2^15
    assert engine.step_block(dims(400, 400)) == engine.STEP_BLOCK_ELEMENTS // 400 == 81
    assert engine.step_block(dims(3, 400)) == 81
    assert engine.step_block(dims(2 * engine.STEP_BLOCK_ELEMENTS, 1)) == 1
    # the cap counts the entries of the whole stack of runs
    assert engine.step_block(dims(4, 3), 16) == engine.STEP_BLOCK  # 16 * 4 * 256 = 2^14
    assert engine.step_block(dims(4, 4), 64) == 128
    assert engine.step_block(dims(400, 400), 2) == 40
    assert engine.step_block(dims(3000, 2999), 16) == 1


def test_a_record_every_past_the_budget_records_the_first_and_last_rows():
    # a stride past int64 records what a stride of the budget records
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=2, seed=3))
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.ones(3), -np.ones(2))
    for budget in (1, 7, 600):
        want = run(built.problem, sched, init, budget=budget, tol=-1.0, record_every=budget)
        for observer in (None, RecordingObserver()):
            got = run(
                built.problem, sched, init, budget=budget, tol=-1.0, record_every=10**26,
                observer=observer,
            )
            assert got.k.tolist() == want.k.tolist() == sorted({0, budget - 1})
            assert np.array_equal(got.primal_residual, want.primal_residual)
            assert np.array_equal(got.final.x, want.final.x)


SRC = Path(__file__).resolve().parents[1] / "src"


def imported_names(module):
    """Every module and name that ``pdhglab/<module>.py`` imports, as dotted
    names (relative imports without their leading dots)."""
    path = SRC / "pdhglab" / f"{module}.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            imported.add(source)
            imported.update(f"{source}.{alias.name}" for alias in node.names)
    return imported


def test_engine_does_not_import_the_diagnostics():
    # the solver streams to a block observer; it must not depend on lyapunov
    assert not [name for name in imported_names("engine") if "lyapunov" in name.split(".")]


def test_the_diagnostics_do_not_import_the_engine():
    # a Lyapunov table holds its own rows and schedule; it reads no trajectory
    assert not [name for name in imported_names("lyapunov") if "engine" in name.split(".")]


def modules_loaded_by(statement):
    """The pdhglab modules a fresh interpreter holds after ``statement``."""
    listing = "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'pdhglab'))"
    code = f"{statement}\nimport sys\n{listing}"
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    child = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    return child.stdout.split()


def test_importing_the_engine_loads_only_the_solver_side():
    assert modules_loaded_by("import pdhglab.engine") == [
        "pdhglab", "pdhglab.engine", "pdhglab.problems", "pdhglab.schedules",
    ]
    assert "pdhglab.engine" not in modules_loaded_by("import pdhglab.lyapunov")


def test_the_package_binds_no_name():
    # each name has one home, its module: pdhglab/__init__.py is its docstring
    tree = ast.parse((SRC / "pdhglab" / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert [type(node) for node in tree.body] == [ast.Expr]


def unreached_public_names():
    """The public top-level functions and classes of ``src/pdhglab`` that no
    ``src/`` code names (as an ``ast.Name`` or ``ast.Attribute``) outside
    their own definition, as ``module.name``."""
    defined, named = [], set()
    for path in sorted((SRC / "pdhglab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            used = {
                n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
            }
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used.discard(node.name)
                if not node.name.startswith("_"):
                    defined.append(f"{path.stem}.{node.name}")
            named |= used
    return [name for name in defined if name.split(".")[1] not in named]


def test_src_holds_only_what_it_reaches():
    # a public name that no command or check reaches belongs in the tests;
    # the one exception is the implicit-Euler stepper, which the tests keep
    # as the independent h -> 0 reference for the exact flow of the ODE
    assert unreached_public_names() == ["dynamics.integrate"]


def reference_run(problem, schedule, init, budget, tol, record_every=1):
    """The engine loop one step at a time: after each step its residuals,
    the divergence guard and the ``tol`` stop, then the recording.  The
    block loop of :func:`run` must give the same rows."""
    x = np.asarray(init.x, dtype=float)
    y = np.asarray(init.y, dtype=float)
    if schedule.regime == ACCELERATED:
        sigma0 = schedule.c * schedule.s**2
        y = problem.prox_gstar(y + sigma0 * problem.F.apply(x), sigma0)
    rows = {name: [] for name in ("k", "x", "y", "x_next", "y_next", "rp", "rd")}
    termination = TERMINATION_BUDGET
    for i in range(budget):
        k = schedule.k_start + i
        tau_k, sigma_k, theta_k = schedule_at(schedule, k)
        x_next, y_next = engine._step(problem, x, y, tau_k, sigma_k, theta_k)
        rp, rd = step_residuals(problem.F, x, y, x_next, y_next, tau_k, sigma_k, theta_k)
        state_norm = math.sqrt(float(np.vdot(x_next, x_next))) + math.sqrt(
            float(np.vdot(y_next, y_next))
        )
        diverged = (not np.isfinite(state_norm)) or state_norm > DIVERGENCE_GUARD
        hit_tol = max(rp, rd) <= tol
        last = diverged or hit_tol or i == budget - 1
        if i % record_every == 0 or last:
            for name, value in zip(rows, (k, x, y, x_next, y_next, rp, rd)):
                rows[name].append(value)
        x, y = x_next, y_next
        if diverged:
            termination = TERMINATION_DIVERGENCE
            break
        if hit_tol:
            termination = TERMINATION_RESIDUAL
            break
    rows = {name: np.array(value) for name, value in rows.items()}
    return rows, termination, PrimalDualPair(x=x, y=y)


def assert_matches_reference(problem, schedule, init, budget, tol, record_every=1):
    """Run the engine without an observer, and with a recording one, and
    compare every row of each with :func:`reference_run`, bitwise.  Returns
    the recorded trajectory."""
    want, termination, final = reference_run(problem, schedule, init, budget, tol, record_every)
    dropped = run(problem, schedule, init, budget=budget, tol=tol, record_every=record_every)
    recorded, states, _ = recorded_run(
        problem, schedule, init, budget=budget, tol=tol, record_every=record_every
    )
    for got in (dropped, recorded):
        assert got.termination == termination
        assert np.array_equal(got.k, want["k"])
        assert np.array_equal(got.final.x, final.x) and np.array_equal(got.final.y, final.y)
        np.testing.assert_array_equal(got.primal_residual, want["rp"])
        np.testing.assert_array_equal(got.dual_residual, want["rd"])
    for name in ("k", "x", "y", "x_next", "y_next"):
        assert np.array_equal(getattr(states, name), want[name]), name
    return recorded


def regime_schedule(regime, problem):
    # s = 0.3 keeps every regime moving over a few blocks of steps
    c = {VARYING_SC: 0.5, ACCELERATED: 0.9}.get(regime)
    return make_schedule(regime, problem.F_norm, s=0.3, c=c, mu=problem.mu, gamma=problem.gamma)


@pytest.mark.parametrize("regime", [FIXED, VARYING_SC, ACCELERATED, OPTIMAL_SS])
@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("step_block", [None, 5])
def test_block_loop_matches_the_step_by_step_loop(monkeypatch, regime, record_every, step_block):
    S = use_step_block(monkeypatch, step_block)
    # the accelerated regime takes its dual half-step first and starts at k = 1
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=3, seed=3))
    problem = built.problem
    init = PrimalDualPair(np.ones(4), -np.ones(3))
    schedule = regime_schedule(regime, problem)
    # within one block, one block, not a multiple of one; tol = -1 never
    # stops a run, which under fixed steps reaches an exact fixed point
    for budget in (1, S - 1, S, 2 * S + 3):
        got = assert_matches_reference(problem, schedule, init, budget, -1.0, record_every)
        assert got.termination == TERMINATION_BUDGET and got.k[-1] == schedule.k_start + budget - 1


def test_block_loop_takes_the_bits_of_a_matrix_free_step():
    built = build_instance(InstanceSpec(kind="gen_lasso", d1=30, lam=0.3, identity_a=True, seed=1))
    schedule = make_schedule(VARYING_SC, built.problem.F_norm, mu=built.problem.mu)
    init = PrimalDualPair(np.zeros(30), np.zeros(29))
    assert_matches_reference(built.problem, schedule, init, 200, 0.0)


def tol_stopping_at(rows, stop):
    """A tol between the residual of row ``stop`` of a reference run and
    every earlier one, which must all be larger."""
    worst = np.maximum(rows["rp"], rows["rd"])
    earlier = worst[:stop].min(initial=np.inf)
    assert worst[stop] < earlier
    return math.sqrt(worst[stop] * min(earlier, 4 * worst[stop]))


@pytest.mark.parametrize("stop", [0, 62, 63, 64, 126, 127])
@pytest.mark.parametrize("step_block", [None, 5])
def test_tol_stop_at_any_row_of_a_block(monkeypatch, stop, step_block):
    # inside the first block of STEP_BLOCK steps; in 5-step blocks at rows
    # 0 (stop 0), 1 (126), 2 (62, 127), 3 (63) and 4 (64) of one
    use_step_block(monkeypatch, step_block)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=1))
    problem = built.problem
    schedule = make_schedule(OPTIMAL_SS, problem.F_norm, s=0.3, mu=problem.mu, gamma=problem.gamma)
    init = PrimalDualPair(np.ones(4), -np.ones(4))
    rows, _, _ = reference_run(problem, schedule, init, 200, 0.0)
    tol = tol_stopping_at(rows, stop)
    for budget in (200, stop + 1):  # the budget ends past the stop, and on it
        got = assert_matches_reference(problem, schedule, init, budget, tol)
        assert got.termination == TERMINATION_RESIDUAL and got.k[-1] == stop


def contracting_problem():
    """Uncoupled "proxes" that contract by 0.98 a step: both residuals
    fall by that factor at every step, for thousands of steps."""
    return SaddleProblem(
        F=np.zeros((1, 1)),
        prox_f=lambda v, t: 0.98 * v + 1.0,
        prox_gstar=lambda w, t: 0.98 * w + 1.0,
    )


@pytest.mark.parametrize(
    "blocks, row",
    [pytest.param(0, 0, id="0"), pytest.param(1, -2, id="S-2"), pytest.param(1, -1, id="S-1"),
     pytest.param(1, 0, id="S"), pytest.param(2, -2, id="2S-2"), pytest.param(2, -1, id="2S-1")],
)
def test_tol_stop_at_the_edges_of_a_step_block(blocks, row):
    S = engine.STEP_BLOCK
    stop = blocks * S + row
    problem = contracting_problem()
    schedule = make_schedule(FIXED, 1.0, s=0.5, tau=0.5, sigma=0.5)
    init = PrimalDualPair(np.zeros(1), np.zeros(1))
    rows, _, _ = reference_run(problem, schedule, init, 2 * S + 10, 0.0)
    tol = tol_stopping_at(rows, stop)
    for budget in (2 * S + 10, stop + 1):
        got = assert_matches_reference(problem, schedule, init, budget, tol)
        assert got.termination == TERMINATION_RESIDUAL and got.k[-1] == stop


def amplifying_problem(factor):
    """A fake "prox" that multiplies its input: the state grows by about
    ``factor`` per step until the divergence guard trips."""
    return SaddleProblem(
        F=np.array([[1.0]]),
        prox_f=lambda v, t: factor * v + 1.0,
        prox_gstar=lambda w, t: factor * w + 1.0,
    )


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("step_block", [None, 5])
def test_divergence_in_the_middle_of_a_block(monkeypatch, record_every, step_block):
    S = use_step_block(monkeypatch, step_block)
    schedule = make_schedule(FIXED, 1.0, s=0.5, tau=0.5, sigma=0.5)
    init = PrimalDualPair(np.ones(1), np.ones(1))
    # trips at k = 27 and k = 327: in the first block of STEP_BLOCK steps
    # and in the second, and mid-block in 5-step blocks too
    for factor, block in ((3.0, 0), (1.25, 1)):
        got = assert_matches_reference(
            amplifying_problem(factor), schedule, init, 10_000, 0.0, record_every
        )
        assert got.termination == TERMINATION_DIVERGENCE
        assert got.k[-1] % S not in (0, S - 1)
        assert step_block is not None or got.k[-1] // S == block


def test_divergence_wins_a_tie_with_tol():
    # tol = inf is met by every row; the first row also trips the guard
    schedule = make_schedule(FIXED, 1.0, s=0.5, tau=0.5, sigma=0.5)
    init = PrimalDualPair(np.ones(1), np.ones(1))
    got = assert_matches_reference(amplifying_problem(1e13), schedule, init, 100, math.inf)
    assert got.termination == TERMINATION_DIVERGENCE and got.k.tolist() == [0]


def scaling_problem():
    """Fake "proxes" that scale their input by their weight t and add 1,
    coupled by F = 0.3: the state settles under t < 1 and grows under
    t > 1 until the divergence guard trips."""
    return SaddleProblem(
        F=np.full((1, 1), 0.3),
        prox_f=lambda v, t: t * v + 1.0,
        prox_gstar=lambda w, t: t * w + 1.0,
    )


@pytest.mark.parametrize("streamed", [False, True])
def test_a_stacked_run_gives_each_row_the_bits_of_its_own_run(monkeypatch, streamed):
    S = use_step_block(monkeypatch, 16)
    problem = scaling_problem()
    init = PrimalDualPair(np.zeros(1), np.zeros(1))
    # weights whose runs stop at tol in three different blocks, trip the
    # guard mid-block and run out the budget
    weights = (0.5, 0.8, 1.6, 0.9, 0.99)
    schedules = [Schedule(regime=FIXED, s=w, tau=w, sigma=w) for w in weights]
    budget, tol, record_every = 200, 1e-6, 7
    observers = [RecordingObserver() for _ in schedules] if streamed else None
    stack = run(
        problem, schedules, init, budget=budget, tol=tol, record_every=record_every,
        observer=observers,
    )
    assert len(stack) == len(schedules)
    for b, (schedule, got) in enumerate(zip(schedules, stack)):
        want = assert_matches_reference(problem, schedule, init, budget, tol, record_every)
        assert got.schedule is schedule and got.termination == want.termination
        for name in ("k", "primal_residual", "dual_residual"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(got.final.x, want.final.x)
        assert np.array_equal(got.final.y, want.final.y)
        if streamed:
            rows, _, _ = reference_run(problem, schedule, init, budget, tol, record_every)
            handed = observers[b].states()
            for name in ("k", "x", "y", "x_next", "y_next"):
                assert np.array_equal(getattr(handed, name), rows[name]), name
    ends = [(got.termination, int(got.k[-1])) for got in stack]
    assert [end[0] for end in ends] == [TERMINATION_RESIDUAL] * 2 + [
        TERMINATION_DIVERGENCE, TERMINATION_RESIDUAL, TERMINATION_BUDGET
    ]
    assert len({k // S for end, k in ends if end == TERMINATION_RESIDUAL}) == 3
    diverged_at = ends[2][1]
    assert diverged_at % S not in (0, S - 1)  # mid-block
    assert ends[3][1] > diverged_at  # a row carries on past the cut block


def test_a_stacked_run_takes_schedules_of_one_regime_and_one_observer_each():
    problem = scaling_problem()
    init = PrimalDualPair(np.zeros(1), np.zeros(1))
    fixed = Schedule(regime=FIXED, s=0.5, tau=0.5, sigma=0.5)
    other = Schedule(regime=OPTIMAL_SS, s=0.5, tau=0.5, sigma=0.5)
    with pytest.raises(ValueError, match="one regime"):
        run(problem, [fixed, other], init, budget=5)
    with pytest.raises(ValueError, match="one regime"):
        run(problem, [], init, budget=5)
    with pytest.raises(ValueError, match="1 observers for 2 schedules"):
        run(problem, [fixed, fixed], init, budget=5, observer=[RecordingObserver()])


def test_stacked_step_residuals_equal_the_per_row_calls():
    rng = np.random.default_rng(8)
    n, d = 9, 12
    for F in (Identity(d), FirstDifference(d + 1), Dense(rng.standard_normal((d + 1, d)))):
        d1, d2 = F.shape[1], F.shape[0]
        x, x_next = rng.standard_normal((2, n, d1))
        y, y_next = rng.standard_normal((2, n, d2))
        tau, sigma, theta = rng.uniform(0.1, 2.0, (3, n))
        rp, rd = step_residuals(F, x, y, x_next, y_next, tau, sigma, theta)
        assert rp.shape == rd.shape == (n,)
        for i in range(n):
            want = step_residuals(F, x[i], y[i], x_next[i], y_next[i], tau[i], sigma[i], theta[i])
            assert (rp[i], rd[i]) == want


def test_the_loop_makes_no_per_step_schedule_or_residual_call(monkeypatch):
    # two operator applications per step, two more per block
    calls = {"schedule_at": 0, "step_residuals": 0, "apply": 0, "apply_T": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    built = build_instance(InstanceSpec(kind="gen_lasso", d1=10, lam=0.3, identity_a=True, seed=1))
    F = built.problem.F
    monkeypatch.setattr(F, "apply", counting("apply", F.apply))
    monkeypatch.setattr(F, "apply_T", counting("apply_T", F.apply_T))
    for name in ("schedule_at", "step_residuals"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    schedule = make_schedule(FIXED, F.norm)
    budget = 3 * engine.STEP_BLOCK + 5
    run(built.problem, schedule, PrimalDualPair(np.zeros(10), np.zeros(9)), budget=budget, tol=0.0)
    blocks = 4
    assert calls["schedule_at"] == blocks
    assert calls["step_residuals"] == blocks
    # one F and one F^T per step, one each per block
    assert calls["apply"] == budget + blocks
    assert calls["apply_T"] == budget + blocks
