"""Iteration engine tests: single steps, full runs, termination, residuals."""

import dataclasses

import numpy as np
import pytest

from pdhglab import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    InstanceSpec,
    PrimalDualPair,
    SaddleProblem,
    Schedule,
    build_instance,
    make_schedule,
    optimality_residual,
    pdhg_step,
    run,
    step_residuals,
)
from pdhglab.engine import (
    TERMINATION_BUDGET,
    TERMINATION_DIVERGENCE,
    TERMINATION_RESIDUAL,
)


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
    x_next, y_next = pdhg_step(
        prob, np.array([1.0]), np.array([0.0]), 0.5, 0.5, 1.0
    )
    assert abs(x_next[0] - 2.0 / 3.0) <= 1e-15
    # the dual step reads xbar = x_next + (x_next - x_k) = 1/3:
    # y_next = (0 + 0.5 * xbar) / (1 + 0.5) = 1/9
    assert abs(y_next[0] - 1.0 / 9.0) <= 1e-15


def test_pdhg_step_saddle_is_fixed_point():
    spec = InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=2, mu=1.0, gamma=2.0)
    built = build_instance(spec)
    sad = built.saddle
    for theta in (0.0, 0.5, 1.0):
        x_next, y_next = pdhg_step(
            built.problem, sad.x, sad.y, 0.4, 0.3, theta
        )
        assert np.linalg.norm(x_next - sad.x) <= 1e-12
        assert np.linalg.norm(y_next - sad.y) <= 1e-12


def test_pdhg_step_theta_zero_disables_extrapolation():
    prob = scalar_quadratic_problem()
    y = np.array([0.3])
    x_next, y_next = pdhg_step(prob, np.array([1.0]), y, 0.5, 0.5, 0.0)
    # the dual step is taken from x_next itself
    assert np.array_equal(y_next, prob.prox_gstar(y + 0.5 * (prob.F @ x_next), 0.5))


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
    got = run(built.problem, direct, init, budget=20, tol=0.0)
    made = make_schedule(ACCELERATED, built.problem.F_norm, s=0.5, c=0.5, mu=built.problem.mu)
    want = run(built.problem, made, init, budget=20, tol=0.0)
    assert direct == made
    assert got.k[0] == 1
    for name in ("k", "tau", "sigma", "theta", "x", "y", "x_next", "y_next"):
        assert np.array_equal(getattr(got, name), getattr(want, name))


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
    traj = run(built.problem, sched, init, budget=60, tol=0.0)
    assert np.array_equal(traj.x[0], init.x)
    assert np.array_equal(traj.y[0], init.y)
    for i in range(1, len(traj.k)):
        assert np.array_equal(traj.x[i], traj.x_next[i - 1])
        assert np.array_equal(traj.y[i], traj.y_next[i - 1])


def test_run_stores_each_state_once():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=2, seed=5))
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.ones(3), np.zeros(2))
    traj = run(built.problem, sched, init, budget=20, tol=0.0)
    # one (budget + 1)-row buffer per variable holds pre- and post-states
    assert np.shares_memory(traj.x[1:], traj.x_next[:-1])
    assert np.shares_memory(traj.y[1:], traj.y_next[:-1])
    assert traj.x.base is traj.x_next.base and traj.x.base.shape == (21, 3)
    strided = run(built.problem, sched, init, budget=20, tol=0.0, record_every=3)
    # ceil(20 / 3) stride rows plus the last step
    assert strided.x.base.shape == strided.x_next.base.shape == (8, 3)
    assert not np.shares_memory(strided.x, strided.x_next)
    assert strided.k.tolist() == [0, 3, 6, 9, 12, 15, 18, 19]


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
    t1 = run(built.problem, sched, init, budget=50, tol=0.0)
    t2 = run(built.problem, sched, init, budget=50, tol=0.0)
    for i in range(len(t1.k)):
        assert np.array_equal(t1.x_next[i], t2.x_next[i])
        assert np.array_equal(t1.y_next[i], t2.y_next[i])
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


def test_optimality_residual_exact_for_closed_form_prox():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=7))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), np.ones(4))
    traj = run(built.problem, sched, init, budget=40, tol=0.0)
    for i in range(len(traj.k)):
        r_x, r_y = optimality_residual(built.problem, traj, i)
        assert r_x <= 1e-9 and r_y <= 1e-9


def test_optimality_residual_detects_corruption():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=7))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), np.ones(4))
    traj = run(built.problem, sched, init, budget=5, tol=0.0)
    bad = dataclasses.replace(traj, x_next=traj.x_next + 1e-3)
    r_x, _ = optimality_residual(built.problem, bad, 2)
    assert r_x >= 1e-4


def test_optimality_residual_requires_an_oracle():
    prob = SaddleProblem(
        F=np.array([[1.0]]),
        prox_f=lambda v, t: v / (1.0 + t),
        prox_gstar=lambda w, t: w / (1.0 + t),
    )
    sched = make_schedule(FIXED, 1.0)
    traj = run(prob, sched, PrimalDualPair(np.ones(1), np.ones(1)), budget=1)
    with pytest.raises(ValueError):
        optimality_residual(prob, traj, 0)


# numpy warns of the squares this test overflows
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_residuals_stay_finite_when_their_squares_overflow():
    # ||(3e200, 4e200)|| = 5e200 though its square is past the largest double
    F = np.eye(2)
    x_k, zero = np.array([3e200, 4e200]), np.zeros(2)
    rp, rd = step_residuals(F, x_k, zero, zero, zero, 1.0, 1.0, 1.0)
    assert rp == pytest.approx(5e200, rel=1e-15)
    assert rd == pytest.approx(5e200, rel=1e-15)
