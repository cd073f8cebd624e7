"""Iteration engine tests: single steps, full runs, termination, residuals."""

import dataclasses

import numpy as np
import pytest

from pdhglab import (
    FIXED,
    OPTIMAL_SS,
    InstanceSpec,
    PrimalDualPair,
    SaddleProblem,
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
        d1=1,
        d2=1,
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
    x_next, x_bar, y_next = pdhg_step(
        prob, np.array([1.0]), np.array([0.0]), 0.5, 0.5, 1.0
    )
    assert abs(x_next[0] - 2.0 / 3.0) <= 1e-15
    assert abs(x_bar[0] - 1.0 / 3.0) <= 1e-15
    assert abs(y_next[0] - 1.0 / 9.0) <= 1e-15


def test_pdhg_step_saddle_is_fixed_point():
    spec = InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=2, mu=1.0, gamma=2.0)
    built = build_instance(spec)
    sad = built.saddle
    for theta in (0.0, 0.5, 1.0):
        x_next, x_bar, y_next = pdhg_step(
            built.problem, sad.x, sad.y, 0.4, 0.3, theta
        )
        assert np.linalg.norm(x_next - sad.x) <= 1e-12
        assert np.linalg.norm(x_bar - sad.x) <= 1e-12
        assert np.linalg.norm(y_next - sad.y) <= 1e-12


def test_pdhg_step_theta_zero_disables_extrapolation():
    prob = scalar_quadratic_problem()
    x_next, x_bar, _ = pdhg_step(
        prob, np.array([1.0]), np.array([0.3]), 0.5, 0.5, 0.0
    )
    assert np.array_equal(x_bar, x_next)


def test_run_reaches_kkt_saddle():
    spec = InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=0, mu=1.0, gamma=1.0)
    built = build_instance(spec)
    sched = make_schedule(OPTIMAL_SS, built.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.zeros(4), np.zeros(4))
    traj = run(built.problem, sched, init, budget=2000, tol=1e-10)
    assert traj.termination == TERMINATION_RESIDUAL
    sad = built.saddle
    final = traj.final
    assert np.linalg.norm(final.x - sad.x) <= 1e-8
    assert np.linalg.norm(final.y - sad.y) <= 1e-8


def test_run_budget_one():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=1))
    sched = make_schedule(FIXED, built.F_norm)
    traj = run(built.problem, sched, PrimalDualPair(np.ones(2), np.ones(2)), budget=1)
    assert len(traj.records) == 1
    assert traj.records[0].k == 0
    assert traj.termination == TERMINATION_BUDGET


def test_run_from_saddle_stops_immediately():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=4))
    sched = make_schedule(FIXED, built.F_norm)
    traj = run(built.problem, sched, built.saddle, budget=100, tol=1e-10)
    assert traj.termination == TERMINATION_RESIDUAL
    assert traj.records[-1].k == sched.k_start
    assert traj.records[-1].primal_residual <= 1e-10
    assert traj.records[-1].dual_residual <= 1e-10


def test_run_records_chain_and_extrapolation_identity():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=5, seed=3))
    sched = make_schedule(OPTIMAL_SS, built.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(5), -np.ones(5))
    traj = run(built.problem, sched, init, budget=60, tol=0.0)
    assert np.array_equal(traj.records[0].x, init.x)
    assert np.array_equal(traj.records[0].y, init.y)
    for prev, rec in zip(traj.records, traj.records[1:]):
        assert np.array_equal(rec.x, prev.x_next)
        assert np.array_equal(rec.y, prev.y_next)
    for rec in traj.records:
        want = rec.x_next + rec.theta * (rec.x_next - rec.x)
        scale = max(1.0, float(np.linalg.norm(want)))
        assert np.linalg.norm(rec.x_bar - want) <= 1e-12 * scale


def test_run_record_every_keeps_stride_and_last():
    # budget short enough that the iterates keep moving: a longer run would
    # reach an exact floating-point fixed point and stop at tol = 0.0
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=5))
    sched = make_schedule(FIXED, built.F_norm)
    init = PrimalDualPair(np.ones(2), np.zeros(2))
    traj = run(built.problem, sched, init, budget=40, tol=0.0, record_every=7)
    assert traj.termination == TERMINATION_BUDGET
    ks = [rec.k for rec in traj.records]
    assert ks == list(range(0, 40, 7)) + [39]


def test_run_is_deterministic():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=0.5))
    sched = make_schedule(FIXED, built.F_norm)
    init = PrimalDualPair(np.zeros(5), np.zeros(5))
    t1 = run(built.problem, sched, init, budget=50, tol=0.0)
    t2 = run(built.problem, sched, init, budget=50, tol=0.0)
    for r1, r2 in zip(t1.records, t2.records):
        assert np.array_equal(r1.x_next, r2.x_next)
        assert np.array_equal(r1.y_next, r2.y_next)
        assert r1.primal_residual == r2.primal_residual


def test_run_divergence_guard():
    # an amplifying fake "prox" drives the state past the guard threshold
    prob = SaddleProblem(
        d1=1,
        d2=1,
        F=np.array([[1.0]]),
        prox_f=lambda v, t: 4.0 * v + 1.0,
        prox_gstar=lambda w, t: 4.0 * w + 1.0,
    )
    sched = make_schedule(FIXED, 1.0, s=0.5, tau=0.5, sigma=0.5)
    traj = run(prob, sched, PrimalDualPair(np.ones(1), np.ones(1)), budget=10_000, tol=0.0)
    assert traj.termination == TERMINATION_DIVERGENCE
    assert len(traj.records) < 10_000


def test_run_validates_inputs():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=0))
    sched = make_schedule(FIXED, built.F_norm)
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
    sched = make_schedule(OPTIMAL_SS, built.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), np.ones(4))
    traj = run(built.problem, sched, init, budget=40, tol=0.0)
    for rec in traj.records:
        r_x, r_y = optimality_residual(built.problem, rec)
        assert r_x <= 1e-9 and r_y <= 1e-9


def test_optimality_residual_detects_corruption():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=4, seed=7))
    sched = make_schedule(OPTIMAL_SS, built.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), np.ones(4))
    rec = run(built.problem, sched, init, budget=5, tol=0.0).records[2]
    bad = dataclasses.replace(rec, x_next=rec.x_next + 1e-3)
    r_x, _ = optimality_residual(built.problem, bad)
    assert r_x >= 1e-4


def test_optimality_residual_requires_an_oracle():
    prob = SaddleProblem(
        d1=1,
        d2=1,
        F=np.array([[1.0]]),
        prox_f=lambda v, t: v / (1.0 + t),
        prox_gstar=lambda w, t: w / (1.0 + t),
    )
    sched = make_schedule(FIXED, 1.0)
    rec = run(prob, sched, PrimalDualPair(np.ones(1), np.ones(1)), budget=1).records[0]
    with pytest.raises(ValueError):
        optimality_residual(prob, rec)
