"""Implicit-Euler integrator tests for the continuous saddle dynamics."""

import math

import numpy as np
import pytest

from pdhglab import (
    FIXED,
    InstanceSpec,
    OdeState,
    PrimalDualPair,
    SaddleProblem,
    build_instance,
    hires_ode_step,
    integrate,
    lyapunov_fixed,
    make_schedule,
    run,
)
from pdhglab import dynamics
from pdhglab.dynamics import mass_matrix


def decoupled_problem():
    """f(x) = x^2/2 and g*(y) = y^2/2 with no coupling (F = 0)."""
    return SaddleProblem(
        d1=1,
        d2=1,
        F=np.array([[0.0]]),
        prox_f=lambda v, t: v / (1.0 + t),
        prox_gstar=lambda w, t: w / (1.0 + t),
        mu=1.0,
        gamma=1.0,
        grad_f=lambda x: x,
        grad_gstar=lambda y: y,
    )


def test_mass_matrix_layout():
    F = np.array([[2.0]])
    M = mass_matrix(0.5, 0.25, 1.0, F)
    want = np.array([[2.0, -1.0], [-1.0, 0.5]])
    assert np.allclose(M, want, atol=1e-15)


def test_mass_matrix_singularity_rejected():
    # tau sigma ||F||^2 = 1 makes the mass matrix exactly singular
    F = np.array([[1.0]])
    state = OdeState(np.ones(1), np.ones(1), 0.0)
    prob = decoupled_problem()
    prob = SaddleProblem(
        d1=1, d2=1, F=F,
        prox_f=prob.prox_f, prox_gstar=prob.prox_gstar,
        mu=1.0, gamma=1.0,
        grad_f=lambda x: x, grad_gstar=lambda y: y,
    )
    with pytest.raises(ValueError):
        hires_ode_step(state, 0.1, 1.0, 1.0, 1.0, prob)


def test_zero_step_is_identity():
    prob = decoupled_problem()
    state = OdeState(np.array([0.7]), np.array([-0.3]), 1.5)
    nxt = hires_ode_step(state, 0.0, 0.5, 0.5, 0.5, prob)
    assert np.array_equal(nxt.X, state.X) and np.array_equal(nxt.Y, state.Y)
    assert nxt.t == state.t


def test_decoupled_scalar_recurrence():
    # with tau = sigma = s the implicit step is X -> X / (1 + h), Y -> Y / (1 + h)
    prob = decoupled_problem()
    h, s = 0.25, 0.5
    state = OdeState(np.array([1.0]), np.array([-2.0]), 0.0)
    for n in range(1, 12):
        state = hires_ode_step(state, h, s, s, s, prob)
        assert abs(state.X[0] - (1 + h) ** -n) <= 1e-9
        assert abs(state.Y[0] + 2.0 * (1 + h) ** -n) <= 1e-9
        assert abs(state.t - n * h) <= 1e-12


def test_implicit_equation_residual_is_small():
    # independently verify M (z+ - z) = h rhs(z+) on a coupled smooth instance
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=1))
    s = 0.5 / built.F_norm
    prob = built.problem
    state = OdeState(np.ones(3), -np.ones(3), 0.0)
    nxt = hires_ode_step(state, 0.2, s, s, s, prob)
    M = mass_matrix(s, s, s, prob.F)
    z = np.concatenate([state.X, state.Y])
    zn = np.concatenate([nxt.X, nxt.Y])
    rhs = np.concatenate(
        [-(prob.F.T @ nxt.Y) - prob.grad_f(nxt.X), prob.F @ nxt.X - prob.grad_gstar(nxt.Y)]
    )
    assert np.linalg.norm(M @ (zn - z) - 0.2 * rhs) <= 1e-8


def cubic_problem():
    """Cubic primal gradient: the implicit equation is genuinely nonlinear."""
    return SaddleProblem(
        d1=1,
        d2=1,
        F=np.array([[0.0]]),
        prox_f=lambda v, t: v,
        prox_gstar=lambda w, t: w,
        grad_f=lambda x: x**3,
        grad_gstar=lambda y: y,
    )


def cubic_step_oracle(x, h):
    """Solve (u - x) + h u^3 = 0 (s = tau) by bisection on [0, x]."""
    lo, hi = 0.0, x
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if (mid - x) + h * mid**3 > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_newton_handles_nonlinear_gradients():
    prob = cubic_problem()
    h, s = 0.5, 0.5
    state = OdeState(np.array([2.0]), np.array([0.0]), 0.0)
    nxt = hires_ode_step(state, h, s, s, s, prob)
    assert abs(nxt.X[0] - cubic_step_oracle(2.0, h)) <= 1e-8
    with pytest.raises(RuntimeError):
        hires_ode_step(state, h, s, s, s, prob, newton_tol=1e-14, newton_max_iter=1)


def test_integrate_includes_initial_state():
    prob = decoupled_problem()
    init = OdeState(np.array([1.0]), np.array([1.0]), 0.0)
    states = integrate(init, T=1.0, h=0.1, s=0.5, tau=0.5, sigma=0.5, problem=prob)
    assert len(states) == 11
    assert states[0] is init or np.array_equal(states[0].X, init.X)
    assert abs(states[-1].t - 1.0) <= 1e-12
    for st in states:
        assert np.all(np.isfinite(st.X)) and np.all(np.isfinite(st.Y))


def test_integrate_sets_up_once_per_call(monkeypatch):
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.F_norm
    calls = {"mass_matrix": 0, "cond": 0, "_rhs_jacobian": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dynamics, "mass_matrix", "mass_matrix")
    counted(np.linalg, "cond", "cond")
    counted(dynamics, "_rhs_jacobian", "_rhs_jacobian")
    init = OdeState(np.ones(16), -np.ones(16), 0.0)
    states = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=built.problem)
    assert len(states) > 100
    assert calls == {"mass_matrix": 1, "cond": 1, "_rhs_jacobian": 1}


def test_integrate_matches_chained_single_steps():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.F_norm
    h = s / 100
    init = OdeState(np.ones(16), -np.ones(16), 0.0)
    states = integrate(init, T=1.0, h=h, s=s, tau=s, sigma=s, problem=built.problem)
    state = init
    for ref in states[1:]:
        state = hires_ode_step(state, h, s, s, s, built.problem)
        gap = np.hypot(np.linalg.norm(ref.X - state.X), np.linalg.norm(ref.Y - state.Y))
        assert gap <= 1e-12 * np.hypot(np.linalg.norm(state.X), np.linalg.norm(state.Y))
        assert ref.t == state.t


def test_integrate_rebuilds_newton_matrix_for_nonlinear_gradients(monkeypatch):
    # the Newton matrix taken at X = 2 is far off at later states, so the
    # frozen-matrix update stops halving the residual and it is re-taken
    jacobians = []
    real_jacobian = dynamics._rhs_jacobian

    def recorded(*args):
        jacobians.append(args)
        return real_jacobian(*args)

    monkeypatch.setattr(dynamics, "_rhs_jacobian", recorded)
    h, s = 0.5, 0.5
    init = OdeState(np.array([2.0]), np.array([0.0]), 0.0)
    states = integrate(init, T=5.0, h=h, s=s, tau=s, sigma=s, problem=cubic_problem())
    assert len(states) == 11
    assert len(jacobians) > 1
    x = 2.0
    for state in states[1:]:
        x = cubic_step_oracle(x, h)
        assert abs(state.X[0] - x) <= 1e-8


def test_fixed_step_iteration_matches_implicit_euler():
    # the fixed-step, theta = 1 iteration IS the implicit scheme with h = s
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=12))
    s = 0.3 / built.F_norm
    sched = make_schedule(FIXED, built.F_norm, s=s)
    init = PrimalDualPair(np.ones(3), np.zeros(3))
    n = 30
    traj = run(built.problem, sched, init, budget=n, tol=0.0)
    states = integrate(
        OdeState(init.x.copy(), init.y.copy(), 0.0),
        T=n * s, h=s, s=s, tau=s, sigma=s, problem=built.problem,
    )
    assert len(states) == n + 1
    for rec in traj.records:
        st = states[rec.k + 1]
        gap = math.sqrt(
            float(np.sum((rec.x_next - st.X) ** 2)) + float(np.sum((rec.y_next - st.Y) ** 2))
        )
        assert gap <= 1e-9


def test_continuous_lyapunov_decays_along_flow():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=3))
    s = 0.4 / built.F_norm
    init = OdeState(np.ones(2), np.ones(2), 0.0)
    states = integrate(init, T=5.0, h=0.05, s=s, tau=s, sigma=s, problem=built.problem)
    sad = built.saddle
    vals = [lyapunov_fixed(st.X, st.Y, sad, s, s, built.problem.F) for st in states]
    assert all(b <= a + 1e-8 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * vals[0]


def test_long_horizon_flow_reaches_saddle():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=3))
    s = 0.4 / built.F_norm
    init = OdeState(np.ones(2), -np.ones(2), 0.0)
    final = integrate(init, T=10.0, h=1e-3, s=s, tau=s, sigma=s, problem=built.problem)[-1]
    sad = built.saddle
    gap = math.sqrt(float(np.sum((final.X - sad.x) ** 2) + np.sum((final.Y - sad.y) ** 2)))
    assert gap <= 1e-3
