"""Implicit-Euler integrator tests for the continuous saddle dynamics."""

import math

import numpy as np
import pytest

from pdhglab import (
    FIXED,
    FirstDifference,
    Identity,
    InstanceSpec,
    PrimalDualPair,
    SaddleProblem,
    build_instance,
    integrate,
    lyapunov_fixed,
    make_schedule,
    run,
)
from pdhglab import dynamics
from pdhglab.dynamics import mass_matrix
from pdhglab.zoo import make_quad_pair


def decoupled_problem():
    """f(x) = x^2/2 and g*(y) = y^2/2 with no coupling (F = 0)."""
    return SaddleProblem(
        F=np.array([[0.0]]),
        prox_f=lambda v, t: v / (1.0 + t),
        prox_gstar=lambda w, t: w / (1.0 + t),
        mu=1.0,
        gamma=1.0,
        grad_f=lambda x: x,
        grad_gstar=lambda y: y,
    )


def one_step(state, h, s, tau, sigma, problem):
    """One implicit-Euler step of size h: the last state of integrate over T = h."""
    X, Y = integrate(state, T=h, h=h, s=s, tau=tau, sigma=sigma, problem=problem)
    return PrimalDualPair(X[-1], Y[-1])


def test_mass_matrix_layout():
    F = np.array([[2.0]])
    M = mass_matrix(0.5, 0.25, 1.0, F)
    want = np.array([[2.0, -1.0], [-1.0, 0.5]])
    assert np.allclose(M, want, atol=1e-15)


def test_mass_matrix_singularity_rejected():
    # tau sigma ||F||^2 = 1 makes the mass matrix exactly singular
    F = np.array([[1.0]])
    state = PrimalDualPair(np.ones(1), np.ones(1))
    prob = decoupled_problem()
    prob = SaddleProblem(
        F=F,
        prox_f=prob.prox_f, prox_gstar=prob.prox_gstar,
        mu=1.0, gamma=1.0,
        grad_f=lambda x: x, grad_gstar=lambda y: y,
    )
    with pytest.raises(ValueError):
        one_step(state, 0.1, 1.0, 1.0, 1.0, prob)


def test_ill_conditioned_mass_matrix_names_its_condition_number():
    # tau sigma ||F||^2 = 0.25 is admissible, but the diagonal blocks 1/tau
    # and 1/sigma lie 20 decades apart
    prob = SaddleProblem(
        F=np.array([[1.0]]), prox_f=lambda v, t: v, prox_gstar=lambda w, t: w,
        mu=1.0, gamma=1.0, grad_f=lambda x: x, grad_gstar=lambda y: y,
    )
    state = PrimalDualPair(np.ones(1), np.ones(1))
    with pytest.raises(ValueError, match=r"ill-conditioned: condition number 3\.33e\+19 > 1e14"):
        integrate(state, 1.0, 0.1, 0.5, 2.5e9, 1e-10, prob)


@pytest.mark.parametrize("coupling", [Identity(2), FirstDifference(3)])
def test_matrix_free_coupling_is_a_named_error(coupling):
    # the mass matrix needs F's entries; a matrix-free coupling has none
    d2, d1 = coupling.shape
    prob = SaddleProblem(
        F=coupling, prox_f=lambda v, t: v / (1.0 + t), prox_gstar=lambda w, t: w / (1.0 + t),
        mu=1.0, gamma=1.0, grad_f=lambda x: x, grad_gstar=lambda y: y,
    )
    state = PrimalDualPair(np.ones(d1), np.ones(d2))
    with pytest.raises(ValueError, match="needs a dense coupling"):
        integrate(state, 1.0, 0.1, 0.4, 0.4, 0.4, prob)


def test_decoupled_scalar_recurrence():
    # with tau = sigma = s the implicit step is X -> X / (1 + h), Y -> Y / (1 + h)
    prob = decoupled_problem()
    h, s = 0.25, 0.5
    state = PrimalDualPair(np.array([1.0]), np.array([-2.0]))
    for n in range(1, 12):
        state = one_step(state, h, s, s, s, prob)
        assert abs(state.x[0] - (1 + h) ** -n) <= 1e-9
        assert abs(state.y[0] + 2.0 * (1 + h) ** -n) <= 1e-9


def test_implicit_equation_residual_is_small():
    # independently verify M (z+ - z) = h rhs(z+) on a coupled smooth instance
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=1))
    s = 0.5 / built.problem.F_norm
    prob = built.problem
    state = PrimalDualPair(np.ones(3), -np.ones(3))
    nxt = one_step(state, 0.2, s, s, s, prob)
    F = prob.F.matrix
    M = mass_matrix(s, s, s, F)
    z = np.concatenate([state.x, state.y])
    zn = np.concatenate([nxt.x, nxt.y])
    rhs = np.concatenate(
        [-(F.T @ nxt.y) - prob.grad_f(nxt.x), F @ nxt.x - prob.grad_gstar(nxt.y)]
    )
    assert np.linalg.norm(M @ (zn - z) - 0.2 * rhs) <= 1e-8


def cubic_problem():
    """Cubic primal gradient: the implicit equation is genuinely nonlinear."""
    return SaddleProblem(
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


def test_newton_handles_nonlinear_gradients(monkeypatch):
    prob = cubic_problem()
    h, s = 0.5, 0.5
    state = PrimalDualPair(np.array([2.0]), np.array([0.0]))
    nxt = one_step(state, h, s, s, s, prob)
    assert abs(nxt.x[0] - cubic_step_oracle(2.0, h)) <= 1e-8
    monkeypatch.setattr(dynamics, "NEWTON_TOL", 1e-14)
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITER", 1)
    with pytest.raises(RuntimeError):
        one_step(state, h, s, s, s, prob)


def implicit_residuals(X, Y, h, s, problem):
    """Per step j >= 1: the residual ||M (z_j - z_{j-1}) - h G(z_j)|| of the
    implicit-Euler equation, and the scale ||M (z_j - z_{j-1})|| + h ||G(z_j)||."""
    F = problem.F.matrix
    M = mass_matrix(s, s, s, F)
    Z = np.hstack([X, Y])
    G = np.hstack([-(Y @ F) - problem.grad_f(X), X @ F.T - problem.grad_gstar(Y)])
    MD = np.diff(Z, axis=0) @ M.T
    residual = np.linalg.norm(MD - h * G[1:], axis=1)
    return residual, np.linalg.norm(MD, axis=1) + h * np.linalg.norm(G[1:], axis=1)


def test_every_step_of_an_ordinary_instance_meets_the_absolute_tolerance():
    # the scaled test and the rounding floor only accept where the absolute
    # one cannot be met: on the quad-ode instance each step still meets it
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.problem.F_norm
    init = PrimalDualPair(np.zeros(16), np.zeros(16))
    X, Y = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=built.problem)
    residual, _ = implicit_residuals(X, Y, s / 100, s, built.problem)
    assert residual.max() <= dynamics.NEWTON_TOL


def test_newton_test_is_relative_to_a_large_scale():
    # with x* and y* near 1e8 the residual's rounding is about 1e-8, which
    # no iterate brings under the absolute 1e-10; relative to the size of
    # its terms each step meets the tolerance
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    problem, _ = make_quad_pair(1e8 * np.ones(2), 1e8 * np.ones(2), 1.0, 1.0, F)
    s = 0.5
    X, Y = integrate(PrimalDualPair(np.zeros(2), np.zeros(2)), 1.0, 0.005, s, s, s, problem)
    residual, scale = implicit_residuals(X, Y, 0.005, s, problem)
    assert residual.max() > dynamics.NEWTON_TOL
    assert np.all(residual <= dynamics.NEWTON_TOL * scale)


def test_newton_stops_at_the_rounding_floor_of_a_stiff_step():
    # mu = 1e200: h mu (x+ - x*) moves by about 1e182 per ulp of x+, so the
    # residual cannot fall near 1e-10 nor near 1e-10 of its terms; the
    # first step pins x at x*, where it stays
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, seed=0, mu=1e200))
    problem, saddle = built.problem, built.saddle
    s = 0.9 / problem.F_norm
    init = PrimalDualPair(np.zeros(4), np.zeros(4))
    X, Y = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=problem)
    assert np.isfinite(Y).all()
    np.testing.assert_array_equal(X[1:], np.broadcast_to(saddle.x, X[1:].shape))


def test_integrate_includes_initial_state():
    prob = decoupled_problem()
    init = PrimalDualPair(np.array([1.0]), np.array([1.0]))
    X, Y = integrate(init, T=1.0, h=0.1, s=0.5, tau=0.5, sigma=0.5, problem=prob)
    assert X.shape == Y.shape == (11, 1)
    assert np.array_equal(X[0], init.x) and np.array_equal(Y[0], init.y)
    assert np.all(np.isfinite(X)) and np.all(np.isfinite(Y))


def test_integrate_sets_up_once_per_call(monkeypatch):
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.problem.F_norm
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
    init = PrimalDualPair(np.ones(16), -np.ones(16))
    X, _ = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=built.problem)
    assert len(X) > 100
    assert calls == {"mass_matrix": 1, "cond": 1, "_rhs_jacobian": 1}


def test_integrate_matches_chained_single_steps():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.problem.F_norm
    h = s / 100
    init = PrimalDualPair(np.ones(16), -np.ones(16))
    X, Y = integrate(init, T=1.0, h=h, s=s, tau=s, sigma=s, problem=built.problem)
    state = init
    for ref_x, ref_y in zip(X[1:], Y[1:]):
        state = one_step(state, h, s, s, s, built.problem)
        gap = np.hypot(np.linalg.norm(ref_x - state.x), np.linalg.norm(ref_y - state.y))
        assert gap <= 1e-12 * np.hypot(np.linalg.norm(state.x), np.linalg.norm(state.y))


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
    init = PrimalDualPair(np.array([2.0]), np.array([0.0]))
    X, _ = integrate(init, T=5.0, h=h, s=s, tau=s, sigma=s, problem=cubic_problem())
    assert len(X) == 11
    assert len(jacobians) > 1
    x = 2.0
    for state_x in X[1:]:
        x = cubic_step_oracle(x, h)
        assert abs(state_x[0] - x) <= 1e-8


def test_fixed_step_iteration_matches_implicit_euler():
    # the fixed-step, theta = 1 iteration IS the implicit scheme with h = s
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=12))
    s = 0.3 / built.problem.F_norm
    sched = make_schedule(FIXED, built.problem.F_norm, s=s)
    init = PrimalDualPair(np.ones(3), np.zeros(3))
    n = 30
    traj = run(built.problem, sched, init, budget=n, tol=0.0)
    X, Y = integrate(init, T=n * s, h=s, s=s, tau=s, sigma=s, problem=built.problem)
    assert len(X) == n + 1
    for k, x_next, y_next in zip(traj.k, traj.x_next, traj.y_next):
        gap = math.sqrt(
            float(np.sum((x_next - X[k + 1]) ** 2)) + float(np.sum((y_next - Y[k + 1]) ** 2))
        )
        assert gap <= 1e-9


def test_continuous_lyapunov_decays_along_flow():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=3))
    s = 0.4 / built.problem.F_norm
    init = PrimalDualPair(np.ones(2), np.ones(2))
    X, Y = integrate(init, T=5.0, h=0.05, s=s, tau=s, sigma=s, problem=built.problem)
    sad = built.saddle
    vals = [lyapunov_fixed(x, y, sad, s, s, built.problem.F) for x, y in zip(X, Y)]
    assert all(b <= a + 1e-8 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-2 * vals[0]


def test_long_horizon_flow_reaches_saddle():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=3))
    s = 0.4 / built.problem.F_norm
    init = PrimalDualPair(np.ones(2), -np.ones(2))
    X, Y = integrate(init, T=10.0, h=1e-3, s=s, tau=s, sigma=s, problem=built.problem)
    sad = built.saddle
    gap = math.sqrt(float(np.sum((X[-1] - sad.x) ** 2) + np.sum((Y[-1] - sad.y) ** 2)))
    assert gap <= 1e-3
