"""Implicit-Euler integrator tests for the continuous saddle dynamics."""

import math
import warnings
from dataclasses import replace

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
)
from pdhglab import dynamics
from pdhglab.dynamics import mass_matrix
from pdhglab.engine import STEP_BLOCK
from pdhglab.problems import _norm
from pdhglab.zoo import make_quad_pair
from recording import recorded_run


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
    _, states, _ = recorded_run(built.problem, sched, init, budget=n, tol=0.0)
    X, Y = integrate(init, T=n * s, h=s, s=s, tau=s, sigma=s, problem=built.problem)
    assert len(X) == n + 1
    for k, x_next, y_next in zip(states.k, states.x_next, states.y_next):
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


def newton_oracle(init, T, h, s, tau, sigma, problem):
    """Implicit Euler by the full Newton loop at every step: the reference
    whose bits integrate keeps.  Returns X, Y and, per step, whether it took
    exactly one update and met the absolute test (a step a block keeps)."""
    F, d1 = problem.F.matrix, problem.d1
    M = mass_matrix(s, tau, sigma, F)

    def rhs(z):
        X, Y = z[:d1], z[d1:]
        return np.concatenate([-(F.T @ Y) - problem.grad_f(X), F @ X - problem.grad_gstar(Y)])

    def newton_matrix(z):
        N = M - h * dynamics._rhs_jacobian(problem, z[:d1], z[d1:])
        return np.linalg.inv(N), np.abs(N)

    n_steps = int(np.ceil(T / h - 1e-12))
    Z = np.empty((n_steps + 1, d1 + problem.d2))
    one_update = np.zeros(n_steps, dtype=bool)
    z = Z[0] = np.concatenate([init.x, init.y])
    J_inv, N_abs = newton_matrix(z)
    G = rhs(z)
    for j in range(1, n_steps + 1):
        z_new, last = z, np.inf
        for i in range(dynamics.NEWTON_MAX_ITER):
            MD = M @ (z_new - z)
            H = MD - h * G
            res = _norm(H)
            if res <= dynamics.NEWTON_TOL:
                one_update[j - 1] = i == 1
                break
            if i:
                beyond = np.maximum(np.abs(H) - dynamics.EPS * (N_abs @ np.abs(z_new)), 0.0)
                if _norm(beyond) <= dynamics.NEWTON_TOL * max(1.0, _norm(MD) + h * _norm(G)):
                    break
            if res > 0.5 * last:
                J_inv, N_abs = newton_matrix(z_new)
            z_new = z_new - J_inv @ H
            G = rhs(z_new)
            last = res
        else:
            raise RuntimeError("Newton solve did not converge")
        z = Z[j] = z_new
    return Z[:, :d1], Z[:, d1:], one_update


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def quad_ode_case(level=0, T=10.0):
    """The quad-ode instance (quad_pair d = 16, seed 1) at the steps halved ``level`` times."""
    problem = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1)).problem
    s = 0.9 / problem.F_norm * 0.5**level
    return PrimalDualPair(np.zeros(16), np.zeros(16)), T, s / 100, s, s, s, problem


def large_scale_case():
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    problem, _ = make_quad_pair(1e8 * np.ones(2), 1e8 * np.ones(2), 1.0, 1.0, F)
    return PrimalDualPair(np.zeros(2), np.zeros(2)), 1.0, 0.005, 0.5, 0.5, 0.5, problem


def stiff_case():
    problem = build_instance(InstanceSpec(kind="quad_pair", d1=4, seed=0, mu=1e200)).problem
    s = 0.9 / problem.F_norm
    return PrimalDualPair(np.zeros(4), np.zeros(4)), 10.0, s / 100, s, s, s, problem


def cubic_case():
    init = PrimalDualPair(np.array([2.0]), np.array([0.0]))
    return init, 200.0, 0.5, 0.5, 0.5, 0.5, cubic_problem()


def rest_case():
    # h ||G(z)|| falls under NEWTON_TOL at step 53: from there z is kept as it is
    init = PrimalDualPair(np.array([1e-7]), np.array([-1e-7]))
    return init, 60.0, 0.1, 0.5, 0.5, 0.5, decoupled_problem()


# (case, share of steps a block keeps): every step of the quad-ode levels;
# no step where each takes the scaled test, the rounding floor or a nonlinear
# gradient's Newton matrix re-take; the first 52 of 600 steps of a flow that
# comes to rest; 100 steps, less than one block; 600 steps, which end in the
# middle of the third block
ORACLE_CASES = {
    **{f"quad-ode-level-{n}": (lambda n=n: quad_ode_case(n), 1.0) for n in range(4)},
    "large-scale-scaled-test": (large_scale_case, 0.0),
    "mu-1e200-rounding-floor": (stiff_case, 0.0),
    "cubic-newton-matrix-retaken": (cubic_case, 0.0),
    "comes-to-rest-mid-block": (rest_case, 52 / 600),
    "shorter-than-a-block": (lambda: quad_ode_case(T=0.9), 1.0),
    "ends-mid-block": (lambda: quad_ode_case(T=5.4), 1.0),
}


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_integrate_has_the_bits_of_the_full_newton_loop(case):
    build, kept_share = ORACLE_CASES[case]
    args = build()
    X, Y = integrate(*args)
    X0, Y0, one_update = newton_oracle(*args)
    assert same_bits(X, X0) and same_bits(Y, Y0)
    assert one_update.mean() == kept_share
    if case == "ends-mid-block":
        assert len(one_update) % STEP_BLOCK and len(one_update) > 2 * STEP_BLOCK
    if case == "shorter-than-a-block":
        assert len(one_update) < STEP_BLOCK


def test_steps_failing_in_the_middle_of_a_block_are_retaken(monkeypatch):
    # at NEWTON_TOL = 1e-14 one update leaves some steps above the tolerance,
    # scattered through each block: each is retaken by the full loop, and
    # the block's steps after it with it
    monkeypatch.setattr(dynamics, "NEWTON_TOL", 1e-14)
    args = quad_ode_case()
    X, Y = integrate(*args)
    X0, Y0, one_update = newton_oracle(*args)
    assert same_bits(X, X0) and same_bits(Y, Y0)
    failing = np.flatnonzero(~one_update) % STEP_BLOCK
    assert 0.5 < one_update.mean() < 1.0
    assert (failing > 0).any() and (failing < STEP_BLOCK - 1).any()


def test_a_floating_point_error_in_the_tests_retakes_the_block(monkeypatch):
    # an overflow in the first block's stacked tests: the full loop retakes
    # all of that block's steps, one more G each, with the same bits
    calls = []
    problem = quad_ode_case()[-1]
    counted = replace(problem, grad_f=lambda x: calls.append(1) or problem.grad_f(x))
    args = quad_ode_case(T=5.4)[:-1] + (counted,)
    X0, Y0 = integrate(*args)
    n_calls = len(calls)

    real_matvec, overflowed = dynamics.matvec, []

    def matvec_overflowing_once(M, v):
        if not overflowed:
            overflowed.append(True)
            np.float64(1e308) * 10.0  # raises under the block's settings
        return real_matvec(M, v)

    monkeypatch.setattr(dynamics, "matvec", matvec_overflowing_once)
    calls.clear()
    X, Y = integrate(*args)
    assert same_bits(X, X0) and same_bits(Y, Y0)
    assert len(calls) == n_calls + STEP_BLOCK


def test_a_one_update_limit_gives_up_as_the_full_loop_does(monkeypatch):
    # the full loop tests no iterate past its last update: with one update
    # allowed, it keeps only a step that needs none, so a block keeps none
    monkeypatch.setattr(dynamics, "NEWTON_MAX_ITER", 1)
    args = quad_ode_case(T=0.9)
    with pytest.raises(RuntimeError):
        newton_oracle(*args)
    with pytest.raises(RuntimeError, match="did not reach residual"):
        integrate(*args)


def test_mass_matrix_times_zero_is_positive_zero():
    # M (z - z) at a finite z is +0 in every row, the bits of the constant
    # M 0 a block forms each step's first residual from, because each row of
    # M has a positive diagonal entry; the coupling's signs do not matter
    for case in (quad_ode_case, large_scale_case, stiff_case, cubic_case):
        init, _, h, s, tau, sigma, problem = case()
        M = mass_matrix(s, tau, sigma, problem.F.matrix)
        z = np.resize([1e-300, -1e300, 3.0], len(M))
        zero = M @ np.zeros(len(M))
        assert not zero.view(np.int64).any()
        assert same_bits(M @ (z - z), zero)
        G = np.resize([0.0, -0.0, 1e-300, -1e308], len(M))
        assert same_bits(zero - h * G, M @ (z - z) - h * G)


def stiff_past_one_problem():
    """grad f = x, plus 1e8 sign(x) (|x| - 1)^3 past |x| = 1: linear, then very stiff."""
    return SaddleProblem(
        F=np.array([[1.0]]),
        prox_f=lambda v, t: v,
        prox_gstar=lambda w, t: w,
        grad_f=lambda x: x + 1e8 * np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0) ** 3,
        grad_gstar=lambda y: y,
    )


def test_steps_discarded_after_a_failing_step_print_no_warning():
    # the first Newton matrix, taken at x = 0, does not see the stiff term:
    # past |x| = 1 one update fails the test, and a block's later steps, each
    # of one update with that matrix, overflow a few steps on.  The full
    # Newton loop retakes the matrix and stays finite, and it prints nothing.
    problem = stiff_past_one_problem()
    args = PrimalDualPair(np.array([0.0]), np.array([-3.0])), 10.0, 0.01, 0.5, 0.5, 0.5, problem
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        X, Y = integrate(*args)
        X0, Y0, one_update = newton_oracle(*args)
    assert not caught
    assert same_bits(X, X0) and same_bits(Y, Y0)
    first_failure = int(np.argmin(one_update))
    assert 0 < first_failure < STEP_BLOCK
    # the block's own one-update steps, which never retake the matrix
    init, _, h, s, tau, sigma, _ = args
    M = mass_matrix(s, tau, sigma, problem.F.matrix)
    J_inv = np.linalg.inv(M - h * dynamics._rhs_jacobian(problem, init.x, init.y))
    z = np.concatenate([init.x, init.y])
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        for _ in range(STEP_BLOCK):
            G = np.concatenate([-z[1:] - problem.grad_f(z[:1]), z[:1] - problem.grad_gstar(z[1:])])
            z = z - J_inv @ (0.0 - h * G)
