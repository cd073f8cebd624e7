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

EPS = np.finfo(float).eps
# tolerance and iteration cap of newton_oracle, the Newton reference
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50


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


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_refused_at(args, t=None):
    """integrate refuses ``args`` at the state at time ``t`` (at any state
    when None), and prints no warning."""
    at = r"\S+" if t is None else f"{t:.6g}"
    pattern = rf"state at t={at} is not finite, or its gradients are not the affine map"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match=pattern):
            integrate(*args)
    assert not caught


def test_a_cubic_gradient_fails_closed():
    # grad f = x^3 is no affine map: at x = 2 it is 8, where J z + G(0) is 0
    init = PrimalDualPair(np.array([2.0]), np.array([0.0]))
    assert_refused_at((init, 5.0, 0.5, 0.5, 0.5, 0.5, cubic_problem()), 0.0)


def test_twice_the_modulus_fails_closed():
    # grad f = 2 mu (x - a) on a problem of modulus mu: G(0) is the oracles'
    # own, so the first state passes and the second, where x != 0, fails
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    problem, _ = make_quad_pair(np.ones(2), np.ones(2), 0.5, 1.0, F)
    problem = replace(problem, grad_f=lambda x, grad_f=problem.grad_f: 2 * grad_f(x))
    init = PrimalDualPair(np.zeros(2), np.zeros(2))
    assert_refused_at((init, 1.0, 0.005, 0.5, 0.5, 0.5, problem), 0.005)


def test_the_certificate_allows_rounding_and_no_more():
    # mu x - mu a is the same affine map as mu (x - a), rounded otherwise,
    # and passes; a Hessian 1e-13 off mu I reads up to 25 times the floor,
    # and fails
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    a, mu = np.array([1.0, -3.0]), 0.7
    problem, _ = make_quad_pair(a, np.ones(2), mu, 1.0, F)
    init = PrimalDualPair(np.zeros(2), np.zeros(2))
    same = replace(problem, grad_f=lambda x: mu * x - mu * a)
    X, _ = integrate(init, 5.0, 0.005, 0.5, 0.5, 0.5, same)
    assert len(X) == 1001
    off = replace(problem, grad_f=lambda x: (mu + 1e-13 * mu) * (x - a))
    assert_refused_at((init, 5.0, 0.005, 0.5, 0.5, 0.5, off))


@pytest.mark.parametrize(
    "init, shift, t",
    [
        (PrimalDualPair(np.array([np.nan]), np.array([1.0])), 0.0, 0.0),
        # h G(0) = 10 * 1e308 overflows: every state after the first is inf or nan
        (PrimalDualPair(np.array([1.0]), np.array([1.0])), 1e308, 10.0),
    ],
    ids=["nan-start", "overflowing-step"],
)
def test_a_state_that_is_not_finite_fails_closed(init, shift, t):
    problem = replace(decoupled_problem(), grad_f=lambda x: x - shift)
    assert_refused_at((init, 30.0, 10.0, 0.5, 0.5, 0.5, problem), t)


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
    # the map solves each step to rounding: on the quad-ode instance each
    # step's residual is far under the absolute 1e-10 (6.4e-16 measured)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.problem.F_norm
    init = PrimalDualPair(np.zeros(16), np.zeros(16))
    X, Y = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=built.problem)
    residual, _ = implicit_residuals(X, Y, s / 100, s, built.problem)
    assert residual.max() <= 1e-10


def test_newton_test_is_relative_to_a_large_scale():
    # with x* and y* near 1e8 the residual's rounding is about 1e-8, far
    # above the absolute 1e-10; relative to the size of its terms each step
    # is within 1e-10 (4.7e-14 measured)
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    problem, _ = make_quad_pair(1e8 * np.ones(2), 1e8 * np.ones(2), 1.0, 1.0, F)
    s = 0.5
    X, Y = integrate(PrimalDualPair(np.zeros(2), np.zeros(2)), 1.0, 0.005, s, s, s, problem)
    residual, scale = implicit_residuals(X, Y, 0.005, s, problem)
    assert residual.max() > 1e-10
    assert np.all(residual <= 1e-10 * scale)


def test_newton_stops_at_the_rounding_floor_of_a_stiff_step():
    # mu = 1e200: h mu (x+ - x*) moves by about 1e182 per ulp of x+, so the
    # residual cannot fall near 1e-10 nor near 1e-10 of its terms; from the
    # first step on the map holds x within an ulp of x* (1.4e-17 measured)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, seed=0, mu=1e200))
    problem, saddle = built.problem, built.saddle
    s = 0.9 / problem.F_norm
    init = PrimalDualPair(np.zeros(4), np.zeros(4))
    X, Y = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=problem)
    assert np.isfinite(Y).all()
    assert np.all(np.abs(X[1:] - saddle.x) <= EPS * np.abs(saddle.x))


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
    calls = {"mass_matrix": 0, "cond": 0, "solve": 0}

    def counted(module, name, key):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dynamics, "mass_matrix", "mass_matrix")
    counted(np.linalg, "cond", "cond")
    counted(np.linalg, "solve", "solve")
    init = PrimalDualPair(np.ones(16), -np.ones(16))
    X, _ = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=built.problem)
    assert len(X) > 100
    assert calls == {"mass_matrix": 1, "cond": 1, "solve": 1}


def test_integrate_matches_chained_single_steps():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.problem.F_norm
    h = s / 100
    init = PrimalDualPair(np.ones(16), -np.ones(16))
    X, Y = integrate(init, T=1.0, h=h, s=s, tau=s, sigma=s, problem=built.problem)
    # each call solves for the same map: the states have the same bits
    state = init
    for ref_x, ref_y in zip(X[1:], Y[1:]):
        state = one_step(state, h, s, s, s, built.problem)
        assert same_bits(ref_x, state.x) and same_bits(ref_y, state.y)


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


def fd_jacobian(problem, X, Y):
    """dG at (X, Y) by central finite differences on the gradient oracles;
    exact to rounding for affine gradients."""
    F = problem.F.matrix
    d1, d2 = X.size, Y.size
    J = np.zeros((d1 + d2, d1 + d2))
    eps = 1e-6
    for i in range(d1):
        e = np.zeros(d1)
        e[i] = eps
        J[:d1, i] = -(problem.grad_f(X + e) - problem.grad_f(X - e)) / (2 * eps)
    J[:d1, d1:] = -F.T
    J[d1:, :d1] = F
    for j in range(d2):
        e = np.zeros(d2)
        e[j] = eps
        J[d1:, d1 + j] = -(problem.grad_gstar(Y + e) - problem.grad_gstar(Y - e)) / (2 * eps)
    return J


def newton_oracle(init, T, h, s, tau, sigma, problem, max_iter=NEWTON_MAX_ITER):
    """Implicit Euler by a Newton loop at every step, independent of
    integrate: a finite-difference Newton matrix, re-taken whenever an update
    fails to halve the residual, and a step accepted once its residual H is
    at most NEWTON_TOL or, past the first update, once H less its rounding
    floor EPS |N| |z+| is at most NEWTON_TOL of the size of its terms."""
    F, d1 = problem.F.matrix, problem.d1
    M = mass_matrix(s, tau, sigma, F)

    def rhs(z):
        X, Y = z[:d1], z[d1:]
        return np.concatenate([-(F.T @ Y) - problem.grad_f(X), F @ X - problem.grad_gstar(Y)])

    def newton_matrix(z):
        N = M - h * fd_jacobian(problem, z[:d1], z[d1:])
        return np.linalg.inv(N), np.abs(N)

    n_steps = int(np.ceil(T / h - 1e-12))
    Z = np.empty((n_steps + 1, d1 + problem.d2))
    z = Z[0] = np.concatenate([init.x, init.y])
    J_inv, N_abs = newton_matrix(z)
    G = rhs(z)
    for j in range(1, n_steps + 1):
        z_new, last = z, np.inf
        for i in range(max_iter):
            MD = M @ (z_new - z)
            H = MD - h * G
            res = _norm(H)
            if res <= NEWTON_TOL:
                break
            if i:
                beyond = np.maximum(np.abs(H) - EPS * (N_abs @ np.abs(z_new)), 0.0)
                if _norm(beyond) <= NEWTON_TOL * max(1.0, _norm(MD) + h * _norm(G)):
                    break
            if res > 0.5 * last:
                J_inv, N_abs = newton_matrix(z_new)
            z_new = z_new - J_inv @ H
            G = rhs(z_new)
            last = res
        else:
            raise RuntimeError("Newton solve did not converge")
        z = Z[j] = z_new
    return Z[:, :d1], Z[:, d1:]


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
    # the Newton reference the agreement tests compare against, with its
    # finite-difference matrix, solves the cubic step that integrate refuses;
    # with one update allowed it gives up on a step that needs one
    state = PrimalDualPair(np.array([2.0]), np.array([0.0]))
    h, s = 0.5, 0.5
    X, _ = newton_oracle(state, h, h, s, s, s, cubic_problem())
    assert abs(X[1, 0] - cubic_step_oracle(2.0, h)) <= 1e-8
    with pytest.raises(RuntimeError, match="did not converge"):
        newton_oracle(state, h, h, s, s, s, cubic_problem(), max_iter=1)


def quad_ode_case(level=0, T=10.0):
    """The quad-ode instance (quad_pair d = 16, seed 1) at the steps halved ``level`` times."""
    problem = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1)).problem
    s = 0.9 / problem.F_norm * 0.5**level
    return PrimalDualPair(np.zeros(16), np.zeros(16)), T, s / 100, s, s, s, problem


def large_scale_case():
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    problem, _ = make_quad_pair(1e8 * np.ones(2), 1e8 * np.ones(2), 1.0, 1.0, F)
    return PrimalDualPair(np.zeros(2), np.zeros(2)), 1.0, 0.005, 0.5, 0.5, 0.5, problem


def moduli_case(mu, gamma=1.0):
    """quad_pair d = 4, seed 0, at moduli mu and gamma."""
    spec = InstanceSpec(kind="quad_pair", d1=4, seed=0, mu=mu, gamma=gamma)
    problem = build_instance(spec).problem
    s = 0.9 / problem.F_norm
    return PrimalDualPair(np.zeros(4), np.zeros(4)), 10.0, s / 100, s, s, s, problem


def rest_case():
    # h ||G(z)|| falls under NEWTON_TOL at step 53: from there the Newton
    # loop keeps z as it is, while the map goes on shrinking it
    init = PrimalDualPair(np.array([1e-7]), np.array([-1e-7]))
    return init, 60.0, 0.1, 0.5, 0.5, 0.5, decoupled_problem()


# (case, bound on max |z - z_newton| over max |z_newton|), a few times the
# gap measured: the quad-ode levels (5.3e-13 at most); the 1e8-scale pair,
# where the Newton loop stops at 1e-10 of the residual's terms (6.9e-11);
# mu = 1e200 and gamma = 1e200, where it stops at the rounding floor
# (2.4e-13 and 6.0e-14); mu = 1e-8 (1.6e-13); a flow that comes to rest,
# which the loop stops at NEWTON_TOL, 7e-10 = 7.0e-3 of max |z| (its
# states are 1e-7); 100 steps, less than one certificate block (7.5e-13);
# and 600 steps, which end in the middle of the third (5.3e-13)
AGREEMENT_CASES = {
    **{f"quad-ode-level-{n}": (lambda n=n: quad_ode_case(n), 2e-12) for n in range(4)},
    "large-scale-scaled-test": (large_scale_case, 2e-10),
    "mu-1e200-rounding-floor": (lambda: moduli_case(1e200), 1e-12),
    "gamma-1e200-rounding-floor": (lambda: moduli_case(1.0, 1e200), 1e-12),
    "mu-1e-8": (lambda: moduli_case(1e-8), 1e-12),
    "comes-to-rest-mid-block": (rest_case, 2e-2),
    "shorter-than-a-block": (lambda: quad_ode_case(T=0.9), 2e-12),
    "ends-mid-block": (lambda: quad_ode_case(T=5.4), 2e-12),
}


@pytest.mark.parametrize("case", AGREEMENT_CASES)
def test_integrate_agrees_with_the_full_newton_loop(case):
    build, bound = AGREEMENT_CASES[case]
    args = build()
    X, Y = integrate(*args)
    X0, Y0 = newton_oracle(*args)
    gap = max(np.abs(X - X0).max(), np.abs(Y - Y0).max())
    assert gap <= bound * max(np.abs(X0).max(), np.abs(Y0).max())
    if case == "ends-mid-block":
        assert (len(X) - 1) % STEP_BLOCK and len(X) > 2 * STEP_BLOCK
    if case == "shorter-than-a-block":
        assert len(X) < STEP_BLOCK


def stiff_past_one_problem():
    """grad f = x, plus 1e8 sign(x) (|x| - 1)^3 past |x| = 1: linear, then very stiff."""
    return SaddleProblem(
        F=np.array([[1.0]]),
        prox_f=lambda v, t: v,
        prox_gstar=lambda w, t: w,
        mu=1.0,
        gamma=1.0,
        grad_f=lambda x: x + 1e8 * np.sign(x) * np.maximum(np.abs(x) - 1.0, 0.0) ** 3,
        grad_gstar=lambda y: y,
    )


def test_steps_discarded_after_a_failing_step_print_no_warning():
    # up to |x| = 1 the gradients are the affine map of the moduli, and the
    # map's states are those of the linear problem, which the certificate
    # accepts at every step.  The first state past |x| = 1 fails, in the
    # first certificate block at h = 0.01 and in the fifth at h = 0.0002,
    # and no state after it is returned.
    problem = stiff_past_one_problem()
    init = PrimalDualPair(np.array([0.0]), np.array([-3.0]))
    for h, block in ((0.01, 0), (0.0002, 4)):
        X, _ = integrate(init, 1.0, h, 0.5, 0.5, 0.5, replace(problem, grad_f=lambda x: x))
        first = int(np.argmax(np.abs(X[:, 0]) > 1.0))
        assert first // STEP_BLOCK == block and first % STEP_BLOCK
        assert_refused_at((init, 1.0, h, 0.5, 0.5, 0.5, problem), first * h)
