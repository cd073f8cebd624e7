"""Reference tests for the continuous saddle dynamics: the exact flow and the
implicit-Euler integrator that converges to it."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pdhglab import dynamics
from pdhglab.dynamics import integrate, mass_matrix, reference_states
from pdhglab.engine import STEP_BLOCK
from pdhglab.lyapunov import numerical_error
from pdhglab.problems import FirstDifference, Identity, PrimalDualPair, SaddleProblem, _norm
from pdhglab.schedules import FIXED, make_schedule
from pdhglab.zoo import InstanceSpec, build_instance, make_quad_pair
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


def test_a_step_residual_is_relative_to_a_large_scale():
    # with x* and y* near 1e8 the implicit-Euler residual's rounding is
    # about 1e-8, far above an absolute 1e-10; the map solves each step to
    # within 1e-10 of the size of its terms (4.7e-14 measured)
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    problem, _ = make_quad_pair(1e8 * np.ones(2), 1e8 * np.ones(2), 1.0, 1.0, F)
    s = 0.5
    X, Y = integrate(PrimalDualPair(np.zeros(2), np.zeros(2)), 1.0, 0.005, s, s, s, problem)
    residual, scale = implicit_residuals(X, Y, 0.005, s, problem)
    assert residual.max() > 1e-10
    assert np.all(residual <= 1e-10 * scale)


def test_a_stiff_step_lands_within_an_ulp_of_the_saddle():
    # mu = 1e200: h mu (x+ - x*) moves by about 1e182 per ulp of x+, so no
    # residual, absolute or relative, can judge the step; from the first
    # step on the map holds x within an ulp of x* (1.4e-17 measured)
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


def count_set_up_calls(monkeypatch):
    """Counts of the calls that set up an ODE reference, filled as they run."""
    calls = {"mass_matrix": 0, "cond": 0, "svd": 0, "solve": 0}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dynamics, "mass_matrix")
    for name in ("cond", "svd", "solve"):
        counted(np.linalg, name)
    return calls


def test_integrate_sets_up_once_per_call(monkeypatch):
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.problem.F_norm
    calls = count_set_up_calls(monkeypatch)
    init = PrimalDualPair(np.ones(16), -np.ones(16))
    X, _ = integrate(init, T=1.0, h=s / 100, s=s, tau=s, sigma=s, problem=built.problem)
    assert len(X) > 100
    assert calls == {"mass_matrix": 1, "cond": 0, "svd": 1, "solve": 1}


def test_the_exact_flow_sets_up_from_one_svd_and_builds_no_mass_matrix(monkeypatch):
    built = build_instance(InstanceSpec(kind="quad_pair", d1=16, seed=1))
    s = 0.9 / built.problem.F_norm
    calls = count_set_up_calls(monkeypatch)
    init = PrimalDualPair(np.ones(16), -np.ones(16))
    X, _ = reference_states(init, 10 * s, s, s, s, built.problem)
    assert len(X) == 11
    assert calls == {"mass_matrix": 0, "cond": 0, "svd": 1, "solve": 0}


@pytest.mark.parametrize("d2, d1", [(4, 4), (3, 5), (5, 3), (6, 2), (16, 16)])
def test_the_block_condition_number_matches_the_dense_mass_matrix(d2, d1):
    # the eigenvalues of the 2x2 blocks, and a or b alone in each of the
    # |d1 - d2| directions F or F^T sends to zero, against the dense M
    rng = np.random.default_rng(d1 * d2)
    F = rng.standard_normal((d2, d1))
    F[:, 0] = 0.0  # a zero singular value inside the blocks
    s = 0.9 / np.linalg.norm(F, 2)
    sv = np.linalg.svd(F, compute_uv=False)
    for tau, sigma in [(s, s), (4 * s, s / 4), (s / 300, 300 * s)]:
        want = np.linalg.cond(mass_matrix(s, tau, sigma, F))
        assert math.isclose(dynamics._mass_condition(s, tau, sigma, sv, d1, d2), want, rel_tol=1e-6)


@pytest.mark.parametrize("d2, d1", [(1, 1), (4, 4), (3, 5), (6, 2), (16, 16)])
def test_the_block_condition_number_is_exact_where_the_dense_one_is_not(d2, d1):
    # at tau = 2.5e9, sigma = 1e-10, s = 0.5 and ||F|| = 1 the largest
    # eigenvalue is b = s/sigma = 5e9 and the smallest det/b = (ab - s^2) / b
    # = 0.75 / 5e9 to rounding, where np.linalg.cond of the dense M reads
    # from 2.8e19 to 3.4e21 on the pairs past 1 x 1
    F = np.random.default_rng(1).standard_normal((d2, d1))
    sv = np.linalg.svd(F / np.linalg.norm(F, 2), compute_uv=False)
    got = dynamics._mass_condition(0.5, 2.5e9, 1e-10, sv, d1, d2)
    assert math.isclose(got, 5e9 / 1.5e-10, rel_tol=1e-12)


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
    F = built.problem.F
    vals = [numerical_error(x - sad.x, y - sad.y, s, s, F) for x, y in zip(X, Y)]
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


def taylor_expm(A):
    """exp(A) by scaling and squaring: a 30-term Taylor series of A / 2^k,
    ||A / 2^k||_1 <= 1/2, squared k times."""
    norm = np.linalg.norm(A, 1)
    k = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0 else 0
    B = A / 2.0**k
    P = term = np.eye(len(A))
    for i in range(1, 30):
        term = term @ B / i
        P = P + term
    for _ in range(k):
        P = P @ P
    return P


def scipy_expm(A):
    return pytest.importorskip("scipy.linalg").expm(A)


def stepped_flow(init, T, s, tau, sigma, problem, expm):
    """z_{j+1} - z* = P (z_j - z*) with P = expm(s M^-1 J), j < ceil(T/s):
    the exact flow by a propagator independent of reference_states."""
    F, d1, d2 = problem.F.matrix, problem.d1, problem.d2
    J = np.block([[-problem.mu * np.eye(d1), -F.T], [F, -problem.gamma * np.eye(d2)]])
    g = -np.concatenate([problem.grad_f(np.zeros(d1)), problem.grad_gstar(np.zeros(d2))])
    z_star = np.linalg.solve(J, -g)
    P = expm(s * np.linalg.solve(mass_matrix(s, tau, sigma, F), J))
    Z = [np.concatenate([init.x, init.y])]
    for _ in range(int(np.ceil(T / s - 1e-12))):
        Z.append(z_star + P @ (Z[-1] - z_star))
    Z = np.array(Z)
    return Z[:, :d1], Z[:, d1:]


def criterion_09_case(base):
    """Criterion 9's instance (quad_pair d = 2, seed 0, x0 = 1) at s = base / ||F||."""
    problem = build_instance(InstanceSpec(kind="quad_pair", d1=2, seed=0)).problem
    s = base / problem.F_norm
    return PrimalDualPair(np.ones(2), np.zeros(2)), 10.0, s, s, s, problem


def flow_case(level):
    """The quad-ode instance at the steps halved ``level`` times, T = 10."""
    init, T, _, s, tau, sigma, problem = quad_ode_case(level)
    return init, T, s, tau, sigma, problem


def pair_case(d1, seed, d2=None, **moduli):
    """quad_pair d1 x d2 at ``seed`` and the default fixed steps, T = 10."""
    spec = InstanceSpec(kind="quad_pair", d1=d1, d2=d2, seed=seed, **moduli)
    problem = build_instance(spec).problem
    s = 0.9 / problem.F_norm
    return PrimalDualPair(np.zeros(problem.d1), np.zeros(problem.d2)), 10.0, s, s, s, problem


FLOW_CASES = {
    **{f"quad-ode-level-{n}": (lambda n=n: flow_case(n)) for n in range(4)},
    **{f"criterion-9-s-{b}": (lambda b=b: criterion_09_case(b)) for b in (0.1, 0.05, 0.025)},
    **{f"d-128-seed-{n}": (lambda n=n: pair_case(128, n)) for n in (0, 1)},
    "3x5-seed-2": lambda: pair_case(3, 2, d2=5),
    "6x2-seed-0": lambda: pair_case(6, 0, d2=2),
    # F's null space decouples at the slow rate -mu tau/s = -1e-4
    "6x2-seed-0-mu-1e-4": lambda: pair_case(6, 0, d2=2, mu=1e-4),
}


@pytest.mark.parametrize("expm", [taylor_expm, scipy_expm], ids=["taylor", "scipy"])
@pytest.mark.parametrize("case", FLOW_CASES)
def test_the_exact_flow_agrees_with_an_independent_propagator(case, expm):
    # the block flow evaluated at each t against one propagator of the
    # whole system stepped ceil(T/s) times (measured: 1.2e-13 of max |z| at
    # most, Taylor on the 6x2 pair at mu = 1e-4, whose z* is near 1e4)
    args = FLOW_CASES[case]()
    X, Y = reference_states(*args)
    X0, Y0 = stepped_flow(*args, expm)
    assert X.shape == X0.shape and Y.shape == Y0.shape
    gap = max(np.abs(X - X0).max(), np.abs(Y - Y0).max())
    assert gap <= 1e-12 * max(np.abs(X0).max(), np.abs(Y0).max())


def implicit_euler_gaps(init, T, s, tau, sigma, problem, per_steps):
    """max |z_h - z| over the PDHG times of implicit Euler at each h = s /
    per_step against the exact flow, and max |z|."""
    X, Y = reference_states(init, T, s, tau, sigma, problem)
    n = len(X) - 1
    gaps = []
    for per_step in per_steps:
        Xh, Yh = integrate(init, n * s, s / per_step, s, tau, sigma, problem)
        every = slice(0, per_step * n + 1, per_step)
        gaps.append(max(np.abs(Xh[every] - X).max(), np.abs(Yh[every] - Y).max()))
    return gaps, max(np.abs(X).max(), np.abs(Y).max())


FIRST_ORDER_CASES = {
    "quad-ode-level-0": FLOW_CASES["quad-ode-level-0"],
    "criterion-9-s-0.1": FLOW_CASES["criterion-9-s-0.1"],
    "d-128-seed-0": FLOW_CASES["d-128-seed-0"],
    "mu-1e200": lambda: pair_case(4, 0, mu=1e200),
    "gamma-1e200": lambda: pair_case(4, 0, gamma=1e200),
}


@pytest.mark.parametrize("case", FIRST_ORDER_CASES)
def test_implicit_euler_approaches_the_exact_flow_at_first_order(case):
    # implicit Euler's gap to the exact flow at the PDHG times halves with h
    # (ratios 0.500 and 0.501 measured on every case); at mu or gamma = 1e200
    # one rate of each block lies near 1e200
    gaps, _ = implicit_euler_gaps(*FIRST_ORDER_CASES[case](), (100, 200, 400))
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    assert all(0.45 <= r <= 0.55 for r in ratios), ratios


@pytest.mark.parametrize("mu, gamma", [(1e-200, 1e200), (1e200, 1e-200)])
def test_implicit_euler_follows_the_flow_of_a_pinned_and_a_drifting_block(mu, gamma):
    # one block of each pair is pinned to the saddle, the other drifts at a
    # constant rate, which implicit Euler follows exactly: the two agree to
    # rounding, though z* lies near 1e200 (measured: 6.3e-14 of max |z|)
    (gap,), largest = implicit_euler_gaps(*pair_case(4, 0, mu=mu, gamma=gamma), (100,))
    assert gap <= 1e-12 * largest


def test_an_exact_flow_state_off_the_affine_map_is_named():
    # twice the modulus in grad f: the first state where x != 0 fails
    F = np.array([[0.6, 0.2], [-0.3, 0.5]])
    problem, _ = make_quad_pair(np.ones(2), np.ones(2), 0.5, 1.0, F)
    problem = replace(problem, grad_f=lambda x, grad_f=problem.grad_f: 2 * grad_f(x))
    init = PrimalDualPair(np.zeros(2), np.zeros(2))
    pattern = (
        r"exact-flow reference state at t=0\.5 is not finite, or its gradients are not "
        r"the affine map J z \+ G\(0\) of moduli mu and gamma at step s=0\.5"
    )
    with pytest.raises(RuntimeError, match=pattern):
        reference_states(init, 1.0, 0.5, 0.5, 0.5, problem)


def test_reference_states_need_a_positive_horizon():
    init, _, s, tau, sigma, problem = flow_case(0)
    with pytest.raises(ValueError, match="T must be positive"):
        reference_states(init, 0.0, s, tau, sigma, problem)
