"""Problem zoo tests: builders, oracles, certification, references."""

import tracemalloc

import numpy as np
import pytest

from pdhglab.engine import run
from pdhglab.problems import Dense, FirstDifference, PrimalDualPair
from pdhglab.schedules import FIXED, make_schedule
from pdhglab.zoo import (
    InstanceSpec,
    build_instance,
    certify_saddle,
    conditioned_matrix,
    make_generalized_lasso,
    make_quad_pair,
    piecewise_constant_signal,
    reference_saddle,
)


def test_kkt_oracle_hand_example():
    # mu = gamma = 1, F = [1], a = 2, b_hat = 0:
    #   (x - 2) + y = 0 and y - x = 0, solved by (x, y) = (1, 1)
    _, sad = make_quad_pair(np.array([2.0]), np.array([0.0]), 1.0, 1.0, np.array([[1.0]]))
    assert abs(sad.x[0] - 1.0) <= 1e-12
    assert abs(sad.y[0] - 1.0) <= 1e-12


def test_kkt_oracle_certifies_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d1 = int(rng.integers(1, 6))
        d2 = int(rng.integers(1, 6))
        F = rng.standard_normal((d2, d1))
        mu = float(rng.uniform(0.2, 5.0))
        gamma = float(rng.uniform(0.2, 5.0))
        prob, sad = make_quad_pair(rng.standard_normal(d1), rng.standard_normal(d2), mu, gamma, F)
        cert = certify_saddle(prob, sad, tol=1e-8)
        assert cert.passed
        assert cert.r_x <= 1e-10 and cert.r_y <= 1e-10


def test_lasso_interior_dual_closed_form_saddle():
    # lam >= ||A^T b||_inf makes (0, A^T b) the exact saddle point
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=10.0, cond=3.0))
    assert built.saddle is not None
    assert np.array_equal(built.saddle.x, np.zeros(5))
    assert np.array_equal(built.saddle.y, built.A.T @ built.b)
    cert = certify_saddle(built.problem, built.saddle, tol=1e-10)
    assert cert.passed and cert.r_x == 0.0 and cert.r_y == 0.0


def test_lasso_active_dual_has_no_closed_form():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=0.5, cond=3.0))
    assert np.max(np.abs(built.A.T @ built.b)) > 0.5
    assert built.saddle is None


@pytest.mark.parametrize("identity_a", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gen_lasso_closed_form_saddle_certifies(seed, identity_a):
    # lam >= ||y*||_inf for the constant x* = <A1, b>/||A1||^2 * 1 makes
    # (x*, y*) with D^T y* = A^T (b - A x*) the exact saddle point
    spec = InstanceSpec(kind="gen_lasso", d1=40, seed=seed, lam=20.0, identity_a=identity_a)
    built = build_instance(spec)
    assert built.saddle is not None
    assert np.ptp(built.saddle.x) == 0.0
    assert np.max(np.abs(built.saddle.y)) <= 20.0
    cert = certify_saddle(built.problem, built.saddle, tol=1e-10)
    assert cert.passed


def test_gen_lasso_closed_form_matches_reference_run():
    built = build_instance(InstanceSpec(kind="gen_lasso", d1=10, seed=0, lam=5.0, identity_a=True))
    assert built.saddle is not None
    ref = reference_saddle(built.problem)
    assert np.max(np.abs(ref.x - built.saddle.x)) <= 1e-9
    assert np.max(np.abs(ref.y - built.saddle.y)) <= 1e-9


def test_gen_lasso_below_the_dual_bound_has_no_closed_form():
    built = build_instance(InstanceSpec(kind="gen_lasso", d1=40, seed=0, lam=1.0, identity_a=True))
    assert built.saddle is None


@pytest.mark.parametrize("kind", ["lasso", "gen_lasso"])
def test_identity_a_takes_the_bits_of_the_dense_identity(kind):
    # eigh(I) is exactly (1, I), so the O(d) oracles equal the dense ones
    d, lam = 80, 0.5
    built = build_instance(InstanceSpec(kind, d1=d, seed=3, lam=lam, identity_a=True))
    dense = make_generalized_lasso(np.eye(d), built.b, lam, built.problem.F)
    assert built.A is None and built.problem.mu == dense.mu == 1.0
    rng = np.random.default_rng(8)
    v = rng.standard_normal(d)
    for t in (1e-3, 0.7, 5.0):
        want = (v + t * built.b) / (1 + t)
        assert np.array_equal(built.problem.prox_f(v, t), want)
        assert np.array_equal(dense.prox_f(v, t), want)
    assert np.array_equal(built.problem.grad_f(v), v - built.b)
    assert np.array_equal(dense.grad_f(v), v - built.b)


def test_tv_instance_builds_in_linear_memory():
    tracemalloc.start()
    try:
        built = build_instance(InstanceSpec("gen_lasso", d1=2000, lam=0.5, identity_a=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.problem.d2 == 1999
    assert peak < 2 * 2**20  # a dense 2000 x 2000 array alone is 32 MB


def test_reference_saddle_certifies():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=0.5, cond=3.0))
    sad = reference_saddle(built.problem)
    cert = certify_saddle(built.problem, sad, tol=1e-8)
    assert cert.passed
    # an l1-regularized solution at this lam is sparse but not all-zero
    assert np.any(sad.x != 0.0) and np.any(np.abs(sad.x) < 1e-12)


def test_certify_saddle_rejects_non_saddle():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=0))
    off = PrimalDualPair(built.saddle.x + 0.1, built.saddle.y)
    cert = certify_saddle(built.problem, off, tol=1e-8)
    assert not cert.passed and cert.r_x > 1e-3


def test_certify_saddle_needs_residual_oracles():
    prob, _ = make_quad_pair(np.zeros(1), np.zeros(1), 1.0, 1.0, np.array([[1.0]]))
    stripped = type(prob)(
        F=prob.F,
        prox_f=prob.prox_f, prox_gstar=prob.prox_gstar,
        mu=prob.mu, gamma=prob.gamma,
    )
    with pytest.raises(ValueError):
        certify_saddle(stripped, PrimalDualPair(np.zeros(1), np.zeros(1)), tol=1e-8)


def test_conditioned_matrix_spectrum():
    rng = np.random.default_rng(41)
    A = conditioned_matrix(rng, 12, 6, cond=50.0)
    sv = np.linalg.svd(A, compute_uv=False)
    assert A.shape == (12, 6)
    assert abs(sv[0] - 1.0) <= 1e-10
    assert abs(sv[0] / sv[-1] - 50.0) <= 1e-8 * 50.0
    # log-uniform interior singular values
    want = np.geomspace(1.0, 1.0 / 50.0, 6)
    assert np.allclose(np.sort(sv)[::-1], want, rtol=1e-10)


@pytest.mark.parametrize("m, n", [(12, 6), (5, 9), (1, 7), (7, 1), (800, 400)])
@pytest.mark.parametrize("seed", [0, 1, 41])
def test_conditioned_matrix_equals_the_product_with_a_diagonal(m, n, seed):
    A = conditioned_matrix(np.random.default_rng(seed), m, n, cond=50.0)
    # the draws of conditioned_matrix, multiplied through the diagonal matrix
    rng = np.random.default_rng(seed)
    r = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    sing = np.geomspace(1.0, 1.0 / 50.0, r) if r > 1 else np.ones(1)
    assert np.array_equal(A, U @ np.diag(sing) @ V.T)


def test_piecewise_constant_signal_shape():
    rng = np.random.default_rng(43)
    sig = piecewise_constant_signal(rng, 50, segments=5)
    assert sig.shape == (50,)
    assert np.all(np.isfinite(sig))
    # a five-segment signal has at most four large jumps
    jumps = np.abs(np.diff(sig)) > 0.5
    assert 1 <= int(np.sum(jumps)) <= 4


def primal_objective(A, b, lam, F, x):
    """The composite objective 1/2 ||Ax - b||^2 + lam ||Fx||_1 of the lasso
    kinds, for a coupling operator F; ``A = None`` stands for A = I."""
    r = (x if A is None else A @ x) - b
    return 0.5 * float(r @ r) + lam * float(np.abs(F.apply(x)).sum())


def test_primal_objective_with_identity_a():
    x, b = np.array([1.0, -2.0]), np.array([0.5, 0.5])
    got = primal_objective(None, b, 1.0, FirstDifference(2), x)
    assert got == primal_objective(np.eye(2), b, 1.0, Dense(np.array([[-1.0, 1.0]])), x)
    assert got == 0.5 * (0.25 + 6.25) + 3.0


def test_primal_objective_hand_value():
    A = np.eye(2)
    b = np.zeros(2)
    x = np.array([1.0, -2.0])
    got = primal_objective(A, b, 1.0, Dense(np.eye(2)), x)
    assert abs(got - (0.5 * 5.0 + 3.0)) <= 1e-12


def test_build_instance_is_deterministic():
    spec = InstanceSpec(kind="lasso", d1=6, seed=11, lam=0.3, cond=4.0)
    b1 = build_instance(spec)
    b2 = build_instance(spec)
    assert np.array_equal(b1.A, b2.A)
    assert np.array_equal(b1.b, b2.b)
    assert b1.problem.F_norm == b2.problem.F_norm


def test_build_instance_quad_pair_unit_coupling_norm():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=3, seed=2, mu=2.0, gamma=0.5))
    sv = np.linalg.svd(built.problem.F.matrix, compute_uv=False)
    assert abs(sv[0] - 1.0) <= 1e-12
    assert built.problem.mu == 2.0 and built.problem.gamma == 0.5
    assert built.problem.F.shape == (3, 4)


def test_build_instance_exposes_certified_modulus():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=0, lam=1.0, cond=3.0))
    # smallest singular value of A is 1/cond, so mu = 1/cond^2
    assert abs(built.problem.mu - 1.0 / 9.0) <= 1e-10
    assert built.problem.gamma == 0.0


def test_instance_spec_validation():
    with pytest.raises(ValueError):
        InstanceSpec(kind="lasso", d1=5, seed=0)  # lam missing
    with pytest.raises(ValueError):
        InstanceSpec(kind="lasso", d1=5, seed=0, lam=-1.0)
    with pytest.raises(ValueError):
        InstanceSpec(kind="gen_lasso", d1=1, seed=0, lam=0.5)
    with pytest.raises(ValueError):
        InstanceSpec(kind="quad_pair", d1=3, cond=0.5)
    with pytest.raises(ValueError):
        InstanceSpec(kind="nonsense", d1=3)


def test_tv_instance_end_to_end_fixed_run():
    built = build_instance(InstanceSpec(kind="gen_lasso", d1=20, seed=0, lam=0.2, identity_a=True))
    assert built.problem.d2 == 19
    sad = reference_saddle(built.problem)
    sched = make_schedule(FIXED, built.problem.F_norm)
    traj = run(built.problem, sched, PrimalDualPair(np.zeros(20), np.zeros(19)), budget=50_000, tol=1e-12)
    phi_run = primal_objective(built.A, built.b, 0.2, built.problem.F, traj.final.x)
    phi_ref = primal_objective(built.A, built.b, 0.2, built.problem.F, sad.x)
    assert abs(phi_run - phi_ref) <= 1e-8


def test_kkt_solve_check_holds_when_the_squared_norms_overflow(monkeypatch):
    # mu = 1e300 puts ||rhs||^2 past the largest double; the tolerance
    # 1e-10 (1 + ||rhs||) must stay finite, so a wrong solve is refused
    a, b_hat, F = np.ones(2), np.ones(2), np.eye(2)
    problem, saddle = make_quad_pair(a, b_hat, 1e300, 1.0, F)
    assert np.isfinite(saddle.x).all() and np.isfinite(saddle.y).all()
    monkeypatch.setattr(np.linalg, "solve", lambda K, rhs: np.zeros_like(rhs))
    with pytest.raises(ValueError, match="KKT solve residual"):
        make_quad_pair(a, b_hat, 1e300, 1.0, F)


def test_instance_spec_rejects_fewer_than_one_row():
    for m in (0, -3):
        with pytest.raises(ValueError, match="^m must be at least 1$"):
            InstanceSpec(kind="lasso", d1=5, lam=0.5, m=m)
    assert build_instance(InstanceSpec(kind="lasso", d1=5, lam=0.5, m=1)).A.shape == (1, 5)
