"""Problem container, its exact operator norm, and the primal/dual pair."""

import math

import numpy as np
import pytest

from pdhglab.problems import (
    Dense,
    FirstDifference,
    Identity,
    PrimalDualPair,
    SaddleProblem,
    _norm,
    inclusion_residuals,
)
from pdhglab.zoo import InstanceSpec, build_instance


def dense_difference(d: int) -> np.ndarray:
    """The (d-1) x d first-difference matrix, rows (..., -1, +1, ...)."""
    D = np.zeros((d - 1, d))
    idx = np.arange(d - 1)
    D[idx, idx] = -1.0
    D[idx, idx + 1] = 1.0
    return D


def norm_of(F) -> float:
    F = np.asarray(F, dtype=float)
    return SaddleProblem(F=F, prox_f=lambda v, t: v, prox_gstar=lambda w, t: w).F_norm


def test_operator_norm_small_examples():
    assert norm_of([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0, abs=1e-15)
    assert norm_of([[3.0]]) == 3.0
    got = norm_of([[1.0, 2.0], [3.0, 4.0]])
    assert got == pytest.approx(5.464985704219043, rel=1e-15)


def test_operator_norm_zero_matrix():
    assert norm_of(np.zeros((3, 2))) == 0.0


def test_operator_norm_matches_dense_svd():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        F = rng.standard_normal((m, n)) * float(rng.uniform(0.1, 10.0))
        want = np.linalg.svd(F, compute_uv=False)[0]
        assert norm_of(F) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("d", [2, 80, 400])
def test_operator_norm_of_first_differences_is_closed_form(d):
    # ||D||_2 = 2 cos(pi / (2d)) for the (d-1) x d first-difference matrix
    built = build_instance(InstanceSpec("gen_lasso", d1=d, lam=0.5, identity_a=True))
    want = 2.0 * math.cos(math.pi / (2 * d))
    assert built.problem.F_norm == pytest.approx(want, rel=1e-14)


def test_operator_norm_of_lasso_identity_is_one():
    built = build_instance(InstanceSpec("lasso", d1=40, lam=0.1))
    assert built.problem.F_norm == 1.0


def test_first_difference_action():
    D = FirstDifference(4)
    assert D.shape == (3, 4)
    assert np.array_equal(D.apply(np.array([0.0, 1.0, 2.0, 3.0])), np.ones(3))
    assert np.array_equal(D.apply(np.full(4, 5.0)), np.zeros(3))


def test_first_difference_needs_two_coordinates():
    with pytest.raises(ValueError, match="d >= 2"):
        FirstDifference(1)


@pytest.mark.parametrize("d", [2, 80, 401])
def test_matrix_free_operators_take_the_bits_of_dense_products(d):
    rng = np.random.default_rng(d)
    for op, M in ((Identity(d), np.eye(d)), (FirstDifference(d), dense_difference(d))):
        assert op.shape == M.shape
        x, y = rng.standard_normal(d), rng.standard_normal(M.shape[0])
        X, Y = rng.standard_normal((7, d)), rng.standard_normal((7, M.shape[0]))
        assert np.array_equal(op.apply(x), M @ x)
        assert np.array_equal(op.apply_T(y), M.T @ y)
        assert np.array_equal(op.apply(X), X @ M.T)
        assert np.array_equal(op.apply_T(Y), Y @ M)
        # <F x, y> = <x, F^T y> to rounding
        lhs, rhs = op.apply(x) @ y, x @ op.apply_T(y)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))
        sv = np.linalg.svd(M, compute_uv=False)[0]
        assert op.norm == pytest.approx(sv, rel=1e-14)


def test_dense_applies_the_products_of_its_matrix():
    # row i of a stacked apply is M @ V[i], bitwise: one matrix-vector
    # product per row, not a product of the whole stack
    rng = np.random.default_rng(5)
    for d in (4, 16, 80, 400):
        M = rng.standard_normal((d - 1, d))
        op = Dense(M)
        v, w = rng.standard_normal(d), rng.standard_normal(d - 1)
        V, W = rng.standard_normal((3, 6, d)), rng.standard_normal((6, d - 1))
        assert np.array_equal(op.apply(v), M @ v)
        assert np.array_equal(op.apply_T(w), M.T @ w)
        stacked = op.apply(V)
        assert stacked.shape == (3, 6, d - 1)
        for i in np.ndindex(3, 6):
            assert np.array_equal(stacked[i], M @ V[i])
        for i, row in enumerate(op.apply_T(W)):
            assert np.array_equal(row, M.T @ W[i])
        for i, row in enumerate(op.apply(V[:, 2])):  # rows that are not contiguous
            assert np.array_equal(row, M @ V[i, 2])
        assert op.shape == (d - 1, d) and op.norm == np.linalg.norm(M, 2)


def test_saddle_problem_wraps_a_matrix_and_keeps_an_operator():
    wrapped = SaddleProblem(F=[[1.0, 2.0]], prox_f=lambda v, t: v, prox_gstar=lambda w, t: w)
    assert isinstance(wrapped.F, Dense) and (wrapped.d1, wrapped.d2) == (2, 1)
    op = FirstDifference(5)
    kept = SaddleProblem(F=op, prox_f=lambda v, t: v, prox_gstar=lambda w, t: w)
    assert kept.F is op and (kept.d1, kept.d2) == (5, 4)
    assert kept.F_norm == op.norm


def test_saddle_problem_holds_dimensions_and_oracles():
    F = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
    prob = SaddleProblem(
        F=F,
        prox_f=lambda v, t: v / (1.0 + t),
        prox_gstar=lambda w, t: w / (1.0 + t),
        mu=1.0,
        gamma=1.0,
    )
    assert (prob.d1, prob.d2) == (2, 3)
    x = prob.prox_f(np.ones(2), 1.0)
    y = prob.prox_gstar(np.ones(3), 1.0)
    assert x.shape == (2,) and y.shape == (3,)
    assert prob.grad_f is None and prob.subdiff_gstar is None


def test_saddle_problem_rejects_a_coupling_that_is_not_2d():
    with pytest.raises(ValueError, match="F must be 2-D"):
        SaddleProblem(F=np.ones(3), prox_f=lambda v, t: v, prox_gstar=lambda w, t: w)


def test_primal_dual_pair_is_a_plain_container():
    pair = PrimalDualPair(np.array([1.0]), np.array([2.0, 3.0]))
    assert pair.x.shape == (1,) and pair.y.shape == (2,)


def test_inclusion_residuals_stay_finite_when_their_squares_overflow():
    prob = SaddleProblem(
        F=np.eye(2), prox_f=lambda v, t: v, prox_gstar=lambda w, t: w,
        grad_f=lambda x: x, grad_gstar=lambda y: y,
    )
    big, zero = np.array([3e200, 4e200]), np.zeros(2)
    r_x, r_y = inclusion_residuals(prob, big, zero, zero, -big)
    assert r_x == pytest.approx(5e200, rel=1e-15)
    assert r_y == pytest.approx(5e200, rel=1e-15)


def test_norm_of_stacked_rows_takes_the_bits_of_each_row():
    rng = np.random.default_rng(5)
    for d in (1, 3, 4, 16, 79, 80, 400):
        rows = rng.standard_normal((7, d)) * 10.0 ** rng.integers(-150, 150, (7, 1))
        # one row whose square overflows among finite ones, and non-finite rows
        rows[2] = 3e200
        rows[4, 0], rows[5, -1] = np.inf, np.nan
        got = _norm(rows)
        assert got.shape == (7,)
        want = np.array([_norm(row) for row in rows])
        assert np.array_equal(got, want, equal_nan=True), d
        assert math.isfinite(got[2]) and got[4] == math.inf and math.isnan(got[5])
