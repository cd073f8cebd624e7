"""Problem container, its exact operator norm, and the primal/dual pair."""

import math

import numpy as np
import pytest

from pdhglab import InstanceSpec, PrimalDualPair, SaddleProblem, build_instance
from pdhglab.problems import inclusion_residuals


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


# numpy warns of the squares this test overflows
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_inclusion_residuals_stay_finite_when_their_squares_overflow():
    prob = SaddleProblem(
        F=np.eye(2), prox_f=lambda v, t: v, prox_gstar=lambda w, t: w,
        grad_f=lambda x: x, grad_gstar=lambda y: y,
    )
    big, zero = np.array([3e200, 4e200]), np.zeros(2)
    r_x, r_y = inclusion_residuals(prob, big, zero, zero, -big)
    assert r_x == pytest.approx(5e200, rel=1e-15)
    assert r_y == pytest.approx(5e200, rel=1e-15)
