"""Proximal operator tests.

Closed-form prox maps are checked against a slow 1-D refinement oracle that
minimizes h(u) + (u - v)^2 / (2t) directly, so formula bugs cannot hide behind
the formula itself.
"""

import numpy as np
import pytest

from pdhglab.proximal import (
    QuadraticProxCache,
    linf_normal_cone_dist,
    project_linf_ball,
    prox_least_squares,
    prox_shifted_quadratic,
)
from pdhglab.zoo import InstanceSpec, build_instance


def scalar_prox_oracle(h, v, t, lo=-50.0, hi=50.0, rounds=60):
    """Minimize h(u) + (u - v)^2 / (2 t) on [lo, hi] by interval refinement."""
    for _ in range(rounds):
        grid = np.linspace(lo, hi, 33)
        vals = [h(u) + (u - v) ** 2 / (2.0 * t) for u in grid]
        i = int(np.argmin(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
    return 0.5 * (lo + hi)


def test_project_linf_ball_examples():
    out = project_linf_ball(np.array([2.0, -0.3]), 1.0)
    assert np.array_equal(out, np.array([1.0, -0.3]))
    w = np.array([0.2, -0.9])
    assert np.array_equal(project_linf_ball(w, 1.0), w)
    assert np.array_equal(project_linf_ball(np.array([5.0]), 0.0), np.array([0.0]))


@pytest.mark.parametrize("r", [0.0, -0.0, 1e-300, 0.5, 1.0, np.inf])
def test_project_linf_ball_equals_clip_on_special_values(r):
    w = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                  0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e308, -1e308])
    got, want = project_linf_ball(w, r), np.clip(w, -r, r)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_project_linf_ball_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="r must be nonnegative"):
        project_linf_ball(np.zeros(2), -1e-300)


def test_project_linf_ball_is_the_componentwise_projection():
    rng = np.random.default_rng(11)
    for _ in range(25):
        w = float(rng.uniform(-5, 5))
        r = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.05, 3.0))

        def indicator(u):
            return 0.0 if abs(u) <= r else 1e9

        got = project_linf_ball(np.array([w]), r)[0]
        want = scalar_prox_oracle(indicator, w, t, lo=-max(r, 1e-9), hi=max(r, 1e-9))
        assert abs(got - want) <= 1e-6


def test_quadratic_prox_cache_reconstructs_gram():
    rng = np.random.default_rng(3)
    for _ in range(10):
        A = rng.standard_normal((7, 4))
        cache = QuadraticProxCache(A, rng.standard_normal(7))
        gram = A.T @ A
        rebuilt = cache.eigvecs @ np.diag(cache.eigvals) @ cache.eigvecs.T
        assert np.linalg.norm(rebuilt - gram) <= 1e-8 * max(1.0, np.linalg.norm(gram))
        assert np.all(np.diff(cache.eigvals) >= -1e-14)
        assert abs(cache.mu - np.linalg.eigvalsh(gram)[0]) <= 1e-10 * max(1.0, cache.mu)


def test_prox_least_squares_examples():
    cache = QuadraticProxCache(np.eye(1), np.zeros(1))
    assert np.allclose(prox_least_squares(cache, np.array([2.0]), 1.0), [1.0], atol=1e-14)
    cache = QuadraticProxCache(np.eye(1), np.array([4.0]))
    assert np.allclose(prox_least_squares(cache, np.array([0.0]), 1.0), [2.0], atol=1e-14)
    # vanishing prox weight returns the anchor point
    v = np.array([0.3, -1.2, 2.2])
    cache = QuadraticProxCache(np.arange(12.0).reshape(4, 3), np.ones(4))
    assert np.linalg.norm(prox_least_squares(cache, v, 1e-12) - v) <= 1e-6


def test_prox_least_squares_solves_normal_system():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m, n = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        v = rng.standard_normal(n)
        t = float(rng.uniform(0.01, 10.0))
        cache = QuadraticProxCache(A, b)
        got = prox_least_squares(cache, v, t)
        want = np.linalg.solve(np.eye(n) + t * (A.T @ A), v + t * (A.T @ b))
        assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want))


def test_prox_shifted_quadratic_examples():
    assert np.allclose(
        prox_shifted_quadratic(np.array([0.0]), 1.0, np.array([2.0]), 1.0), [1.0]
    )
    a = np.array([0.7, -0.2])
    assert np.array_equal(prox_shifted_quadratic(a, 3.0, a, 0.5), a)
    # stationarity: m(x - a) + (x - v)/t = 0 at v=1, m=2, a=4, t=1/2 gives 5/2
    assert np.allclose(
        prox_shifted_quadratic(np.array([1.0]), 2.0, np.array([4.0]), 0.5), [2.5]
    )


def test_prox_shifted_quadratic_matches_refinement_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = float(rng.uniform(-3, 3))
        m = float(rng.uniform(0.1, 4.0))
        v = float(rng.uniform(-3, 3))
        t = float(rng.uniform(0.05, 3.0))
        got = prox_shifted_quadratic(np.array([a]), m, np.array([v]), t)[0]
        want = scalar_prox_oracle(lambda u: 0.5 * m * (u - a) ** 2, v, t)
        assert abs(got - want) <= 1e-6


def test_prox_maps_are_nonexpansive():
    rng = np.random.default_rng(17)
    cache = QuadraticProxCache(rng.standard_normal((6, 4)), rng.standard_normal(6))
    for _ in range(100):
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        t = float(rng.uniform(0.05, 5.0))
        r = float(rng.uniform(0.1, 2.0))
        gap = np.linalg.norm(u - v)
        assert np.linalg.norm(project_linf_ball(u, r) - project_linf_ball(v, r)) <= gap + 1e-12
        assert (
            np.linalg.norm(prox_least_squares(cache, u, t) - prox_least_squares(cache, v, t))
            <= gap + 1e-12
        )


ZOO_SPECS = [
    InstanceSpec(kind="quad_pair", d1=4, d2=5, seed=1),
    InstanceSpec(kind="lasso", d1=30, lam=0.05, seed=2),
    InstanceSpec(kind="gen_lasso", d1=30, lam=0.5, identity_a=True, seed=3),
    InstanceSpec(kind="gen_lasso", d1=16, lam=0.5, seed=4),
]


@pytest.mark.parametrize("spec", ZOO_SPECS, ids=lambda spec: f"{spec.kind}-{spec.d1}")
def test_each_zoo_prox_on_a_stack_equals_its_per_row_calls(spec):
    # a (B, d) stack with a (B, 1) column of weights: row i has the bits of
    # the call on v[i] with the float t[i]
    problem = build_instance(spec).problem
    rng = np.random.default_rng(21)
    for prox, d in ((problem.prox_f, problem.d1), (problem.prox_gstar, problem.d2)):
        v = 3.0 * rng.standard_normal((6, d))
        t = rng.uniform(0.01, 5.0, (6, 1))
        stacked = prox(v, t)
        assert stacked.shape == (6, d)
        for i in range(6):
            assert np.array_equal(stacked[i], prox(v[i], float(t[i, 0])))


@pytest.mark.parametrize("bad", [0.0, -0.5, -np.inf])
def test_a_stack_with_one_nonpositive_weight_is_refused(bad):
    rng = np.random.default_rng(23)
    cache = QuadraticProxCache(rng.standard_normal((6, 4)), rng.standard_normal(6))
    v, t = rng.standard_normal((3, 4)), np.array([[0.5], [bad], [2.0]])
    with pytest.raises(ValueError, match="t must be positive"):
        prox_least_squares(cache, v, t)
    with pytest.raises(ValueError, match="t must be positive"):
        prox_shifted_quadratic(np.zeros(4), 1.0, v, t)
    with pytest.raises(ValueError, match="t must be positive"):
        prox_least_squares(cache, v[0], bad)


def test_linf_normal_cone_dist_cases():
    r = 1.0
    # interior point: the cone is {0}
    assert linf_normal_cone_dist(np.array([0.2]), np.array([0.7]), r) == 0.7
    # pinned at +r with outward w: cancellable by the cone
    assert linf_normal_cone_dist(np.array([1.0]), np.array([-3.0]), r) == 0.0
    # pinned at +r with inward-pointing w: not cancellable
    assert linf_normal_cone_dist(np.array([1.0]), np.array([0.4]), r) == 0.4
    # infeasible point
    assert linf_normal_cone_dist(np.array([1.5]), np.array([0.0]), r) == float("inf")
    # degenerate ball r = 0: every w is absorbed
    assert linf_normal_cone_dist(np.array([0.0]), np.array([9.0]), 0.0) == 0.0


def test_linf_normal_cone_dist_accepts_exactly_clamped_iterates():
    # values produced by clipping must register as pinned despite rounding
    r = 0.75
    y = project_linf_ball(np.array([2.0, -3.0, 0.1]), r)
    w = np.array([-1.0, 1.0, 0.0])
    assert linf_normal_cone_dist(y, w, r) == 0.0


def _moved_to(M, offset):
    """A C-ordered copy of M whose data starts `offset` bytes past a 64-byte boundary."""
    buf = np.empty(M.size + 16)
    start = (-buf.ctypes.data % 64 + offset) // 8
    out = buf[start:start + M.size].reshape(M.shape)
    out[...] = M
    assert out.ctypes.data % 64 == offset
    return out


@pytest.mark.parametrize("d", [8, 64, 400])
def test_the_cached_eigenvectors_start_on_a_cache_line(d):
    # eigh's own result starts 16 bytes into a mapped page (d = 400's first
    # build), or wherever the heap leaves it
    rng = np.random.default_rng(d)
    for _ in range(4):
        cache = QuadraticProxCache(rng.standard_normal((2 * d, d)), rng.standard_normal(2 * d))
        assert cache.eigvecs.ctypes.data % 64 == 0
        assert cache.eigvecs.flags.c_contiguous


@pytest.mark.parametrize("d", [8, 400])
def test_the_least_squares_prox_has_the_same_bits_wherever_the_eigenvectors_start(d):
    # the alignment only moves where the BLAS kernel reads V; pin that it
    # moves no bit of a single or a stacked prox
    rng = np.random.default_rng(29)
    cache = QuadraticProxCache(rng.standard_normal((2 * d, d)), rng.standard_normal(2 * d))
    v, t = rng.standard_normal((5, d)), rng.uniform(0.01, 5.0, (5, 1))
    single, stacked = prox_least_squares(cache, v[0], 0.7), prox_least_squares(cache, v, t)
    V = cache.eigvecs
    for offset in (16, 32, 48):
        cache.eigvecs = _moved_to(V, offset)
        assert prox_least_squares(cache, v[0], 0.7).tobytes() == single.tobytes()
        assert prox_least_squares(cache, v, t).tobytes() == stacked.tobytes()
