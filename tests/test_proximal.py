"""Proximal operator tests.

Closed-form prox maps are checked against a slow 1-D refinement oracle that
minimizes h(u) + (u - v)^2 / (2t) directly, so formula bugs cannot hide behind
the formula itself.
"""

import numpy as np

from pdhglab import (
    QuadraticProxCache,
    linf_normal_cone_dist,
    project_linf_ball,
    prox_least_squares,
    prox_shifted_quadratic,
)


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
