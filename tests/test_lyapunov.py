"""Lyapunov evaluator tests: hand values, positivity, lemma and bound checks.

The descent lemmas themselves are exercised at scale in test_acceptance; here
the evaluators are pinned against hand-computed values and the structural
guarantees (positivity under admissibility, refusal outside it).
"""

import math

import numpy as np
import pytest

from pdhglab import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    InstanceSpec,
    NoMatchingLemma,
    PrimalDualPair,
    Schedule,
    alpha_rate,
    build_instance,
    check_lemma,
    lyapunov_accelerated,
    lyapunov_fixed,
    make_schedule,
    numerical_error,
    rho_rate,
    run,
    slack_tolerance,
    theorem_bound,
)

ZERO = PrimalDualPair(np.zeros(1), np.zeros(1))


def test_lyapunov_fixed_hand_values():
    F = np.array([[0.5]])
    val = lyapunov_fixed(np.array([1.0]), np.array([1.0]), ZERO, 1.0, 1.0, F)
    assert abs(val - 0.5) <= 1e-15
    assert lyapunov_fixed(np.zeros(1), np.zeros(1), ZERO, 1.0, 1.0, F) == 0.0
    val = lyapunov_fixed(np.array([1.0]), np.array([0.0]), ZERO, 2.0, 1.0, F)
    assert abs(val - 0.25) <= 1e-15


def test_lyapunov_varying_hand_value():
    # the varying-step Lyapunov value is the fixed form at (tau_k, sigma_k)
    # k = 0 of the varying schedule with c = 1, s = 0.5: tau0 = 1, sigma0 = 1/4
    F = np.array([[1.0]])
    val = lyapunov_fixed(np.array([1.0]), np.array([1.0]), ZERO, 1.0, 0.25, F)
    assert abs(val - 1.5) <= 1e-15
    assert lyapunov_fixed(np.zeros(1), np.zeros(1), ZERO, 1.0, 0.25, F) == 0.0
    val = lyapunov_fixed(np.array([1.0]), np.array([1.0]), ZERO, 1.0, 1.0, np.array([[0.0]]))
    assert abs(val - 1.0) <= 1e-15


def test_lyapunov_accelerated_hand_values():
    F = np.array([[0.5]])
    # x_k = x_prev and y_prev = y*: only the leading distance term survives
    val = lyapunov_accelerated(np.array([3.0]), np.array([3.0]), np.zeros(1), ZERO, 0.5, 1.0, 0.5, F)
    assert abs(val - 9.0 / (2 * 0.25)) <= 1e-12
    # first-iterate convention: 1/tau_prev := 0 drops the displacement terms
    val = lyapunov_accelerated(np.array([1.0]), None, np.array([1.0]), ZERO, 1.0, None, 0.5, F)
    assert abs(val - (0.5 + 2.0)) <= 1e-15
    # full four-term substitution
    val = lyapunov_accelerated(
        np.array([1.0]), np.array([0.0]), np.array([1.0]), ZERO, 1.0, 1.0, 0.5, F
    )
    assert abs(val - 3.5) <= 1e-15


def test_numerical_error_hand_values():
    F = np.array([[0.5]])
    assert abs(numerical_error(np.ones(1), np.ones(1), 1.0, 1.0, F) - 0.5) <= 1e-15
    assert numerical_error(np.zeros(1), np.ones(1), 1.0, 2.0, F) == 0.25
    # boundary degeneracy: s ||F|| = 1 makes the form exactly singular
    val = numerical_error(np.ones(1), np.ones(1), 1.0, 1.0, np.array([[1.0]]))
    assert abs(val) <= 1e-15


def test_quadratic_forms_nonnegative_under_admissibility():
    rng = np.random.default_rng(23)
    for d in (1, 2, 5, 20):
        for _ in range(1000 // 4):
            F = rng.standard_normal((d, d))
            s = 0.99 / max(np.linalg.svd(F, compute_uv=False)[0], 1e-12)
            tau = float(rng.uniform(0.05, 5.0))
            sigma = s**2 / tau
            dx = rng.standard_normal(d)
            dy = rng.standard_normal(d)
            sad = PrimalDualPair(np.zeros(d), np.zeros(d))
            assert lyapunov_fixed(dx, dy, sad, tau, sigma, F) >= -1e-12
            assert numerical_error(dx, dy, tau, sigma, F) >= -1e-12
            # accelerated form: tau plays tau_{k-1}, the dual scale is s itself
            assert numerical_error(dx, dy, tau, s, F, accelerated=True) >= -1e-12


def test_accelerated_lower_bound_inequality():
    # E(k) >= ||x_k - x*||^2 / (2 tau_k^2) whenever s||F|| <= 0.99
    rng = np.random.default_rng(29)
    for _ in range(250):
        d = int(rng.integers(1, 6))
        F = rng.standard_normal((d, d))
        s = 0.99 / max(np.linalg.svd(F, compute_uv=False)[0], 1e-12)
        tau_k = float(rng.uniform(0.05, 3.0))
        tau_prev = float(rng.uniform(0.05, 3.0))
        x_k = rng.standard_normal(d)
        x_prev = rng.standard_normal(d)
        y_prev = rng.standard_normal(d)
        sad = PrimalDualPair(rng.standard_normal(d), rng.standard_normal(d))
        E = lyapunov_accelerated(x_k, x_prev, y_prev, sad, tau_k, tau_prev, s, F)
        lead = float(np.sum((x_k - sad.x) ** 2)) / (2 * tau_k**2)
        assert E >= lead - 1e-10 * (1 + abs(E))


def test_slack_tolerance_scale():
    assert slack_tolerance(0.0) == 1e-8
    assert abs(slack_tolerance(99.0) - 1e-6) <= 1e-20
    assert slack_tolerance(-99.0) == slack_tolerance(99.0)


def test_rate_constants():
    assert abs(alpha_rate(1.0, 0.5, 0.5, 1.0) - 0.8) <= 1e-15
    assert abs(rho_rate(1.0, 1.0, 0.5, 1.0) - 0.6) <= 1e-15


def test_theorem_bound_integer_alpha_reduces_to_rational():
    # mu = 1, c = 0.5, s = 1, F = 0 gives alpha = 1 and bound 2 E0 / (k + 2)
    for k in (0, 1, 8, 100):
        got = theorem_bound(VARYING_SC, k, mu=1.0, c=0.5, s=1.0, F_norm=0.0, E0=1.0)
        assert abs(got - 2.0 / (k + 2)) <= 1e-12
    assert abs(theorem_bound(VARYING_SC, 8, mu=1.0, c=0.5, s=1.0, F_norm=0.0, E0=1.0) - 0.2) <= 1e-12


def test_theorem_bound_matches_direct_gamma_for_small_k():
    mu, c, s, Fn = 1.0, 0.25, 0.4, 1.3
    alpha = alpha_rate(mu, c, s, Fn)
    for k in range(0, 21):
        got = theorem_bound(VARYING_SC, k, mu=mu, c=c, s=s, F_norm=Fn, E0=3.0)
        want = (1 + alpha) * math.gamma(k + 2) / math.gamma(k + 2 + alpha) * 3.0
        assert abs(got - want) <= 1e-12 * want


def test_theorem_bound_recurrence_and_monotonicity():
    mu, c, s, Fn = 0.5, 0.2, 0.8, 1.0
    prev = theorem_bound(VARYING_SC, 0, mu=mu, c=c, s=s, F_norm=Fn, E0=1.0)
    alpha = alpha_rate(mu, c, s, Fn)
    for k in range(1, 400):
        cur = theorem_bound(VARYING_SC, k, mu=mu, c=c, s=s, F_norm=Fn, E0=1.0)
        assert cur <= prev
        assert abs(cur - prev * (k + 1) / (k + 1 + alpha)) <= 1e-12 * prev
        prev = cur


def test_theorem_bound_regimes_and_errors():
    with pytest.raises(NoMatchingLemma):
        theorem_bound(FIXED, 3, E0=1.0)
    with pytest.raises(ValueError):
        theorem_bound(VARYING_SC, 3, mu=1.0, c=0.5)  # constants missing
    # accelerated bound below the threshold index is undefined
    val = theorem_bound(ACCELERATED, 1, mu=1.0, c=0.9, E_K0=1.0)
    assert math.isnan(val)
    got = theorem_bound(ACCELERATED, 10, mu=1.0, c=2.0 / 3.0, E_K0=4.5)
    assert abs(got - 2 * 4.5 / ((2.0 / 3.0) ** 2 * 100)) <= 1e-12
    got = theorem_bound(OPTIMAL_SS, 7, mu=1.0, gamma=1.0, s=0.5, F_norm=1.0, E0=2.0)
    assert abs(got - 0.6**7 * 2.0) <= 1e-12


def test_check_lemma_quadratic_pair_all_regimes():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=5, seed=0, mu=1.0, gamma=1.0))
    init = PrimalDualPair(np.zeros(5), np.zeros(5))
    regimes = {
        FIXED: make_schedule(FIXED, built.F_norm),
        VARYING_SC: make_schedule(VARYING_SC, built.F_norm, mu=1.0),
        ACCELERATED: make_schedule(ACCELERATED, built.F_norm, mu=1.0),
        OPTIMAL_SS: make_schedule(OPTIMAL_SS, built.F_norm, mu=1.0, gamma=1.0),
    }
    for regime, sched in regimes.items():
        traj = run(built.problem, sched, init, budget=500, tol=0.0)
        records = check_lemma(regime, traj, built.problem, built.saddle, F_norm=built.F_norm)
        assert len(records) >= 1
        for rec in records:
            assert rec.lemma_slack >= -slack_tolerance(rec.E)
            assert rec.ne >= -1e-12
            assert math.isfinite(rec.E) and math.isfinite(rec.lemma_rhs)
        # descent: the lemma right-hand side is never positive
        assert max(rec.lemma_rhs for rec in records) <= 1e-12


def test_check_lemma_saddle_start_gives_zero_energy():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=8))
    sched = make_schedule(OPTIMAL_SS, built.F_norm, mu=1.0, gamma=1.0)
    traj = run(built.problem, sched, built.saddle, budget=20, tol=0.0)
    records = check_lemma(OPTIMAL_SS, traj, built.problem, built.saddle, F_norm=built.F_norm)
    for rec in records:
        assert abs(rec.E) <= 1e-20
        assert abs(rec.lemma_slack) <= 1e-20


def test_check_lemma_refuses_inadmissible_scale():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=9))
    # bypass the factory to fabricate an inadmissible schedule (s ||F|| = 1.5)
    bad = Schedule(regime=VARYING_SC, s=1.5 / built.F_norm, c=0.5, mu=1.0)
    traj = run(built.problem, bad, PrimalDualPair(np.ones(2), np.ones(2)), budget=3, tol=0.0)
    with pytest.raises(ValueError):
        check_lemma(VARYING_SC, traj, built.problem, built.saddle, F_norm=built.F_norm)


def test_check_lemma_regime_mismatch():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=9))
    sched = make_schedule(FIXED, built.F_norm)
    traj = run(built.problem, sched, PrimalDualPair(np.ones(2), np.ones(2)), budget=5, tol=0.0)
    with pytest.raises(ValueError):
        check_lemma(VARYING_SC, traj, built.problem, built.saddle, F_norm=built.F_norm)


def test_check_lemma_requires_both_moduli_for_fixed_steps():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=10.0))
    assert built.saddle is not None  # interior dual: closed-form saddle
    sched = make_schedule(FIXED, built.F_norm)
    traj = run(built.problem, sched, PrimalDualPair(np.zeros(5), np.zeros(5)), budget=20, tol=0.0)
    with pytest.raises(NoMatchingLemma):
        check_lemma(FIXED, traj, built.problem, built.saddle, F_norm=built.F_norm)
