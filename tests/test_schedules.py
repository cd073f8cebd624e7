"""Step-size schedule tests: defining identities, defaults, and rejection."""

import numpy as np
import pytest

from pdhglab import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    k0_threshold,
    make_schedule,
    schedule_at,
)

# spot-check indices spanning the full contract range [0, 1e5]
KS = [0, 1, 2, 3, 7, 50, 513, 9999, 100_000]


def test_fixed_schedule_constant_triple():
    sched = make_schedule(FIXED, 1.0, tau=0.5, sigma=0.5)
    for k in KS:
        assert schedule_at(sched, k) == (0.5, 0.5, 1.0)
    assert sched.k_start == 0
    assert abs(sched.tau * sched.sigma - sched.s**2) <= 1e-12 * sched.s**2


def test_fixed_schedule_default_s_rule():
    sched = make_schedule(FIXED, 2.0)
    assert abs(sched.s - 0.45) <= 1e-15
    assert abs(sched.tau - 0.45) <= 1e-15 and abs(sched.sigma - 0.45) <= 1e-15
    # zero operator norm falls back to unit scale
    assert make_schedule(FIXED, 0.0).s == 1.0


def test_fixed_schedule_rejects_inconsistent_tau_sigma():
    with pytest.raises(ValueError):
        make_schedule(FIXED, 1.0, s=0.5, tau=0.5, sigma=0.1)


def test_varying_sc_identities():
    mu = 1.0
    sched = make_schedule(VARYING_SC, 1.0, s=0.5, c=1.0, mu=mu)
    tau0, sigma0, theta0 = schedule_at(sched, 0)
    assert (tau0, sigma0, theta0) == (1.0, 0.25, 1.0)
    for k in KS:
        tau, sigma, theta = schedule_at(sched, k)
        assert abs(tau - 1.0 / (k + 1)) <= 1e-12 / (k + 1)
        assert abs(tau * sigma - 0.25) <= 1e-12 * 0.25
        assert theta == 1.0


def test_varying_sc_default_c_is_half_mu():
    sched = make_schedule(VARYING_SC, 1.0, s=0.5, mu=0.8)
    assert abs(sched.c - 0.4) <= 1e-15


def test_varying_sc_boundary_c_rejected():
    mu = 0.7
    for bad in (0.0, 2 * mu, 2.5 * mu, -0.1):
        with pytest.raises(ValueError):
            make_schedule(VARYING_SC, 1.0, s=0.5, c=bad, mu=mu)
    with pytest.raises(ValueError):
        make_schedule(VARYING_SC, 1.0, s=0.5, c=0.1)  # mu missing


def test_accelerated_identities():
    sched = make_schedule(ACCELERATED, 1.0, s=0.5, c=1.0, mu=2.0)
    assert sched.k_start == 1
    tau2, sigma2, theta2 = schedule_at(sched, 2)
    assert (tau2, sigma2) == (0.5, 0.75)
    assert abs(theta2 - 2.0 / 3.0) <= 1e-15
    # tau_{k+1} sigma_k = s^2 and theta_k tau_k = tau_{k+1}, theta in (0, 1)
    for k in [k for k in KS if k >= 1]:
        tau_k, sigma_k, theta_k = schedule_at(sched, k)
        tau_n, _, _ = schedule_at(sched, k + 1)
        assert abs(tau_n * sigma_k - 0.25) <= 1e-12 * 0.25
        assert abs(theta_k * tau_k - tau_n) <= 1e-12 * tau_n
        assert 0.0 < theta_k < 1.0


def test_accelerated_default_c_matches_simplified_bound_condition():
    sched = make_schedule(ACCELERATED, 1.0, s=0.5, mu=1.0)
    assert abs(sched.c - 2.0 / 3.0) <= 1e-15


def test_accelerated_rejects_c_at_mu():
    with pytest.raises(ValueError):
        make_schedule(ACCELERATED, 1.0, s=0.5, c=1.0, mu=1.0)


def test_accelerated_refuses_k_below_start():
    sched = make_schedule(ACCELERATED, 1.0, s=0.5, mu=1.0)
    with pytest.raises(ValueError):
        schedule_at(sched, 0)


def test_optimal_ss_balanced_steps():
    sched = make_schedule(OPTIMAL_SS, 1.0, s=0.5, mu=4.0, gamma=1.0)
    assert abs(sched.tau - 0.25) <= 1e-15
    assert abs(sched.sigma - 1.0) <= 1e-15
    # balanced condition mu * tau = gamma * sigma and tau sigma = s^2
    assert abs(4.0 * sched.tau - 1.0 * sched.sigma) <= 1e-12
    assert abs(sched.tau * sched.sigma - 0.25) <= 1e-12 * 0.25
    with pytest.raises(ValueError):
        make_schedule(OPTIMAL_SS, 1.0, s=0.5, mu=4.0)  # gamma missing


def test_optimal_ss_rejects_a_moduli_ratio_past_the_double_range():
    # sqrt(gamma/mu) of 1e400 or 1e-400 is inf or 0: no usable step pair
    with pytest.raises(ValueError, match=r"gamma/mu = inf .* tau = inf, sigma = 0"):
        make_schedule(OPTIMAL_SS, 1.0, mu=1e-200, gamma=1e200)
    with pytest.raises(ValueError, match=r"gamma/mu = 0 .* tau = 0, sigma = inf"):
        make_schedule(OPTIMAL_SS, 1.0, mu=1e200, gamma=1e-200)


def test_monotone_step_evolution():
    for regime, kw in [
        (VARYING_SC, dict(c=0.5, mu=1.0)),
        (ACCELERATED, dict(c=0.5, mu=1.0)),
    ]:
        sched = make_schedule(regime, 1.0, s=0.5, **kw)
        ks = range(sched.k_start, sched.k_start + 200)
        taus = [schedule_at(sched, k)[0] for k in ks]
        sigmas = [schedule_at(sched, k)[1] for k in ks]
        assert all(a > b for a, b in zip(taus, taus[1:]))
        assert all(a < b for a, b in zip(sigmas, sigmas[1:]))


def test_admissibility_rejected_at_construction():
    for regime, kw in [
        (FIXED, {}),
        (VARYING_SC, dict(c=0.5, mu=1.0)),
        (ACCELERATED, dict(c=0.5, mu=1.0)),
        (OPTIMAL_SS, dict(mu=1.0, gamma=1.0)),
    ]:
        with pytest.raises(ValueError):
            make_schedule(regime, 2.0, s=0.5, **kw)  # s * ||F|| = 1 exactly


def test_k0_threshold_values():
    assert k0_threshold(1.0, 0.5) == 1
    assert k0_threshold(1.0, 2.0 / 3.0) == 1
    assert k0_threshold(1.0, 0.9) == 5
    with pytest.raises(ValueError):
        k0_threshold(1.0, 1.0)
    with pytest.raises(ValueError):
        k0_threshold(1.0, 0.0)
