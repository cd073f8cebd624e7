"""Lyapunov evaluator tests: hand values, positivity, lemma and bound checks.

The descent lemmas themselves are exercised at scale in test_acceptance; here
the evaluators are pinned against hand-computed values and the structural
guarantees (positivity under admissibility, refusal outside it).
"""

import math
import tracemalloc

import numpy as np
import pytest

from pdhglab import lyapunov
from pdhglab import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    InstanceSpec,
    NoMatchingLemma,
    PrimalDualPair,
    SaddleProblem,
    Schedule,
    Trajectory,
    alpha_rate,
    build_instance,
    lemma_records,
    lyapunov_accelerated,
    lyapunov_fixed,
    lyapunov_table,
    make_schedule,
    numerical_error,
    rho_rate,
    run,
    schedule_at,
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


def bound_inputs(k, E, mu=1.0, gamma=0.0, F_norm=0.0, dist_x=0.0, dist_y=0.0):
    """A problem with the given moduli and a 1x1 coupling of norm ``F_norm``,
    and a table with rows ``k``, Lyapunov values ``E`` and constant squared
    distances; theorem_bound reads nothing else."""
    problem = SaddleProblem(
        F=np.array([[F_norm]]), prox_f=None, prox_gstar=None, mu=mu, gamma=gamma
    )
    k = np.asarray(k)
    E = np.broadcast_to(np.asarray(E, dtype=float), k.shape)
    dx, dy, nan = (np.full(k.shape, v) for v in (dist_x, dist_y, math.nan))
    table = lyapunov.LyapunovTable(
        k=k, E=E, ne=nan, dist_x=dx, dist_y=dy, E_next=nan, dist_x_next=dx, dist_y_next=dy
    )
    return problem, table


def test_theorem_bound_integer_alpha_reduces_to_rational():
    # mu = 1, c = 0.5, s = 1, F = 0 gives alpha = 1 and bound 2 E0 / (k + 2)
    k = np.array([0, 1, 8, 100])
    problem, table = bound_inputs(k, 1.0)
    bound, _ = theorem_bound(Schedule(VARYING_SC, s=1.0, c=0.5), problem, table)
    for ki, got in zip(k, bound):
        assert abs(got - 2.0 / (ki + 2)) <= 1e-12
    assert abs(bound[2] - 0.2) <= 1e-12


def test_theorem_bound_matches_direct_gamma_for_small_k():
    mu, c, s, Fn = 1.0, 0.25, 0.4, 1.3
    alpha = alpha_rate(mu, c, s, Fn)
    problem, table = bound_inputs(np.arange(21), 3.0, mu=mu, F_norm=Fn)
    bound, _ = theorem_bound(Schedule(VARYING_SC, s=s, c=c), problem, table)
    for k, got in enumerate(bound):
        want = (1 + alpha) * math.gamma(k + 2) / math.gamma(k + 2 + alpha) * 3.0
        assert abs(got - want) <= 1e-12 * want


def test_theorem_bound_recurrence_and_monotonicity():
    mu, c, s, Fn = 0.5, 0.2, 0.8, 1.0
    problem, table = bound_inputs(np.arange(400), 1.0, mu=mu, F_norm=Fn)
    bound, _ = theorem_bound(Schedule(VARYING_SC, s=s, c=c), problem, table)
    alpha = alpha_rate(mu, c, s, Fn)
    for k in range(1, 400):
        prev, cur = bound[k - 1], bound[k]
        assert cur <= prev
        assert abs(cur - prev * (k + 1) / (k + 1 + alpha)) <= 1e-12 * prev


def test_theorem_bound_regimes_and_errors():
    problem, table = bound_inputs(np.arange(5), 1.0, gamma=1.0)
    with pytest.raises(NoMatchingLemma, match=r"^fixed regime has no closed-form rate guarantee$"):
        theorem_bound(Schedule(FIXED, s=0.5, tau=0.5, sigma=0.5), problem, table)
    # accelerated bound below the threshold index K0 = 5 is undefined
    problem, table = bound_inputs(np.arange(1, 11), 1.0)
    bound, trajectory = theorem_bound(Schedule(ACCELERATED, s=0.5, c=0.9), problem, table)
    assert math.isnan(bound[0]) and trajectory is bound
    problem, table = bound_inputs(np.arange(1, 11), 4.5)
    bound, _ = theorem_bound(Schedule(ACCELERATED, s=0.5, c=2.0 / 3.0), problem, table)
    assert abs(bound[-1] - 2 * 4.5 / ((2.0 / 3.0) ** 2 * 100)) <= 1e-12
    problem, table = bound_inputs(np.arange(8), 2.0, gamma=1.0, F_norm=1.0)
    bound, _ = theorem_bound(Schedule(OPTIMAL_SS, s=0.5, tau=0.5, sigma=0.5), problem, table)
    assert abs(bound[-1] - 0.6**7 * 2.0) <= 1e-12


def test_theorem_bound_trajectory_forms():
    # varying_sc at the pre-state k: (1 + q)/(1 - q) (1 + alpha)
    # Gamma(k+1)/Gamma(k+2+alpha) (dx0 + dy0/(c^2 s^2)), q = s ||F||
    mu, c, s, Fn = 1.0, 0.25, 0.4, 1.3
    alpha, q = alpha_rate(mu, c, s, Fn), s * Fn
    problem, table = bound_inputs(np.arange(21), 3.0, mu=mu, F_norm=Fn, dist_x=2.0, dist_y=0.5)
    _, trajectory = theorem_bound(Schedule(VARYING_SC, s=s, c=c), problem, table)
    for k, got in enumerate(trajectory):
        want = (1 + q) / (1 - q) * (1 + alpha) * math.gamma(k + 1) / math.gamma(k + 2 + alpha)
        want *= 2.0 + 0.5 / (c**2 * s**2)
        assert abs(got - want) <= 1e-12 * want
    # optimal_ss at the post-state k + 1: (1 + q)/(1 - q) rho^(k+1) (mu dx0 + gamma dy0)
    problem, table = bound_inputs(
        np.arange(8), 2.0, mu=1.0, gamma=4.0, F_norm=1.0, dist_x=2.0, dist_y=0.5
    )
    sched = make_schedule(OPTIMAL_SS, 1.0, s=0.5, mu=1.0, gamma=4.0)
    _, trajectory = theorem_bound(sched, problem, table)
    rho = rho_rate(1.0, 4.0, 0.5, 1.0)
    for k, got in enumerate(trajectory):
        want = 3.0 * rho ** (k + 1) * (2.0 + 4.0 * 0.5)
        assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("k, E", [(np.arange(3, 8), 1.0), (np.arange(5), math.nan)])
def test_theorem_bound_needs_the_run_from_its_start(k, E):
    # a table that does not start at k = 0, or has no E(0)
    problem, table = bound_inputs(k, E, gamma=1.0, F_norm=1.0)
    schedules = (
        Schedule(VARYING_SC, s=0.5, c=0.5), Schedule(OPTIMAL_SS, s=0.5, tau=0.5, sigma=0.5)
    )
    for sched in schedules:
        with pytest.raises(
            NoMatchingLemma,
            match=r"^bound constants unavailable \(run not recorded from its start\)$",
        ):
            theorem_bound(sched, problem, table)


def test_theorem_bound_accelerated_needs_E_at_K0():
    # c = 0.9 with mu = 1 gives K0 = 5; rows recorded every 7th step skip it
    problem, table = bound_inputs(np.arange(1, 30, 7), 1.0)
    with pytest.raises(
        NoMatchingLemma, match=r"^E\(K0\) unavailable: no Lyapunov value at K0=5, last k=29$"
    ):
        theorem_bound(Schedule(ACCELERATED, s=0.5, c=0.9), problem, table)


def test_check_lemma_quadratic_pair_all_regimes():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=5, seed=0, mu=1.0, gamma=1.0))
    init = PrimalDualPair(np.zeros(5), np.zeros(5))
    regimes = {
        FIXED: make_schedule(FIXED, built.problem.F_norm),
        VARYING_SC: make_schedule(VARYING_SC, built.problem.F_norm, mu=1.0),
        ACCELERATED: make_schedule(ACCELERATED, built.problem.F_norm, mu=1.0),
        OPTIMAL_SS: make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0),
    }
    for regime, sched in regimes.items():
        traj = run(built.problem, sched, init, budget=500, tol=0.0)
        table = lyapunov_table(traj, built.problem, built.saddle)
        rhs, slack = lemma_records(traj, built.problem, table)
        assert len(slack) >= 1
        for E, ne, lemma_rhs, lemma_slack in zip(table.E, table.ne, rhs, slack):
            assert lemma_slack >= -slack_tolerance(E)
            assert ne >= -1e-12
            assert math.isfinite(E) and math.isfinite(lemma_rhs)
        # descent: the lemma right-hand side is never positive
        assert max(rhs) <= 1e-12


def test_check_lemma_saddle_start_gives_zero_energy():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=8))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    traj = run(built.problem, sched, built.saddle, budget=20, tol=0.0)
    table = lyapunov_table(traj, built.problem, built.saddle)
    _, slack = lemma_records(traj, built.problem, table)
    for E, lemma_slack in zip(table.E, slack):
        assert abs(E) <= 1e-20
        assert abs(lemma_slack) <= 1e-20


def test_check_lemma_refuses_inadmissible_scale():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=9))
    # bypass the factory to fabricate an inadmissible schedule (s ||F|| = 1.5)
    bad = Schedule(regime=VARYING_SC, s=1.5 / built.problem.F_norm, c=0.5)
    traj = run(built.problem, bad, PrimalDualPair(np.ones(2), np.ones(2)), budget=3, tol=0.0)
    with pytest.raises(ValueError):
        table = lyapunov_table(traj, built.problem, built.saddle)
        lemma_records(traj, built.problem, table)


def test_check_lemma_requires_both_moduli_for_fixed_steps():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=10.0))
    assert built.saddle is not None  # interior dual: closed-form saddle
    sched = make_schedule(FIXED, built.problem.F_norm)
    traj = run(built.problem, sched, PrimalDualPair(np.zeros(5), np.zeros(5)), budget=20, tol=0.0)
    with pytest.raises(NoMatchingLemma):
        table = lyapunov_table(traj, built.problem, built.saddle)
        lemma_records(traj, built.problem, table)


# ---------------------------------------------------------------------------
# the column table against a scalar per-row reference


def reference_table(traj, problem, saddle):
    """The table as one scalar evaluation per row: E(k+1) of a row is reused
    as E(k) of its successor, the accelerated form reads the row of step
    k - 1, and k_start uses 1/tau_0 := 0 with y_0 the run's init."""
    sched = traj.schedule
    s, F = sched.s, problem.F
    accelerated = sched.regime == ACCELERATED

    def state(k, x, y, before):
        tau, sigma, _ = schedule_at(sched, k)
        if not accelerated:
            E = lyapunov_fixed(x, y, saddle, tau, sigma, F)
        elif before is not None:
            E = lyapunov_accelerated(
                x, traj.x[before], traj.y[before], saddle, tau, traj.tau[before], s, F
            )
        elif k == sched.k_start:
            E = lyapunov_accelerated(x, x, traj.init.y, saddle, tau, None, s, F)
        else:
            E = math.nan
        return E, float((x - saddle.x) @ (x - saddle.x)), float((y - saddle.y) @ (y - saddle.y))

    rows, post = [], None
    for i, k in enumerate(traj.k.tolist()):
        x, y, x_next, y_next = traj.x[i], traj.y[i], traj.x_next[i], traj.y_next[i]
        before = i - 1 if i > 0 and traj.k[i - 1] == k - 1 else None
        pre = post if before is not None else state(k, x, y, None)
        post = state(k + 1, x_next, y_next, i)
        if not accelerated:
            ne = numerical_error(x_next - x, y_next - y, traj.tau[i], traj.sigma[i], F)
        elif before is not None:
            ne = numerical_error(
                x - traj.x[before], y - traj.y[before], traj.tau[before], s, F,
                accelerated=True,
            )
        elif k == sched.k_start:
            ne = numerical_error(np.zeros_like(x), y - traj.init.y, None, s, F, accelerated=True)
        else:
            ne = math.nan
        rows.append((pre[0], ne, pre[1], pre[2]) + post)
    names = ("E", "ne", "dist_x", "dist_y", "E_next", "dist_x_next", "dist_y_next")
    return dict(zip(names, map(np.array, zip(*rows))))


def reference_slack(regime, traj, problem, ref):
    mu, gamma = problem.mu, problem.gamma
    rhs_all, slack_all = [], []
    for i, k in enumerate(traj.k.tolist()):
        tau_k, sigma_k = traj.tau[i], traj.sigma[i]
        tau_n, sigma_n, _ = schedule_at(traj.schedule, k + 1)
        dxn, dyn = ref["dist_x_next"][i], ref["dist_y_next"][i]
        if regime == ACCELERATED:
            rhs = -(mu / tau_k + 1.0 / (2.0 * tau_k**2) - 1.0 / (2.0 * tau_n**2)) * dxn
        elif regime == VARYING_SC:
            rhs = (
                -(mu + 1.0 / (2.0 * tau_k) - 1.0 / (2.0 * tau_n)) * dxn
                - (1.0 / (2.0 * sigma_k) - 1.0 / (2.0 * sigma_n)) * dyn
            )
        else:
            rhs = -(mu * dxn + gamma * dyn)
        rhs_all.append(rhs)
        slack_all.append(rhs - (ref["E_next"][i] - ref["E"][i]))
    return np.array(rhs_all), np.array(slack_all)


@pytest.mark.parametrize("block_elements", [None, 12])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("regime", [FIXED, VARYING_SC, ACCELERATED, OPTIMAL_SS])
def test_table_matches_scalar_reference(monkeypatch, regime, record_every, block_elements):
    if block_elements is not None:  # several blocks, with boundaries inside gaps
        monkeypatch.setattr(lyapunov, "BLOCK_ELEMENTS", block_elements)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=3, seed=4))
    problem = built.problem
    sched = make_schedule(regime, problem.F_norm, mu=problem.mu, gamma=problem.gamma)
    init = PrimalDualPair(np.ones(5), -np.ones(3))
    traj = run(problem, sched, init, budget=61, tol=0.0, record_every=record_every)
    assert traj.k[0] == sched.k_start
    table = lyapunov_table(traj, problem, built.saddle)
    ref = reference_table(traj, problem, built.saddle)
    for name, want in ref.items():
        np.testing.assert_allclose(getattr(table, name), want, rtol=1e-13, atol=0.0)
    assert np.isfinite(table.E[0]) and np.isfinite(table.ne[0])  # the k_start row
    if regime == ACCELERATED and record_every > 1:
        assert np.isnan(table.E[1:]).all() and np.isnan(table.ne[1:]).all()
        with pytest.raises(ValueError, match="consecutively recorded"):
            lemma_records(traj, problem, table)
        return
    rhs, slack = lemma_records(traj, problem, table)
    want_rhs, want_slack = reference_slack(regime, traj, problem, ref)
    np.testing.assert_allclose(rhs, want_rhs, rtol=1e-13, atol=0.0)
    # a slack is a difference of nearly equal values: relative to its terms
    scale = np.abs(ref["E"]) + np.abs(ref["E_next"]) + np.abs(want_rhs)
    assert np.all(np.abs(slack - want_slack) <= 1e-13 * scale)


def test_evaluators_keep_one_code_path_for_one_state():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, d2=2, seed=5))
    problem, saddle = built.problem, built.saddle
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((3, 4)), rng.standard_normal((3, 2))
    tau, sigma = np.array([0.5, 0.25, 0.125]), np.array([0.2, 0.4, 0.8])
    F = problem.F
    rows = lyapunov_fixed(x, y, saddle, tau, sigma, F)
    one = lyapunov_fixed(x[1], y[1], saddle, tau[1], sigma[1], F)
    assert isinstance(one, float) and rows.shape == (3,)
    assert math.isclose(rows[1], one, rel_tol=1e-14)
    rows = lyapunov_accelerated(x, x[::-1], y, saddle, tau, sigma, 0.5, F)
    one = lyapunov_accelerated(x[0], x[2], y[0], saddle, tau[0], sigma[0], 0.5, F)
    assert isinstance(one, float) and math.isclose(rows[0], one, rel_tol=1e-14)
    rows = numerical_error(x, y, tau, 0.5, F, accelerated=True)
    one = numerical_error(x[2], y[2], tau[2], 0.5, F, accelerated=True)
    assert isinstance(one, float) and math.isclose(rows[2], one, rel_tol=1e-14)
    with pytest.raises(ValueError):
        lyapunov_fixed(x, y, saddle, np.array([0.5, -1.0, 0.5]), sigma, F)


@pytest.mark.parametrize("regime", [VARYING_SC, ACCELERATED])
def test_table_working_memory_is_bounded(regime):
    # a 2000 x 400 trajectory (12.8 MB of states): the table's temporaries
    # stay at a few row blocks instead of whole-trajectory arrays
    d, rows = 400, 2000
    problem = SaddleProblem(
        F=np.eye(d), prox_f=lambda v, t: v, prox_gstar=lambda w, t: w,
        mu=1.0, gamma=1.0,
    )
    sched = make_schedule(regime, problem.F_norm, mu=1.0)
    rng = np.random.default_rng(0)
    xs, ys = rng.standard_normal((rows + 1, d)), rng.standard_normal((rows + 1, d))
    k = np.arange(sched.k_start, sched.k_start + rows)
    tau, sigma, theta = schedule_at(sched, k)
    traj = Trajectory(
        k=k, tau=tau, sigma=sigma, theta=theta, x=xs[:-1], y=ys[:-1],
        x_next=xs[1:], y_next=ys[1:], primal_residual=np.zeros(rows),
        dual_residual=np.zeros(rows), init=PrimalDualPair(xs[0], ys[0]),
        schedule=sched, termination="budget",
    )
    saddle = PrimalDualPair(np.zeros(d), np.zeros(d))
    tracemalloc.start()
    try:
        table = lyapunov_table(traj, problem, saddle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = 9 * rows * 8  # seven columns, plus the two the accelerated shift replaces
    assert peak <= output + 2**20
    assert np.isfinite(table.E_next).all()
