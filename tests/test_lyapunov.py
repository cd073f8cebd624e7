"""Lyapunov evaluator tests: hand values, positivity, lemma and bound checks.

The descent lemmas themselves are exercised at scale in test_acceptance; here
the evaluators are pinned against hand-computed values and the structural
guarantees (positivity under admissibility, refusal outside it).
"""

import math
import tracemalloc

import numpy as np
import pytest

from pdhglab import engine, lyapunov
from pdhglab.engine import (
    TERMINATION_BUDGET,
    TERMINATION_DIVERGENCE,
    TERMINATION_RESIDUAL,
    max_recorded_rows,
    run,
)
from pdhglab.lyapunov import (
    NoMatchingLemma,
    TableAccumulator,
    _sq_dist,
    alpha_rate,
    lemma_records,
    lyapunov_accelerated,
    numerical_error,
    rho_rate,
    slack_tolerance,
    theorem_bound,
)
from pdhglab.problems import Dense, PrimalDualPair, SaddleProblem
from pdhglab.rates import TRUNCATION_FLOOR
from pdhglab.schedules import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    Schedule,
    k0_threshold,
    make_schedule,
    schedule_at,
)
from pdhglab.zoo import InstanceSpec, build_instance
from recording import STATES, recorded_run

ZERO = PrimalDualPair(np.zeros(1), np.zeros(1))


def test_lyapunov_fixed_hand_values():
    # the fixed-step E(k) is the NE form at (x_k - x*, y_k - y*); x* = y* = 0
    F = Dense(np.array([[0.5]]))
    val = numerical_error(np.array([1.0]), np.array([1.0]), 1.0, 1.0, F)
    assert abs(val - 0.5) <= 1e-15
    assert numerical_error(np.zeros(1), np.zeros(1), 1.0, 1.0, F) == 0.0
    val = numerical_error(np.array([1.0]), np.array([0.0]), 2.0, 1.0, F)
    assert abs(val - 0.25) <= 1e-15


def test_lyapunov_varying_hand_value():
    # the varying-step Lyapunov value is the fixed form at (tau_k, sigma_k)
    # k = 0 of the varying schedule with c = 1, s = 0.5: tau0 = 1, sigma0 = 1/4
    F = Dense(np.array([[1.0]]))
    val = numerical_error(np.array([1.0]), np.array([1.0]), 1.0, 0.25, F)
    assert abs(val - 1.5) <= 1e-15
    assert numerical_error(np.zeros(1), np.zeros(1), 1.0, 0.25, F) == 0.0
    val = numerical_error(np.array([1.0]), np.array([1.0]), 1.0, 1.0, Dense(np.array([[0.0]])))
    assert abs(val - 1.0) <= 1e-15


def test_lyapunov_accelerated_hand_values():
    F = Dense(np.array([[0.5]]))
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
    F = Dense(np.array([[0.5]]))
    assert abs(numerical_error(np.ones(1), np.ones(1), 1.0, 1.0, F) - 0.5) <= 1e-15
    assert numerical_error(np.zeros(1), np.ones(1), 1.0, 2.0, F) == 0.25
    # boundary degeneracy: s ||F|| = 1 makes the form exactly singular
    val = numerical_error(np.ones(1), np.ones(1), 1.0, 1.0, Dense(np.array([[1.0]])))
    assert abs(val) <= 1e-15


def test_quadratic_forms_nonnegative_under_admissibility():
    rng = np.random.default_rng(23)
    for d in (1, 2, 5, 20):
        for _ in range(1000 // 4):
            F = Dense(rng.standard_normal((d, d)))
            s = 0.99 / max(np.linalg.svd(F.matrix, compute_uv=False)[0], 1e-12)
            tau = float(rng.uniform(0.05, 5.0))
            sigma = s**2 / tau
            dx = rng.standard_normal(d)
            dy = rng.standard_normal(d)
            sad = PrimalDualPair(np.zeros(d), np.zeros(d))
            # E(k) at the state (dx, dy), and NE of the displacement (dx, dy)
            assert numerical_error(dx - sad.x, dy - sad.y, tau, sigma, F) >= -1e-12
            assert numerical_error(dx, dy, tau, sigma, F) >= -1e-12
            # accelerated form: tau plays tau_{k-1}, the dual scale is s itself
            assert numerical_error(dx, dy, tau, s, F, accelerated=True) >= -1e-12


def test_accelerated_lower_bound_inequality():
    # E(k) >= ||x_k - x*||^2 / (2 tau_k^2) whenever s||F|| <= 0.99
    rng = np.random.default_rng(29)
    for _ in range(250):
        d = int(rng.integers(1, 6))
        F = Dense(rng.standard_normal((d, d)))
        s = 0.99 / max(np.linalg.svd(F.matrix, compute_uv=False)[0], 1e-12)
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


def bound_inputs(
    schedule, k, E, mu=1.0, gamma=0.0, F_norm=0.0, dist_x=0.0, dist_y=0.0, floor_x=0.0,
    floor_y=0.0,
):
    """A problem with the given moduli and a 1x1 coupling of norm ``F_norm``,
    and a table under ``schedule`` with rows ``k``, Lyapunov values ``E``,
    constant squared distances and the given rounding floors; theorem_bound
    reads nothing else."""
    problem = SaddleProblem(
        F=np.array([[F_norm]]), prox_f=None, prox_gstar=None, mu=mu, gamma=gamma
    )
    k = np.asarray(k)
    E = np.broadcast_to(np.asarray(E, dtype=float), k.shape)
    dx, dy, nan = (np.full(k.shape, v) for v in (dist_x, dist_y, math.nan))
    table = lyapunov.LyapunovTable(
        schedule=schedule, k=k, E=E, ne=nan, dist_x=dx, dist_y=dy,
        E_next=nan, dist_x_next=dx, dist_y_next=dy, dist_x_floor=floor_x, dist_y_floor=floor_y,
    )
    return problem, table


def test_theorem_bound_integer_alpha_reduces_to_rational():
    # mu = 1, c = 0.5, s = 1, F = 0 gives alpha = 1 and bound 2 E0 / (k + 2)
    k = np.array([0, 1, 8, 100])
    problem, table = bound_inputs(Schedule(VARYING_SC, s=1.0, c=0.5), k, 1.0)
    bound = theorem_bound(problem, table).bound
    for ki, got in zip(k, bound):
        assert abs(got - 2.0 / (ki + 2)) <= 1e-12
    assert abs(bound[2] - 0.2) <= 1e-12


def test_theorem_bound_matches_direct_gamma_for_small_k():
    mu, c, s, Fn = 1.0, 0.25, 0.4, 1.3
    alpha = alpha_rate(mu, c, s, Fn)
    problem, table = bound_inputs(
        Schedule(VARYING_SC, s=s, c=c), np.arange(21), 3.0, mu=mu, F_norm=Fn
    )
    bound = theorem_bound(problem, table).bound
    for k, got in enumerate(bound):
        want = (1 + alpha) * math.gamma(k + 2) / math.gamma(k + 2 + alpha) * 3.0
        assert abs(got - want) <= 1e-12 * want


def test_theorem_bound_recurrence_and_monotonicity():
    mu, c, s, Fn = 0.5, 0.2, 0.8, 1.0
    problem, table = bound_inputs(
        Schedule(VARYING_SC, s=s, c=c), np.arange(400), 1.0, mu=mu, F_norm=Fn
    )
    bound = theorem_bound(problem, table).bound
    alpha = alpha_rate(mu, c, s, Fn)
    for k in range(1, 400):
        prev, cur = bound[k - 1], bound[k]
        assert cur <= prev
        assert abs(cur - prev * (k + 1) / (k + 1 + alpha)) <= 1e-12 * prev


def test_theorem_bound_regimes_and_errors():
    fixed = Schedule(FIXED, s=0.5, tau=0.5, sigma=0.5)
    problem, table = bound_inputs(fixed, np.arange(5), 1.0, gamma=1.0)
    with pytest.raises(NoMatchingLemma, match=r"^fixed regime has no closed-form rate guarantee$"):
        theorem_bound(problem, table)
    # accelerated bound below the threshold index K0 = 5 is undefined
    problem, table = bound_inputs(Schedule(ACCELERATED, s=0.5, c=0.9), np.arange(1, 11), 1.0)
    theorem = theorem_bound(problem, table)
    assert np.isnan(theorem.bound[:4]).all()
    (claim,) = theorem.claims
    np.testing.assert_array_equal(claim.bound, theorem.bound[4:])
    problem, table = bound_inputs(
        Schedule(ACCELERATED, s=0.5, c=2.0 / 3.0), np.arange(1, 11), 4.5
    )
    bound = theorem_bound(problem, table).bound
    assert abs(bound[-1] - 2 * 4.5 / ((2.0 / 3.0) ** 2 * 100)) <= 1e-12
    sched = Schedule(OPTIMAL_SS, s=0.5, tau=0.5, sigma=0.5)
    problem, table = bound_inputs(sched, np.arange(8), 2.0, gamma=1.0, F_norm=1.0)
    bound = theorem_bound(problem, table).bound
    assert abs(bound[-1] - 0.6**7 * 2.0) <= 1e-12


def test_theorem_bound_trajectory_forms():
    # varying_sc at the pre-state k: (1 + q)/(1 - q) (1 + alpha)
    # Gamma(k+1)/Gamma(k+2+alpha) (dx0 + dy0/(c^2 s^2)), q = s ||F||
    mu, c, s, Fn = 1.0, 0.25, 0.4, 1.3
    alpha, q = alpha_rate(mu, c, s, Fn), s * Fn
    problem, table = bound_inputs(
        Schedule(VARYING_SC, s=s, c=c), np.arange(21), 3.0, mu=mu, F_norm=Fn,
        dist_x=2.0, dist_y=0.5,
    )
    trajectory = theorem_bound(problem, table).claims[1].bound
    for k, got in enumerate(trajectory):
        want = (1 + q) / (1 - q) * (1 + alpha) * math.gamma(k + 1) / math.gamma(k + 2 + alpha)
        want *= 2.0 + 0.5 / (c**2 * s**2)
        assert abs(got - want) <= 1e-12 * want
    # optimal_ss at the final post-state K = 8: (1 + q)/(1 - q) rho^K (mu dx0 + gamma dy0)
    sched = make_schedule(OPTIMAL_SS, 1.0, s=0.5, mu=1.0, gamma=4.0)
    problem, table = bound_inputs(
        sched, np.arange(8), 2.0, mu=1.0, gamma=4.0, F_norm=1.0, dist_x=2.0, dist_y=0.5
    )
    (got,) = theorem_bound(problem, table).claims[1].bound
    want = 3.0 * rho_rate(1.0, 4.0, 0.5, 1.0) ** 8 * (2.0 + 4.0 * 0.5)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("k, E", [(np.arange(3, 8), 1.0), (np.arange(5), math.nan)])
def test_theorem_bound_needs_the_run_from_its_start(k, E):
    # a table that does not start at k = 0, or has no E(0)
    schedules = (
        Schedule(VARYING_SC, s=0.5, c=0.5), Schedule(OPTIMAL_SS, s=0.5, tau=0.5, sigma=0.5)
    )
    for sched in schedules:
        problem, table = bound_inputs(sched, k, E, gamma=1.0, F_norm=1.0)
        with pytest.raises(
            NoMatchingLemma,
            match=r"^bound constants unavailable \(run not recorded from its start\)$",
        ):
            theorem_bound(problem, table)


def test_theorem_bound_accelerated_needs_E_at_K0():
    # c = 0.9 with mu = 1 gives K0 = 5; rows recorded every 7th step skip it
    problem, table = bound_inputs(Schedule(ACCELERATED, s=0.5, c=0.9), np.arange(1, 30, 7), 1.0)
    with pytest.raises(
        NoMatchingLemma, match=r"^E\(K0\) unavailable: no Lyapunov value at K0=5, last k=29$"
    ):
        theorem_bound(problem, table)


def test_varying_sc_claims_cover_every_row():
    problem, table = bound_inputs(
        Schedule(VARYING_SC, s=0.5, c=0.5), np.arange(6), 1.0, F_norm=1.0, dist_x=2.0
    )
    theorem = theorem_bound(problem, table)
    lyap, traj = theorem.claims
    assert (lyap.name, traj.name) == ("Lyapunov bound", "trajectory bound")
    for claim, measured in ((lyap, table.E), (traj, table.dist_x)):
        np.testing.assert_array_equal(claim.k, table.k)
        assert claim.measured is measured
        assert (claim.rtol, claim.atol) == (1e-6, 0.0)
    # the CSV column is the Lyapunov bound
    assert lyap.bound is theorem.bound


def test_accelerated_claim_starts_at_K0():
    # c = 0.9 with mu = 1 gives K0 = 5
    problem, table = bound_inputs(
        Schedule(ACCELERATED, s=0.5, c=0.9), np.arange(1, 11), 1.0, dist_x=np.arange(1.0, 11.0)
    )
    (claim,) = theorem_bound(problem, table).claims
    assert claim.name == "O(1/k^2) bound"
    np.testing.assert_array_equal(claim.k, np.arange(5, 11))
    np.testing.assert_array_equal(claim.measured, np.arange(5.0, 11.0))
    assert (claim.rtol, claim.atol) == (1e-6, 0.0)


def test_optimal_ss_claims_stop_contraction_at_the_truncation_floor():
    E = np.array([1.0, 0.5, 0.25, 0.1 * TRUNCATION_FLOOR, 0.01 * TRUNCATION_FLOOR])
    sched = make_schedule(OPTIMAL_SS, 1.0, s=0.5, mu=1.0, gamma=4.0)
    problem, table = bound_inputs(
        sched, np.arange(5), E, gamma=4.0, F_norm=1.0, dist_x=2.0, dist_y=0.5,
        floor_x=1e-30, floor_y=1e-31,
    )
    contraction, sandwich = theorem_bound(problem, table).claims
    rho = rho_rate(1.0, 4.0, 0.5, 1.0)
    assert contraction.name == "contraction"
    np.testing.assert_array_equal(contraction.k, [0, 1])
    np.testing.assert_array_equal(contraction.measured, [0.5, 0.5])
    np.testing.assert_array_equal(contraction.bound, [rho, rho])
    assert (contraction.rtol, contraction.atol) == (0.0, 1e-8)
    # the terminal sandwich at the final post-state k = 5, with the
    # weighted rounding floor mu dist_x_floor + gamma dist_y_floor as atol
    assert sandwich.name == "terminal sandwich"
    np.testing.assert_array_equal(sandwich.k, [5])
    np.testing.assert_array_equal(sandwich.measured, [1.0 * 2.0 + 4.0 * 0.5])
    assert (sandwich.rtol, sandwich.atol) == (1e-9, 1e-30 + 4.0 * 1e-31)


def test_optimal_ss_contraction_of_a_short_series_has_no_rows():
    problem, table = bound_inputs(
        Schedule(OPTIMAL_SS, s=0.5, tau=0.5, sigma=0.5), np.arange(2), [1.0, 0.0],
        gamma=1.0, F_norm=1.0,
    )
    contraction, _ = theorem_bound(problem, table).claims
    assert len(contraction.k) == len(contraction.measured) == len(contraction.bound) == 0


def amplifying_problem(d):
    """An amplifying "prox" pair that trips the divergence guard after a
    few steps."""
    return SaddleProblem(
        F=np.eye(d), prox_f=lambda v, t: 4.0 * v + 1.0, prox_gstar=lambda w, t: 4.0 * w + 1.0,
        mu=1.0, gamma=1.0,
    )


def assert_table_of(table, traj, saddle):
    """``table`` holds the rows and schedule of ``traj`` and the rounding
    floors of its final state."""
    assert table.schedule is traj.schedule
    assert table.k.dtype == np.int64 and np.array_equal(table.k, traj.k)
    assert table.dist_x_floor == lyapunov._rounding_floor(saddle.x, traj.final.x)
    assert table.dist_y_floor == lyapunov._rounding_floor(saddle.y, traj.final.y)


@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("end", [TERMINATION_BUDGET, TERMINATION_RESIDUAL, TERMINATION_DIVERGENCE])
def test_table_rounding_floor_of_the_final_post_state(monkeypatch, end, record_every):
    # the table keeps the rows of its run and the floors of the last
    # post-state handed over, which is the run's final state however it ends
    monkeypatch.setattr(engine, "STEP_BLOCK", 14)
    init = PrimalDualPair(np.ones(4), -np.ones(4))
    if end == TERMINATION_DIVERGENCE:
        problem, saddle = amplifying_problem(4), PrimalDualPair(np.zeros(4), np.zeros(4))
    else:
        built = build_instance(InstanceSpec(kind="quad_pair", d1=4, seed=0, mu=1.0, gamma=1.0))
        problem, saddle = built.problem, built.saddle
    sched = make_schedule(OPTIMAL_SS, problem.F_norm, mu=1.0, gamma=1.0)
    budget, tol = (20, 0.0) if end == TERMINATION_BUDGET else (1000, 1e-10)
    traj, states, table = recorded_run(
        problem, sched, init, saddle, budget=budget, tol=tol, record_every=record_every
    )
    assert traj.termination == end
    if end == TERMINATION_RESIDUAL:  # the stop falls inside a block
        assert (traj.k[-1] + 1) % 14
    assert_table_of(table, traj, saddle)
    eps = np.finfo(float).eps
    for floor, star, final in (
        (table.dist_x_floor, saddle.x, states.x_next[-1]),
        (table.dist_y_floor, saddle.y, states.y_next[-1]),
    ):
        want = sum((eps * max(abs(a), abs(b))) ** 2 for a, b in zip(star, final))
        assert floor == pytest.approx(want, rel=1e-12) and floor > 0.0


@pytest.mark.parametrize("record_every", [1, 7])
def test_each_table_of_a_stacked_run_keeps_the_rows_and_the_final_floors_of_its_row(
    monkeypatch, record_every
):
    monkeypatch.setattr(engine, "STEP_BLOCK", 16)
    # "proxes" that scale their input by their weight t and add 1, coupled
    # by F = 0.3: the rows settle under t < 1, at tol or at the budget, and
    # the row at t = 1.6 trips the guard
    problem = SaddleProblem(
        F=np.full((1, 1), 0.3), prox_f=lambda v, t: t * v + 1.0,
        prox_gstar=lambda w, t: t * w + 1.0,
    )
    schedules = [Schedule(FIXED, s=w, tau=w, sigma=w) for w in (0.5, 0.8, 1.6, 0.9, 0.99)]
    init, saddle = PrimalDualPair(np.zeros(1), np.zeros(1)), PrimalDualPair(np.ones(1), np.ones(1))
    rows = max_recorded_rows(200, record_every)
    tables = [TableAccumulator(sched, problem, saddle, init, rows) for sched in schedules]
    stack = run(
        problem, schedules, init, budget=200, tol=1e-6, record_every=record_every,
        observer=tables,
    )
    assert {traj.termination for traj in stack} == {
        TERMINATION_BUDGET, TERMINATION_RESIDUAL, TERMINATION_DIVERGENCE
    }
    for traj, table in zip(stack, tables):
        assert_table_of(table.table(), traj, saddle)


def test_a_table_before_any_hand_over_is_refused():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=3, d2=3, seed=0))
    init = PrimalDualPair(np.zeros(3), np.zeros(3))
    sched = make_schedule(FIXED, built.problem.F_norm)
    table = TableAccumulator(sched, built.problem, built.saddle, init, rows=5)
    with pytest.raises(
        ValueError, match=r"^the Lyapunov table has no rows: no block was handed over$"
    ):
        table.table()


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
        traj, _, table = recorded_run(
            built.problem, sched, init, built.saddle, budget=500, tol=0.0
        )
        claim = lemma_records(built.problem, table)
        rhs, slack = claim.bound, claim.bound - claim.measured
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
    traj, _, table = recorded_run(
        built.problem, sched, built.saddle, built.saddle, budget=20, tol=0.0
    )
    claim = lemma_records(built.problem, table)
    slack = claim.bound - claim.measured
    for E, lemma_slack in zip(table.E, slack):
        assert abs(E) <= 1e-20
        assert abs(lemma_slack) <= 1e-20


def test_check_lemma_refuses_inadmissible_scale():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, d2=2, seed=9))
    # bypass the factory to fabricate an inadmissible schedule (s ||F|| = 1.5)
    bad = Schedule(regime=VARYING_SC, s=1.5 / built.problem.F_norm, c=0.5)
    init = PrimalDualPair(np.ones(2), np.ones(2))
    traj, _, table = recorded_run(built.problem, bad, init, built.saddle, budget=3, tol=0.0)
    with pytest.raises(ValueError):
        lemma_records(built.problem, table)


def test_check_lemma_requires_both_moduli_for_fixed_steps():
    built = build_instance(InstanceSpec(kind="lasso", d1=5, seed=3, lam=10.0))
    assert built.saddle is not None  # interior dual: closed-form saddle
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.zeros(5), np.zeros(5))
    traj, _, table = recorded_run(built.problem, sched, init, built.saddle, budget=20, tol=0.0)
    with pytest.raises(NoMatchingLemma):
        lemma_records(built.problem, table)


# ---------------------------------------------------------------------------
# the column table against a scalar per-row reference


TABLE_COLUMNS = ("k", "E", "ne", "dist_x", "dist_y", "E_next", "dist_x_next", "dist_y_next")


def reference_table(traj, states, problem, saddle, init):
    """The table's columns of a run whose states were recorded, each row
    evaluated on its own states by the public evaluators (and ``_sq_dist``):
    the accelerated E(k) and NE from the row of step k - 1, or at k_start
    from the 1/tau_0 := 0 convention with y_0 = init.y, and nan after a
    gap."""
    sched, F, s = traj.schedule, problem.F, traj.schedule.s
    k, x, y, x_next, y_next = (getattr(states, name) for name in STATES)
    columns = {name: np.full(len(k), math.nan) for name in TABLE_COLUMNS[1:]}
    for i, ki in enumerate(k.tolist()):
        tau, sigma, _ = schedule_at(sched, ki)
        tau_n, sigma_n, _ = schedule_at(sched, ki + 1)
        row = {
            "dist_x": _sq_dist(x[i], saddle.x), "dist_y": _sq_dist(y[i], saddle.y),
            "dist_x_next": _sq_dist(x_next[i], saddle.x),
            "dist_y_next": _sq_dist(y_next[i], saddle.y),
        }
        if sched.regime != ACCELERATED:
            # the fixed and varying E(k) are the NE form at the saddle offsets
            row["E"] = numerical_error(x[i] - saddle.x, y[i] - saddle.y, tau, sigma, F)
            row["E_next"] = numerical_error(
                x_next[i] - saddle.x, y_next[i] - saddle.y, tau_n, sigma_n, F
            )
            row["ne"] = numerical_error(x_next[i] - x[i], y_next[i] - y[i], tau, sigma, F)
        else:
            row["E_next"] = lyapunov_accelerated(x_next[i], x[i], y[i], saddle, tau_n, tau, s, F)
            if i == 0 and ki == sched.k_start:
                y0 = init.y
                row["E"] = lyapunov_accelerated(x[0], x[0], y0, saddle, tau, None, s, F)
                row["ne"] = numerical_error(
                    np.zeros_like(x[0]), y[0] - y0, None, s, F, accelerated=True
                )
            elif i > 0 and ki == k[i - 1] + 1:
                tau_p = schedule_at(sched, ki - 1)[0]
                row["E"] = lyapunov_accelerated(x[i], x[i - 1], y[i - 1], saddle, tau, tau_p, s, F)
                row["ne"] = numerical_error(
                    x[i] - x[i - 1], y[i] - y[i - 1], tau_p, s, F, accelerated=True
                )
        for name, value in row.items():
            columns[name][i] = value
    return columns


def assert_table_is_direct(table, traj, states, problem, saddle, init):
    for name, want in reference_table(traj, states, problem, saddle, init).items():
        assert np.array_equal(getattr(table, name), want, equal_nan=True), name


def reference_slack(regime, traj, problem, ref):
    mu, gamma = problem.mu, problem.gamma
    rhs_all, slack_all = [], []
    for i, k in enumerate(traj.k.tolist()):
        tau_k, sigma_k, _ = schedule_at(traj.schedule, k)
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


@pytest.mark.parametrize("step_block", [None, 12])
@pytest.mark.parametrize("record_every", [1, 3])
@pytest.mark.parametrize("regime", [FIXED, VARYING_SC, ACCELERATED, OPTIMAL_SS])
def test_table_matches_scalar_reference(monkeypatch, regime, record_every, step_block):
    if step_block is not None:  # several blocks, with boundaries inside gaps
        monkeypatch.setattr(engine, "STEP_BLOCK", step_block)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=3, seed=4))
    problem = built.problem
    sched = make_schedule(regime, problem.F_norm, mu=problem.mu, gamma=problem.gamma)
    init = PrimalDualPair(np.ones(5), -np.ones(3))
    traj, states, table = recorded_run(
        problem, sched, init, built.saddle, budget=61, tol=0.0, record_every=record_every
    )
    assert traj.k[0] == sched.k_start
    assert_table_is_direct(table, traj, states, problem, built.saddle, init)
    ref = reference_table(traj, states, problem, built.saddle, init)
    assert np.isfinite(table.E[0]) and np.isfinite(table.ne[0])  # the k_start row
    if regime == ACCELERATED and record_every > 1:
        assert np.isnan(table.E[1:]).all() and np.isnan(table.ne[1:]).all()
        with pytest.raises(ValueError, match="consecutively recorded"):
            lemma_records(problem, table)
        return
    claim = lemma_records(problem, table)
    rhs, slack = claim.bound, claim.bound - claim.measured
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
    rows = numerical_error(x - saddle.x, y - saddle.y, tau, sigma, F)
    one = numerical_error(x[1] - saddle.x, y[1] - saddle.y, tau[1], sigma[1], F)
    assert isinstance(one, float) and rows.shape == (3,)
    assert math.isclose(rows[1], one, rel_tol=1e-14)
    rows = lyapunov_accelerated(x, x[::-1], y, saddle, tau, sigma, 0.5, F)
    one = lyapunov_accelerated(x[0], x[2], y[0], saddle, tau[0], sigma[0], 0.5, F)
    assert isinstance(one, float) and math.isclose(rows[0], one, rel_tol=1e-14)
    rows = numerical_error(x, y, tau, 0.5, F, accelerated=True)
    one = numerical_error(x[2], y[2], tau[2], 0.5, F, accelerated=True)
    assert isinstance(one, float) and math.isclose(rows[2], one, rel_tol=1e-14)
    with pytest.raises(ValueError):
        numerical_error(x - saddle.x, y - saddle.y, np.array([0.5, -1.0, 0.5]), sigma, F)


@pytest.mark.parametrize("regime", [VARYING_SC, ACCELERATED])
def test_table_working_memory_is_bounded(regime):
    # 2000 rows of d = 400 handed over a step block at a time, as a run
    # hands them (12.8 MB of states in all): the table's temporaries stay
    # at a few row blocks instead of whole-trajectory arrays
    d, rows = 400, 2000
    problem = SaddleProblem(
        F=np.eye(d), prox_f=lambda v, t: v, prox_gstar=lambda w, t: w,
        mu=1.0, gamma=1.0,
    )
    sched = make_schedule(regime, problem.F_norm, mu=1.0)
    rng = np.random.default_rng(0)
    block = engine.step_block(problem)
    xs, ys = rng.standard_normal((block + 1, d)), rng.standard_normal((block + 1, d))
    saddle = PrimalDualPair(np.zeros(d), np.zeros(d))
    table = TableAccumulator(sched, problem, saddle, PrimalDualPair(xs[0], ys[0]), rows)
    tracemalloc.start()
    try:
        for lo in range(0, rows, block):
            k = np.arange(lo, min(lo + block, rows)) + sched.k_start
            n = len(k)
            table(k, xs[:n], ys[:n], xs[1:n + 1], ys[1:n + 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = 9 * rows * 8  # seven columns, plus the two the accelerated shift replaces
    assert peak <= output + 2**20
    assert np.isfinite(table.table().E_next).all()


def refilled(traj, states, problem, saddle, init, rows_per_call):
    """The table of a run whose states were recorded, fed to a fresh
    TableAccumulator ``rows_per_call`` rows at a time."""
    table = TableAccumulator(traj.schedule, problem, saddle, init, len(traj.k))
    for lo in range(0, len(traj.k), rows_per_call):
        table(*(getattr(states, name)[lo:lo + rows_per_call] for name in STATES))
    return table.table()


def assert_same_tables(got, want):
    for name in TABLE_COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name


def stored_and_streamed(problem, sched, init, saddle, **run_args):
    """The same run twice: one with no observer, whose table is refilled in
    one call from the states the other recorded, and the other, which
    streamed them into a TableAccumulator in its step blocks.  Returns the
    two (run, table) pairs and the recorded states; a table refilled a row
    at a time must equal the one filled in one call."""
    stored = run(problem, sched, init, **run_args)
    streamed, states, streamed_table = recorded_run(problem, sched, init, saddle, **run_args)
    stored_table = refilled(stored, states, problem, saddle, init, len(stored.k))
    assert_same_tables(refilled(stored, states, problem, saddle, init, 1), stored_table)
    return (stored, stored_table, streamed, streamed_table), states


@pytest.mark.parametrize("regime", [VARYING_SC, ACCELERATED])
def test_a_wide_row_has_the_bits_of_its_table_row_in_any_block(regime):
    # numpy sums a row of d > 8192 entries one way alone and another among
    # others: a table row has the bits of its own evaluation, in any block
    d = 9000
    built = build_instance(InstanceSpec(kind="gen_lasso", d1=d, lam=1e6, identity_a=True))
    problem, saddle = built.problem, built.saddle
    sched = make_schedule(regime, problem.F_norm, mu=problem.mu)
    init = PrimalDualPair(np.zeros(d), np.zeros(d - 1))
    traj, states, streamed = recorded_run(problem, sched, init, saddle, budget=7, tol=0.0)
    assert engine.step_block(problem) == 3  # hand-overs of 3, 3 and 1 rows
    for rows_per_call in (1, 2, 7):
        assert_same_tables(refilled(traj, states, problem, saddle, init, rows_per_call), streamed)
    assert_table_is_direct(streamed, traj, states, problem, saddle, init)


def assert_same_run(stored, stored_table, streamed, streamed_table):
    assert streamed.termination == stored.termination
    for name in ("k", "primal_residual", "dual_residual"):
        assert np.array_equal(getattr(streamed, name), getattr(stored, name))
    assert np.array_equal(streamed.final.x, stored.final.x)
    assert np.array_equal(streamed.final.y, stored.final.y)
    assert_same_tables(streamed_table, stored_table)


# A run with record_every 1 goes in 14-step blocks; with record_every 3,
# which records steps 0, 3, ... and the last one, in 4-step blocks of one
# or two recorded rows.  ``edge`` says whether the budget ends on the last
# step of a block: 70 and 124 do, 74, 80 and 62 end 4, 10 and 2 steps into one.
@pytest.mark.parametrize(
    "record_every, budget, edge",
    [(1, 70, True), (1, 74, False), (1, 80, False), (3, 124, True), (3, 62, False)],
)
@pytest.mark.parametrize(
    "regime, c", [(FIXED, None), (VARYING_SC, None), (OPTIMAL_SS, None),
                  (ACCELERATED, None), (ACCELERATED, 0.9)],
)
def test_streamed_table_equals_the_stored_one(monkeypatch, regime, c, record_every, budget, edge):
    step_block = {1: 14, 3: 4}[record_every]
    monkeypatch.setattr(engine, "STEP_BLOCK", step_block)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, seed=2, mu=1.0, gamma=1.0))
    problem = built.problem
    # a short step keeps optimal_ss from reaching a zero residual in the budget
    sched = make_schedule(regime, problem.F_norm, s=0.1, c=c, mu=1.0, gamma=1.0)
    if c is not None:
        assert k0_threshold(1.0, c) == 5
    init = PrimalDualPair(np.ones(4), -np.ones(4))
    runs, _ = stored_and_streamed(
        problem, sched, init, built.saddle, budget=budget, tol=0.0, record_every=record_every
    )
    assert (budget % step_block == 0) == edge
    assert runs[0].termination == TERMINATION_BUDGET
    assert_same_run(*runs)


@pytest.mark.parametrize("regime", [FIXED, VARYING_SC, OPTIMAL_SS, ACCELERATED])
def test_streamed_table_equals_the_stored_one_when_a_stop_ends_the_run(monkeypatch, regime):
    monkeypatch.setattr(engine, "STEP_BLOCK", 14)
    # optimal_ss reaches the residual tolerance in a few dozen steps
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, seed=0, mu=1.0, gamma=1.0))
    sched = make_schedule(regime, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), -np.ones(4))
    if regime == OPTIMAL_SS:
        runs, _ = stored_and_streamed(
            built.problem, sched, init, built.saddle, budget=1000, tol=1e-10
        )
        assert runs[0].termination == TERMINATION_RESIDUAL and len(runs[0].k) % 14
        assert_same_run(*runs)
    problem = amplifying_problem(4)
    saddle = PrimalDualPair(np.zeros(4), np.zeros(4))
    for record_every in (1, 3):
        runs, _ = stored_and_streamed(
            problem, sched, init, saddle, budget=1000, tol=0.0, record_every=record_every
        )
        assert runs[0].termination == TERMINATION_DIVERGENCE
        assert_same_run(*runs)


# With 10-step blocks, budget 61 ends one step into a block; a stride of 7
# over 58 steps records 0, 7, ..., 56 and the last step 57, which follows 56.
@pytest.mark.parametrize("record_every, budget", [(1, 61), (7, 58), (7, 61)])
@pytest.mark.parametrize("regime", [FIXED, VARYING_SC, OPTIMAL_SS, ACCELERATED])
def test_streamed_and_stored_tables_equal_a_per_row_evaluation(
    monkeypatch, regime, record_every, budget
):
    monkeypatch.setattr(engine, "STEP_BLOCK", 10)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=3, seed=4))
    problem = built.problem
    sched = make_schedule(regime, problem.F_norm, s=0.1, mu=problem.mu, gamma=problem.gamma)
    init = PrimalDualPair(np.ones(5), -np.ones(3))
    runs, states = stored_and_streamed(
        problem, sched, init, built.saddle, budget=budget, tol=0.0, record_every=record_every
    )
    stored, stored_table = runs[:2]
    assert stored.termination == TERMINATION_BUDGET
    assert_same_run(*runs)
    assert_table_is_direct(stored_table, stored, states, problem, built.saddle, init)


@pytest.mark.parametrize("record_every", [1, 7])
@pytest.mark.parametrize("regime", [VARYING_SC, ACCELERATED])
def test_a_stacked_run_streams_each_cell_the_table_of_its_own_run(
    monkeypatch, regime, record_every
):
    monkeypatch.setattr(engine, "STEP_BLOCK", 10)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=5, d2=3, seed=4, mu=1.0))
    problem, saddle = built.problem, built.saddle
    schedules = [
        make_schedule(regime, problem.F_norm, s=s, c=c, mu=1.0)
        for c, s in ((0.1, 0.3), (0.25, 0.9), (0.5, 0.6))
    ]
    init = PrimalDualPair(np.ones(5), -np.ones(3))
    args = dict(budget=43, tol=0.0, record_every=record_every)
    rows = max_recorded_rows(43, record_every)
    tables = [TableAccumulator(sched, problem, saddle, init, rows) for sched in schedules]
    stack = run(problem, schedules, init, observer=tables, **args)
    for sched, streamed, table in zip(schedules, stack, tables):
        alone, states, _ = recorded_run(problem, sched, init, **args)
        assert np.array_equal(streamed.k, alone.k)
        assert_table_is_direct(table.table(), alone, states, problem, saddle, init)


def test_a_table_cut_at_tol_mid_block_equals_a_per_row_evaluation(monkeypatch):
    monkeypatch.setattr(engine, "STEP_BLOCK", 14)
    built = build_instance(InstanceSpec(kind="quad_pair", d1=4, seed=0, mu=1.0, gamma=1.0))
    sched = make_schedule(OPTIMAL_SS, built.problem.F_norm, mu=1.0, gamma=1.0)
    init = PrimalDualPair(np.ones(4), -np.ones(4))
    runs, states = stored_and_streamed(
        built.problem, sched, init, built.saddle, budget=1000, tol=1e-10
    )
    stored, stored_table = runs[:2]
    assert stored.termination == TERMINATION_RESIDUAL and len(stored.k) % 14
    assert_same_run(*runs)
    assert_table_is_direct(stored_table, stored, states, built.problem, built.saddle, init)


def test_a_table_that_cannot_be_reserved_is_a_memory_error():
    built = build_instance(InstanceSpec(kind="quad_pair", d1=2, seed=0))
    sched = make_schedule(FIXED, built.problem.F_norm)
    init = PrimalDualPair(np.zeros(2), np.zeros(2))
    with pytest.raises(MemoryError, match=r"a Lyapunov table of 10{20} rows cannot be reserved"):
        TableAccumulator(sched, built.problem, built.saddle, init, 10**20)
