"""Acceptance suite: the library's headline guarantees, verified end to end.

One test per criterion, each printing a single ``[PASS]``/``[FAIL]`` line
(visible with ``pytest -v -s`` or on failure) with the measured margins.
Tolerances are pinned here on purpose — loosening one is a contract change,
not a test fix.

 1. descent-lemma slack is nonnegative (to 1e-8, scale-relative) across
    200 seeded runs covering all four regimes;
 2. the iteration-varying Lyapunov and trajectory bounds hold to 1e-6;
 3. fitted decay slopes approach -2 as the schedule constant c shrinks;
 4. the accelerated O(1/k^2) distance bound holds to 1e-6 with slope
    near -2;
 5. the doubly-strongly-convex contraction beats rho per step and 0.6 in
    geometric mean;
 6. discretization error (NE) is nonnegative on 1e4 random displacement
    pairs per regime form;
 7. inclusion residuals stay below 1e-9 on every recorded step;
 8. doubly-strongly-convex runs reach the KKT saddle within the
    rho-derived iteration cap;
 9. PDHG tracks the exact flow of its continuous-time limit at first
    order (error ratio <= 0.7 per step-size halving);
10. total-variation denoising reaches the certified reference optimum.
"""

import math
import time

import numpy as np

from pdhglab.engine import run
from pdhglab.dynamics import reference_states
from pdhglab.lyapunov import (
    lemma_records,
    lyapunov_accelerated,
    numerical_error,
    numerical_error_accelerated,
    rho_rate,
    theorem_bound,
)
from pdhglab.problems import Dense, PrimalDualPair, inclusion_residuals
from pdhglab.rates import contraction_factors, fit_rate
from pdhglab.schedules import (
    ACCELERATED,
    FIXED,
    OPTIMAL_SS,
    VARYING_SC,
    k0_threshold,
    make_schedule,
    schedule_at,
)
from pdhglab.zoo import (
    GEN_LASSO,
    LASSO,
    QUAD_PAIR,
    InstanceSpec,
    build_instance,
    certify_saddle,
    reference_saddle,
)
from recording import recorded_run


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def zeros_init(problem):
    return PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))


def dist_sq(u, v):
    d = u - v
    return float(d @ d)


def resolve_saddle(built):
    if built.saddle is not None:
        return built.saddle
    return reference_saddle(built.problem)


# ---------------------------------------------------------------------------
# 1. descent-lemma slack on 50 seeded instances per regime


def quad_specs(n, seed0):
    dims = (1, 2, 5, 20)
    return [InstanceSpec(QUAD_PAIR, d1=dims[i % 4], seed=seed0 + i) for i in range(n)]


def lasso_specs(n, seed0):
    # alternate dual-interior (large lam) and dual-active (small lam) designs
    return [
        InstanceSpec(LASSO, d1=5, seed=seed0 + i, lam=10.0 if i % 2 == 0 else 0.5)
        for i in range(n)
    ]


def test_criterion_01_lemma_descent_suites():
    suites = {
        FIXED: quad_specs(50, 0),
        OPTIMAL_SS: quad_specs(50, 200),
        VARYING_SC: quad_specs(38, 400) + lasso_specs(12, 600),
        ACCELERATED: quad_specs(38, 700) + lasso_specs(12, 900),
    }
    start = time.perf_counter()
    worst = math.inf
    n_runs = n_steps = 0
    for regime, specs in suites.items():
        for spec in specs:
            built = build_instance(spec)
            problem = built.problem
            schedule = make_schedule(
                regime, built.problem.F_norm, mu=problem.mu, gamma=problem.gamma
            )
            saddle = resolve_saddle(built)
            traj, _, table = recorded_run(
                problem, schedule, zeros_init(problem), saddle, budget=1000, tol=0.0
            )
            claim = lemma_records(problem, table)
            slack = claim.bound - claim.measured
            for E, lemma_slack in zip(table.E, slack):
                worst = min(worst, lemma_slack + 1e-8 * (1.0 + abs(E)))
                n_steps += 1
            n_runs += 1
    elapsed = time.perf_counter() - start
    ok = worst >= 0.0 and elapsed < 60.0
    report(
        1,
        ok,
        f"min lemma-slack margin {worst:.3e} over {n_runs} runs "
        f"({n_steps} transitions), {elapsed:.1f} s (< 60 s)",
    )


# ---------------------------------------------------------------------------
# 2. iteration-varying Lyapunov bound and trajectory bound


def varying_sc_instance():
    built = build_instance(InstanceSpec(LASSO, d1=20, seed=1, lam=2.0, cond=10.0))
    mu = built.problem.mu
    s = min(0.9 / built.problem.F_norm, mu)
    return built, mu, s


def test_criterion_02_varying_sc_theorem_bound():
    built, mu, s = varying_sc_instance()
    problem = built.problem
    c = 0.5 * mu
    schedule = make_schedule(VARYING_SC, built.problem.F_norm, s=s, c=c, mu=mu)
    saddle = built.saddle
    assert saddle is not None  # dual-interior design: closed-form saddle
    traj, states, table = recorded_run(
        problem, schedule, zeros_init(problem), saddle, budget=10_001, tol=0.0
    )

    rows = range(len(traj.k))
    assert traj.k[0] == 0 and traj.k[-1] == 10_000
    tau, sigma, _ = schedule_at(schedule, traj.k)
    E = [
        numerical_error(
            states.x[i] - saddle.x, states.y[i] - saddle.y, tau[i], sigma[i], problem.F
        )
        for i in rows
    ]
    lyapunov_claim, trajectory_claim = theorem_bound(problem, table).claims
    bound, trajectory_bound = lyapunov_claim.bound, trajectory_claim.bound

    worst_E = worst_traj = 0.0
    for i, Ek in zip(rows, E):
        worst_E = max(worst_E, Ek / bound[i])
        worst_traj = max(worst_traj, dist_sq(states.x[i], saddle.x) / trajectory_bound[i])
    ok = worst_E <= 1.0 + 1e-6 and worst_traj <= 1.0 + 1e-6
    report(
        2,
        ok,
        f"max E/bound {worst_E:.3e}, max dist/trajectory-bound {worst_traj:.3e} "
        f"(both <= 1 + 1e-6) over k in [0, 1e4]",
    )


# ---------------------------------------------------------------------------
# 3. fitted slope approaches -2 as c shrinks


def test_criterion_03_slope_trend_toward_minus_two():
    built, mu, s = varying_sc_instance()
    problem = built.problem
    saddle = built.saddle
    slopes = []
    for frac in (0.5, 0.1, 0.02):
        schedule = make_schedule(VARYING_SC, built.problem.F_norm, s=s, c=frac * mu, mu=mu)
        _, states, _ = recorded_run(problem, schedule, zeros_init(problem), budget=10_001, tol=0.0)
        series = [
            (k, dist_sq(x, saddle.x))
            for k, x in zip(states.k, states.x)
            if dist_sq(x, saddle.x) > 0.0
        ]
        fit = fit_rate(*zip(*series), window=(100, 10_000))
        slopes.append(fit.slope)
    gaps = [abs(sl + 2.0) for sl in slopes]
    ok = gaps[0] > gaps[1] > gaps[2] and -2.1 <= slopes[-1] <= -1.75
    report(
        3,
        ok,
        "slopes " + ", ".join(f"{sl:.3f}" for sl in slopes)
        + f" for c/mu in (0.5, 0.1, 0.02); |slope + 2| decreasing, "
        f"last in [-2.1, -1.75]",
    )


# ---------------------------------------------------------------------------
# 4. accelerated O(1/k^2) distance bound and slope


def test_criterion_04_accelerated_rate_bound():
    start = time.perf_counter()
    built = build_instance(InstanceSpec(LASSO, d1=20, seed=0, lam=2.0, cond=18.0))
    problem = built.problem
    mu = problem.mu
    c = 2.0 * mu / 3.0
    assert k0_threshold(mu, c) == 1
    s = min(0.9 / built.problem.F_norm, mu)
    schedule = make_schedule(ACCELERATED, built.problem.F_norm, s=s, c=c, mu=mu)
    init = zeros_init(problem)
    saddle = built.saddle
    assert saddle is not None
    traj, states, table = recorded_run(problem, schedule, init, saddle, budget=10_000, tol=0.0)

    assert traj.k[0] == 1 and traj.k[-1] == 10_000
    # E(K0) at K0 = 1: the starting pair with tau_1 = 1/c, no displacement term
    E_K0 = lyapunov_accelerated(
        init.x, None, init.y, saddle, 1.0 / c, None, s, problem.F
    )
    assert table.k[0] == 1 and table.E[0] == E_K0
    (claim,) = theorem_bound(problem, table).claims
    assert claim.k[0] == 1  # K0 = 1: the claim covers every row
    bound = claim.bound
    worst = 0.0
    for x, bound_k in zip(states.x, bound):
        worst = max(worst, dist_sq(x, saddle.x) / bound_k)

    series = [
        (k, dist_sq(x, saddle.x))
        for k, x in zip(traj.k, states.x)
        if dist_sq(x, saddle.x) > 0.0
    ]
    fit = fit_rate(*zip(*series), window=(100, 10_000))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 + 1e-6 and -2.3 <= fit.slope <= -1.9 and elapsed < 30.0
    report(
        4,
        ok,
        f"max dist/bound {worst:.3e} (<= 1 + 1e-6) over k in [1, 1e4], "
        f"slope {fit.slope:.3f} in [-2.3, -1.9], {elapsed:.1f} s (< 30 s)",
    )


# ---------------------------------------------------------------------------
# 5. doubly-strongly-convex contraction
# 8. convergence within the rho-derived iteration cap


def optimal_ss_run():
    built = build_instance(InstanceSpec(QUAD_PAIR, d1=5, seed=0))  # mu = gamma = 1
    problem = built.problem
    s = 0.5
    schedule = make_schedule(OPTIMAL_SS, built.problem.F_norm, s=s, mu=1.0, gamma=1.0)
    recorded = recorded_run(
        problem, schedule, zeros_init(problem), built.saddle, budget=2000, tol=1e-10
    )
    rho = rho_rate(1.0, 1.0, s, built.problem.F_norm)
    return built, recorded, s, rho


def test_criterion_05_contraction_rate():
    built, (traj, states, table), s, rho = optimal_ss_run()
    problem, saddle = built.problem, built.saddle
    assert problem.mu == 1.0 and problem.gamma == 1.0
    E = [
        (k, numerical_error(x - saddle.x, y - saddle.y, tau, sigma, problem.F))
        for k, x, y, tau, sigma in zip(
            traj.k, states.x, states.y, *schedule_at(traj.schedule, traj.k)[:2]
        )
    ]
    summary = contraction_factors(*zip(*E))

    weighted = dist_sq(states.x_next[-1], saddle.x) + dist_sq(states.y_next[-1], saddle.y)
    # the sandwich at the post-state of the last row, k + 1
    _, sandwich_claim = theorem_bound(problem, table).claims
    (sandwich,) = sandwich_claim.bound
    ok = (
        summary.max_ratio <= rho + 1e-8
        and weighted <= sandwich * (1.0 + 1e-9)
        and summary.geomean_ratio <= 0.6
    )
    report(
        5,
        ok,
        f"max step ratio {summary.max_ratio:.4f} <= rho {rho:.4f} + 1e-8, "
        f"geomean {summary.geomean_ratio:.4f} <= 0.6, terminal weighted "
        f"distance {weighted:.3e} <= sandwich {sandwich:.3e}",
    )


def test_criterion_08_saddle_reached_within_cap():
    built, (_, states, _), s, rho = optimal_ss_run()
    saddle = built.saddle
    cap = 5.0 * math.log(1e8) / math.log(1.0 / rho)
    hit = None
    for k, x, y in zip(states.k, states.x, states.y):
        norm = math.sqrt(dist_sq(x, saddle.x) + dist_sq(y, saddle.y))
        if norm <= 1e-8:
            hit = k
            break
    ok = hit is not None and hit <= cap
    report(
        8,
        ok,
        f"weighted distance to the KKT saddle <= 1e-8 at k = {hit} "
        f"(cap {cap:.1f} iterations)",
    )


# ---------------------------------------------------------------------------
# 6. NE nonnegativity on random displacement pairs


def test_criterion_06_numerical_error_nonnegative():
    worst = {}
    for idx, regime in enumerate((FIXED, VARYING_SC, OPTIMAL_SS, ACCELERATED)):
        rng = np.random.default_rng(idx + 1)
        low = math.inf
        for trial in range(10_000):
            d1 = int(rng.integers(1, 7))
            d2 = int(rng.integers(1, 7))
            F = Dense(rng.standard_normal((d2, d1)))
            F_norm = float(np.linalg.norm(F.matrix, 2))
            # hold s * ||F|| <= 0.99, hitting the boundary now and then
            frac = 0.99 if trial % 97 == 0 else float(rng.uniform(0.01, 0.99))
            s = frac / F_norm
            dx = rng.standard_normal(d1)
            dy = rng.standard_normal(d2)
            if regime == FIXED:
                ne = numerical_error(dx, dy, s, s, F)
            elif regime == ACCELERATED:
                tau = s * math.exp(rng.uniform(-2.0, 2.0))
                ne = numerical_error_accelerated(dx, dy, tau, s, F)
            else:
                ratio = math.exp(rng.uniform(-2.0, 2.0))
                ne = numerical_error(dx, dy, s * ratio, s / ratio, F)
            low = min(low, ne)
        worst[regime] = low
    ok = all(low >= -1e-12 for low in worst.values())
    report(
        6,
        ok,
        "min NE per regime form "
        + ", ".join(f"{regime}: {low:.2e}" for regime, low in worst.items())
        + " (each >= -1e-12, 1e4 pairs each)",
    )


# ---------------------------------------------------------------------------
# 7. inclusion residuals on every recorded step


def test_criterion_07_optimality_residuals():
    cases = [
        (InstanceSpec(QUAD_PAIR, d1=5, seed=0), FIXED),
        (InstanceSpec(QUAD_PAIR, d1=5, seed=0), VARYING_SC),
        (InstanceSpec(QUAD_PAIR, d1=5, seed=0), ACCELERATED),
        (InstanceSpec(QUAD_PAIR, d1=5, seed=0), OPTIMAL_SS),
        (InstanceSpec(LASSO, d1=8, seed=2, lam=0.5), FIXED),
        (InstanceSpec(LASSO, d1=8, seed=2, lam=0.5), VARYING_SC),
        (InstanceSpec(LASSO, d1=8, seed=2, lam=0.5), ACCELERATED),
        (InstanceSpec(GEN_LASSO, d1=12, seed=3, lam=0.3), FIXED),
    ]
    worst = 0.0
    n_steps = 0
    for spec, regime in cases:
        built = build_instance(spec)
        problem = built.problem
        schedule = make_schedule(
            regime, built.problem.F_norm, mu=problem.mu, gamma=problem.gamma
        )
        traj, states, _ = recorded_run(problem, schedule, zeros_init(problem), budget=1000, tol=0.0)
        tau, sigma, theta = schedule_at(schedule, traj.k)
        F = problem.F
        for i in range(len(traj.k)):
            x, y, x_next, y_next = states.x[i], states.y[i], states.x_next[i], states.y_next[i]
            # xbar with the operations of the step, so it has the iterate's bits
            x_bar = x_next + theta[i] * (x_next - x)
            r_x, r_y = inclusion_residuals(
                problem, x_next, F.apply_T(y) + (x_next - x) / tau[i],
                y_next, -F.apply(x_bar) + (y_next - y) / sigma[i],
            )
            worst = max(worst, r_x, r_y)
            n_steps += 1
    ok = worst <= 1e-9
    report(
        7,
        ok,
        f"max inclusion residual {worst:.3e} <= 1e-9 over {n_steps} recorded "
        f"steps on closed-form-prox problems",
    )


# ---------------------------------------------------------------------------
# 9. first-order agreement with the exact flow of the ODE


def test_criterion_09_ode_consistency():
    built = build_instance(InstanceSpec(QUAD_PAIR, d1=2, seed=0))
    problem = built.problem
    init = PrimalDualPair(x=np.ones(problem.d1), y=np.zeros(problem.d2))
    T = 10.0
    sups = []
    for base in (0.1, 0.05, 0.025):
        s = base / built.problem.F_norm
        schedule = make_schedule(FIXED, built.problem.F_norm, s=s)
        _, states, _ = recorded_run(
            problem, schedule, init, budget=int(math.ceil(T / s)), tol=0.0
        )
        X, Y = reference_states(init, T, s, s, s, problem)
        sup = 0.0
        for k, x_next, y_next in zip(states.k, states.x_next, states.y_next):
            if (k + 1) * s > T + 1e-12:
                continue
            err = math.sqrt(dist_sq(x_next, X[k + 1]) + dist_sq(y_next, Y[k + 1]))
            sup = max(sup, err)
        sups.append(sup)
    ratios = [sups[i + 1] / sups[i] for i in range(2)]
    ok = max(ratios) <= 0.7
    report(
        9,
        ok,
        "sup distances " + ", ".join(f"{v:.3e}" for v in sups)
        + ", halving ratios " + ", ".join(f"{r:.3f}" for r in ratios)
        + " (each <= 0.7)",
    )


# ---------------------------------------------------------------------------
# 10. total-variation denoising end to end


def test_criterion_10_tv_denoising_end_to_end():
    built = build_instance(
        InstanceSpec(GEN_LASSO, d1=50, seed=0, lam=0.2, identity_a=True)
    )
    problem = built.problem
    ref = reference_saddle(problem)
    cert = certify_saddle(problem, ref, tol=1e-8)

    schedule = make_schedule(FIXED, built.problem.F_norm)
    traj = run(problem, schedule, zeros_init(problem), budget=100_000, tol=1e-12)
    b = -problem.grad_f(np.zeros(problem.d1))  # A = I, so grad f(x) = x - b

    def objective(x):  # 1/2 ||x - b||^2 + lam ||Fx||_1
        r = x - b
        return 0.5 * float(r @ r) + built.spec.lam * float(np.abs(problem.F.apply(x)).sum())

    gap = abs(objective(traj.final.x) - objective(ref.x))
    ok = cert.passed and gap <= 1e-6
    report(
        10,
        ok,
        f"reference certified at 1e-8 (r_x {cert.r_x:.2e}, r_y {cert.r_y:.2e}); "
        f"|objective - reference optimum| = {gap:.3e} <= 1e-6 "
        f"after {traj.k[-1] + 1} iterations",
    )
