"""Benchmark saddle problems with certified moduli and saddle points.

Three families, all in the minimax form min_x max_y f(x) + <Fx, y> - g*(y):

* ``lasso``      f = 1/2 ||Ax - b||^2, g = lam ||.||_1 composed with F = I,
                 so g* is the indicator of the l-infinity ball of radius lam.
* ``gen_lasso``  same with F = D, the first difference (1-D total-variation
                 denoising when A = I).
* ``quad_pair``  f = mu/2 ||x - a||^2, g* = gamma/2 ||y - b_hat||^2 — both
                 terms strongly convex, saddle available in closed form from
                 the KKT system.

The lasso couplings I and D are matrix-free operators from
:mod:`~pdhglab.problems`, and with ``identity_a`` A = I is never formed
either, so such an instance builds in O(d); ``quad_pair`` keeps a dense F.
Strong-convexity moduli are recorded on the problem: mu = lambda_min(A^T A)
for the least-squares families (zero when A is column-rank-deficient, in
which case only the fixed regime applies; 1 for A = I), and the prescribed
(mu, gamma) for quadratic pairs.  Saddle points come from the KKT oracle
where closed form exists and from a certified high-accuracy reference run
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import TERMINATION_RESIDUAL, run
from .problems import (
    FirstDifference,
    Identity,
    PrimalDualPair,
    SaddleProblem,
    _norm,
    inclusion_residuals,
)
from .proximal import (
    QuadraticProxCache,
    linf_normal_cone_dist,
    project_linf_ball,
    prox_least_squares,
    prox_shifted_quadratic,
)
from .schedules import FIXED, make_schedule

LASSO = "lasso"
GEN_LASSO = "gen_lasso"
QUAD_PAIR = "quad_pair"
KINDS = (LASSO, GEN_LASSO, QUAD_PAIR)

#: Step budget, displacement-residual target and certificate tolerance of
#: :func:`reference_saddle`.
REFERENCE_BUDGET = 500_000
REFERENCE_TOL = 1e-12
REFERENCE_CERTIFY_TOL = 1e-8


@dataclass(frozen=True)
class InstanceSpec:
    """Seeded description of a benchmark instance; the seed fully determines
    every generated matrix and vector."""

    kind: str
    d1: int
    d2: Optional[int] = None
    seed: int = 0
    lam: Optional[float] = None
    mu: float = 1.0
    gamma: float = 1.0
    cond: float = 3.0
    m: Optional[int] = None
    identity_a: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown instance kind {self.kind!r}; expected one of {KINDS}")
        if self.d1 < 1:
            raise ValueError("d1 must be at least 1")
        if self.d2 is not None and self.d2 < 1:
            raise ValueError("d2 must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.kind == GEN_LASSO and self.d1 < 2:
            raise ValueError("gen_lasso needs d1 >= 2 for the difference operator")
        if self.kind in (LASSO, GEN_LASSO):
            if self.lam is None or self.lam <= 0:
                raise ValueError("lam must be positive for l1-regularized kinds")
        if self.cond < 1:
            raise ValueError("cond must be at least 1")
        if self.m is not None and self.m < 1:
            raise ValueError("m must be at least 1")


@dataclass(frozen=True, eq=False)
class BuiltInstance:
    """Materialized instance: the problem, its data, and (when available in
    closed form) its saddle point.  ``A`` is None for A = I
    (``identity_a``)."""

    spec: InstanceSpec
    problem: SaddleProblem
    saddle: Optional[PrimalDualPair] = None
    A: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None


@dataclass(frozen=True)
class SaddleCertificate:
    """Outcome of a saddle-condition check: PASS iff both inclusion
    residuals are within tolerance."""

    passed: bool
    r_x: float
    r_y: float


def make_generalized_lasso(
    A: Optional[np.ndarray], b: np.ndarray, lam: float, F
) -> SaddleProblem:
    """min 1/2 ||Ax - b||^2 + lam ||Fx||_1 in saddle form, for a coupling
    operator (or matrix) F.

    mu is recorded as lambda_min(A^T A); when A is column-rank-deficient the
    recorded mu is 0 and only the fixed regime applies.  ``A = None`` stands
    for A = I without forming it: the prox is (v + t b)/(1 + t), grad f is
    x - b and mu = 1.  gamma = 0 always (the dual term is an indicator).
    """
    b = np.asarray(b, dtype=float).ravel()
    if lam <= 0:
        raise ValueError("lam must be positive")
    if A is None:
        d1 = b.size
        prox_f = lambda v, t: prox_shifted_quadratic(b, 1.0, v, t)
        grad_f = lambda x: x - b
        mu = 1.0
    else:
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != b.size:
            raise ValueError(f"A has {A.shape[0]} rows but b has {b.size} entries")
        d1 = A.shape[1]
        cache = QuadraticProxCache(A, b)
        prox_f = lambda v, t: prox_least_squares(cache, v, t)
        grad_f = lambda x: A.T @ (A @ x - b)
        mu = cache.mu
    if F.shape[1] != d1:
        raise ValueError(f"F has {F.shape[1]} columns but the primal dimension is {d1}")
    return SaddleProblem(
        F=F,
        prox_f=prox_f,
        prox_gstar=lambda w, t: project_linf_ball(w, lam),
        mu=mu,
        gamma=0.0,
        grad_f=grad_f,
        subdiff_gstar=lambda y, w: linf_normal_cone_dist(y, w, lam),
    )


def make_quad_pair(
    a: np.ndarray, b_hat: np.ndarray, mu: float, gamma: float, F: np.ndarray
) -> tuple[SaddleProblem, PrimalDualPair]:
    """f = mu/2 ||x - a||^2 against g* = gamma/2 ||y - b_hat||^2; returns the
    problem and its exact saddle point, solved from the KKT system."""
    if mu <= 0 or gamma <= 0:
        raise ValueError("quad pairs need mu > 0 and gamma > 0")
    a = np.asarray(a, dtype=float).ravel()
    b_hat = np.asarray(b_hat, dtype=float).ravel()
    F = np.asarray(F, dtype=float)
    if F.shape != (b_hat.size, a.size):
        raise ValueError(f"F must be {b_hat.size} x {a.size}, got {F.shape}")
    problem = SaddleProblem(
        F=F,
        prox_f=lambda v, t: prox_shifted_quadratic(a, mu, v, t),
        prox_gstar=lambda w, t: prox_shifted_quadratic(b_hat, gamma, w, t),
        mu=mu,
        gamma=gamma,
        grad_f=lambda x: mu * (x - a),
        grad_gstar=lambda y: gamma * (y - b_hat),
    )
    return problem, _solve_kkt(mu, gamma, problem.F.matrix, a, b_hat)


def _solve_kkt(
    mu: float, gamma: float, F: np.ndarray, a: np.ndarray, b_hat: np.ndarray
) -> PrimalDualPair:
    """Exact saddle of a quadratic pair: the unique solution of
    mu(x - a) + F^T y = 0, gamma(y - b_hat) - F x = 0 (always nonsingular
    for positive moduli — the system's symmetric part is positive definite).
    A residual over 1e-10 (1 + ||rhs||), or nan, raises ValueError.
    """
    d2, d1 = F.shape
    K = np.zeros((d1 + d2, d1 + d2))
    K[:d1, :d1] = mu * np.eye(d1)
    K[:d1, d1:] = F.T
    K[d1:, :d1] = -F
    K[d1:, d1:] = gamma * np.eye(d2)
    # moduli near the largest double overflow the products: a nan residual
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.concatenate([mu * a, gamma * b_hat])
        z = np.linalg.solve(K, rhs)
        residual = _norm(K @ z - rhs)
    if not residual <= 1e-10 * (1.0 + _norm(rhs)):
        raise ValueError(f"KKT solve residual {residual} exceeds tolerance")
    return PrimalDualPair(x=z[:d1], y=z[d1:])


def certify_saddle(
    problem: SaddleProblem, candidate: PrimalDualPair, tol: float
) -> SaddleCertificate:
    """Check the saddle conditions 0 in @f(x*) + F^T y* and
    0 in @g*(y*) - F x* via the problem's residual oracles."""
    F = problem.F
    r_x, r_y = inclusion_residuals(
        problem, candidate.x, F.apply_T(candidate.y), candidate.y, -F.apply(candidate.x)
    )
    return SaddleCertificate(passed=r_x <= tol and r_y <= tol, r_x=r_x, r_y=r_y)


def reference_saddle(problem: SaddleProblem) -> PrimalDualPair:
    """High-accuracy saddle for instances without closed form: a fixed-regime
    run at the default step of up to REFERENCE_BUDGET steps to displacement
    residual REFERENCE_TOL, then certification to REFERENCE_CERTIFY_TOL.

    Raises RuntimeError if the run does not reach the residual target or the
    certificate fails.
    """
    sched = make_schedule(FIXED, problem.F_norm)
    init = PrimalDualPair(x=np.zeros(problem.d1), y=np.zeros(problem.d2))
    traj = run(
        problem, sched, init,
        budget=REFERENCE_BUDGET, tol=REFERENCE_TOL, record_every=REFERENCE_BUDGET,
    )
    if traj.termination != TERMINATION_RESIDUAL:
        raise RuntimeError(
            f"reference run stopped with termination={traj.termination!r} "
            f"before reaching residual {REFERENCE_TOL}"
        )
    candidate = traj.final
    cert = certify_saddle(problem, candidate, REFERENCE_CERTIFY_TOL)
    if not cert.passed:
        raise RuntimeError(
            f"reference point failed certification: r_x={cert.r_x}, r_y={cert.r_y} "
            f"(tol {REFERENCE_CERTIFY_TOL})"
        )
    return candidate


def conditioned_matrix(
    rng: np.random.Generator, m: int, n: int, cond: float
) -> np.ndarray:
    """m x n matrix with singular values geomspaced in [1/cond, 1]."""
    r = min(m, n)
    U, _ = np.linalg.qr(rng.standard_normal((m, r)))
    V, _ = np.linalg.qr(rng.standard_normal((n, r)))
    sing = np.geomspace(1.0, 1.0 / cond, r) if r > 1 else np.ones(1)
    return (U * sing) @ V.T  # U @ diag(sing) @ V.T without the diagonal's product


def piecewise_constant_signal(rng: np.random.Generator, d: int, segments: int = 5) -> np.ndarray:
    """Noisy piecewise-constant vector — the canonical TV-denoising target."""
    segments = min(segments, d)
    if segments <= 1:
        edges = np.array([], dtype=int)
    else:
        edges = np.sort(rng.choice(np.arange(1, d), size=segments - 1, replace=False))
    levels = rng.uniform(-2.0, 2.0, size=segments)
    signal = np.empty(d)
    start = 0
    for level, stop in zip(levels, np.append(edges, d)):
        signal[start:stop] = level
        start = stop
    return signal + 0.05 * rng.standard_normal(d)


def build_instance(spec: InstanceSpec) -> BuiltInstance:
    """Materialize a spec into a problem (bitwise-reproducible from the seed).

    Closed-form saddles are attached where they exist: quadratic pairs always
    (KKT oracle); lasso when lam >= ||A^T b||_inf (then x* = 0 and
    y* = A^T b); gen_lasso when lam >= ||y*||_inf for the constant
    x* = c 1, c = <A1, b>/||A1||^2, and y* = -cumsum(A^T (b - A x*))[:-1],
    the solution of D^T y* = A^T (b - A x*) for the first-difference D.  In
    each case y* is dual feasible and both saddle inclusions hold.  Other
    instances leave ``saddle`` as None; see :func:`reference_saddle`.
    """
    rng = np.random.default_rng(spec.seed)

    if spec.kind == QUAD_PAIR:
        d1 = spec.d1
        d2 = spec.d2 if spec.d2 is not None else d1
        if spec.mu <= 0 or spec.gamma <= 0:
            raise ValueError("quad_pair instances need mu > 0 and gamma > 0")
        a = rng.standard_normal(d1)
        b_hat = rng.standard_normal(d2)
        G = rng.standard_normal((d2, d1))
        F = G / np.linalg.norm(G, 2)
        problem, saddle = make_quad_pair(a, b_hat, spec.mu, spec.gamma, F)
        return BuiltInstance(spec=spec, problem=problem, saddle=saddle)

    d1 = spec.d1
    if spec.identity_a:
        A = None  # A = I
        b = piecewise_constant_signal(rng, d1)
    else:
        m = spec.m if spec.m is not None else 2 * d1
        A = conditioned_matrix(rng, m, d1, spec.cond)
        b = rng.standard_normal(m)

    F = Identity(d1) if spec.kind == LASSO else FirstDifference(d1)
    problem = make_generalized_lasso(A, b, spec.lam, F)

    # The candidate with F x* = 0 (x* = 0 for lasso, a constant for gen_lasso)
    # and F^T y* = A^T (b - A x*) is the saddle when y* lies in the dual ball.
    if spec.kind == LASSO:
        x_star, y_star = np.zeros(d1), (b if A is None else A.T @ b)
    else:
        A1 = np.ones(d1) if A is None else A.sum(axis=1)  # A @ 1
        x_star = np.full(d1, (A1 @ b) / (A1 @ A1))
        r = b - x_star if A is None else A.T @ (b - A @ x_star)
        y_star = -np.cumsum(r)[:-1]
    saddle = None
    if np.abs(y_star).max() <= spec.lam:
        saddle = PrimalDualPair(x=x_star, y=y_star)
    return BuiltInstance(
        spec=spec,
        problem=problem,
        saddle=saddle,
        A=A,
        b=b,
    )
