"""Experiment configuration: one canonical JSON document, strictly parsed.

Unknown keys are rejected by dotted path ("schedule.momentum") and missing
required fields by name — silent typos in schedule constants would corrupt
experimental conclusions.  Non-finite numbers (NaN, Infinity, literals that
overflow a double) are rejected too: no schedule constant, tolerance or
modulus may be one.  Regime preconditions on derived constants (mu, gamma,
||F||) are checked by :func:`materialize_schedule` once the instance is
built, before any iteration.

Document shape (see the README for the full grammar):

    {
      "instance": {"kind": "quad_pair", "d": 4, "seed": 1, ...},
      "regime": "optimal_ss",
      "schedule": {"s": 0.45, "c": null, "tau": null, "sigma": null},
      "budget": 2000,
      "tol": 1e-10,
      "record_every": 1,
      "checks": ["lemma", "theorem"],
      "output": "results",
      "sweep": {"c": [0.5, 0.05], "s": [0.4]}
    }

Only "instance" and "regime" are required; everything else defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from .schedules import ACCELERATED, REGIMES, Schedule, make_schedule, schedule_at
from .zoo import KINDS, QUAD_PAIR, BuiltInstance, InstanceSpec, build_instance

CHECK_LEMMA = "lemma"
CHECK_THEOREM = "theorem"
CHECK_RATE_FIT = "rate_fit"
CHECK_ODE_COMPARE = "ode_compare"
CHECKS = (CHECK_LEMMA, CHECK_THEOREM, CHECK_RATE_FIT, CHECK_ODE_COMPARE)

DEFAULT_BUDGET = 10_000
DEFAULT_TOL = 1e-10
DEFAULT_RECORD_EVERY = 1


class ConfigError(ValueError):
    """A configuration document is malformed or violates a precondition."""


@dataclass(frozen=True)
class ExperimentConfig:
    instance: InstanceSpec
    regime: str
    s: Optional[float] = None
    c: Optional[float] = None
    tau: Optional[float] = None
    sigma: Optional[float] = None
    budget: int = DEFAULT_BUDGET
    tol: float = DEFAULT_TOL
    record_every: int = DEFAULT_RECORD_EVERY
    checks: tuple[str, ...] = ()
    output: Optional[str] = None
    sweep_c: Optional[tuple[float, ...]] = None
    sweep_s: Optional[tuple[float, ...]] = None


def _require_double(value, where: str) -> None:
    # An integer literal can be too large for a double.
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f'key "{where}" overflows a double') from None


def _require_keys(obj: dict, allowed: dict, path: str) -> None:
    for key in obj:
        where = f"{path}.{key}" if path else key
        if key not in allowed:
            raise ConfigError(f'unknown key "{where}"')
        expected = allowed[key]
        value = obj[key]
        if value is None:
            continue
        if expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f'key "{where}" must be a number')
            _require_double(value, where)
        elif not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)  # bool subclasses int
        ):
            kind = {int: "an integer", str: "a string", bool: "a boolean",
                    dict: "an object", list: "an array"}[expected]
            raise ConfigError(f'key "{where}" must be {kind}')


def _parse_instance(obj) -> InstanceSpec:
    if not isinstance(obj, dict):
        raise ConfigError('key "instance" must be an object')
    allowed = {
        "kind": str, "d": int, "d1": int, "d2": int, "seed": int,
        "lam": float, "mu": float, "gamma": float, "cond": float,
        "m": int, "identity_a": bool,
    }
    _require_keys(obj, allowed, "instance")
    if "kind" not in obj:
        raise ConfigError('missing required key "instance.kind"')
    if obj["kind"] not in KINDS:
        raise ConfigError(
            f'key "instance.kind" must be one of {list(KINDS)}, got {obj["kind"]!r}'
        )
    # A key the kind ignores would run silently with another value.
    kind = obj["kind"]
    for key in obj:
        if key in ("mu", "gamma", "d2") and kind != QUAD_PAIR:
            raise ConfigError(
                f'key "instance.{key}" applies to {QUAD_PAIR} only; {kind} derives it from the data'
            )
        if key in ("lam", "cond", "m", "identity_a") and kind == QUAD_PAIR:
            raise ConfigError(f'key "instance.{key}" does not apply to {QUAD_PAIR}')
        if key in ("cond", "m") and obj.get("identity_a"):
            raise ConfigError(f'key "instance.{key}" does not apply with "instance.identity_a"')
    if "d" in obj and "d1" in obj:
        raise ConfigError('keys "instance.d" and "instance.d1" are mutually exclusive')
    d1 = obj.get("d1", obj.get("d"))
    if d1 is None:
        raise ConfigError('missing required key "instance.d1" (or its alias "instance.d")')
    kwargs = dict(
        kind=obj["kind"],
        d1=d1,
        d2=obj.get("d2"),
        seed=obj.get("seed", 0),
        lam=obj.get("lam"),
        cond=obj.get("cond", 3.0),
        m=obj.get("m"),
        identity_a=obj.get("identity_a", False),
    )
    if "mu" in obj:
        kwargs["mu"] = obj["mu"]
    if "gamma" in obj:
        kwargs["gamma"] = obj["gamma"]
    try:
        return InstanceSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc


def _reject_constant(name: str):
    raise ConfigError(f"non-finite number {name} is not allowed")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text} overflows to {value}")
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document and check everything that needs no numerics:
    keys, types, ranges and which keys apply to which kind and regime.

    Regime preconditions that depend on derived quantities — e.g. mu = 0
    for a rank-deficient design matrix — are checked by
    :func:`materialize_schedule` once the instance is built, before any
    iteration.
    """
    try:
        obj = json.loads(
            text, parse_constant=_reject_constant, parse_float=_finite_float
        )
    except ConfigError:
        raise
    except ValueError as exc:  # malformed, or an integer over Python's digit limit
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError("config document must be a JSON object")

    allowed = {
        "instance": dict, "regime": str, "schedule": dict,
        "budget": int, "tol": float, "record_every": int,
        "checks": list, "output": str, "sweep": dict,
    }
    _require_keys(obj, allowed, "")
    for key in ("instance", "regime"):
        if key not in obj:
            raise ConfigError(f'missing required key "{key}"')

    instance = _parse_instance(obj["instance"])

    regime = obj["regime"]
    if regime not in REGIMES:
        raise ConfigError(f'key "regime" must be one of {list(REGIMES)}, got {regime!r}')

    sched_obj = obj.get("schedule") or {}
    _require_keys(sched_obj, {"s": float, "c": float, "tau": float, "sigma": float},
                  "schedule")

    sweep_obj = obj.get("sweep") or {}
    _require_keys(sweep_obj, {"c": list, "s": list}, "sweep")
    sweep_c = sweep_s = None
    for name in ("c", "s"):
        values = sweep_obj.get(name)
        if values is None:
            continue
        if not values:
            raise ConfigError(f'key "sweep.{name}" must be a nonempty array')
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f'key "sweep.{name}" must contain numbers only')
            _require_double(v, f"sweep.{name}")
        if name == "c":
            sweep_c = tuple(float(v) for v in values)
        else:
            sweep_s = tuple(float(v) for v in values)

    checks = obj.get("checks", [])
    for i, check in enumerate(checks):
        if check not in CHECKS:
            raise ConfigError(
                f'unknown check "{check}"; available checks are {list(CHECKS)}'
            )
        if check in checks[:i]:
            raise ConfigError(f'check "{check}" appears twice in "checks"')

    budget = obj.get("budget", DEFAULT_BUDGET)
    if budget < 1:
        raise ConfigError('key "budget" must be at least 1')
    tol = obj.get("tol", DEFAULT_TOL)
    if not tol > 0:
        raise ConfigError('key "tol" must be positive')
    record_every = obj.get("record_every", DEFAULT_RECORD_EVERY)
    if record_every < 1:
        raise ConfigError('key "record_every" must be at least 1')
    if regime == ACCELERATED and CHECK_LEMMA in checks and record_every > 1:
        raise ConfigError(
            'key "record_every" must be 1 for the accelerated lemma check, '
            "which needs consecutively recorded steps"
        )

    return ExperimentConfig(
        instance=instance,
        regime=regime,
        s=None if sched_obj.get("s") is None else float(sched_obj["s"]),
        c=None if sched_obj.get("c") is None else float(sched_obj["c"]),
        tau=None if sched_obj.get("tau") is None else float(sched_obj["tau"]),
        sigma=None if sched_obj.get("sigma") is None else float(sched_obj["sigma"]),
        budget=budget,
        tol=float(tol),
        record_every=record_every,
        checks=tuple(checks),
        output=obj.get("output"),
        sweep_c=sweep_c,
        sweep_s=sweep_s,
    )


def materialize_instance(config: ExperimentConfig) -> BuiltInstance:
    """Build the config's instance; a ValueError becomes a ConfigError.

    This is the only place an instance is built: once per command, a sweep
    included, before any iteration."""
    try:
        return build_instance(config.instance)
    except ValueError as exc:
        raise ConfigError(f"instance: {exc}") from exc


def materialize_schedule(config: ExperimentConfig, built: BuiltInstance) -> Schedule:
    """The config's schedule on a built instance, translating any
    regime-precondition violation into a ConfigError naming the parameter,
    and steps that leave the double range by the run's last post-state."""
    problem = built.problem
    try:
        schedule = make_schedule(
            config.regime, problem.F_norm, s=config.s, c=config.c, tau=config.tau,
            sigma=config.sigma, mu=problem.mu, gamma=problem.gamma,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the steps are monotone in k, and no run reaches k = 2^62
    last = schedule.k_start + min(config.budget, 2**62)
    tau, sigma, _ = schedule_at(schedule, last)
    if not (0.0 < tau < math.inf and 0.0 < sigma < math.inf):
        raise ConfigError(
            f"the steps at k = {last} are out of the double range: "
            f"tau = {tau:g}, sigma = {sigma:g}; lower budget"
        )
    return schedule


def materialize(config: ExperimentConfig) -> tuple[BuiltInstance, Schedule]:
    """The built instance and its schedule, each translating a ValueError into
    a ConfigError."""
    built = materialize_instance(config)
    return built, materialize_schedule(config, built)
