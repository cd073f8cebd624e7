"""Config parsing: strict validation, defaults, round-trips, preconditions.

The parser's job is to refuse anything it does not fully understand —
a silently ignored typo in a schedule constant would invalidate every
conclusion drawn from the run.  Regime preconditions on derived constants
are caught when the instance is built (``materialize``), before any
iterations are spent.
"""

import json
import pickle

import pytest

from pdhglab.config import (
    ConfigError,
    ExperimentConfig,
    materialize,
    parse_config,
)
from pdhglab.schedules import ACCELERATED, FIXED, OPTIMAL_SS, VARYING_SC


def make_doc(**overrides):
    doc = {
        "instance": {"kind": "quad_pair", "d": 4, "seed": 1},
        "regime": "fixed",
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# minimal documents and defaults


def test_parse_minimal():
    config = parse(make_doc())
    assert config.regime == FIXED
    assert config.instance.kind == "quad_pair"
    assert config.instance.d1 == 4
    assert config.instance.seed == 1
    assert config.budget == 10_000
    assert config.tol == 1e-10
    assert config.record_every == 1
    assert config.checks == ()
    assert config.output is None
    assert config.s is None and config.c is None
    assert config.tau is None and config.sigma is None
    assert config.sweep_c is None and config.sweep_s is None


def test_explicit_fields_override_defaults():
    doc = make_doc(
        regime="varying_sc",
        schedule={"s": 0.4, "c": 0.25},
        budget=500,
        tol=1e-6,
        record_every=10,
        checks=["lemma", "theorem"],
        output="results",
    )
    config = parse(doc)
    assert config.regime == VARYING_SC
    assert config.s == 0.4 and config.c == 0.25
    assert config.budget == 500
    assert config.tol == 1e-6
    assert config.record_every == 10
    assert config.checks == ("lemma", "theorem")
    assert config.output == "results"


def test_materialize_builds_instance_and_schedule():
    config = parse(make_doc(schedule={"s": 0.5}))
    built, schedule = materialize(config)
    assert built.problem.d1 == 4
    assert schedule.regime == FIXED
    assert schedule.s == 0.5


# ---------------------------------------------------------------------------
# strictness: unknown keys are named by dotted path


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match='unknown key "verbose"'):
        parse(make_doc(verbose=True))


def test_unknown_schedule_key_rejected_by_dotted_path():
    with pytest.raises(ConfigError, match='unknown key "schedule.momentum"'):
        parse(make_doc(schedule={"momentum": 0.9}))


def test_unknown_instance_key_rejected_by_dotted_path():
    doc = make_doc()
    doc["instance"]["rho"] = 2.0
    with pytest.raises(ConfigError, match='unknown key "instance.rho"'):
        parse(doc)


def test_unknown_sweep_key_rejected():
    with pytest.raises(ConfigError, match='unknown key "sweep.theta"'):
        parse(make_doc(sweep={"theta": [1.0]}))


def test_invalid_json_rejected():
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config("{not json")
    with pytest.raises(ConfigError, match="JSON object"):
        parse_config("[1, 2, 3]")


# ---------------------------------------------------------------------------
# required keys, aliases, types


def test_missing_required_keys_named():
    with pytest.raises(ConfigError, match='missing required key "regime"'):
        parse({"instance": {"kind": "quad_pair", "d": 4}})
    with pytest.raises(ConfigError, match='missing required key "instance"'):
        parse({"regime": "fixed"})
    with pytest.raises(ConfigError, match='missing required key "instance.kind"'):
        parse({"instance": {"d": 4}, "regime": "fixed"})
    with pytest.raises(ConfigError, match="instance.d1"):
        parse({"instance": {"kind": "quad_pair"}, "regime": "fixed"})


def test_d_is_an_alias_for_d1():
    via_alias = parse(make_doc())
    doc = make_doc()
    doc["instance"] = {"kind": "quad_pair", "d1": 4, "seed": 1}
    via_full = parse(doc)
    assert via_alias == via_full


def test_d_and_d1_are_mutually_exclusive():
    doc = make_doc()
    doc["instance"] = {"kind": "quad_pair", "d": 4, "d1": 4}
    with pytest.raises(ConfigError, match="mutually exclusive"):
        parse(doc)


def test_type_errors_are_specific():
    with pytest.raises(ConfigError, match='"budget" must be an integer'):
        parse(make_doc(budget="many"))
    with pytest.raises(ConfigError, match='"tol" must be a number'):
        parse(make_doc(tol="tiny"))
    with pytest.raises(ConfigError, match='"instance" must be an object'):
        parse({"instance": "quad_pair", "regime": "fixed"})
    # booleans are not numbers, even though bool subclasses int
    with pytest.raises(ConfigError, match='"schedule.s" must be a number'):
        parse(make_doc(schedule={"s": True}))


def test_unknown_regime_and_kind_rejected():
    with pytest.raises(ConfigError, match='"regime" must be one of'):
        parse(make_doc(regime="adaptive"))
    doc = make_doc()
    doc["instance"]["kind"] = "logistic"
    with pytest.raises(ConfigError, match='"instance.kind" must be one of'):
        parse(doc)


def test_run_parameter_bounds():
    with pytest.raises(ConfigError, match='"budget" must be at least 1'):
        parse(make_doc(budget=0))
    with pytest.raises(ConfigError, match='"tol" must be positive'):
        parse(make_doc(tol=0.0))
    with pytest.raises(ConfigError, match='"record_every" must be at least 1'):
        parse(make_doc(record_every=0))


def test_accelerated_lemma_needs_every_step_recorded():
    with pytest.raises(ConfigError, match='"record_every" must be 1 for the accelerated lemma'):
        parse(make_doc(regime="accelerated", record_every=3, checks=["lemma"]))
    # without the lemma check, or in another regime, a stride is fine
    assert parse(make_doc(regime="accelerated", record_every=3)).record_every == 3
    assert parse(make_doc(regime="varying_sc", record_every=3, checks=["lemma"])).record_every == 3


def test_checks_are_validated():
    config = parse(make_doc(checks=["lemma", "theorem", "rate_fit", "ode_compare"]))
    assert config.checks == ("lemma", "theorem", "rate_fit", "ode_compare")
    with pytest.raises(ConfigError, match='unknown check "spectral"'):
        parse(make_doc(checks=["lemma", "spectral"]))


def test_sweep_arrays():
    config = parse(make_doc(regime="varying_sc", sweep={"c": [0.5, 0.05], "s": [0.4]}))
    assert config.sweep_c == (0.5, 0.05)
    assert config.sweep_s == (0.4,)
    with pytest.raises(ConfigError, match='"sweep.c" must be a nonempty array'):
        parse(make_doc(sweep={"c": []}))
    with pytest.raises(ConfigError, match='"sweep.s" must contain numbers only'):
        parse(make_doc(sweep={"s": [0.4, "auto"]}))


HUGE = 10**400  # an integer literal no double can hold


@pytest.mark.parametrize(
    "key, doc",
    [
        ("schedule.s", make_doc(schedule={"s": HUGE})),
        ("schedule.tau", make_doc(schedule={"tau": HUGE, "sigma": 0.1})),
        ("sweep.c", make_doc(regime="varying_sc", sweep={"c": [0.5, HUGE]})),
        ("sweep.s", make_doc(sweep={"s": [-HUGE]})),
        ("tol", make_doc(tol=HUGE)),
        ("instance.lam", {"instance": {"kind": "lasso", "d": 4, "lam": HUGE},
                          "regime": "fixed"}),
        ("instance.mu", {"instance": {"kind": "quad_pair", "d": 4, "mu": HUGE},
                         "regime": "fixed"}),
        ("instance.gamma", {"instance": {"kind": "quad_pair", "d": 4, "gamma": HUGE},
                            "regime": "fixed"}),
        ("instance.cond", {"instance": {"kind": "quad_pair", "d": 4, "cond": HUGE},
                           "regime": "fixed"}),
    ],
)
def test_integer_overflowing_a_double_rejected(key, doc):
    with pytest.raises(ConfigError, match=f'"{key}" overflows a double'):
        parse(doc)


def test_integer_over_the_digit_limit_rejected():
    text = json.dumps(make_doc(schedule={"s": "NUMBER"})).replace('"NUMBER"', "1" * 5000)
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(text)


@pytest.mark.parametrize("kind", ["lasso", "gen_lasso"])
@pytest.mark.parametrize("key", ["mu", "gamma"])
def test_moduli_rejected_outside_quad_pair(kind, key):
    # lasso-type moduli come from the data; a given value would be ignored
    doc = {"instance": {"kind": kind, "d": 4, "lam": 0.5, key: 3.0}, "regime": "fixed"}
    with pytest.raises(ConfigError, match=f'"instance.{key}" applies to quad_pair only'):
        parse(doc)


# ---------------------------------------------------------------------------
# round trips: a parsed config is a plain value that pickles and compares equal


def round_trip(doc):
    config = parse(doc)
    again = pickle.loads(pickle.dumps(config))
    assert again == config
    return config


def test_round_trip_minimal():
    round_trip(make_doc())


def test_round_trip_full_lasso():
    round_trip(
        {
            "instance": {"kind": "lasso", "d1": 6, "seed": 7, "lam": 0.3, "cond": 5.0},
            "regime": "varying_sc",
            "schedule": {"s": 0.02, "c": 0.01},
            "budget": 300,
            "tol": 1e-8,
            "record_every": 5,
            "checks": ["lemma", "rate_fit"],
            "output": "out/run7",
        }
    )


def test_round_trip_sweep():
    round_trip(
        make_doc(
            regime="accelerated",
            sweep={"c": [0.6, 0.3, 0.1], "s": [0.5, 0.25]},
        )
    )


def test_round_trip_generalized_lasso():
    round_trip(
        {
            "instance": {
                "kind": "gen_lasso",
                "d1": 12,
                "seed": 0,
                "lam": 0.2,
                "identity_a": True,
            },
            "regime": "fixed",
        }
    )


def test_round_trip_explicit_quad_moduli():
    doc = make_doc(regime="optimal_ss")
    doc["instance"] = {"kind": "quad_pair", "d": 3, "seed": 2, "mu": 4.0, "gamma": 0.5}
    config = round_trip(doc)
    assert config.instance.mu == 4.0
    assert config.instance.gamma == 0.5


# ---------------------------------------------------------------------------
# regime preconditions are checked when the instance is built, before any
# iteration, naming the violation


def test_varying_sc_c_boundary_rejected():
    # quad_pair default mu = 1; c = 2*mu sits on the open boundary
    doc = make_doc(regime="varying_sc", schedule={"c": 2.0})
    with pytest.raises(ConfigError, match=r"c must lie strictly inside \(0, 2\*mu\)"):
        materialize(parse(doc))


def test_accelerated_c_boundary_rejected():
    doc = make_doc(regime="accelerated", schedule={"c": 1.0})
    with pytest.raises(ConfigError, match=r"c must lie strictly inside \(0, mu\)"):
        materialize(parse(doc))


def test_optimal_ss_requires_gamma():
    # lasso instances have gamma = 0: no dual strong convexity to exploit
    doc = {
        "instance": {"kind": "lasso", "d1": 5, "seed": 0, "lam": 0.5},
        "regime": "optimal_ss",
    }
    with pytest.raises(ConfigError, match="gamma must be positive"):
        materialize(parse(doc))


def test_varying_sc_requires_mu():
    # a short-and-wide design matrix is column-rank-deficient, so mu = 0
    doc = {
        "instance": {"kind": "lasso", "d1": 5, "m": 3, "seed": 0, "lam": 0.5},
        "regime": "varying_sc",
    }
    with pytest.raises(ConfigError, match="mu must be positive"):
        materialize(parse(doc))


def test_inadmissible_step_rejected():
    # quad_pair coupling is normalized to unit operator norm
    doc = make_doc(schedule={"s": 1.5})
    with pytest.raises(ConfigError, match="admissibility"):
        materialize(parse(doc))


def test_fixed_regime_rejects_c():
    doc = make_doc(schedule={"c": 0.5})
    with pytest.raises(ConfigError, match="c is not a fixed-regime parameter"):
        materialize(parse(doc))


def test_config_is_a_plain_value():
    config = parse(make_doc())
    assert isinstance(config, ExperimentConfig)
    with pytest.raises(Exception):
        config.budget = 5  # frozen
