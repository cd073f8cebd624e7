"""A seeded config fuzzer guards the exit-status contract.

Each case draws a config from a fixed seed (kind, sizes, moduli, regime,
schedule constants, checks, budget, stride, tolerance and command, with
values up to the ends of the double range) and runs it through
``cli.main`` in process.  Whatever the config, the run either works (exit 0
or 1) or stops with a named error (exit 2): no traceback, no internal error
(exit 3), no RuntimeWarning, and no check says PASS on a nan or an inf.

Budgets are tiny, or so large that their columns cannot be reserved (a
stride past them goes only with a tiny budget, since a run that records
little may take its whole budget).  ``ode_compare`` is kept wherever it is
drawn: its reference is one SVD of F and one closed-form evaluation per
level, and its PDHG runs take ceil(10 / s) steps per level.

Run as a script, ``PYTHONPATH=src python tests/test_fuzz.py START STOP``
draws the cases of seeds START to STOP - 1, prints every seed that breaks
the contract and the five slowest seeds, and exits 1 if any seed broke it.
"""

import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile
import time
import warnings

import numpy as np
import pytest

from pdhglab import cli

EXTREME = (0, 5e-324, 1e-300, 1e-170, 1e-8, 1e8, 1e170, 1e300, 1.7e308, -1, -1e300)
MODERATE = (0.05, 0.1, 0.3, 0.5, 1.0, 2.0)
REGIME_KEYS = {"fixed": ("s", "tau"), "optimal_ss": ("s",)}
REGIMES = ("fixed", "varying_sc", "accelerated", "optimal_ss")
CHECKS = ("lemma", "theorem", "rate_fit", "ode_compare")
COMMANDS = ("run", "verify", "sweep", "info")


def number(rng):
    """A moderate value, or one in four times an extreme one."""
    pool = EXTREME if rng.random() < 0.25 else MODERATE
    return pool[rng.integers(len(pool))]


def draw(seed, out):
    """The command and config document of case ``seed``."""
    rng = np.random.default_rng(seed)
    kind = ("quad_pair", "lasso", "gen_lasso")[rng.integers(3)]
    d_min = 1 if kind == "quad_pair" else 2
    instance = {"kind": kind, "d": int(rng.integers(d_min, 6)), "seed": int(rng.integers(4))}
    if kind == "quad_pair":
        instance.update({key: number(rng) for key in ("mu", "gamma") if rng.random() < 0.5})
    else:
        instance["lam"] = number(rng)
        if rng.random() < 0.5:
            instance["identity_a"] = True
        elif rng.random() < 0.3:
            instance["cond"] = abs(number(rng)) + 1.0
        elif rng.random() < 0.3:
            instance["m"] = int(rng.integers(0, 8))
    command = COMMANDS[rng.integers(len(COMMANDS))]
    regime = REGIMES[rng.integers(len(REGIMES))]
    # the keys the regime takes, and now and then all of them
    keys = REGIME_KEYS.get(regime, ("s", "c"))
    if rng.random() < 0.1:
        keys = ("s", "c", "tau", "sigma")
    schedule = {key: number(rng) for key in keys if rng.random() < 0.3}
    if "tau" in schedule:
        schedule["sigma"] = number(rng)
    budget = (1, 2, 7, 40, 10**20)[rng.integers(5)]
    doc = {
        "instance": instance, "regime": regime, "schedule": schedule, "budget": budget,
        "record_every": (1, 1, 1, 3, 10**26 if budget < 100 else 1)[rng.integers(5)],
        "checks": [check for check in CHECKS if rng.random() < 0.5], "output": str(out),
    }
    if rng.random() < 0.3:
        doc["tol"] = number(rng)
    if command == "sweep":
        doc["sweep"] = {
            key: [number(rng) for _ in range(rng.integers(1, 3))]
            for key in ("c", "s") if key in keys and rng.random() < 0.6
        }
    return command, doc


@pytest.mark.parametrize("seed", range(400))
def test_a_drawn_config_runs_or_exits_2_with_a_named_error(tmp_path, seed):
    out = tmp_path / "out"
    command, doc = draw(seed, out)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, str(path)])
    context = f"{command} {json.dumps(doc)}: {stderr.getvalue()}"
    assert code in (0, 1, 2), context
    assert "Traceback" not in stderr.getvalue(), context
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], context
    summaries = [stdout.getvalue()] + [p.read_text() for p in out.rglob("summary.txt")]
    for line in "\n".join(summaries).splitlines():
        if re.match(r"check\.\w+ = PASS", line):
            assert not re.search(r"\b(nan|inf)\b", line.lower()), context


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="the quadratic prox (v + t m a)/(1 + t m) warns when t m overflows inside a step",
)
@pytest.mark.parametrize("seed", [3580, 6393])
def test_a_drawn_config_whose_prox_overflows_in_a_step_runs_quietly(tmp_path, seed):
    # under accelerated steps, seed 3580: a single quad_pair run with
    # gamma = 1.7e308; seed 6393: a two-cell sweep, so a stacked run, with
    # mu = 1.7e308
    test_a_drawn_config_runs_or_exits_2_with_a_named_error(tmp_path, seed)


def main(argv):
    if len(argv) != 2:
        print("usage: PYTHONPATH=src python tests/test_fuzz.py START STOP", file=sys.stderr)
        return 2
    start, stop = map(int, argv)
    broken, times = [], []
    for seed in range(start, stop):
        with tempfile.TemporaryDirectory() as tmp:
            began = time.perf_counter()
            try:
                test_a_drawn_config_runs_or_exits_2_with_a_named_error(pathlib.Path(tmp), seed)
            except AssertionError as exc:
                broken.append(seed)
                print(f"seed {seed} breaks the contract: {exc}", flush=True)
            times.append((time.perf_counter() - began, seed))
    print(f"{len(broken)} of {stop - start} seeds break the contract")
    for elapsed, seed in sorted(times, reverse=True)[:5]:
        print(f"seed {seed}: {elapsed:.2f} s")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
