"""Unit tests for the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import sys
import types

import pytest

import checks
from run import PROBE_REF_S, layer_unit, reference_time, tail_percentile
from spans import Tracer, layer_metrics, self_times
from workloads import WORKLOADS

SUMMARY = """\
regime = varying_sc
F_norm = 1.999614480533167
run.termination = budget
run.last_k = 19999
run.final_primal_residual = 6.1015985025351161e-08
saddle.source = reference_run
rate_fit.slope = -4.3738697857797044
check.lemma = PASS (20000 transitions, min margin 1.000e-08 at k=19918)
check.rate_fit = FAIL (slope -1 = too shallow)
wrote results/sweep_summary.csv (16 cells)
exit_status = 1
"""


# --- summary parser --------------------------------------------------------

def test_parse_summary_keeps_key_value_lines_only():
    parsed = checks.parse_summary(SUMMARY)
    assert parsed["run.last_k"] == "19999"
    assert parsed["F_norm"] == "1.999614480533167"
    assert parsed["check.rate_fit"] == "FAIL (slope -1 = too shallow)"
    assert parsed["exit_status"] == "1"
    assert not any(key.startswith("wrote") for key in parsed)
    assert len(parsed) == 10


def test_verdict_is_the_status_word():
    assert checks.verdict("PASS (3 transitions)") == "PASS"
    assert checks.verdict("SKIPPED") == "SKIPPED"


def test_close_tolerance_nan_and_strings():
    assert checks.close("1.0", "1.00005")
    assert not checks.close("1.0", "1.001")
    assert checks.close("1e-13", "5e-13")  # under ATOL
    # A 0.1% change in extrapolation moves lasso-verify's final residual by
    # 7e-4 relative but only 3e-12 absolute: it must not hide under ATOL.
    assert not checks.close("3.8199835093920438e-09", "3.8172655191215916e-09")
    assert checks.close("nan", "nan")
    assert not checks.close("nan", "0")
    assert not checks.close("inf", "1e300")
    assert checks.close("", "")
    assert not checks.close("", "0")


# --- output comparator -----------------------------------------------------

def _run_obs(**changes):
    summary = checks.parse_summary(SUMMARY)
    summary.update(changes)
    return {
        "exit_status": 1,
        "summary": summary,
        "csv_header": ["k", "tau_k", "lyapunov"],
        "csv_rows": 3,
        "csv_sample": {"0": ["0", "0.5", "nan"], "1": ["1", "0.5", "2.0"], "2": ["2", "0.5", "1.0"]},
    }


def test_compare_accepts_identical_and_within_tolerance():
    exp = _run_obs()
    assert checks.compare(_run_obs(), exp) == []
    assert checks.compare(_run_obs(**{"rate_fit.slope": "-4.37390"}), exp) == []


def test_compare_flags_exact_fields_and_verdicts():
    exp = _run_obs()
    assert checks.compare(_run_obs(**{"run.last_k": "19998"}), exp)
    assert checks.compare(_run_obs(**{"check.lemma": "FAIL (x)"}), exp)
    assert checks.compare(_run_obs(**{"saddle.source": "kkt_oracle"}), exp)
    # A verdict's detail text may change without failing the check.
    assert checks.compare(_run_obs(**{"check.lemma": "PASS (other detail)"}), exp) == []
    missing = _run_obs()
    del missing["summary"]["check.lemma"]
    assert checks.compare(missing, exp)


def test_compare_flags_values_outside_tolerance():
    exp = _run_obs()
    assert checks.compare(_run_obs(**{"F_norm": "1.9"}), exp)
    assert checks.compare(_run_obs(**{"rate_fit.slope": "nan"}), exp)
    obs = _run_obs()
    obs["csv_sample"]["1"] = ["1", "0.5", "2.1"]
    assert any("lyapunov" in e for e in checks.compare(obs, exp))
    obs = _run_obs()
    obs["csv_rows"] = 4
    assert checks.compare(obs, exp)
    obs = _run_obs()
    obs["exit_status"] = 0
    assert checks.compare(obs, exp)


def _sweep_obs(slope="-2.5", code="0", verdict="PASS"):
    header = ["cell", "c", "s", "slope", "slope_residual", "geomean_ratio", "exit_status"]
    return {
        "exit_status": int(code),
        "sweep_header": header,
        "sweep_rows": [["cell_0_0", "0.5", "0.9", slope, "0.01", "0.99", code]],
        "cells": {"cell_0_0": {"run.termination": "budget", "check.lemma": verdict}},
    }


def test_compare_sweep_rows_and_cells():
    exp = _sweep_obs()
    assert checks.compare(_sweep_obs(), exp) == []
    assert checks.compare(_sweep_obs(slope="-2.50001"), exp) == []
    assert checks.compare(_sweep_obs(slope="-2.6"), exp)
    assert checks.compare(_sweep_obs(verdict="FAIL"), exp)
    obs = _sweep_obs()
    obs["sweep_rows"][0][6] = "1"
    assert checks.compare(obs, exp)


def test_check_verdicts_on_other_seeds():
    ok = {"exit_status": 0, "summary": {"run.termination": "budget",
                                         "check.lemma": "PASS", "check.rate_fit": "SKIPPED (short)"}}
    assert checks.check_verdicts(ok, ["lemma", "rate_fit"]) == []
    assert checks.check_verdicts(ok, ["lemma", "theorem"])  # theorem not reported
    bad = {"exit_status": 0, "summary": {"run.termination": "divergence_guard", "check.lemma": "PASS"}}
    assert checks.check_verdicts(bad, ["lemma"])
    assert checks.check_verdicts(_sweep_obs(verdict="FAIL"), ["lemma"])
    assert checks.check_verdicts(_sweep_obs(), ["lemma"]) == []
    assert checks.check_verdicts({"exit_status": 0, "summary": {"F_norm": "1"}}, ["lemma"]) == []
    assert checks.check_verdicts({"exit_status": 2, "summary": {}}, ["lemma"])


# --- span arithmetic -------------------------------------------------------

def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["config.parse", 1.0, 3.0, 0, None],
        ["engine.run", 2.0, 5.0, 0, None],  # overlaps config.parse by 1
        ["proximal.prox", 2.5, 4.5, 2, None],  # grandchild: not subtracted from root
        ["cli.write_csv", 9.0, 11.0, 0, None],  # clipped to the parent's end
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 4.0 - 1.0, 2.0, 1.0, 2.0, 2.0])


def _synthetic_spans():
    def traj(records, d1, d2, steps=None):
        return {"steps": steps or records, "records": records, "d1": d1, "d2": d2}
    return [
        ["cli.main", 0.0, 10.0, -1, None],
        ["config.parse", 0.0, 1.0, 0, None],
        ["config.materialize", 0.1, 0.9, 1, None],
        ["zoo.build_instance", 0.2, 0.8, 2, None],
        ["problems.operator_norm", 0.3, 0.5, 3, None],
        ["engine.run", 1.0, 3.0, 0, traj(4, 3, 2)],
        ["proximal.prox", 1.0, 1.5, 5, None],
        ["proximal.prox", 1.5, 2.5, 5, None],
        ["lyapunov.E", 3.0, 3.1, 0, None],
        ["lyapunov.E", 3.1, 3.2, 0, None],
        ["lyapunov.NE", 3.2, 3.3, 0, None],
        ["cli.check_ode_compare", 4.0, 8.0, 0, None],
        ["engine.run", 4.0, 5.0, 11, traj(10, 3, 2)],
        ["dynamics.integrate", 5.0, 7.0, 11, None],
        ["dynamics.hires_ode_step", 5.0, 6.0, 13, None],
        ["dynamics.mass_matrix", 5.0, 5.5, 14, None],
        ["cli.write_csv", 8.0, 9.0, 0, {"bytes": 123}],
    ]


def test_layer_metrics_counts_and_ratios():
    m = layer_metrics(_synthetic_spans())
    assert m["config.instance_builds"] == 1
    assert m["config.parse_s"] == pytest.approx(1.0)
    assert m["problems.operator_norm_calls"] == 1
    assert m["engine.steps"] == 14
    assert m["engine.run_s"] == pytest.approx(3.0)
    assert m["engine.us_per_step"] == pytest.approx(3e6 / 14)
    # Only the solve run called by the command counts as diagnosed records.
    assert m["lyapunov.E_evals_per_record"] == pytest.approx(0.5)
    assert m["lyapunov.NE_evals_per_record"] == pytest.approx(0.25)
    assert m["engine.record_bytes"] == 4 * (2 * 3 + 2) * 8
    assert m["proximal.prox_calls"] == 2
    assert m["proximal.prox_us"] == pytest.approx(0.75e6)
    assert m["dynamics.ode_steps"] == 1
    assert m["dynamics.mass_matrix_builds"] == 1
    assert m["dynamics.us_per_ode_step"] == pytest.approx(2e6)
    assert m["cli.csv_bytes"] == 123
    assert m["zoo.reference_steps"] == 0
    # main: 10 - children (1 + 2 + 0.3 + 4 + 1) = 1.7; ode_compare: 4 - 3 = 1.
    assert m["cli.self_s"] == pytest.approx(2.7)


def test_layer_metrics_nested_same_name_counted_once():
    spans = [
        ["cli.main", 0.0, 4.0, -1, None],
        ["config.materialize", 0.0, 2.0, 0, None],
        ["config.materialize", 0.5, 1.5, 1, None],
    ]
    m = layer_metrics(spans)
    assert m["config.materialize_s"] == pytest.approx(2.0)
    assert layer_metrics([])["engine.us_per_step"] == 0.0


def test_tracer_records_parents_and_reports_missing_hooks():
    module = types.ModuleType("fake_layer")
    module.outer = lambda x: module.inner(x) + 1
    module.inner = lambda x: 2 * x
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        original = module.inner
        tracer.install((
            ("fake_layer", "outer", "cli.outer"),
            ("fake_layer", "inner", "engine.inner"),
            ("fake_layer", "gone", "engine.gone"),
        ))
        assert module.outer(3) == 7
        tracer.uninstall()
        assert module.inner is original
    finally:
        del sys.modules["fake_layer"]
    assert tracer.missing == ["fake_layer.gone"]
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("cli.outer", -1), ("engine.inner", 0)]
    assert all(s[1] <= s[2] for s in tracer.spans)


# --- run.py helpers --------------------------------------------------------

def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile([float(i) for i in range(11)]) == (100.0 / 11, 0.0)
    p, value = tail_percentile([float(i) for i in range(20)])
    assert p == pytest.approx(50.0) and value == 9.0


def test_reference_time_scales_each_slice_by_its_probe():
    assert reference_time([]) == 0.0
    # At the reference speed a slice counts as it ran.
    assert reference_time([(0.05, PROBE_REF_S, PROBE_REF_S)]) == pytest.approx(0.05)
    # A slice on a CPU running at half speed counts half; the probe time of a
    # slice is the mean of the probes before and after it.
    slow = [(0.1, 2 * PROBE_REF_S, 2 * PROBE_REF_S), (0.1, PROBE_REF_S, 3 * PROBE_REF_S)]
    assert reference_time(slow) == pytest.approx(0.1)
    mixed = [(0.05, PROBE_REF_S, PROBE_REF_S), (0.2, 2 * PROBE_REF_S, 2 * PROBE_REF_S)]
    assert reference_time(mixed) == pytest.approx(0.15)


def test_layer_units():
    assert layer_unit("engine.run_s") == "s"
    assert layer_unit("engine.us_per_step") == "us"
    assert layer_unit("proximal.prox_us") == "us"
    assert layer_unit("cli.csv_bytes") == "B"
    assert layer_unit("lyapunov.E_evals_per_record") == "count/record"
    assert layer_unit("engine.steps") == "count"


def test_workload_configs_carry_the_seed():
    for workload in WORKLOADS.values():
        doc = json.loads(workload.config_text(5, "out"))
        assert doc["instance"]["seed"] == workload.base_seed + 5
        assert doc["output"] == "out"
        assert "seed" not in workload.config["instance"]
