"""Output checks for benchmark operations.

An operation is one ``pdhglab`` command.  Its *observation* is a JSON-able
dict built from what the command left behind: exit status, the parsed
``key = value`` summary, sampled ``trajectory.csv`` rows, and for a sweep the
``sweep_summary.csv`` rows plus every cell's ``summary.txt``.

On the default seed an observation is compared with the one stored in
``expected.json`` (recorded at the seed commit):

* exactly: exit status, every ``check.*`` verdict, ``run.termination``,
  ``run.last_k``, ``saddle.source``, CSV row counts and the sweep's cell,
  c, s and exit_status columns;
* within ``|a - b| <= RTOL * max(|a|, |b|) + ATOL``: ``F_norm``, the final
  residuals, ``rate_fit.slope``, ``contraction.geomean_ratio``, the sampled
  CSV rows and the sweep's slope/residual/geomean columns.

Outputs are bitwise repeatable at a fixed BLAS thread count but not across
thread counts (``rate_fit.slope`` on ``lasso-verify`` moves by ~2e-5
relative between 1 and 2 threads), so values are never compared bitwise.

On any other seed only the exit status and the verdicts are checked: exit 0,
every requested check reported as PASS or SKIPPED, and no run stopped by the
divergence guard.
"""

from __future__ import annotations

import csv
import math
import os

RTOL = 1e-4
ATOL = 1e-12

EXACT_KEYS = ("run.termination", "run.last_k", "saddle.source")
TOL_KEYS = (
    "F_norm",
    "run.final_primal_residual",
    "run.final_dual_residual",
    "rate_fit.slope",
    "contraction.geomean_ratio",
)
SWEEP_EXACT_COLUMNS = ("cell", "c", "s", "exit_status")
OK_VERDICTS = ("PASS", "SKIPPED")
DIVERGED = "divergence_guard"


def parse_summary(text: str) -> dict[str, str]:
    """``key = value`` lines of a pdhglab summary; other lines are ignored."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep and key and " " not in key:
            out[key] = value.strip()
    return out


def verdict(value: str) -> str:
    """The status word of a ``check.*`` value such as ``PASS (3 transitions)``."""
    return value.split(" ", 1)[0]


def close(a: str, b: str, rtol: float = RTOL, atol: float = ATOL) -> bool:
    """Numeric strings within tolerance (nan equals nan); others compare exactly."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rtol * max(abs(x), abs(y)) + atol


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def sample_rows(rows: list[list[str]]) -> dict[str, list[str]]:
    """First, second, middle and last data rows, keyed by position."""
    n = len(rows)
    return {str(i): rows[i] for i in sorted({0, min(1, n - 1), n // 2, n - 1}) if n}


def observe(command: str, exit_status: int, stdout: str, out_dir: str) -> dict:
    """Observation of one finished pdhglab command (see module docstring)."""
    obs: dict = {"exit_status": exit_status}
    if command == "sweep":
        path = os.path.join(out_dir, "sweep_summary.csv")
        rows = _read_csv(path) if os.path.exists(path) else []
        obs["sweep_header"] = rows[0] if rows else []
        obs["sweep_rows"] = rows[1:]
        cells = {}
        for row in rows[1:]:
            cell_path = os.path.join(out_dir, row[0], "summary.txt")
            if os.path.exists(cell_path):
                with open(cell_path) as fh:
                    cells[row[0]] = parse_summary(fh.read())
        obs["cells"] = cells
        return obs
    obs["summary"] = parse_summary(stdout)
    if command == "run":
        path = os.path.join(out_dir, "trajectory.csv")
        rows = _read_csv(path) if os.path.exists(path) else []
        obs["csv_header"] = rows[0] if rows else []
        obs["csv_rows"] = len(rows) - 1 if rows else 0
        obs["csv_sample"] = sample_rows(rows[1:])
    return obs


def _compare_summary(obs: dict, exp: dict, where: str) -> list[str]:
    errors = []
    for key in EXACT_KEYS:
        if key in exp and obs.get(key) != exp[key]:
            errors.append(f"{where}{key}: {obs.get(key)!r} != expected {exp[key]!r}")
    obs_checks = {k: verdict(v) for k, v in obs.items() if k.startswith("check.")}
    exp_checks = {k: verdict(v) for k, v in exp.items() if k.startswith("check.")}
    if obs_checks != exp_checks:
        errors.append(f"{where}verdicts {obs_checks} != expected {exp_checks}")
    for key in TOL_KEYS:
        if key not in exp:
            continue
        if key not in obs or not close(obs[key], exp[key]):
            errors.append(f"{where}{key}: {obs.get(key)!r} not within tolerance of {exp[key]!r}")
    return errors


def _compare_rows(obs_rows, exp_rows, exact_cols, header, where) -> list[str]:
    if len(obs_rows) != len(exp_rows):
        return [f"{where}{len(obs_rows)} rows != expected {len(exp_rows)}"]
    errors = []
    for obs_row, exp_row in zip(obs_rows, exp_rows):
        if len(obs_row) != len(exp_row):
            errors.append(f"{where}row {obs_row[:1]} has {len(obs_row)} fields")
            continue
        for name, a, b in zip(header, obs_row, exp_row):
            ok = a == b if name in exact_cols else close(a, b)
            if not ok:
                errors.append(f"{where}row {exp_row[0]} {name}: {a!r} != expected {b!r}")
    return errors


def compare(obs: dict, exp: dict) -> list[str]:
    """Mismatches of an observation against the stored one; empty when equal."""
    errors = []
    if obs["exit_status"] != exp["exit_status"]:
        errors.append(f"exit status {obs['exit_status']} != expected {exp['exit_status']}")
    if "sweep_rows" in exp:
        if obs.get("sweep_header") != exp["sweep_header"]:
            errors.append("sweep_summary.csv header differs")
        errors += _compare_rows(
            obs.get("sweep_rows", []), exp["sweep_rows"], SWEEP_EXACT_COLUMNS,
            exp["sweep_header"], "sweep_summary.csv ",
        )
        for cell, exp_summary in exp["cells"].items():
            errors += _compare_summary(obs["cells"].get(cell, {}), exp_summary, f"{cell} ")
        return errors
    errors += _compare_summary(obs.get("summary", {}), exp["summary"], "")
    if "csv_rows" in exp:
        if obs.get("csv_header") != exp["csv_header"]:
            errors.append("trajectory.csv header differs")
        if obs.get("csv_rows") != exp["csv_rows"]:
            errors.append(f"trajectory.csv has {obs.get('csv_rows')} rows != expected {exp['csv_rows']}")
        else:
            sample = obs.get("csv_sample", {})
            errors += _compare_rows(
                [sample.get(i, []) for i in exp["csv_sample"]],
                list(exp["csv_sample"].values()), ("k",), exp["csv_header"],
                "trajectory.csv ",
            )
    return errors


def _verdict_errors(summary: dict, checks, where: str) -> list[str]:
    errors = []
    for name in checks:
        got = verdict(summary.get(f"check.{name}", "missing"))
        if got not in OK_VERDICTS:
            errors.append(f"{where}check.{name} = {got}")
    if summary.get("run.termination") == DIVERGED:
        errors.append(f"{where}run stopped by the divergence guard")
    return errors


def check_verdicts(obs: dict, checks) -> list[str]:
    """Exit status and verdict checks that hold on every seed."""
    errors = []
    if obs["exit_status"] != 0:
        errors.append(f"exit status {obs['exit_status']}")
    if "sweep_rows" in obs:
        if not obs["sweep_rows"]:
            errors.append("sweep_summary.csv has no cells")
        for row in obs["sweep_rows"]:
            summary = obs["cells"].get(row[0])
            if summary is None:
                errors.append(f"{row[0]} wrote no summary.txt")
            else:
                errors += _verdict_errors(summary, checks, f"{row[0]} ")
        return errors
    if "summary" in obs and "run.termination" in obs["summary"]:
        errors += _verdict_errors(obs["summary"], checks, "")
    return errors
