"""Span recording around pdhglab's layer boundaries, and the per-layer metrics.

:class:`Tracer` replaces public functions *at their import site* (the module
attribute the caller looks up at call time) with wrappers that record a span
``(name, start, end, parent, attrs)`` in memory.  Nothing inside ``src/`` is
edited: the hooks live in :data:`HOOKS`.  A hook whose target no longer
exists is skipped and reported, so a later refactor of the program degrades
the affected metrics to zero instead of breaking the benchmark.

:func:`layer_metrics` turns the recorded spans into the per-layer metrics
listed in ``BENCHMARK.json``.  ``schedules`` has no hook: its cost is counted
inside ``engine.run``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

# (module, attribute, span name).  One span name may cover several import
# sites of the same function.
HOOKS = (
    ("pdhglab.cli", "parse_config", "config.parse"),
    ("pdhglab.cli", "materialize", "config.materialize"),
    ("pdhglab.config", "materialize", "config.materialize"),
    ("pdhglab.config", "build_instance", "zoo.build_instance"),
    ("pdhglab.zoo", "operator_norm", "problems.operator_norm"),
    ("pdhglab.lyapunov", "operator_norm", "problems.operator_norm"),
    ("pdhglab.cli", "reference_saddle", "zoo.reference_saddle"),
    ("pdhglab.zoo", "run", "engine.reference_run"),
    ("pdhglab.cli", "run", "engine.run"),
    ("pdhglab.zoo", "prox_least_squares", "proximal.prox"),
    ("pdhglab.zoo", "project_linf_ball", "proximal.prox"),
    ("pdhglab.zoo", "prox_shifted_quadratic", "proximal.prox"),
    ("pdhglab.cli", "check_lemma", "lyapunov.check_lemma"),
    ("pdhglab.cli", "_lyapunov_series", "lyapunov.series"),
    ("pdhglab.cli", "lyapunov_varying", "lyapunov.E"),
    ("pdhglab.cli", "lyapunov_accelerated", "lyapunov.E"),
    ("pdhglab.lyapunov", "lyapunov_varying", "lyapunov.E"),
    ("pdhglab.lyapunov", "lyapunov_accelerated", "lyapunov.E"),
    ("pdhglab.cli", "numerical_error", "lyapunov.NE"),
    ("pdhglab.lyapunov", "numerical_error", "lyapunov.NE"),
    ("pdhglab.cli", "theorem_bound", "lyapunov.theorem_bound"),
    ("pdhglab.cli", "_check_ode_compare", "cli.check_ode_compare"),
    ("pdhglab.cli", "integrate", "dynamics.integrate"),
    ("pdhglab.dynamics", "hires_ode_step", "dynamics.hires_ode_step"),
    ("pdhglab.dynamics", "mass_matrix", "dynamics.mass_matrix"),
    ("pdhglab.cli", "fit_rate", "rates.fit"),
    ("pdhglab.cli", "contraction_factors", "rates.fit"),
    ("pdhglab.cli", "_write_csv", "cli.write_csv"),
)

ROOT = "cli.main"


def _trajectory_attrs(args, kwargs, result) -> dict:
    records = getattr(result, "records", ())
    if not records:
        return {"steps": 0, "records": 0, "d1": 0, "d2": 0}
    first, last = records[0], records[-1]
    return {
        "steps": last.k - first.k + 1,
        "records": len(records),
        "d1": first.x.size,
        "d2": first.y.size,
    }


def _csv_attrs(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


ATTRS = {
    "engine.run": _trajectory_attrs,
    "engine.reference_run": _trajectory_attrs,
    "cli.write_csv": _csv_attrs,
}


class Tracer:
    """In-memory span recorder.  ``spans[i]`` is ``[name, start, end, parent,
    attrs]`` with ``parent`` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.missing: list[str] = []
        self._restore: list = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        annotate = ATTRS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                attrs = annotate(args, kwargs, result) if annotate else None
                spans[idx] = [name, start, end, parent, attrs]

        return traced

    def install(self, hooks=HOOKS) -> None:
        for module_name, attr, name in hooks:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self.wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its direct children cover."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (s[2] - s[1]) - _union_length(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def _outermost(spans, name: str) -> list[int]:
    """Indices of spans called ``name`` with no ancestor of the same name."""
    out = []
    for i, span in enumerate(spans):
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def _total(spans, name: str) -> float:
    return sum(spans[i][2] - spans[i][1] for i in _outermost(spans, name))


def _count(spans, name: str) -> int:
    return sum(1 for s in spans if s[0] == name)


def _attr_sum(spans, name: str, key: str) -> int:
    return sum(s[4][key] for s in spans if s[0] == name and s[4])


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics (name -> value) from one traced command's spans.

    Times are inclusive of nested spans unless named ``self``.  Solve runs
    are the ``engine.run`` spans called directly by the command, so the short
    runs inside ``ode_compare`` add to ``engine.*`` but not to the
    per-record diagnostic ratios.
    """
    solves = [
        s for s in spans
        if s[0] == "engine.run" and s[3] >= 0 and spans[s[3]][0] == ROOT
    ]
    records = sum(s[4]["records"] for s in solves)
    engine_s = _total(spans, "engine.run")
    steps = _attr_sum(spans, "engine.run", "steps")
    prox = [s[2] - s[1] for s in spans if s[0] == "proximal.prox"]
    ode_s = _total(spans, "dynamics.integrate")
    ode_steps = _count(spans, "dynamics.hires_ode_step")
    self_s = self_times(spans)
    return {
        "config.parse_s": _total(spans, "config.parse"),
        "config.materialize_s": _total(spans, "config.materialize"),
        "config.instance_builds": _count(spans, "zoo.build_instance"),
        "zoo.build_instance_s": _total(spans, "zoo.build_instance"),
        "problems.operator_norm_s": _total(spans, "problems.operator_norm"),
        "problems.operator_norm_calls": _count(spans, "problems.operator_norm"),
        "zoo.reference_saddle_s": _total(spans, "zoo.reference_saddle"),
        "zoo.reference_steps": _attr_sum(spans, "engine.reference_run", "steps"),
        "engine.run_s": engine_s,
        "engine.steps": steps,
        "engine.us_per_step": 1e6 * _per(engine_s, steps),
        # Bytes the retained records hold: x_next, x_bar (d1) and y_next (d2)
        # per record; x and y alias the previous record's arrays.
        "engine.record_bytes": max(
            (s[4]["records"] * (2 * s[4]["d1"] + s[4]["d2"]) * 8 for s in solves),
            default=0,
        ),
        "proximal.prox_calls": len(prox),
        "proximal.prox_us": 1e6 * _per(sum(prox), len(prox)),
        "lyapunov.check_lemma_s": _total(spans, "lyapunov.check_lemma"),
        "lyapunov.series_s": _total(spans, "lyapunov.series"),
        "lyapunov.E_evals_per_record": _per(_count(spans, "lyapunov.E"), records),
        "lyapunov.NE_evals_per_record": _per(_count(spans, "lyapunov.NE"), records),
        "lyapunov.theorem_bound_calls": _count(spans, "lyapunov.theorem_bound"),
        "dynamics.integrate_s": ode_s,
        "dynamics.ode_steps": ode_steps,
        "dynamics.us_per_ode_step": 1e6 * _per(ode_s, ode_steps),
        "dynamics.mass_matrix_builds": _count(spans, "dynamics.mass_matrix"),
        "rates.fit_s": _total(spans, "rates.fit"),
        "rates.fit_calls": _count(spans, "rates.fit"),
        "cli.write_csv_s": _total(spans, "cli.write_csv"),
        "cli.csv_bytes": _attr_sum(spans, "cli.write_csv", "bytes"),
        "cli.self_s": sum(
            t for s, t in zip(spans, self_s)
            if s[0].startswith("cli.") and s[0] != "cli.write_csv"
        ),
    }
