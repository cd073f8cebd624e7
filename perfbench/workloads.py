"""The four benchmark workloads and the configs they hand to ``pdhglab``.

Each workload is one CLI command on one generated JSON config.  The
benchmark's ``--seed`` is added to the workload's base instance seed, so
``--seed 0`` reproduces the configs whose outputs are stored in
``expected.json``.  Every workload is serial (``PDHGLAB_JOBS`` unset, BLAS
pinned to one thread by the caller).

``theorem`` is left out of ``lasso-verify`` and ``tv-run`` because on a
reference-run saddle it currently exits through a traceback (ROADMAP open
item 2b); the fix for that adds the check back as its own benchmark change.
``tv-run`` stays at d=80, the largest first-difference instance whose
power-iteration operator norm converges today (ROADMAP 2c).  Why each
workload was chosen is in ``README.md`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # pdhglab subcommand: run, sweep or verify
    base_seed: int
    config: dict  # config document without instance.seed and output
    # SpeedProbe method that times the CPU while the command runs: the one
    # whose work slows like the command's when a neighbour loads the core.
    probe: str

    def config_text(self, seed: int, output: str) -> str:
        """The config document for benchmark seed ``seed``, writing to ``output``."""
        doc = json.loads(json.dumps(self.config))
        doc["instance"]["seed"] = self.base_seed + seed
        doc["output"] = output
        return json.dumps(doc, indent=2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quad-sweep",
            command="sweep",
            base_seed=1,
            config={
                "instance": {"kind": "quad_pair", "d": 4},
                "regime": "varying_sc",
                "budget": 2000,
                "checks": ["lemma", "theorem", "rate_fit"],
                "sweep": {"c": [0.1, 0.25, 0.5, 0.9], "s": [0.3, 0.5, 0.7, 0.9]},
            },
            probe="interpreted",
        ),
        Workload(
            name="lasso-verify",
            command="verify",
            base_seed=0,
            config={
                "instance": {"kind": "lasso", "d": 400, "lam": 0.05},
                "regime": "varying_sc",
                "budget": 10000,
                "checks": ["lemma", "rate_fit"],
            },
            probe="mixed",
        ),
        Workload(
            name="tv-run",
            command="run",
            base_seed=0,
            config={
                "instance": {"kind": "gen_lasso", "d": 80, "lam": 0.5, "identity_a": True},
                "regime": "varying_sc",
                "budget": 20000,
                "checks": ["lemma", "rate_fit"],
            },
            probe="interpreted",
        ),
        Workload(
            name="quad-ode",
            command="run",
            base_seed=1,
            config={
                "instance": {"kind": "quad_pair", "d": 16},
                "regime": "fixed",
                "budget": 2000,
                "checks": ["lemma", "ode_compare"],
            },
            probe="interpreted",
        ),
    )
}
