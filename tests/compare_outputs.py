"""Compare what the CLI does under two source trees, byte for byte.

    python tests/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold a ``pdhglab`` package (a
checkout's ``src``).  Each config of :data:`CONFIGS` runs under each tree as
``python -m pdhglab.cli COMMAND CONFIG`` in a fresh child, with the tree
first on ``PYTHONPATH``, ``OPENBLAS_NUM_THREADS=1``, its own temporary
working directory and the relative output ``out``.  The exit code, stdout,
stderr and every file the child writes are compared; each difference is
named, and the script exits 1 if there is any, else 0.

The 23 configs are the four workloads of ``perfbench/workloads.py`` at
seed 0, read unchanged; eleven runs and sweeps that reach the other regimes,
the recording gaps, the theorem on a reference-run saddle, closed-form
lasso and TV saddles and a saddle that cannot be resolved (whose reference
run takes all its 500 000 steps, about 13 s on one core); four ODE comparisons, at s = 0.1, on a stiff
pair (moduli 1 and 1e200), at d = 128 and on a 2 x 6 coupling, whose four
null directions of F enter the mass matrix's condition number alone; and
four verifies that end early, so the failure and error texts are compared
too: a lemma that fails on extreme moduli and an ODE comparison skipped
there at its rounding floor, and an ODE comparison at steps 1e300 and
1e-301 whose mass matrix is refused as ill-conditioned (both exit 1), a
budget whose table cannot be reserved and an unknown key (both exit 2).
pytest does not collect this file; ``test_compare_outputs.py`` tests its
comparator.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

OUTPUT = "out"


def _quad(d=4, seed=1, **instance):
    return {"kind": "quad_pair", "d": d, "seed": seed, **instance}


#: (name, command, config document) of every compared invocation
CONFIGS = [
    (name, w.command, json.loads(w.config_text(0, OUTPUT))) for name, w in WORKLOADS.items()
] + [
    ("accelerated-run", "run", {
        "instance": _quad(), "regime": "accelerated", "schedule": {"c": 0.9},
        "budget": 600, "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("accelerated-sweep", "sweep", {
        "instance": _quad(), "regime": "accelerated", "budget": 400,
        "checks": ["lemma", "theorem"], "sweep": {"c": [0.5, 0.9], "s": [0.5, 0.9]},
    }),
    ("optimal_ss-run", "run", {
        "instance": _quad(d=6, seed=2), "regime": "optimal_ss", "budget": 300,
        "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("optimal_ss-sweep-record_every-7", "sweep", {
        "instance": _quad(seed=3, mu=0.5), "regime": "optimal_ss", "budget": 300,
        "record_every": 7, "checks": ["lemma", "theorem"], "sweep": {"s": [0.3, 0.6, 0.9]},
    }),
    ("fixed-record_every-3", "run", {
        "instance": _quad(d=5), "regime": "fixed", "budget": 500, "record_every": 3,
        "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("varying_sc-record_every-5", "run", {
        "instance": _quad(seed=4), "regime": "varying_sc", "budget": 1500, "record_every": 5,
        "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("lasso-theorem", "run", {
        "instance": {"kind": "lasso", "d": 20, "lam": 0.1, "seed": 0},
        "regime": "varying_sc", "budget": 2000, "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("tv-accelerated", "run", {
        "instance": {"kind": "gen_lasso", "d": 30, "lam": 0.5, "identity_a": True, "seed": 0},
        "regime": "accelerated", "budget": 1000, "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("lasso-closed-form", "run", {
        "instance": {"kind": "lasso", "d": 20, "lam": 10, "seed": 0},
        "regime": "varying_sc", "budget": 500, "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("tv-closed-form", "run", {
        "instance": {"kind": "gen_lasso", "d": 80, "lam": 200, "identity_a": True, "seed": 0},
        "regime": "varying_sc", "budget": 500, "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("saddle-unavailable", "run", {
        "instance": {"kind": "lasso", "d": 5, "lam": 1e-8, "cond": 1e300, "seed": 0},
        "regime": "fixed", "budget": 50, "checks": ["lemma", "theorem", "rate_fit"],
    }),
    ("extreme-moduli-fail", "verify", {
        "instance": {"kind": "quad_pair", "d": 2, "mu": 1e-200, "gamma": 1e200},
        "regime": "fixed", "budget": 50, "checks": ["lemma", "ode_compare"],
    }),
    ("ode_compare-s-0.1", "verify", {
        "instance": {"kind": "quad_pair", "d": 2}, "regime": "fixed", "schedule": {"s": 0.1},
        "budget": 40, "checks": ["ode_compare"],
    }),
    ("ode_compare-stiff-pair", "verify", {
        "instance": {"kind": "quad_pair", "d": 2, "mu": 1, "gamma": 1e200},
        "regime": "fixed", "budget": 50, "checks": ["ode_compare"],
    }),
    ("ode_compare-d-128", "verify", {
        "instance": {"kind": "quad_pair", "d": 128, "seed": 0},
        "regime": "fixed", "budget": 50, "checks": ["ode_compare"],
    }),
    ("ode_compare-6x2", "verify", {
        "instance": {"kind": "quad_pair", "d": 6, "d2": 2},
        "regime": "fixed", "budget": 50, "checks": ["ode_compare"],
    }),
    ("ode_compare-ill-conditioned", "verify", {
        "instance": {"kind": "quad_pair", "d": 4}, "regime": "fixed",
        "schedule": {"tau": 1e300, "sigma": 1e-301}, "budget": 50, "checks": ["ode_compare"],
    }),
    ("budget-cannot-be-reserved", "verify", {
        "instance": _quad(), "regime": "varying_sc", "budget": 2**62,
    }),
    ("unknown-key", "verify", {
        "instance": _quad(), "regime": "fixed", "schedule": {"momentum": 0.5},
    }),
]
for _, _, _doc in CONFIGS:
    _doc["output"] = OUTPUT


@dataclass(frozen=True)
class Outcome:
    """What one child did: its exit code, its streams and the files it
    wrote, by path relative to its working directory."""

    code: int
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]


def written_files(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, by its POSIX path relative to ``root``."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def run_config(src: str, command: str, doc: dict) -> Outcome:
    """``python -m pdhglab.cli command`` on ``doc`` with ``src`` first on
    the path, in a fresh temporary working directory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(src).resolve())] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    with tempfile.TemporaryDirectory() as tmp:
        config, work = Path(tmp, "config.json"), Path(tmp, "work")
        config.write_text(json.dumps(doc, indent=2))
        work.mkdir()
        child = subprocess.run(
            [sys.executable, "-m", "pdhglab.cli", command, str(config)],
            cwd=work, env=env, capture_output=True,
        )
        return Outcome(child.returncode, child.stdout, child.stderr, written_files(work))


def _first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
    return f"first at byte {at} ({len(a)} vs {len(b)} bytes)"


def differences(old: Outcome, new: Outcome) -> list[str]:
    """One line per way ``new`` differs from ``old``; empty if none does."""
    found = []
    if old.code != new.code:
        found.append(f"exit code {old.code} vs {new.code}")
    for stream in ("stdout", "stderr"):
        a, b = getattr(old, stream), getattr(new, stream)
        if a != b:
            found.append(f"{stream} differs, {_first_difference(a, b)}")
    for path in sorted(old.files.keys() | new.files.keys()):
        if path not in new.files:
            found.append(f"{path} missing from the new tree")
        elif path not in old.files:
            found.append(f"{path} only in the new tree")
        elif old.files[path] != new.files[path]:
            found.append(f"{path} differs, {_first_difference(old.files[path], new.files[path])}")
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: compare_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old_src, new_src = args
    differing = 0
    for name, command, doc in CONFIGS:
        old = run_config(old_src, command, doc)
        new = run_config(new_src, command, doc)
        found = differences(old, new)
        differing += bool(found)
        files = len(old.files.keys() | new.files.keys())
        print(f"{name} ({command}, exit {old.code}, {files} files): "
              + ("identical" if not found else "DIFFERENT"))
        for line in found:
            print(f"  {line}")
    print(f"{differing} of {len(CONFIGS)} configs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
