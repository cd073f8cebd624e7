"""pdhglab benchmark: CLI time, set-up time and memory per workload.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``pdhglab`` is imported from
``src/``.  Every operation is a fresh ``pdhglab`` process started from this
one benchmark process, with BLAS pinned to one thread and ``PDHGLAB_JOBS``
unset.  Each operation's output is checked (see ``checks.py``); a mismatch
counts in ``failed``.

The benchmark and its child share one CPU.  The child runs in slices of
SLICE_S seconds; between slices it is stopped and a fixed probe kernel (see
``SpeedProbe``) is timed in this process.  The probe tells how fast the CPU
is running just then: on a shared host the speed of one CPU changes by up to
~1.8x within tens of milliseconds as other tenants load its core.  Each slice
is rescaled by the probe time around it, which gives the operation's
*reference time*: its running time on a CPU where the probe takes
PROBE_REF_S (see README.md).

``--trace 0`` measures the end-to-end metrics:

* ``wall_ref_s``: median reference time of the workload command, repeated
  for ``--seconds`` seconds (at least MIN_SAMPLES times);
* ``setup_s``: median reference time of ``pdhglab info`` on the workload
  config over SETUP_REPEATS processes, after one warm-up process;
* ``peak_rss_mb``: median over the command processes of each one's own peak
  RSS, read from ``os.wait4``.  ``getrusage(RUSAGE_CHILDREN)`` is not used:
  it is a running maximum over every child, so one large workload would
  leak into every later one.

The row printed per workload also gives ``wall_s``, the median running time
as measured (fork to exit, less the time the process was stopped).

``--trace 1`` makes the same untraced measurement, then runs the command once
more in a process that records spans at each layer boundary
(``trace_cli.py``), and reports the per-layer metrics of ``spans.py`` plus
``trace.overhead_s``, the traced running time minus the untraced median.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it give one table
row per workload and the environment the result was measured in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

# The probe's matrix-vector products must run on this one thread.
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from spans import layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_REPEATS = 9
MIN_SAMPLES = 3
SLICE_S = 0.05  # how long the child runs between two probes
PROBE_REF_S = 1e-3  # probe time that defines the reference CPU speed
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 160.0  # stay inside the 180 s a run may take

LAUNCH = "import sys; from pdhglab.cli import main; sys.exit(main())"


def child_env() -> dict:
    # Bytecode caches are written next to the sources, as for an installed
    # package, so the warm-up process compiles and the timed ones do not.
    dropped = ("PDHGLAB_JOBS", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=SRC)
    return env


class SpeedProbe:
    """Fixed kernels, each about 1 ms long, whose times track the CPU's speed.

    A neighbour on the same core slows interpreted code more than it slows
    matrix-vector products that stream from cache, so there are two probes:
    :meth:`interpreted`, arithmetic on a 4-vector, for operations whose time
    goes to the interpreter, and :meth:`mixed`, that arithmetic followed by
    400x400 matrix-vector products, for operations that also move memory.
    The inputs are fixed: they do not depend on the benchmark seed.
    """

    def __init__(self):
        rng = np.random.default_rng(20240725)
        self.vec = rng.standard_normal(4)
        self.mat = rng.standard_normal((400, 400))
        self.start = rng.standard_normal(400)

    def interpreted(self) -> float:
        begin = time.perf_counter()
        v = self.vec
        acc = 0.0
        for _ in range(200):
            acc += float((v * 0.5 + v) @ v)
        return time.perf_counter() - begin

    def mixed(self) -> float:
        begin = time.perf_counter()
        self.interpreted()
        y = self.start
        for _ in range(8):
            y = self.mat @ y
            y = y / np.linalg.norm(y)
        return time.perf_counter() - begin


def reference_time(slices) -> float:
    """Running time at the reference speed: each ``(seconds, probe_before,
    probe_after)`` slice scaled by PROBE_REF_S over its mean probe time."""
    return sum(dt * 2.0 * PROBE_REF_S / (before + after) for dt, before, after in slices)


def run_op(argv, cwd: str, timeout: float, probe) -> dict:
    """Run one process in slices, timing ``probe()`` between them.

    ``wall_s`` is fork to exit less the time the process was stopped,
    ``ref_s`` is :func:`reference_time` of the slices, and ``peak_rss_mb``
    is the process's own peak RSS.  A process still running after
    ``timeout`` seconds is killed.
    """
    out_path = os.path.join(cwd, "op.stdout")
    err_path = os.path.join(cwd, "op.stderr")
    slices = []
    with open(out_path, "w") as out, open(err_path, "w") as err:
        before = probe()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        status = usage = None
        try:
            while True:
                resumed = time.perf_counter()
                time.sleep(SLICE_S)
                if resumed - start > timeout:
                    os.kill(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                os.kill(proc.pid, signal.SIGSTOP)
                _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                ran = time.perf_counter() - resumed
                if not os.WIFSTOPPED(status):
                    slices.append((ran, before, before))
                    break
                after = probe()
                slices.append((ran, before, after))
                before = after
                os.kill(proc.pid, signal.SIGCONT)
        finally:
            if status is None or os.WIFSTOPPED(status):  # interrupted mid-slice
                proc.kill()
                os.kill(proc.pid, signal.SIGCONT)
                _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        stdout = fh.read()
    with open(err_path) as fh:
        stderr = fh.read()
    return {
        "wall_s": sum(s[0] for s in slices),
        "ref_s": reference_time(slices),
        "probe_s": statistics.median(s[2] for s in slices) if slices else None,
        "exit_status": proc.returncode,
        "stdout": stdout,
        "stderr": stderr,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


class WorkloadRun:
    """Generated config, scratch directory and operation bookkeeping of one
    workload at one seed."""

    def __init__(self, workload, seed: int, expected: dict, probe: SpeedProbe):
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.expected = expected.get(workload.name) if seed == DEFAULT_SEED else None
        self.dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
        self.out_dir = os.path.join(self.dir, "out")
        self.config = os.path.join(self.dir, "config.json")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        with open(self.config, "w") as fh:
            fh.write(self.workload.config_text(self.seed, self.out_dir))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)

    def op(self, kind: str, deadline: float, argv_prefix=None) -> dict:
        """Run and check one operation; ``kind`` is "info" or "command".
        Returns :func:`run_op`'s result plus the observation under "obs"."""
        sub = "info" if kind == "info" else self.workload.command
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = (argv_prefix or [sys.executable, "-c", LAUNCH]) + [sub, self.config]
        timeout = min(OP_TIMEOUT_S, deadline - time.monotonic())
        probe = self.probe.mixed if kind == "info" else getattr(self.probe, self.workload.probe)
        result = run_op(argv, self.dir, timeout, probe)
        obs = checks.observe(sub, result["exit_status"], result["stdout"], self.out_dir)
        if self.expected is not None:
            errors = checks.compare(obs, self.expected[kind])
        else:
            errors = checks.check_verdicts(obs, self.workload.config["checks"])
        if result["stderr"].strip():
            errors.append("stderr: " + result["stderr"].strip().splitlines()[-1])
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{sub}: {e}" for e in errors]
        result["obs"] = obs
        return result


def measure(workload, seed: int, seconds: float, trace: bool, expected: dict,
            probe: SpeedProbe) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    with WorkloadRun(workload, seed, expected, probe) as wr:
        wr.op("info", deadline)  # warm-up: bytecode and page cache
        setup = []
        if not trace:
            setup = [wr.op("info", deadline) for _ in range(SETUP_REPEATS)]
        samples = []
        loop_start = time.monotonic()
        while time.monotonic() < deadline:
            elapsed = time.monotonic() - loop_start
            if len(samples) >= MIN_SAMPLES and elapsed + samples[-1]["wall_s"] > seconds:
                break
            samples.append(wr.op("command", deadline))
        refs = [s["ref_s"] for s in samples]
        row = {
            "workload": workload.name,
            "seed": seed,
            "wall_ref_s": statistics.median(refs),
            "wall_ref_samples": refs,
            "wall_ref_tail": tail_percentile(refs),
            "wall_s": statistics.median(s["wall_s"] for s in samples),
            "wall_samples": [s["wall_s"] for s in samples],
            "probe_ms": 1e3 * statistics.median(s["probe_s"] for s in samples),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
            "setup_s": statistics.median(s["ref_s"] for s in setup) if setup else None,
            "setup_samples": [s["ref_s"] for s in setup],
            "setup_wall_samples": [s["wall_s"] for s in setup],
        }
        if trace:
            spans_path = os.path.join(wr.dir, "spans.json")
            traced = wr.op(
                "command", deadline,
                [sys.executable, os.path.join(HERE, "trace_cli.py"), spans_path],
            )
            recorded = {"missing": [], "spans": []}
            if os.path.exists(spans_path):  # absent when the process was killed
                with open(spans_path) as fh:
                    recorded = json.load(fh)
            layers = layer_metrics(recorded["spans"])
            layers["trace.overhead_s"] = traced["wall_s"] - row["wall_s"]
            layers["trace.missing_hooks"] = len(recorded["missing"])
            row["layers"] = layers
            row["missing_hooks"] = recorded["missing"]
        row.update(attempted=wr.attempted, failed=wr.failed, errors=wr.errors)
        return row


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "pdhglab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = git.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }


def table_row(row: dict) -> str:
    tail = row["wall_ref_tail"]
    tail_text = f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail else "no tail percentile"
    setup = f"{row['setup_s']:.4f} s" if row["setup_s"] is not None else "-"
    return (
        f"{row['workload']:<13} wall_ref_s {row['wall_ref_s']:.4f} s "
        f"(median, n={len(row['wall_ref_samples'])}, {tail_text})  "
        f"wall_s {row['wall_s']:.4f} s  probe {row['probe_ms']:.3f} ms  setup_s {setup}  "
        f"peak_rss_mb {row['peak_rss_mb']:.1f} MB  ops_failed {row['failed']}/{row['attempted']}"
    )


def metrics_of(row: dict, trace: bool) -> dict:
    if trace:
        return {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in row["layers"].items()
        }
    return {
        "wall_ref_s": {"value": row["wall_ref_s"], "unit": "s"},
        "setup_s": {"value": row["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": row["peak_rss_mb"], "unit": "MB"},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or "us_per_" in name:
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_per_record"):
        return "count/record"
    return "count"


def exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pdhglab", "cli.py")):
        print(f"no pdhglab sources under {SRC}", file=sys.stderr)
        return 2
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as fh:
            expected = json.load(fh)["workloads"]
    # Exit through the ``finally`` blocks that kill and reap a running child.
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    env = environment()
    # The benchmark and its children share one CPU, so that the probe times
    # the CPU the child runs on.
    env["pinned_cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["pinned_cpu"]})
    probe = SpeedProbe()
    # A child's ru_maxrss is never below this: see README.md, peak_rss_mb.
    env["benchmark_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rows = []
    for name in names:
        row = measure(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), expected, probe
        )
        rows.append(row)
        print(table_row(row), flush=True)
        for error in row["errors"][:20]:
            print(f"  FAILED {error}")
        if args.trace:
            for hook in row["missing_hooks"]:
                print(f"  hook not installed: {hook}")
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    result_path = os.path.join(
        WORK, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w") as fh:
        json.dump({"env": env, "args": vars(args), "rows": rows}, fh, indent=1)

    if len(rows) == 1:
        metrics = metrics_of(rows[0], bool(args.trace))
    else:
        metrics = {
            f"{row['workload']}.{name}": value
            for row in rows
            for name, value in metrics_of(row, bool(args.trace)).items()
        }
    attempted = sum(row["attempted"] for row in rows)
    failed = sum(row["failed"] for row in rows)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
