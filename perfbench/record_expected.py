"""Record the reference outputs that ``run.py`` compares against.

    python3 perfbench/record_expected.py

Runs every workload's command and its ``info`` once at the default seed and
writes their observations (see ``checks.py``) to ``expected.json``.  Run it
only on the commit whose outputs define correct, and commit the file with
the commit id it prints.
"""

import json
import sys
import time

import checks
from run import EXPECTED, RUN_DEADLINE_S, SpeedProbe, WorkloadRun, environment
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    recorded = {}
    probe = SpeedProbe()
    for name, workload in WORKLOADS.items():
        deadline = time.monotonic() + RUN_DEADLINE_S
        with WorkloadRun(workload, DEFAULT_SEED, {}, probe) as wr:
            recorded[name] = {kind: wr.op(kind, deadline)["obs"] for kind in ("info", "command")}
        if wr.failed:
            print(f"{name}: {wr.errors}", file=sys.stderr)
            return 1
    env = environment()
    with open(EXPECTED, "w") as fh:
        json.dump(
            {"recorded_with": env, "rtol": checks.RTOL, "atol": checks.ATOL,
             "workloads": recorded},
            fh, indent=1,
        )
        fh.write("\n")
    print(f"wrote {EXPECTED} at commit {env['commit']} ({env['source_sha256'][:12]})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
