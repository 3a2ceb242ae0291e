"""Pin the reference outputs the benchmark compares every run against.

    python3 perfbench/pin.py

Runs each workload (and `qdiag list`) once with the checkout's src and
writes perfbench/reference/<name>.json: the argv, the exit status, and the
report JSON minus `seconds` (the raw output for `list`).  The references
are the behaviour contract, so re-pin only for a change that is meant to
alter a report, and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=run.OUT))
    try:
        env = run.child_env(0)
        run.prepare(env, work)
        targets = {"setup": run.SETUP_ARGS}
        targets.update({name: args + run.RUN_FLAGS
                        for name, args in run.WORKLOADS.items()})
        for name, args in targets.items():
            inv = run.invoke(run.qdiag_argv(args), work, env, 600)
            if inv.exit_status is None:
                print(f"{name}: timed out", file=sys.stderr)
                return 1
            pinned = {"argv": args, "exit_status": inv.exit_status}
            if name == "setup":
                pinned["stdout"] = inv.stdout
            else:
                reports = json.loads(inv.stdout)
                pinned["reports"] = run.strip_seconds(reports)
                print(f"{name}: {run.describe(reports)}")
            path = run.REFERENCE / f"{name}.json"
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            print(f"{name}: exit status {inv.exit_status}, "
                  f"{inv.wall_s:.1f} s -> {path.relative_to(run.ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
