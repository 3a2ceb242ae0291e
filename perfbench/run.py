"""The qdiag benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout that has ``src/qdiag``.  Every timed
invocation is the real CLI (``python3 -m qdiag.cli run ... --no-cache
--format json``) in a fresh interpreter with the checkout's ``src`` as the
only ``PYTHONPATH`` entry, started in a scratch directory under
``perfbench/out`` and compared with the report pinned in
``perfbench/reference``.  The workloads are closed-loop: one invocation at a
time, ``--jobs`` at its default of 1.

``--trace 0`` reports the end-to-end metrics: the low median (the smaller
middle value of an even count) of the wall time and peak resident set of the
workload invocations made in ``--seconds`` seconds, and that of the wall time
of ``qdiag list`` over several fresh interpreters (``setup_s``).  The two
times are scaled to a reference machine speed measured by a calibration loop
that runs no qdiag code (see ``calibrate.py``); the measured times are
printed on ``#`` lines.  ``--trace 1`` makes one plain and one traced
invocation (see ``tracer.py``), writes the spans to ``perfbench/out`` and
reports the per-layer metrics, unscaled.

The check parameters are fixed by the workload; ``--seed`` is the child's
``PYTHONHASHSEED``, the one input of the program that varies between runs, so
equal seeds give identical runs and every seed must give the pinned report.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

WORKLOADS = {
    "battery": ["run", "all"],
    "frt-d3r5": ["run", "conjecture", "--d", "3", "--r", "5"],
    "preplactic-r5": ["run", "preplactic", "--r", "5"],
}
RUN_FLAGS = ["--no-cache", "--format", "json"]
SETUP_ARGS = ["list"]
SETUP_SAMPLES = 40
# About the median calibration chunk on the 2-vCPU machine the benchmark was
# built on; end-to-end times are scaled to that speed (see calibrate.py).
REFERENCE_CHUNK_S = 0.060
# Every run ends well inside the 180 s a run may take.
DEADLINE_S = 165.0


class HarnessError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Invocation:
    wall_s: float
    peak_rss_mb: float
    exit_status: int | None  # None when killed for running too long
    stdout: str
    stderr: str


def invoke(argv: list, cwd: Path, env: dict, timeout: float) -> Invocation:
    """Run argv to completion; wall time is from spawn to exit."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], max(timeout, 0.1))
            if not exited:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024.0,
                      proc.returncode if exited else None,
                      out_path.read_text(), err_path.read_text())


def strip_seconds(reports: list) -> list:
    return [{k: v for k, v in r.items() if k != "seconds"} for r in reports]


def check(inv: Invocation, reference: dict) -> str | None:
    """Why the invocation does not match the reference, or None if it does."""
    if inv.exit_status is None:
        return f"killed after {inv.wall_s:.1f} s"
    if inv.exit_status != reference["exit_status"]:
        tail = inv.stderr.strip().splitlines()[-1:] or [""]
        return (f"exit status {inv.exit_status}, expected "
                f"{reference['exit_status']}: {tail[0]}")
    if "stdout" in reference:
        return None if inv.stdout == reference["stdout"] else "output differs"
    try:
        reports = strip_seconds(json.loads(inv.stdout))
    except (ValueError, TypeError, AttributeError):
        return "output is not a JSON report list"
    expected = reference["reports"]
    if len(reports) != len(expected):
        return f"{len(reports)} reports, expected {len(expected)}"
    for got, want in zip(reports, expected):
        if got != want:
            keys = sorted(k for k in set(got) | set(want)
                          if got.get(k) != want.get(k))
            return (f"report {want['check']} {want['params']} differs "
                    f"in {', '.join(keys)}")
    return None


def load_reference(name: str) -> dict:
    path = REFERENCE / f"{name}.json"
    if not path.is_file():
        raise HarnessError(f"missing pinned reference {path}")
    return json.loads(path.read_text())


def check_names() -> list:
    """The checks `qdiag list` pins, without `all`."""
    return [n for n in load_reference("setup")["stdout"].split() if n != "all"]


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    return env


def qdiag_argv(args: list) -> list:
    return [sys.executable, "-m", "qdiag.cli", *args]


def prepare(env: dict, work: Path) -> str:
    """Compile src to .pyc and return the qdiag.__file__ a child imports."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
    probe = subprocess.run(
        [sys.executable, "-c", "import qdiag.cli, qdiag; print(qdiag.__file__)"],
        cwd=work, env=env, capture_output=True, text=True, check=False)
    found = probe.stdout.strip()
    if probe.returncode != 0 or Path(found) != SRC / "qdiag" / "__init__.py":
        raise HarnessError(
            f"children import qdiag from {found or probe.stderr.strip()!r},"
            f" not from {SRC}")
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdiag").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_record(args, qdiag_file: str) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": git_commit(), "src_sha256": source_digest(),
            "qdiag_file": qdiag_file,
            "python": platform.python_version(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


class Tally:
    """Invocations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, label: str, inv: Invocation, reference: dict) -> bool:
        self.attempted += 1
        reason = check(inv, reference)
        if reason is not None:
            self.failures.append(f"{label}: {reason}")
            print(f"# FAILED {label}: {reason}")
        return reason is None

    def share_failed(self) -> float:
        return len(self.failures) / self.attempted if self.attempted else 0.0

    def result(self, metrics: dict, *others: "Tally") -> dict:
        """The benchmark result over this tally's invocations; a failure in
        any of `others` makes it incorrect without entering the counts."""
        correct = not any(t.failures for t in (self, *others))
        return {"correct": correct, "attempted": self.attempted,
                "failed": len(self.failures), "metrics": metrics}


def describe(reports: list) -> str:
    """One line with every check's status, FAILs named."""
    fails = [r["check"] + "".join(f"[{k}={v}]" for k, v in
                                  sorted(r["params"].items()))
             for r in reports if r["status"] != "PASS"]
    passed = sum(r["status"] == "PASS" for r in reports)
    line = f"{passed} PASS / {len(fails)} FAIL"
    return line + (": " + ", ".join(fails) if fails else "")


def measure(argv: list, reference: dict, label: str, seconds: float,
            deadline: float, work: Path, env: dict, tally: Tally) -> list:
    """Closed loop: invoke argv until the next call would pass `seconds`."""
    good: list = []
    longest = 0.0
    start = time.perf_counter()
    for n in itertools.count():
        inv = invoke(argv, work, env, deadline - time.perf_counter())
        longest = max(longest, inv.wall_s)
        if tally.record(f"{label} #{n}", inv, reference):
            good.append(inv)
        now = time.perf_counter()
        if (now - start + longest > seconds
                or deadline - now < 2 * longest + 5):
            return good


class Calibration:
    """The calibration process, calibrate.py, asked for one chunk at a time."""

    def __init__(self, work: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "calibrate.py")], cwd=work,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def chunk(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise HarnessError("the calibration process ended early")
        return float(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def timed_run(name: str, argv: list, reference: dict, setup_argv: list,
              setup_reference: dict, seconds: float, deadline: float,
              work: Path, env: dict) -> dict:
    """End-to-end metrics of the workload argv and of the set-up argv.

    Times are scaled by REFERENCE_CHUNK_S over the median calibration chunk,
    one chunk taken before each set-up invocation.  `ops_failed` and the
    result's `attempted` and `failed` count the workload invocations only;
    a failed set-up invocation makes the run incorrect and is reported on
    its own line."""
    tally, setup_tally = Tally(), Tally()
    setup: list = []
    chunks: list = []
    calibration = Calibration(work)

    def sample_setup(count):
        for _ in range(count):
            chunks.append(calibration.chunk())
            inv = invoke(setup_argv, work, env, 30)
            if setup_tally.record(f"setup #{setup_tally.attempted}", inv,
                                  setup_reference):
                setup.append(inv.wall_s)

    # Half the set-up samples before the workload and half after, so that
    # they and the calibration see the same machine as the invocations they
    # accompany.
    try:
        sample_setup(SETUP_SAMPLES // 2)
        good = measure(argv, reference, name, seconds, deadline, work, env,
                       tally)
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        calibration.close()
    chunk_s = statistics.median(chunks)
    scale = REFERENCE_CHUNK_S / chunk_s
    print(f"# calibration chunk median {chunk_s:.6f} s, reference "
          f"{REFERENCE_CHUNK_S} s: times scaled by {scale:.4f}")
    metrics = {}
    if good:
        walls = sorted(inv.wall_s for inv in good)
        metrics["wall_s"] = {"value": statistics.median_low(walls) * scale,
                             "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": statistics.median_low(inv.peak_rss_mb for inv in good),
            "unit": "MB"}
        print(f"# {name}: {len(good)} invocation(s), measured wall_s "
              f"{' '.join(f'{w:.3f}' for w in walls)}")
        if "reports" in reference:
            print(f"# {name} report: {describe(json.loads(good[0].stdout))},"
                  f" exit status {good[0].exit_status} (as pinned)")
    if setup:
        print(f"# measured setup_s {statistics.median_low(setup):.6f} s")
        metrics["setup_s"] = {"value": statistics.median_low(setup) * scale,
                              "unit": "s"}
    print(f"# ops_failed {tally.share_failed():.4f} share "
          f"({len(tally.failures)} of {tally.attempted} workload invocations)")
    print(f"# setup failed {len(setup_tally.failures)} of "
          f"{setup_tally.attempted} invocations")
    for metric, m in metrics.items():
        print(f"# {metric} {m['value']:.6f} {m['unit']}")
    return tally.result(metrics, setup_tally)


def traced_run(args, reference: dict, deadline: float, work: Path,
               env: dict, record: dict) -> dict:
    tally = Tally()
    cli_args = WORKLOADS[args.workload] + RUN_FLAGS
    plain = invoke(qdiag_argv(cli_args), work, env,
                   deadline - time.perf_counter())
    plain_ok = tally.record("plain", plain, reference)
    spans_path = work / "spans.json"
    traced = invoke([sys.executable, str(BENCH / "tracer.py"), str(spans_path),
                     *cli_args], work, env, deadline - time.perf_counter())
    traced_ok = tally.record("traced", traced, reference)
    if not (plain_ok and traced_ok):
        return tally.result({})
    artifact = json.loads(spans_path.read_text())
    metrics = tracer.layer_metrics(artifact)
    units = dict(tracer.LAYER_UNITS)
    seconds: dict = {name: 0.0 for name in check_names()}
    for report in json.loads(plain.stdout):
        seconds[report["check"]] += report["seconds"]
    for name, value in seconds.items():
        metrics[f"checks.{name}.s"] = value
        units[f"checks.{name}.s"] = "s"
    metrics["cli.overhead_s"] = plain.wall_s - sum(seconds.values())
    units["cli.overhead_s"] = "s"
    metrics["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    units["trace.overhead_ratio"] = "ratio"
    out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"record": record, "metrics": metrics,
                               "plain_wall_s": plain.wall_s,
                               "traced_wall_s": traced.wall_s, **artifact}))
    print(f"# spans written to {out.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"# {name} {value} {units[name]}")
    return tally.result({name: {"value": value, "unit": units[name]}
                         for name, value in metrics.items()})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "qdiag" / "cli.py").is_file():
        print(f"error: no qdiag sources under {SRC}", file=sys.stderr)
        return 2
    try:
        reference = load_reference(args.workload)
        OUT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(
            prefix=f"{args.workload}-seed{args.seed}-", dir=OUT))
        try:
            env = child_env(args.seed)
            record = run_record(args, prepare(env, work))
            print("# record " + json.dumps(record))
            if args.trace:
                result = traced_run(args, reference, deadline, work, env,
                                    record)
            else:
                result = timed_run(
                    args.workload, qdiag_argv(WORKLOADS[args.workload]
                                              + RUN_FLAGS), reference,
                    qdiag_argv(SETUP_ARGS), load_reference("setup"),
                    args.seconds, deadline, work, env)
            if (work / ".qdiag-cache").exists():
                raise HarnessError("an invocation wrote a report cache")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
