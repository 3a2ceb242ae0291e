"""Repeat the benchmark over several seeds and report its spread.

    python3 perfbench/suite.py --seeds 1-10                # end to end
    python3 perfbench/suite.py --seeds 1-2 --trace         # per layer

Workloads run round-robin, one run at a time, rotating which goes first, so
that drift on a shared machine reaches every workload alike.  For each
end-to-end metric the summary gives the median and the distance between the
first and third quartiles as a share of the median, against the metric's
bound in BENCHMARK.json; traced runs are checked for identical counts and
for every per-layer metric.  Everything, with the run record, is written to
perfbench/out/suite-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace))]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=200,
                          cwd=run.ROOT)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return {"workload": workload, "seed": seed, "trace": trace,
            "exit_status": proc.returncode, "run_s": elapsed,
            "result": result, "stderr": proc.stderr[-2000:],
            "log": [line for line in lines if line.startswith("#")]}


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def summarize(spec: dict, runs: list, trace: bool) -> bool:
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        bad = [r for r in mine if not r["result"] or not r["result"]["correct"]]
        print(f"{workload}: {len(mine)} runs, {len(bad)} incorrect, run time "
              f"{min(r['run_s'] for r in mine):.0f}-"
              f"{max(r['run_s'] for r in mine):.0f} s")
        ok = ok and not bad
        results = [r["result"] for r in mine if r["result"]]
        if trace:
            ok = check_counts(spec, workload, results) and ok
            continue
        for metric in spec["end_to_end"]:
            values = [res["metrics"][metric["name"]]["value"]
                      for res in results if metric["name"] in res["metrics"]]
            if len(values) < 2:
                print(f"  {metric['name']}: {len(values)} value(s)")
                ok = False
                continue
            med, share = spread(values)
            bound = metric["bound"]
            verdict = ("steady" if share < bound / 3 else
                       "within bound" if share <= bound else "TOO WIDE")
            ok = ok and share <= bound
            print(f"  {metric['name']:12s} median {med:10.4f} {metric['unit']:3s}"
                  f" spread {share:6.3f} of median, bound {bound}: {verdict}")
    return ok


def check_counts(spec: dict, workload: str, results: list) -> bool:
    names = [m["name"] for m in spec["per_layer"]]
    ok = True
    for res in results:
        missing = [n for n in names if n not in res["metrics"]]
        if missing:
            print(f"  missing per-layer metrics: {', '.join(missing)}")
            ok = False
    counts = [{n: m["value"] for n, m in res["metrics"].items()
               if m["unit"] == "count"} for res in results]
    same = all(c == counts[0] for c in counts)
    print(f"  {len(counts[0]) if counts else 0} counts identical across "
          f"{len(counts)} traced runs: {same}")
    ratios = [res["metrics"]["trace.overhead_ratio"]["value"] for res in results]
    print(f"  trace.overhead_ratio {' '.join(f'{x:.3f}' for x in ratios)}")
    return ok and same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"commit": run.git_commit(), "src_sha256": run.source_digest(),
              "python": platform.python_version(), "nproc": os.cpu_count(),
              "loadavg_start": list(os.getloadavg()),
              "run_seconds": spec["run_seconds"], "trace": args.trace}
    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        k = i % len(workloads)
        for workload in workloads[k:] + workloads[:k]:
            r = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(r)
            metrics = (r["result"] or {}).get("metrics", {})
            shown = " ".join(f"{n}={m['value']:.4f}" for n, m in metrics.items()
                             if not args.trace or m["unit"] != "count")
            print(f"seed {seed} {workload}: exit {r['exit_status']}, "
                  f"{r['run_s']:.1f} s, correct "
                  f"{(r['result'] or {}).get('correct')} {shown[:300]}",
                  flush=True)
    record["loadavg_end"] = list(os.getloadavg())
    ok = summarize(spec, runs, args.trace)
    run.OUT.mkdir(exist_ok=True)
    out = run.OUT / time.strftime("suite-%Y%m%dT%H%M%S.json", time.gmtime())
    out.write_text(json.dumps({"record": record, "runs": runs}, indent=1))
    print(f"record: {json.dumps(record)}\nwritten to {out.relative_to(run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
