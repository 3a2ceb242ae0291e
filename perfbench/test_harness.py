"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _pinned_output(reference: dict) -> run.Invocation:
    reports = [dict(r, seconds=1.25) for r in reference["reports"]]
    return run.Invocation(1.0, 30.0, reference["exit_status"],
                          json.dumps(reports, indent=1), "")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_gate_accepts_pinned_report_with_any_seconds(workload):
    assert run.check(_pinned_output(run.load_reference(workload)),
                     run.load_reference(workload)) is None


@pytest.mark.parametrize("tamper", ["status", "detail", "drop", "exit"])
def test_gate_flags_tampered_report(tamper):
    reference = run.load_reference("battery")
    inv = _pinned_output(reference)
    reports = json.loads(inv.stdout)
    if tamper == "status":
        reports[11]["status"] = "PASS"
    elif tamper == "detail":
        reports[1]["detail"]["associativity_triples"] += 1
    elif tamper == "drop":
        reports.pop()
    else:
        inv.exit_status = 0
    inv.stdout = json.dumps(reports)
    assert run.check(inv, reference) is not None


def test_battery_reference_keeps_the_known_red_visible():
    reference = run.load_reference("battery")
    assert reference["exit_status"] == 1
    assert run.describe(reference["reports"]) == (
        "16 PASS / 2 FAIL: lemma-brute[sign=plus], lemma-brute[sign=minus]")


def _measure(tmp_path, code: str, deadline_s: float = 60.0):
    tally = run.Tally()
    good = run.measure([sys.executable, "-c", code],
                       {"exit_status": 0, "stdout": "ok"}, "probe", 0,
                       time.perf_counter() + deadline_s, tmp_path,
                       dict(os.environ), tally)
    return good, tally.result({})


def test_clean_invocation_is_not_a_failure(tmp_path):
    good, result = _measure(tmp_path, "print('ok', end='')")
    assert len(good) == 1 and good[0].peak_rss_mb > 0
    assert result["attempted"] == 1 and result["failed"] == 0
    assert result["correct"]


def test_crash_counts_as_failed(tmp_path):
    good, result = _measure(tmp_path, "raise SystemExit(3)")
    assert good == []
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]


def test_timeout_counts_as_failed(tmp_path):
    start = time.perf_counter()
    good, result = _measure(tmp_path, "import time; time.sleep(30)",
                            deadline_s=0.5)
    assert time.perf_counter() - start < 10
    assert good == []
    assert result["attempted"] == 1 and result["failed"] == 1


def _timed(tmp_path, workload_code: str, setup_code: str) -> dict:
    ok = {"exit_status": 0, "stdout": "ok"}
    return run.timed_run("probe", [sys.executable, "-c", workload_code], ok,
                         [sys.executable, "-c", setup_code], ok, 0,
                         time.perf_counter() + 60, tmp_path, dict(os.environ))


def test_ops_failed_counts_workload_invocations_only(tmp_path, capsys):
    result = _timed(tmp_path, "raise SystemExit(3)", "print('ok', end='')")
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert result["metrics"]["setup_s"]["value"] > 0
    assert "# ops_failed 1.0000 share (1 of 1 workload invocations)" in (
        capsys.readouterr().out)


def test_failed_setup_is_incorrect_but_not_an_op(tmp_path, capsys):
    result = _timed(tmp_path, "print('ok', end='')", "raise SystemExit(3)")
    assert result["attempted"] == 1 and result["failed"] == 0
    assert not result["correct"]
    assert "setup_s" not in result["metrics"]
    out = capsys.readouterr().out
    assert "# ops_failed 0.0000 share" in out
    assert f"# setup failed {run.SETUP_SAMPLES} of {run.SETUP_SAMPLES}" in out


def _spin(seconds: float):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _assert_self_within_span(artifact: dict):
    for name, _start, _end, _parent, own, _attrs in artifact["spans"]:
        assert -1e-9 <= own <= _end - _start, name
    for name, agg in artifact["aggregates"].items():
        assert -1e-9 <= agg["self_s"] <= agg["total_s"] + 1e-9, name


def test_self_time_is_span_minus_children():
    t = tracer.Tracer()
    leaf = t.wrap("scalars.leaf", lambda: _spin(0.002), keep_span=False)
    inner = t.wrap("linalg.inner", lambda: [leaf() for _ in range(3)])

    def body():
        _spin(0.003)
        inner()
        leaf()
    outer = t.wrap("hecke.outer", body)
    outer()
    outer()
    art = t.artifact()
    _assert_self_within_span(art)
    spans = art["spans"]
    assert [s[0] for s in spans] == ["hecke.outer", "linalg.inner"] * 2
    assert spans[1][3] == 0 and spans[3][3] == 2 and spans[0][3] == -1
    outer_span, inner_span = spans[0], spans[1]
    assert inner_span[4] < 0.002          # its leaves are children
    assert outer_span[4] >= 0.003
    assert outer_span[4] < outer_span[2] - outer_span[1] - 0.008
    assert art["aggregates"]["scalars.leaf"]["calls"] == 8


def test_traced_cli_run(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "tracer.py"), str(out),
         "run", "systd", "--no-cache", "--format", "json"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[0]["status"] == "PASS"
    artifact = json.loads(out.read_text())
    _assert_self_within_span(artifact)
    metrics = tracer.layer_metrics(artifact)
    assert set(metrics) == set(tracer.LAYER_UNITS)
    assert metrics["qma.blocks_built"] == 1
    assert metrics["qma.block_words"] == 36
    assert metrics["hecke.mul_calls"] > 0 and metrics["scalars.mul_calls"] > 0
    assert not (tmp_path / ".qdiag-cache").exists()


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    expected = (list(tracer.LAYER_UNITS)
                + [f"checks.{c}.s" for c in run.check_names()]
                + ["cli.overhead_s", "trace.overhead_ratio"])
    assert [m["name"] for m in SPEC["per_layer"]] == expected
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "battery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
