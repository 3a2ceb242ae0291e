"""CLI behaviour: report formats, exit codes, caching."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdiag
from qdiag import checks, cli, hecke, linalg, pplactic, qma, rmatrix
from qdiag.checks import CheckReport, run_check
from qdiag.cli import main
from qdiag.errors import MembershipFailure, UnknownCheck


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_list(capsys):
    code, out = run_cli(capsys, "list")
    assert code == 0
    names = out.split()
    assert "systd" in names and "conjecture" in names and "all" in names


def test_import_leaves_out_dataclasses_and_hashlib():
    # start-up cost: dataclasses pulls in inspect, and only the cache hashes
    src = str(Path(qdiag.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = ("import sys, qdiag.cli; "
            "print(sorted({'dataclasses', 'hashlib'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_systd_json_roundtrip(tmp_path, capsys):
    code, out = run_cli(capsys, "run", "systd", "--format", "json",
                        "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    report = CheckReport.from_json(payload[0])
    assert report.check == "systd" and report.status == "PASS"
    assert report.detail["entries_compared"] == 36


def test_unknown_check(capsys):
    code, _ = run_cli(capsys, "run", "no-such-check")
    assert code == 2
    with pytest.raises(UnknownCheck):
        run_check("no-such-check", {})


def test_conjecture_trivial(tmp_path, capsys):
    code, out = run_cli(capsys, "run", "conjecture", "--d", "1", "--r", "3",
                        "--format", "json",
                        "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["status"] == "PASS"
    assert payload[0]["params"] == {"d": 1, "r": 3}


def test_cache_reproduces_reports(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code1, out1 = run_cli(capsys, "run", "braid-identity", "--format", "json",
                          "--cache-dir", cache)
    code2, out2 = run_cli(capsys, "run", "braid-identity", "--format", "json",
                          "--cache-dir", cache)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical, including timing
    assert list((tmp_path / "cache").glob("*.json"))


def test_cache_keyed_on_source_digest(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    argv = ("run", "braid-identity", "--format", "json",
            "--cache-dir", str(cache))
    run_cli(capsys, *argv)
    (path,) = cache.glob("*.json")
    stale = json.loads(path.read_text())
    stale["detail"]["stale"] = True
    path.write_text(json.dumps(stale))
    _, out = run_cli(capsys, *argv)
    assert json.loads(out)[0]["detail"]["stale"]  # same code: a cache hit
    monkeypatch.setattr(cli, "_source_digest", lambda: "edited sources")
    _, out = run_cli(capsys, *argv)
    assert "stale" not in json.loads(out)[0]["detail"]
    assert len(list(cache.glob("*.json"))) == 2


def test_truncated_cache_entry_is_recomputed(tmp_path, capsys):
    # an interrupted write can leave a partial entry: it is a miss, not a crash
    cache = tmp_path / "cache"
    argv = ("run", "systd", "--format", "json", "--cache-dir", str(cache))
    code, out = run_cli(capsys, *argv)
    (path,) = cache.glob("*.json")
    whole = path.read_text()
    path.write_text(whole[:len(whole) // 2])
    code2, out2 = run_cli(capsys, *argv)
    assert code == code2 == 0
    strip = [{k: v for k, v in report.items() if k != "seconds"}
             for report in (json.loads(out)[0], json.loads(out2)[0])]
    assert strip[0] == strip[1]
    assert json.loads(path.read_text()) == json.loads(out2)[0]
    assert [p.name for p in cache.iterdir()] == [path.name]


def test_unusable_cache_still_prints_every_report(tmp_path, capsys,
                                                  monkeypatch):
    # a cache that cannot be read is a miss, and one that cannot be written
    # costs one warning line for the whole run: every report and the exit
    # status stay
    monkeypatch.setattr(cli, "ALL_ORDER", [("rhat", {}), ("systd", {})])
    argv = ["run", "all", "--jobs", "1", "--format", "json"]
    assert main([*argv, "--no-cache"]) == 0
    fresh = json.loads(capsys.readouterr().out)
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    entry_dir = tmp_path / "cache"
    cli._cache_path(entry_dir, "rhat", {}).mkdir(parents=True)
    for cache in (blocker / "x", entry_dir):
        code = main([*argv, "--cache-dir", str(cache)])
        captured = capsys.readouterr()
        assert code == 0
        assert [{k: v for k, v in r.items() if k != "seconds"}
                for r in json.loads(captured.out)] == \
            [{k: v for k, v in r.items() if k != "seconds"} for r in fresh]
        (line,) = captured.err.splitlines()
        assert line.startswith("warning: report cache not written: ")
    assert blocker.read_text() == "not a directory"
    assert [p.is_dir() for p in entry_dir.iterdir()] == [True]


def test_out_directory(tmp_path, capsys):
    out_dir = tmp_path / "dumps"
    code, _ = run_cli(capsys, "run", "rhat", "--n", "2", "--out",
                      str(out_dir), "--no-cache")
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report[0]["check"] == "rhat"
    assert report[0]["detail"]["readings"] == {"2": "descending"}


def test_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a FAIL verdict exits with 1 and keeps its witness
    def failing(params):
        return {"status": "FAIL", "witness": {"row": "123", "col": 0}}

    monkeypatch.setitem(checks.CHECKS, "systd", failing)
    code, out = run_cli(capsys, "run", "systd", "--format", "json",
                        "--cache-dir", str(tmp_path / "cache"))
    assert code == 1
    payload = json.loads(out)
    assert payload[0]["status"] == "FAIL"
    assert payload[0]["detail"] == {"witness": {"row": "123", "col": 0}}
    code, out = run_cli(capsys, "run", "systd", "--no-cache")
    assert code == 1
    assert out.startswith("FAIL systd")
    assert out.rstrip().endswith("1 failure(s)")


def test_bound_exceeded_is_skip_report(capsys, monkeypatch):
    # the rank bound is reported, with its cause, before any block or ideal
    # is built, instead of raised
    def refuse(*args, **kwargs):
        raise AssertionError("built before the rank bound was checked")

    monkeypatch.setattr(qma.BlockQuotient, "__init__", refuse)
    monkeypatch.setattr(pplactic, "ideal_component", refuse)
    monkeypatch.setattr(pplactic, "_composition_generators", refuse)
    code, out = run_cli(capsys, "run", "conjecture", "--d", "3", "--r", "7",
                        "--no-cache", "--format", "json")
    assert code == 2
    (report,) = json.loads(out)
    assert report["status"] == "SKIP"
    assert report["detail"] == {
        "reason": "BoundExceeded: rank 7 exceeds bound 6",
        "params": {"d": 3, "r": 7}}
    code, out = run_cli(capsys, "run", "conjecture", "--d", "3", "--r", "7",
                        "--no-cache")
    assert code == 2
    assert out.startswith("SKIP conjecture")
    assert "reason: BoundExceeded: rank 7 exceeds bound 6" in out
    assert out.rstrip().endswith("0 failure(s), 1 skipped")


def test_rhat_bound_is_skip_report(capsys, monkeypatch):
    # rhat checks the braid relation on V^(x)3: n^3 = 4913 > 4096 is
    # refused, naming n, before the candidate or any V^(x)3 operator is built
    def refuse(*args, **kwargs):
        raise AssertionError("built before the dimension bound was checked")

    monkeypatch.setattr(rmatrix, "_rhat_candidate", refuse)
    monkeypatch.setattr(rmatrix, "_embed", refuse)
    reason = "BoundExceeded: n = 17: dim V^(x)3 = 4913 exceeds 4096"
    for argv in (("rhat", "--n", "17"),
                 ("diag-kernel", "--n", "17", "--r", "2")):
        code, out = run_cli(capsys, "run", *argv, "--no-cache",
                            "--format", "json")
        assert code == 2
        (report,) = json.loads(out)
        assert report["status"] == "SKIP"
        assert report["detail"]["reason"] == reason


def _benchmark_reference(workload):
    """A pinned benchmark report, read and never written here."""
    path = (Path(__file__).resolve().parents[1] / "perfbench" / "reference"
            / f"{workload}.json")
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload, argv", [
    ("battery", ["all"]),
    ("frt-d3r5", ["conjecture", "--d", "3", "--r", "5"]),
    ("preplactic-r5", ["preplactic", "--r", "5"]),
], ids=["battery", "frt-d3r5", "preplactic-r5"])
def test_conjecture_report_equals_benchmark_reference(capsys, workload, argv):
    # the battery pins every matrix artifact (rhat, appendix blocks, systd,
    # diag-kernel) and the exit status 1 of its two lemma-brute FAILs
    reference = _benchmark_reference(workload)
    argv = ["run", *argv, "--no-cache", "--format", "json"]
    assert reference["argv"] == argv
    code, out = run_cli(capsys, *argv)
    assert code == reference["exit_status"]
    assert _without_seconds(out) == reference["reports"]


@pytest.mark.parametrize("r", [3, 4, 5])
def test_preplactic_eliminates_no_kernel(capsys, monkeypatch, r):
    # the verdict at 1^r holds, so the ideal is the kernel's canonical RREF
    # and no kernel is eliminated over Q(q); the reports stay the pinned ones
    def refuse(*args, **kwargs):
        raise AssertionError("kernel eliminated although the verdict holds")

    pplactic._composition_verdict.cache_clear()
    hecke.weight_kernel.cache_clear()
    for module in (linalg, hecke, pplactic):
        monkeypatch.setattr(module, "kernel", refuse)
    code, out = run_cli(capsys, "run", "preplactic", "--r", str(r),
                        "--no-cache", "--format", "json")
    assert code == 0
    if r == 5:
        expected = _benchmark_reference("preplactic-r5")["reports"]
    else:
        expected = [report for report in
                    _benchmark_reference("battery")["reports"]
                    if report["check"] == "preplactic"
                    and report["params"] == {"r": r}]
    assert len(expected) == 1
    assert _without_seconds(out) == expected


def test_large_alphabet_degree_one_passes(capsys):
    code, out = run_cli(capsys, "run", "conjecture", "--d", "1200", "--r", "1",
                        "--no-cache", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["status"] == "PASS"
    assert len(report["detail"]["blocks"]) == 1200


@pytest.mark.parametrize("argv", [("conjecture", "--d"), ("diag-kernel", "--n")],
                         ids=["conjecture", "diag-kernel"])
def test_weight_count_bound_is_skip_report(capsys, monkeypatch, argv):
    # C(1202, 3) weights: refused before any kernel, ideal or block is built
    def refuse(*args, **kwargs):
        raise AssertionError("built before the weight bound was checked")

    monkeypatch.setattr(pplactic, "_composition_verdict", refuse)
    monkeypatch.setattr(checks, "weight_kernel", refuse)
    monkeypatch.setattr(pplactic, "ideal_component", refuse)
    monkeypatch.setattr(qma, "expand_diagonal", refuse)
    code, out = run_cli(capsys, "run", *argv, "1200", "--r", "3",
                        "--no-cache", "--format", "json")
    assert code == 2
    (report,) = json.loads(out)
    assert report["status"] == "SKIP"
    assert report["detail"]["reason"].startswith(
        "BoundExceeded: 288720400 weights of degree 3 over 1200 letters")


@pytest.mark.parametrize("argv", [
    ("conjecture", "--d", "3", "--r", "4", "--max-block", "10"),
    ("preplactic", "--variant", "concat"),
], ids=["max-block", "variant"])
def test_max_block_option_is_gone(capsys, argv):
    # refused by the parser: no check runs and no report is printed
    with pytest.raises(SystemExit) as exc:
        main(["run", *argv, "--no-cache", "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize("argv", [
    ("conjecture", "--d", "0", "--r", "3"),
    ("diag-kernel", "--n", "0"),
    ("rhat", "--n", "0"),
    ("conjecture", "--d", "3", "--r", "0"),
    ("conjecture", "--d", "3", "--r", "-1"),
    ("preplactic", "--r", "-2"),
    ("preplactic", "--r", "x"),
    ("systd", "--jobs", "0"),
    ("systd", "--jobs", "-1"),
], ids=["d0", "diag-kernel-n0", "rhat-n0", "r0", "r-1", "preplactic-r-2",
        "r-not-int", "jobs0", "jobs-1"])
def test_sizes_below_one_are_usage_errors(capsys, argv):
    # refused by the parser: no check runs and no report is printed
    with pytest.raises(SystemExit) as exc:
        main(["run", *argv, "--no-cache", "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected an integer of at least 1" in captured.err


def test_smallest_sizes_are_taken_as_given(capsys):
    code, out = run_cli(capsys, "run", "diag-kernel", "--n", "1", "--r", "3",
                        "--no-cache", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["params"] == {"n": 1, "r": 3}
    assert report["detail"]["blocks"] == {"3": 0}
    code, out = run_cli(capsys, "run", "rhat", "--n", "1", "--no-cache",
                        "--format", "json")
    assert code == 0
    assert list(json.loads(out)[0]["detail"]["readings"]) == ["1"]


def test_preplactic_below_degree_three_passes(capsys):
    # the degree-2 ideal and the kernel of p at r = 2 are both zero
    code, out = run_cli(capsys, "run", "preplactic", "--r", "2",
                        "--no-cache", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["status"] == "PASS"
    assert report["detail"]["dim_kernel"] == 0
    assert report["detail"]["variants"]["concat"] == {
        "dim": 0, "contained_in_kernel": True, "equals_kernel": True}


def test_membership_failure_is_error_report(capsys, monkeypatch):
    # a failed internal membership claim is reported with its witness
    def broken(params):
        raise MembershipFailure("substitution for ((1, 2), (2, 1)) is not a"
                                " relation", residual={"12|21": "q"})

    monkeypatch.setitem(checks.CHECKS, "systd", broken)
    code, out = run_cli(capsys, "run", "systd", "--no-cache",
                        "--format", "json")
    assert code == 1
    (report,) = json.loads(out)
    assert report["status"] == "ERROR"
    assert report["detail"] == {
        "reason": "MembershipFailure: substitution for ((1, 2), (2, 1)) is"
                  " not a relation",
        "residual": {"12|21": "q"},
        "params": {}}
    code, out = run_cli(capsys, "run", "systd", "--no-cache")
    assert code == 1
    assert out.startswith("ERROR systd")
    assert out.rstrip().endswith("0 failure(s), 1 error(s)")


def test_text_format_has_status_lines(tmp_path, capsys):
    code, out = run_cli(capsys, "run", "idempotents",
                        "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert out.startswith("PASS idempotents")


def test_artifact_dumps(tmp_path, capsys):
    out_dir = tmp_path / "dumps"
    code, _ = run_cli(capsys, "run", "systd", "--out", str(out_dir),
                      "--no-cache")
    assert code == 0
    blob = json.loads((out_dir / "systd.expansion_111.json").read_text())
    assert blob["matrix"][5][5] == "q^3 - 2*q + 2*q^-1 - q^-3"


def test_parallel_jobs():
    from qdiag.checks import run_many
    reports = run_many([("systd", {}), ("braid-identity", {})], jobs=2)
    assert [r.check for r in reports] == ["systd", "braid-identity"]
    assert all(r.status == "PASS" for r in reports)


def test_jobs_capped_at_task_count(monkeypatch):
    # a pool forks all of its processes at once: ask for no more than tasks
    import itertools
    import multiprocessing
    from qdiag.checks import run_many
    asked = []

    class InlinePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, tasks, chunksize):
            return list(itertools.starmap(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    reports = run_many([("systd", {}), ("braid-identity", {})], jobs=10 ** 6)
    assert asked == [2]
    assert [r.status for r in reports] == ["PASS", "PASS"]


def _without_seconds(text):
    return [{k: v for k, v in r.items() if k != "seconds"}
            for r in json.loads(text)]


@pytest.fixture(scope="module")
def battery():
    """`run all` as JSON with the default --jobs and with --jobs 1, and the
    multiprocessing children left alive after the default run returns."""
    import contextlib
    import io
    import multiprocessing
    runs = {}
    for label, extra in (("default", []), ("serial", ["--jobs", "1"])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["run", "all", "--no-cache", "--format", "json",
                         *extra])
        runs[label] = (code, out.getvalue())
        if label == "default":
            runs["children"] = multiprocessing.active_children()
    return runs


def test_jobs_default_is_the_usable_cpu_count():
    args = cli.build_parser().parse_args(["run", "all"])
    assert args.jobs == len(os.sched_getaffinity(0))


def test_run_all_in_parallel_matches_serial(battery):
    code, out = battery["default"]
    serial_code, serial_out = battery["serial"]
    assert code == serial_code == 1  # lemma-brute still reports FAIL
    assert _without_seconds(out) == _without_seconds(serial_out)
    assert len(json.loads(out)) == len(checks.ALL_ORDER)


def test_sign_option_selects_the_battery_entry(capsys, battery):
    code, out = run_cli(capsys, "run", "appendix", "--sign", "minus",
                        "--no-cache", "--format", "json")
    assert code == 0
    (entry,) = [r for r in _without_seconds(battery["serial"][1])
                if r["check"] == "appendix"
                and r["params"] == {"sign": "minus"}]
    assert _without_seconds(out) == [entry]


def test_run_all_leaves_no_worker_running(battery):
    assert battery["children"] == []


def test_single_check_starts_no_pool(monkeypatch, capsys):
    import multiprocessing

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a single check started a process pool")

    monkeypatch.setattr(multiprocessing, "Pool", NoPool)
    code, out = run_cli(capsys, "run", "systd", "--no-cache", "--jobs", "4")
    assert code == 0 and out.startswith("PASS systd")
    code, out = run_cli(capsys, "run", "systd", "--no-cache")
    assert code == 0 and out.startswith("PASS systd")


@pytest.mark.parametrize("error", [ImportError, OSError, NotImplementedError])
def test_pool_that_cannot_start_runs_serially(monkeypatch, error):
    import multiprocessing
    from qdiag.checks import run_many
    tasks = [("systd", {}), ("braid-identity", {})]
    serial = [r.to_json() for r in run_many(tasks, jobs=1)]

    class BrokenPool:
        def __init__(self, processes):
            raise error("no semaphores here")

    monkeypatch.setattr(multiprocessing, "Pool", BrokenPool)
    reports = [r.to_json() for r in run_many(tasks, jobs=2)]
    for report in serial + reports:
        del report["seconds"]
    assert reports == serial


@pytest.mark.parametrize("started", [0, 1])
def test_worker_that_cannot_start_runs_serially(monkeypatch, started):
    # the fork of worker `started` + 1 is refused: run_many runs every task
    # here, and the pool stops the worker that did start (at most one)
    import multiprocessing
    import multiprocessing.process
    from qdiag.checks import run_many
    tasks = [("rhat", {}), ("braid-identity", {})]
    serial = [r.to_json() for r in run_many(tasks, jobs=1)]
    start = multiprocessing.process.BaseProcess.start
    calls = []

    def refuse_after(self):
        calls.append(self)
        if len(calls) > started:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        refuse_after)
    try:
        reports = [r.to_json() for r in run_many(tasks, jobs=2)]
    finally:
        monkeypatch.undo()
        # a worker left waiting on its queue would block the exit of pytest
        leftover = multiprocessing.active_children()
        for process in leftover:
            process.terminate()
            process.join()
    for report in serial + reports:
        del report["seconds"]
    assert reports == serial
    assert len(calls) == started + 1
    assert leftover == []
