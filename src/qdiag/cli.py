"""Command-line front end: `qdiag run <check> [options]`.

Reports are emitted as text (one line per check plus detail) or as a JSON
array.  Results are cached content-addressed by (check, parameters, source
digest), where the digest covers the package's .py and data files, so an
edited check never serves its old report; re-running with identical
parameters reproduces the stored report byte for byte; an entry is renamed
into place whole, and one that cannot be read or parsed is recomputed.  A
cache that cannot be written costs one warning on stderr, never a report.
Exit status is 0
when every executed check passes, 1 when one fails or reports an error, and 2
when none does but one was skipped at a size bound (or the check name is
unknown).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from pathlib import Path

from .checks import ALL_ORDER, CheckReport, check_names, run_many
from .errors import UnknownCheck

PARAM_KEYS = ("n", "r", "sign")


def _size(text: str) -> int:
    """A letter count, a degree or a worker count: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}")
    return int(text)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 over the package's .py files and data/*.json, with their names."""
    import hashlib  # here, not at the top: --no-cache never hashes

    root = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.glob("*.py")) + sorted(root.glob("data/*.json")):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0"
                      .encode())
        digest.update(data)
    return digest.hexdigest()


def _cache_key(name: str, params: dict) -> str:
    import hashlib

    blob = json.dumps({"check": name, "params": params,
                       "source": _source_digest()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_path(cache_dir: Path, name: str, params: dict) -> Path:
    return cache_dir / f"{_cache_key(name, params)}.json"


def _store(path: Path, report: CheckReport):
    """Write one cache entry; a reader sees the whole entry or none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(report.to_json(), indent=1))
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def _print_text(report: CheckReport):
    tag = report.status
    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    line = f"{tag:4s} {report.check}"
    if params:
        line += f" [{params}]"
    line += f" ({report.seconds:.3f}s)"
    print(line)
    for key, value in report.detail.items():
        text = json.dumps(value) if isinstance(value, (dict, list)) else value
        print(f"     {key}: {text}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdiag",
        description="exact verification suite for the quantum diagonal "
                    "algebra and its Hecke-side counterpart")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one check, or `all`")
    runp.add_argument("check", help="check name; see `qdiag list`")
    runp.add_argument("--n", "--d", dest="n", type=_size, default=None,
                      help="dimension of V / number of diagonal letters, >= 1")
    runp.add_argument("--r", dest="r", type=_size, default=None,
                      help="tensor degree, >= 1")
    runp.add_argument("--sign", choices=("plus", "minus"), default=None)
    runp.add_argument("--format", choices=("text", "json"), default="text")
    runp.add_argument("--jobs", type=_size, default=_usable_cpus(),
                      help="worker processes for independent checks, >= 1; "
                           "default: every CPU this process may use "
                           "(%(default)s here); 1 runs them serially")
    runp.add_argument("--out", type=Path, default=None,
                      help="directory for JSON report and dump files")
    runp.add_argument("--cache-dir", type=Path,
                      default=Path(".qdiag-cache"))
    runp.add_argument("--no-cache", action="store_true")
    sub.add_parser("list", help="list available checks")
    return parser


def _collect_params(args) -> dict:
    params = {}
    for key in PARAM_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    return params


def _tasks_for(args) -> list:
    if args.check == "all":
        return [(name, dict(params)) for name, params in ALL_ORDER]
    if args.check not in check_names():
        raise UnknownCheck(f"unknown check {args.check!r}; try one of "
                           + ", ".join(check_names()))
    params = _collect_params(args)
    if args.check == "conjecture" and "n" in params:
        params["d"] = params.pop("n")
    return [(args.check, params)]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in check_names():
            print(name)
        return 0
    try:
        tasks = _tasks_for(args)
    except UnknownCheck as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pending = []
    slots = {}
    use_cache = not args.no_cache
    for idx, (name, params) in enumerate(tasks):
        cached = None
        if use_cache:
            path = _cache_path(args.cache_dir, name, params)
            try:
                cached = CheckReport.from_json(json.loads(path.read_text()))
            except (OSError, ValueError, KeyError, TypeError):
                pass  # missing, unreadable or partial: recomputed
        if cached is not None:
            slots[idx] = cached
        else:
            pending.append((idx, name, params))

    fresh = run_many([(name, params) for _, name, params in pending],
                     jobs=args.jobs)
    for (idx, name, params), report in zip(pending, fresh):
        slots[idx] = report
        if use_cache:
            try:
                _store(_cache_path(args.cache_dir, name, params), report)
            except OSError as exc:
                print(f"warning: report cache not written: {exc}",
                      file=sys.stderr)
                use_cache = False  # one warning, and no further attempt
    reports = [slots[i] for i in range(len(tasks))]

    payload = [r.to_json() for r in reports]
    if args.format == "json":
        print(json.dumps(payload, indent=1))
    else:
        for report in reports:
            _print_text(report)
        failed = sum(1 for r in reports if r.status == "FAIL")
        errors = sum(1 for r in reports if r.status == "ERROR")
        skipped = sum(1 for r in reports if r.status == "SKIP")
        summary = f"== {len(reports)} check(s), {failed} failure(s)"
        if errors:
            summary += f", {errors} error(s)"
        print(summary + (f", {skipped} skipped" if skipped else ""))
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "report.json").write_text(json.dumps(payload, indent=1))
        for report in reports:
            stem = report.check
            if report.params:
                stem += "." + "-".join(f"{k}{v}" for k, v in
                                       sorted(report.params.items()))
            for name, blob in report.artifacts.items():
                path = args.out / f"{stem}.{name}.json"
                path.write_text(json.dumps(blob, indent=1))
    statuses = {r.status for r in reports}
    if statuses & {"FAIL", "ERROR"}:
        return 1
    return 2 if "SKIP" in statuses else 0


if __name__ == "__main__":
    sys.exit(main())
