#!/usr/bin/env python3
"""Scan benchmark for phiscan.

Run from the root of a phiscan checkout:

    python3 perfbench/run.py --workload vitals-dir --seed 1 --seconds 25 --trace 0

It builds seeded evidence containers with the fixture forge, scans each
with phiscan.scanner.scan_evidence plus phiscan.report.render_report,
checks every report (bench.py), and prints two JSON lines on stdout: the
run's context (versions, commit, seeds, container sizes, report SHA-256s,
the raw median scan time and the p95), then the result {"correct",
"attempted", "failed", "metrics"}. With --trace 0 the metrics are the
end-to-end ones, their times scaled to a nominal core speed by a probe
(bench.probe); with --trace 1 they are per-layer figures, as measured,
from a traced run (tracing.py) in which each container is scanned both
untraced and traced.

Before measuring, it builds one extra container from a fixed seed, checks
its SHA-256 against pins.json (so a change to the forge cannot silently
change what is measured) and scans it untimed, to absorb imports and lazy
set-up. `--write-pins` rewrites pins.json instead of measuring.

Everything the run writes goes to .perfbench_work/ in the checkout, temp
files included, and is removed at exit. Evidence is read warm from the
page cache right after it is written; disk behaviour is not measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINS = HERE / "pins.json"


def _arguments(argv):
    parser = argparse.ArgumentParser(description="Scan benchmark for phiscan.")
    parser.add_argument("--workload", help="vitals-dir, phone-zip or triage-batch")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="record each workload's input digest in pins.json and exit")
    args = parser.parse_args(argv)
    if not args.write_pins and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")
    return args


def _environment() -> dict:
    return {"sqlite_version": sqlite3.sqlite_version, "zlib_version": zlib.ZLIB_RUNTIME_VERSION}


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "phiscan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _pin_container(workloads, workload: str):
    container = workloads.build_container(workload, workloads.pin_seed(workload), WORK / "pin")
    return container, workloads.container_digest(container)


def _write_pins(workloads) -> int:
    pins = {"environment": _environment(), "workloads": {}}
    for workload in workloads.WORKLOADS:
        container, digest = _pin_container(workloads, workload)
        container.remove()
        pins["workloads"][workload] = digest
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"perfbench: wrote {PINS.name}", file=sys.stderr)
    return 0


def _measure(args, bench, workloads) -> int:
    pins = json.loads(PINS.read_text())
    warmup, digest = _pin_container(workloads, args.workload)
    if digest != pins["workloads"].get(args.workload):
        warmup.remove()
        print(f"perfbench: {args.workload} inputs differ from pins.json "
              f"(built {digest}, pinned under {pins['environment']}, running under "
              f"{_environment()}); the forge or the environment changed what is measured. "
              "If that is intended, rerun with --write-pins in its own change.",
              file=sys.stderr)
        return 3
    trace = bool(args.trace)
    bench.measure([warmup], 0, trace)  # untimed: imports and lazy set-up
    run = bench.measure(workloads.containers(args.workload, args.seed, WORK), args.seconds,
                        trace)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        **_environment(), "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
        "source_sha256": _source_sha256(), "input_pin": digest,
        "scans": run.attempted, "containers": run.containers,
        "files": sum(c["files"] for c in run.containers),
        "bytes": sum(c["bytes"] for c in run.containers),
        "records": sum(c["records"] for c in run.containers),
        "page_cache": "evidence is read warm, right after it is written; disk not measured",
        "problems": run.problems,
    }
    if run.scan_s:
        context.update({
            "scan_p95_s": bench.p95(run.scan_s),
            "raw_scan_s": statistics.median(run.raw_scan_s),
            "probe_s": statistics.median(run.probe_s),
            "probe_nominal_s": bench.PROBE_NOMINAL_S,
        })
    metrics = {}
    if run.scan_s:
        figures = bench.per_layer(run) if trace else bench.end_to_end(run, peak_rss_mib)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in figures.items()}
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0 and bool(run.scan_s),
                      "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "phiscan" / "scanner.py").is_file() or not PINS.is_file():
        print(f"perfbench: no phiscan sources at {SRC}; run from the root of a phiscan "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    # the forge, connect_bytes and SQLite's own spill files all stage here
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORK / "tmp")
    try:
        if args.write_pins:
            return _write_pins(workloads)
        return _measure(args, bench, workloads)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
