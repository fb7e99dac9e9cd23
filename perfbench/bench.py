"""Measurement loop: scan fresh containers one at a time and check each result.

The loop is closed, single-process and sequential: it builds a container,
scans every form of it, checks the reports, and only then builds the
next. Every timed scan reads a container the process has not scanned
before. A scan that raises, or whose report fails a check, is counted as
failed and the run goes on.

Checks on every scan:
- fixtures.verify_scan_against_manifest passes against the manifest the
  container was built with (phone-image packages included);
- the directory and zip forms of one container give identical report bytes;
- in a traced run, the traced report bytes equal the untraced ones.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterable

from phiscan.fixtures import verify_scan_against_manifest
from phiscan.report import FORMAT_TEXT, build_timeline, render_report, render_timeline
from phiscan import scanner

from tracing import Tracer, self_times, traced
from workloads import Container

CLOCK = "2020-01-01T00:00:00Z"
MIB = 1 << 20

# The probe's time on an idle core of the machine the benchmark was defined
# on (2-core x86-64 VM, Python 3.11.7), and the least time between probes.
PROBE_NOMINAL_S = 0.020
PROBE_EVERY_S = 0.5


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: a gauge of this core's speed.

    The machine shares its cores with other work, so its speed drifts by a
    quarter or more within a minute. measure() runs the probe between
    containers, at most every PROBE_EVERY_S, and scales the timings taken
    between two probes by PROBE_NOMINAL_S over the mean of the two. That
    cancels most of the drift; of the probes tried (this loop, an
    allocation-heavy task and a pointer chase over 400k objects), this one
    tracked scan times most closely. The probe uses no phiscan code, so a
    change to phiscan cannot move it.
    """
    gc.collect()
    t0 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - t0


@dataclass
class Run:
    """Everything one run measured, untraced and traced."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # as measured
    raw_scan_s: list[float] = field(default_factory=list)
    raw_timeline_s: list[float] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    probe_s: list[float] = field(default_factory=list)
    # the same, scaled by the probe (see probe)
    scan_s: list[float] = field(default_factory=list)
    timeline_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    containers: list[dict] = field(default_factory=list)
    # traced runs only
    traced_scan_s: list[float] = field(default_factory=list)
    layers: dict[str, list] = field(default_factory=dict)
    traced_scans: int = 0
    records: int = 0
    distinct_bytes: int = 0
    json_bytes: int = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def normalise(self, gauge: float) -> None:
        """Scale the timings taken since the last call; `gauge` is the probe time around them."""
        scale = PROBE_NOMINAL_S / gauge
        for raw, scaled in ((self.raw_scan_s, self.scan_s),
                            (self.raw_timeline_s, self.timeline_s),
                            (self.raw_setup_s, self.setup_s)):
            scaled.extend(secs * scale for secs in raw[len(scaled):])
        self.probe_s.append(gauge)

    def add_spans(self, spans) -> None:
        for name, (calls, secs, size) in self_times(spans).items():
            entry = self.layers.setdefault(name, [0, 0.0, 0])
            entry[0] += calls
            entry[1] += secs
            entry[2] += size


def _timed_scan(path):
    gc.collect()
    t0 = time.perf_counter()
    result = scanner.scan_evidence(path, fixed_clock=CLOCK)
    data = render_report(result.report)
    return result, data, time.perf_counter() - t0


def _traced_scan(path, tracer: Tracer):
    gc.collect()
    with traced(tracer):
        with tracer.span("scan") as root:
            # looked up at call time, so the traced binding is the one called
            result = scanner.scan_evidence(path, fixed_clock=CLOCK)
            with tracer.span("report.render_json"):
                data = render_report(result.report)
        with tracer.span("report.render_text"):
            render_report(result.report, FORMAT_TEXT)
        with tracer.span("report.timeline"):
            render_timeline(build_timeline(list(result.records)), FORMAT_TEXT)
    return result, data, root.duration_s


def _timeline_s(result) -> float:
    """Median of three timings of the timeline: one is only milliseconds on small scans."""
    times = []
    for _ in range(3):
        gc.collect()
        t0 = time.perf_counter()
        render_timeline(build_timeline(list(result.records)), FORMAT_TEXT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure_container(run: Run, container: Container, trace: bool) -> None:
    """Scan every form of one container, check the reports and record the figures."""
    run.raw_setup_s.append(container.build_s + container.write_s)
    run.build_s.append(container.build_s)
    run.write_s.append(container.write_s)
    shas = []
    reports = []
    records = 0
    for index, path in enumerate(container.paths):
        run.attempted += 1
        tracer = Tracer()
        # traced and untraced scans take turns going first, so that neither
        # gains from being the second scan of a container
        order = (False, True) if trace else (False,)
        if (len(run.containers) + index) % 2:
            order = order[::-1]
        try:
            scans = {traced_scan: _traced_scan(path, tracer) if traced_scan else _timed_scan(path)
                     for traced_scan in order}
            result, data, secs = scans[False]
            if trace:
                traced_result, traced_data, traced_secs = scans[True]
        except Exception:  # a failed scan is counted and the run goes on
            run.fail(f"{path.name}: scan raised\n{traceback.format_exc()}")
            continue
        t0 = time.perf_counter()
        verdict = verify_scan_against_manifest(container.manifest, result.report)
        run.verify_s.append(time.perf_counter() - t0)
        if not verdict.ok:
            run.fail(f"{path.name}: manifest check failed: {list(verdict.mismatches[:5])}")
            continue
        if reports and data != reports[0]:
            run.fail(f"{path.name}: report differs from {container.paths[0].name}")
            continue
        if trace and traced_data != data:
            run.fail(f"{path.name}: traced report differs from the untraced one")
            continue
        reports.append(data)
        shas.append(hashlib.sha256(data).hexdigest())
        records = len(result.records)
        run.raw_scan_s.append(secs)
        run.raw_timeline_s.append(_timeline_s(result))
        if trace:
            run.traced_scan_s.append(traced_secs)
            run.add_spans(tracer.take())
            run.traced_scans += 1
            run.records += len(traced_result.records)
            run.distinct_bytes += sum(d.byte_length for d in traced_result.report.file_digests)
            run.json_bytes += len(traced_data)
    run.containers.append({"seed": container.seed, "files": container.files,
                           "bytes": container.bytes, "records": records,
                           "report_sha256": shas})


def measure(containers: Iterable[Container], seconds: float, trace: bool) -> Run:
    """Measure containers until the next one would likely end past `seconds`."""
    run = Run()
    start = last_probe = time.perf_counter()
    gauge = probe()
    done = 0
    for container in containers:
        try:
            measure_container(run, container, trace)
        finally:
            container.remove()
        done += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - start) / done >= seconds:
            break
        if now - last_probe >= PROBE_EVERY_S:
            next_gauge = probe()
            run.normalise((gauge + next_gauge) / 2)
            gauge, last_probe = next_gauge, time.perf_counter()
    run.normalise((gauge + probe()) / 2)
    return run


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def end_to_end(run: Run, peak_rss_mib: float) -> dict[str, tuple[float, str]]:
    return {
        "scan_s": (statistics.median(run.scan_s), "s"),
        "timeline_s": (statistics.median(run.timeline_s), "s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (statistics.median(run.setup_s), "s"),
    }


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Per-scan means of the traced layers; every time is self time."""
    n = run.traced_scans
    empty = [0, 0.0, 0]

    def calls(name):
        return run.layers.get(name, empty)[0]

    def secs(name):
        return run.layers.get(name, empty)[1] / n

    def size(name):
        return run.layers.get(name, empty)[2]

    parsers = ("parsers.myvitals.parse", "parsers.healthmate.parse", "parsers.glucosmart.parse")
    return {
        "evidence.open_s": (secs("evidence.open"), "s"),
        "evidence.enumerate_s": (secs("evidence.enumerate"), "s"),
        "evidence.files_under_calls": (calls("evidence.files_under") / n, "count"),
        "evidence.files_under_s": (secs("evidence.files_under"), "s"),
        "evidence.read_calls": (calls("evidence.read") / n, "count"),
        "evidence.read_s": (secs("evidence.read"), "s"),
        "evidence.read_mib": (size("evidence.read") / n / MIB, "MiB"),
        "evidence.read_amplification": (size("evidence.read") / run.distinct_bytes, "ratio"),
        "evidence.hash_s": (secs("evidence.hash"), "s"),
        "parsers.myvitals.parse_s": (secs("parsers.myvitals.parse"), "s"),
        "parsers.healthmate.parse_s": (secs("parsers.healthmate.parse"), "s"),
        "parsers.glucosmart.parse_s": (secs("parsers.glucosmart.parse"), "s"),
        "parsers.records": (sum(size(p) for p in parsers) / n, "count"),
        "sqlite_bytes.open_calls": (calls("sqlite_bytes.open") / n, "count"),
        "sqlite_bytes.open_s": (secs("sqlite_bytes.open"), "s"),
        "sqlite_bytes.staged_mib": (size("sqlite_bytes.open") / n / MIB, "MiB"),
        "sqlite_bytes.select_s": (secs("sqlite_bytes.select"), "s"),
        "phi.scan_raw_calls": (calls("phi.scan_raw") / n, "count"),
        "phi.scan_raw_s": (secs("phi.scan_raw"), "s"),
        "phi.raw_hits": (size("phi.scan_raw") / n, "count"),
        "phi.classify_calls": (calls("phi.classify") / n, "count"),
        "phi.classify_s": (secs("phi.classify"), "s"),
        "phi.classify_per_record": (calls("phi.classify") / run.records, "calls/record"),
        "phi.classify_yield": (size("phi.classify") / calls("phi.classify"), "findings/call"),
        "phi.security_rule_s": (secs("phi.security_rule"), "s"),
        "phi.privacy_rule_s": (secs("phi.privacy_rule"), "s"),
        "report.render_json_s": (secs("report.render_json"), "s"),
        "report.json_mib": (run.json_bytes / n / MIB, "MiB"),
        "report.render_text_s": (secs("report.render_text"), "s"),
        "report.timeline_s": (secs("report.timeline"), "s"),
        "scanner.self_s": (secs("scanner"), "s"),
        "fixtures.build_s": (statistics.fmean(run.build_s), "s"),
        "fixtures.write_s": (statistics.fmean(run.write_s), "s"),
        "fixtures.verify_s": (statistics.fmean(run.verify_s), "s"),
        # paired by scan, so drift in machine speed between scans cancels
        "trace.overhead_s": (statistics.median(
            traced - untraced for traced, untraced in zip(run.traced_scan_s, run.raw_scan_s)), "s"),
    }
