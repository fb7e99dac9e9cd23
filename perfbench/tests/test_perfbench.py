"""Tiny-scale self-tests of the benchmark: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

import pytest

import phiscan.evidence
import phiscan.phi
import phiscan.scanner
from phiscan.fixtures import FixtureSpec, build_tree, verify_scan_against_manifest, write_tree
from phiscan.phi import CAT_PAYMENT, CAT_SSN
from phiscan.scanner import scan_evidence

import bench
import phone
import tracing
import workloads

BENCH = Path(__file__).resolve().parent.parent
DEFINITION = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _tiny(workload: str, tmp_path: Path, count: int):
    return list(itertools.islice(workloads.containers(workload, 7, tmp_path, scale=0.02), count))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_passes_its_checks(workload, trace, tmp_path):
    containers = _tiny(workload, tmp_path, 2)
    run = bench.measure(containers, math.inf, trace)
    forms = sum(len(c.paths) for c in containers)
    assert (run.attempted, run.failed, len(run.scan_s)) == (forms, 0, forms)
    if workload == "triage-batch":
        for entry in run.containers:
            directory_sha, zip_sha = entry["report_sha256"]
            assert directory_sha == zip_sha
    if trace:
        figures = bench.per_layer(run)
        assert list(figures) == [m["name"] for m in DEFINITION["per_layer"]]
        assert figures["evidence.read_amplification"][0] == 2.0
    else:
        figures = bench.end_to_end(run, peak_rss_mib=1.0)
        assert list(figures) == [m["name"] for m in DEFINITION["end_to_end"]]
    for name, (value, unit) in figures.items():
        assert math.isfinite(value), name


def test_span_self_times_sum_to_the_root(tmp_path):
    (container,) = _tiny("vitals-dir", tmp_path, 1)
    tracer = tracing.Tracer()
    bench._traced_scan(container.paths[0], tracer)
    spans = tracer.take()

    def root_of(span):
        while span.parent is not None:
            span = span.parent
        return span

    roots = [s for s in spans if s.parent is None]
    assert [r.name for r in roots] == ["scan", "report.render_text", "report.timeline"]
    for root in roots:
        total = sum(s.self_s for s in spans if root_of(s) is root)
        assert math.isclose(total, root.duration_s, rel_tol=1e-9, abs_tol=1e-12)
    assert {t.span for t in tracing.TARGETS} <= {s.name for s in spans}
    assert all(s.self_s >= 0 for s in spans)


def test_traced_bindings_are_restored():
    original = phiscan.evidence.read_file
    with tracing.traced(tracing.Tracer()):
        assert phiscan.scanner.read_file is not original
        assert phiscan.phi.classify_record is phiscan.scanner.classify_record
    assert phiscan.scanner.read_file is original
    assert phiscan.evidence.read_file is original


def test_zeroed_myvitals_database_counts_as_failed_and_the_run_goes_on(tmp_path):
    containers = _tiny("vitals-dir", tmp_path, 3)
    db = containers[1].paths[0] / "iHealthMyVitals.V2" / "Databases" / "androidNin.db"
    data = db.read_bytes()
    db.write_bytes(data[:100] + bytes(len(data) - 100))
    run = bench.measure(containers, math.inf, False)
    assert (run.attempted, run.failed, len(run.scan_s)) == (3, 1, 2)
    assert bench.end_to_end(run, peak_rss_mib=1.0)["scan_s"][0] > 0


def test_phone_packages_extend_the_manifest_to_the_sweep(tmp_path):
    spec = FixtureSpec(seed=3)
    packages = phone.phone_packages(random.Random(3), 12, lines=20, ssn_rate=1.0, card_rate=1.0)
    tree, manifest = phone.merge(*build_tree(spec), packages)
    write_tree(tree, spec, tmp_path / "phone")
    report = scan_evidence(tmp_path / "phone", fixed_clock=bench.CLOCK).report
    assert verify_scan_against_manifest(manifest, report).ok
    categories = [f.category for f in report.findings]
    assert (categories.count(CAT_SSN), categories.count(CAT_PAYMENT)) == (12, 12)
    assert len(report.matrix) == 12


def test_pins_match_the_forge(tmp_path):
    pins = json.loads((BENCH / "pins.json").read_text())
    for workload in workloads.WORKLOADS:
        container = workloads.build_container(workload, workloads.pin_seed(workload),
                                              tmp_path / workload)
        assert workloads.container_digest(container) == pins["workloads"][workload], workload
