"""Acceptance suite: the documented-artifact reproduction criteria.

Each test is one exit criterion; the conftest terminal-summary hook
prints a PASS/FAIL line per criterion at the end of the run.
"""

from __future__ import annotations

import dataclasses
import random
import time
from datetime import datetime, timezone

import pytest

from phiscan.artifacts import ArtifactRecord, SourceLocator, normalize_timestamp
from phiscan.errors import AmbiguousUnitError
from phiscan.fixtures import (
    generate_fixture,
    paper_replica_spec,
    random_spec,
    verify_scan_against_manifest,
)
from phiscan.parsers import healthmate, myvitals
from phiscan.parsers.myvitals import EnvironmentReading
from phiscan.parsers.tables import parse_tables
from phiscan.phi import MATRIX_KEY_LINE, PHI_CATEGORIES
from phiscan.report import build_timeline, render_report
from phiscan.scanner import scan_evidence

from conftest import TABLE2

CLOCK = "2020-01-01T00:00:00Z"


@pytest.fixture(scope="module")
def replica(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "replica"
    manifest = generate_fixture(paper_replica_spec(), out)
    return out, manifest


def test_c1_phi_matrix_reproduces_documented_table(replica):
    tree, _ = replica
    started = time.monotonic()
    result = scan_evidence(tree, fixed_clock=CLOCK)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"scan took {elapsed:.2f}s, budget is 5s"

    assert len(result.report.matrix) == 3
    for row in result.report.matrix:
        expected = TABLE2[row.app_name]
        got = tuple(row.cells[cat] for cat in PHI_CATEGORIES)
        assert got == expected, f"{row.app_name}: {got} != {expected}"

    text = render_report(result.report, "text").decode()
    assert MATRIX_KEY_LINE in text
    assert "✓" in text and "X" in text


def test_c2_plaintext_credential_recovery(replica):
    tree, _ = replica
    result = scan_evidence(tree, fixed_clock=CLOCK, redact=False)
    violations = result.report.violations["iHealth MyVitals"]
    creds = [v for v in violations if v.kind == "plaintext-credential"]
    assert len(creds) == 1
    assert "medicaldevices2018exper@gmail.com" in creds[0].description
    assert "MedExp2018" in creds[0].description
    locator = creds[0].evidence[0]
    assert locator.container == "xml-file"
    assert locator.relative_path.endswith("sp_user_region_host_info.xml")


def test_c3_oximetry_rows_parse_exactly(replica):
    tree, _ = replica
    from phiscan.evidence import open_source, read_file

    src = open_source(tree)
    db_path = "iHealthMyVitals.V2/Databases/androidNin.db"
    records, warnings = parse_tables(read_file(src, db_path), myvitals.TABLES,
                                     package="iHealthMyVitals.V2", relative_path=db_path)
    assert warnings == []
    records = [r for r in records if r.locator.detail.startswith("TB_SPO2Result:")]
    assert len(records) == 5
    first = records[0].payload
    assert first.result_spo2 == 97
    assert first.pulse_rate == 89
    assert first.measured_at.raw_value == 1530829549
    assert first.measured_at.unit == "seconds"
    times = [r.payload.measured_at.raw_value for r in records]
    assert times == sorted(times)
    assert times[-1] == 1531259730


def test_c4_device_rows_parse_exactly(replica):
    tree, _ = replica
    from phiscan.evidence import open_source, read_file

    src = open_source(tree)
    db_path = "com.withings.wiscale2/databases/withings-wiscale.db"
    tables = (healthmate.DEVICES, healthmate.measure_table(healthmate.DEFAULT_CODE_MAP),
              healthmate.USERS)
    records, warnings = parse_tables(read_file(src, db_path), tables,
                                     package="com.withings.wiscale2", relative_path=db_path)
    assert warnings == []
    records = [r for r in records if r.locator.detail.startswith("devices:")]
    assert len(records) == 2
    by_mac = {r.payload.mac_address: r.payload for r in records}
    assert set(by_mac) == {"00:24:e4:5a:ee:6c", "00:24:e4:57:12:c4"}
    assert by_mac["00:24:e4:5a:ee:6c"].battery_pct == 77
    assert by_mac["00:24:e4:57:12:c4"].battery_pct == 78
    for payload in by_mac.values():
        assert payload.association_date.unit == "milliseconds"
        assert payload.last_use_date.unit == "milliseconds"
        assert payload.modified_date.unit == "milliseconds"


def test_c5_glucosmart_behavior(replica):
    tree, manifest = replica
    result = scan_evidence(tree, fixed_clock=CLOCK)

    statuses = result.report.database_statuses["Gluco-Smart"]
    encrypted = [s for s in statuses if s.relative_path in manifest.encrypted_dbs]
    assert len(encrypted) == len(manifest.encrypted_dbs) == 2
    for status in encrypted:
        assert status.status == "encrypted-or-opaque"
        assert status.entropy_bits_per_byte > 7.5

    gluco_records = [r for r in result.records
                     if r.locator.package_name == "jiuana-androidBg.start"]
    reading_kinds = {"blood-pressure", "oximetry", "weight", "environment"}
    assert not any(r.kind in reading_kinds for r in gluco_records)

    gluco_findings = [f for f in result.report.findings
                      if f.locator.package_name == "jiuana-androidBg.start"]
    assert len(gluco_findings) == 1
    assert gluco_findings[0].category == "name"
    assert gluco_findings[0].locator.relative_path.endswith("user_info.xml")

    row = next(r for r in result.report.matrix if r.app_name == "Gluco-Smart")
    assert tuple(row.cells[c] for c in PHI_CATEGORIES) == TABLE2["Gluco-Smart"]


def test_c6_security_rule_conclusions(replica):
    tree, _ = replica
    result = scan_evidence(tree, fixed_clock=CLOCK)
    kinds = {app: sorted(v.kind for v in vs)
             for app, vs in result.report.violations.items()}
    assert kinds["iHealth MyVitals"] == ["plaintext-credential", "plaintext-ephi-at-rest"]
    assert kinds["Health Mate"] == ["plaintext-ephi-at-rest"]
    assert "plaintext-ephi-at-rest" not in kinds.get("Gluco-Smart", [])
    assert "plaintext-credential" not in kinds.get("Gluco-Smart", [])


def test_c7_round_trip_property_suite(tmp_path):
    started = time.monotonic()
    for seed in range(100):
        spec = random_spec(seed)
        out = tmp_path / f"spec{seed}"
        manifest = generate_fixture(spec, out)
        report = scan_evidence(out, fixed_clock=CLOCK).report
        verdict = verify_scan_against_manifest(manifest, report)
        assert verdict.ok, f"seed {seed}: {verdict.mismatches[:4]}"

        zip_out = tmp_path / f"spec{seed}.zip"
        generate_fixture(dataclasses.replace(spec, output_kind="zip"), zip_out)
        zip_report = scan_evidence(zip_out, fixed_clock=CLOCK).report
        assert render_report(report) == render_report(zip_report), f"seed {seed}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"round-trip suite took {elapsed:.1f}s, budget is 60s"


def test_c8_determinism_and_timeline_invariance(replica):
    tree, _ = replica
    first = render_report(scan_evidence(tree, fixed_clock=CLOCK).report)
    second = render_report(scan_evidence(tree, fixed_clock=CLOCK).report)
    assert first == second

    rng = random.Random(4242)
    records = []
    for i in range(50):
        raw = rng.choice((rng.randrange(1, 10**11), rng.randrange(10**12, 10**13)))
        records.append(ArtifactRecord(
            kind="environment",
            payload=EnvironmentReading(50.0, 20.0, 1.0, normalize_timestamp(raw)),
            locator=SourceLocator("pkg", "pkg/db", "sqlite-table", f"T:{i}")))
    reference = build_timeline(records)
    assert [e.at.utc for e in reference] == sorted(e.at.utc for e in reference)
    for _ in range(1000):
        rng.shuffle(records)
        assert build_timeline(records) == reference


def test_c9_timestamp_oracle_agreement():
    def oracle(epoch_seconds: int) -> str:
        return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ")

    rng = random.Random(1999)
    for _ in range(10_000):
        raw = rng.randrange(1, 10**11)
        instant = normalize_timestamp(raw)
        assert instant.unit == "seconds"
        assert instant.utc == oracle(raw)
    for _ in range(10_000):
        raw = rng.randrange(10**12, 2 * 10**14)
        instant = normalize_timestamp(raw)
        assert instant.unit == "milliseconds"
        assert instant.utc == oracle(raw // 1000)
        assert instant.millis_remainder == raw % 1000
    for _ in range(2_000):
        raw = rng.randrange(10**11, 10**12)
        with pytest.raises(AmbiguousUnitError):
            normalize_timestamp(raw)
