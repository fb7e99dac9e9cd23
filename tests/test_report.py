"""Canonical report serialization and the unified timeline."""

from __future__ import annotations

import json
from datetime import datetime, timezone

from hypothesis import given, strategies as st

from phiscan.artifacts import ArtifactRecord, SourceLocator, normalize_timestamp
from phiscan.evidence import FileDigest
from phiscan.parsers.glucosmart import DatabaseStatus
from phiscan.parsers import healthmate, myvitals
from phiscan.parsers.myvitals import EnvironmentReading
from phiscan.parsers.tables import parse_tables
from phiscan.phi import (
    MATRIX_KEY_LINE,
    PHI_CATEGORIES,
    PhiFinding,
    PhiMatrixRow,
    SecurityViolation,
    evaluate_privacy_rule,
)
from phiscan.report import (
    ComplianceReport,
    build_timeline,
    parse_report,
    render_report,
    render_timeline,
)

from conftest import FIG1_SPO2_ROWS, FIG3_DEVICE_ROWS, make_healthmate_db, make_myvitals_db


def _empty_report(**overrides) -> ComplianceReport:
    base = dict(scan_id="s", tool_version="0.1.0", evidence_origin="tree",
                generated_at="2020-01-01T00:00:00Z", redacted=True,
                file_digests=(), matrix=(), findings=(), violations={},
                database_statuses={}, warnings=())
    base.update(overrides)
    return ComplianceReport(**base)


def test_empty_report_renders_valid_canonical_json():
    data = render_report(_empty_report())
    doc = json.loads(data)
    assert doc["matrix"] == []
    assert doc["schema_version"] == "1"
    assert data.endswith(b"\n")
    assert parse_report(data) == _empty_report()


def test_render_is_deterministic():
    report = _empty_report(matrix=(evaluate_privacy_rule("App", []),))
    assert render_report(report) == render_report(report)
    assert render_report(report, "text") == render_report(report, "text")


def test_text_format_contains_matrix_and_key():
    row = PhiMatrixRow(app_name="App", cells={
        cat: ("recovered" if cat == "name" else "not-recovered")
        for cat in PHI_CATEGORIES})
    text = render_report(_empty_report(matrix=(row,)), "text").decode()
    assert MATRIX_KEY_LINE in text
    assert "Patient's name" in text
    assert "✓" in text and "X" in text


# hypothesis strategies for whole reports --------------------------------------

_word = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=10)
_text = st.text(max_size=10)
_cell = st.sampled_from(["recovered", "not-recovered"])

_locators = st.builds(SourceLocator, package_name=_word, relative_path=_word,
                      container=st.sampled_from(["sqlite-table", "xml-file", "raw-bytes"]),
                      detail=_word)
_digests = st.builds(FileDigest, relative_path=_word, algorithm=st.just("sha-256"),
                     hex_digest=st.text("0123456789abcdef", min_size=64, max_size=64),
                     byte_length=st.integers(min_value=0, max_value=2**40))
_findings = st.builds(PhiFinding, category=st.sampled_from(PHI_CATEGORIES),
                      value_excerpt=_text, locator=_locators, rule_id=_word)
_violations = st.builds(SecurityViolation,
                        kind=st.sampled_from(["plaintext-ephi-at-rest",
                                              "plaintext-credential",
                                              "weak-safeguard-note"]),
                        evidence=st.lists(_locators, min_size=1, max_size=2).map(tuple),
                        description=_text)
_rows = st.builds(PhiMatrixRow, app_name=_word,
                  cells=st.lists(_cell, min_size=7, max_size=7).map(
                      lambda vs: dict(zip(PHI_CATEGORIES, vs))))
_statuses = st.builds(DatabaseStatus, relative_path=_word,
                      status=st.sampled_from(["plaintext-sqlite", "encrypted-or-opaque",
                                              "empty"]),
                      header_magic_present=st.booleans(),
                      entropy_bits_per_byte=st.floats(min_value=0, max_value=8,
                                                      allow_nan=False))
_reports = st.builds(
    ComplianceReport,
    scan_id=_word, tool_version=st.just("0.1.0"), evidence_origin=_word,
    generated_at=st.just("2020-01-01T00:00:00Z"), redacted=st.booleans(),
    file_digests=st.lists(_digests, max_size=3).map(tuple),
    matrix=st.lists(_rows, max_size=3).map(tuple),
    findings=st.lists(_findings, max_size=3).map(tuple),
    violations=st.dictionaries(_word, st.lists(_violations, min_size=1, max_size=2).map(tuple),
                               max_size=2),
    database_statuses=st.dictionaries(_word, st.lists(_statuses, min_size=1, max_size=2).map(tuple),
                                      max_size=2),
    warnings=st.lists(_text, max_size=3).map(tuple),
)


@given(_reports)
def test_canonical_round_trip(report):
    rendered = render_report(report)
    parsed = parse_report(rendered)
    assert parsed == report
    assert render_report(parsed) == rendered


# -- timeline ------------------------------------------------------------------

def _documented_records(tmp_path):
    mv = make_myvitals_db(tmp_path / "androidNin.db", spo2=FIG1_SPO2_ROWS)
    hm = make_healthmate_db(tmp_path / "withings-wiscale.db", devices=FIG3_DEVICE_ROWS)
    spo2, _ = parse_tables(mv.read_bytes(), myvitals.TABLES, package="iHealthMyVitals.V2",
                           relative_path="iHealthMyVitals.V2/Databases/androidNin.db")
    devices, _ = parse_tables(hm.read_bytes(), (healthmate.DEVICES,),
                              package="com.withings.wiscale2",
                              relative_path="com.withings.wiscale2/databases/withings-wiscale.db")
    return spo2 + devices


def test_mixed_unit_timeline_merges_in_utc_order(tmp_path):
    # independent oracle: datetime-convert all seven raw instants and sort
    raw = [(s, 1) for s in (1530829549, 1530884863, 1531090846, 1531169685, 1531259730)]
    raw += [(ms, 1000) for ms in (1542127729662, 1542070868000)]
    expected = sorted(
        datetime.fromtimestamp(value // scale, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        for value, scale in raw)

    events = build_timeline(_documented_records(tmp_path))
    assert len(events) == 7
    assert [e.at.utc for e in events] == expected
    assert [e.at.utc for e in events] == sorted(e.at.utc for e in events)
    assert events[0].app == "iHealth MyVitals"
    assert events[-1].app == "Health Mate"


def test_empty_timeline():
    assert build_timeline([]) == []


def test_records_without_timestamps_are_excluded(tmp_path):
    records = _documented_records(tmp_path)
    from phiscan.artifacts import CredentialSet

    records.append(ArtifactRecord(
        kind="credential",
        locator=SourceLocator("p", "p/x.xml", "xml-file", "key prefix a@b.co"),
        payload=CredentialSet(account="a@b.co")))
    events = build_timeline(records)
    assert len(events) == 7  # credential has no instant


def test_identical_instants_tie_break_on_locator():
    ts = normalize_timestamp(1530829549)
    a = ArtifactRecord(kind="environment", payload=EnvironmentReading(50.0, 20.0, 1.0, ts),
                       locator=SourceLocator("p", "p/db", "sqlite-table", "T:2"))
    b = ArtifactRecord(kind="environment", payload=EnvironmentReading(51.0, 21.0, 2.0, ts),
                       locator=SourceLocator("p", "p/db", "sqlite-table", "T:1"))
    events = build_timeline([a, b])
    assert [e.locator.detail for e in events] == ["T:1", "T:2"]
    assert build_timeline([b, a]) == events


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=10**10),
                          st.integers(min_value=1, max_value=999)), max_size=30),
       st.randoms())
def test_timeline_is_permutation_invariant(pairs, rnd):
    records = [
        ArtifactRecord(kind="environment",
                       payload=EnvironmentReading(50.0, 20.0, 1.0, normalize_timestamp(ts)),
                       locator=SourceLocator("p", "p/db", "sqlite-table", f"T:{i}-{salt}"))
        for i, (ts, salt) in enumerate(pairs)]
    reference = build_timeline(records)
    shuffled = list(records)
    rnd.shuffle(shuffled)
    assert build_timeline(shuffled) == reference
    assert [e.at.utc for e in reference] == sorted(e.at.utc for e in reference)


def test_render_timeline_formats(tmp_path):
    events = build_timeline(_documented_records(tmp_path))
    doc = json.loads(render_timeline(events, "json"))
    assert isinstance(doc, list) and len(doc) == 7
    assert doc[0]["at"]["unit"] == "seconds"
    text = render_timeline(events, "text").decode()
    assert text.splitlines()[0].startswith("2018-07-05T22:25:49Z")
    assert render_timeline([], "text") == b""
