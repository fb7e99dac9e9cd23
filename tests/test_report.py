"""Canonical report serialization and the unified timeline."""

from __future__ import annotations

import dataclasses
import gc
import importlib
import json
import pkgutil
import tracemalloc
import typing
from datetime import datetime, timezone
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import phiscan.artifacts
import phiscan.parsers
from phiscan.artifacts import ArtifactRecord, EpochInstant, SourceLocator, normalize_timestamp
from phiscan.evidence import FileDigest
from phiscan.fixtures import generate_fixture, paper_replica_spec, random_spec, render_manifest
from phiscan.parsers.glucosmart import DatabaseStatus
from phiscan.parsers import healthmate, myvitals
from phiscan.parsers.myvitals import EnvironmentReading
from phiscan.parsers.tables import parse_tables
from phiscan.phi import (
    MATRIX_KEY_LINE,
    PHI_CATEGORIES,
    PhiFinding,
    PhiMatrixRow,
    PhiRule,
    SecurityViolation,
    evaluate_privacy_rule,
)
from phiscan.report import (
    ComplianceReport,
    TimelineEvent,
    build_timeline,
    canonical_json,
    render_report,
    render_timeline,
)
from phiscan.scanner import scan_evidence

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


# The key sets of the README "Report schema": a report's JSON keys are its
# dataclasses' field names, so a new field shows up here as a new key.
REPORT_KEYS = {"schema_version", "scan_id", "tool_version", "evidence_origin",
               "generated_at", "redacted", "file_digests", "matrix", "findings",
               "violations", "database_statuses", "warnings"}
DIGEST_KEYS = {"relative_path", "algorithm", "hex_digest", "byte_length"}
MATRIX_ROW_KEYS = {"app_name", "cells"}
FINDING_KEYS = {"category", "value_excerpt", "locator", "rule_id"}
LOCATOR_KEYS = {"package_name", "relative_path", "container", "detail"}
VIOLATION_KEYS = {"kind", "evidence", "description"}
STATUS_KEYS = {"relative_path", "status", "header_magic_present", "entropy_bits_per_byte"}


@given(_reports)
def test_canonical_round_trip(report):
    rendered = render_report(report)
    doc = json.loads(rendered)
    assert canonical_json(doc) == rendered
    assert doc == json.loads(json.dumps(dataclasses.asdict(report)))  # no value lost
    assert set(doc) == REPORT_KEYS
    for digest in doc["file_digests"]:
        assert set(digest) == DIGEST_KEYS
    for row in doc["matrix"]:
        assert set(row) == MATRIX_ROW_KEYS
        assert set(row["cells"]) == set(PHI_CATEGORIES)
    for finding in doc["findings"]:
        assert set(finding) == FINDING_KEYS
        assert set(finding["locator"]) == LOCATOR_KEYS
    for violations in doc["violations"].values():
        for violation in violations:
            assert set(violation) == VIOLATION_KEYS
            assert all(set(loc) == LOCATOR_KEYS for loc in violation["evidence"])
    for statuses in doc["database_statuses"].values():
        assert all(set(status) == STATUS_KEYS for status in statuses)


def test_canonical_json_refuses_objects_that_are_not_dataclasses():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        canonical_json(object())


# -- the canonical encoder against its reference -------------------------------

def reference_canonical_json(obj) -> bytes:
    """What canonical_json must give: the C encoder, with a dataclass as the object
    of its fields."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(",", ":"),
                      allow_nan=False,
                      default=lambda o: {f.name: getattr(o, f.name)
                                         for f in dataclasses.fields(o)}
                      ).encode("utf-8") + b"\n"


@pytest.mark.parametrize("name", ["replica", *(f"seed{seed}" for seed in range(40))])
def test_reports_timelines_and_manifests_encode_like_the_reference(tmp_path, name):
    spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
    manifest = generate_fixture(spec, tmp_path / "t")
    assert render_manifest(manifest) == reference_canonical_json(manifest)
    for redact in (True, False):
        result = scan_evidence(tmp_path / "t", fixed_clock="2020-01-01T00:00:00Z",
                               redact=redact)
        assert render_report(result.report) == reference_canonical_json(result.report)
        events = build_timeline(list(result.records))
        assert render_timeline(events, "json") == reference_canonical_json(events)


@dataclasses.dataclass(frozen=True)
class _Twig:
    zeta: object
    alpha: object


@dataclasses.dataclass
class _Leaf:
    value: object


@dataclasses.dataclass(frozen=True)
class _Bare:
    pass


# text that JSON escapes or that a wrong escape would change
_awkward_text = st.text(st.one_of(st.characters(blacklist_categories=("Cs",)),
                                  st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\ufeffé😀')),
                        max_size=8)
_json_values = st.recursive(
    st.one_of(_awkward_text, st.integers(), st.booleans(), st.none(),
              st.floats(allow_nan=False, allow_infinity=False)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_awkward_text, children, max_size=3),
        st.builds(_Twig, children, children),
        st.builds(_Leaf, children),
        st.just(_Bare()),
        st.builds(SourceLocator, _awkward_text, _awkward_text, _awkward_text, _awkward_text),
    ),
    max_leaves=12,
)


@pytest.mark.equivalence
@given(_json_values)
@example(["\u2028\"\\", {"b": 1, "a": -0.0}, _Twig(zeta=None, alpha=(True, 1e300))])
def test_canonical_json_equals_the_reference_on_nested_values(value):
    assert canonical_json(value) == reference_canonical_json(value)


@pytest.mark.equivalence
@given(_json_values)
@example(["\u2028\"\\", {"b": 1, "a": -0.0}, _Twig(zeta=None, alpha=(True, 1e300))])
def test_canonical_json_equals_the_reference_when_every_item_flushes(value):
    # a block of one chunk: every item of every list or tuple ends with a flush
    with mock.patch("phiscan.report._BLOCK_CHUNKS", 1):
        assert canonical_json(value) == reference_canonical_json(value)


@pytest.mark.parametrize("value, error", [
    (float("nan"), ValueError),
    ([float("inf")], ValueError),
    (_Leaf(float("nan")), ValueError),
    ({"a": object()}, TypeError),
])
def test_canonical_json_refuses_what_the_reference_refuses(value, error):
    with pytest.raises(error):
        reference_canonical_json(value)
    with pytest.raises(error):
        canonical_json(value)


def test_canonical_json_refuses_a_key_that_is_not_a_str():
    # json.dumps would write the key as "1"; no dict phiscan encodes has one
    with pytest.raises(TypeError):
        canonical_json({1: "a"})


def _locator(detail: str = "row 1") -> SourceLocator:
    return SourceLocator(package_name="com.x", relative_path="db/a.db",
                         container="sqlite-table", detail=detail)


def _report_citing(finding_locators, evidence) -> ComplianceReport:
    findings = tuple(PhiFinding(category="name", value_excerpt="Pa**ia", locator=loc,
                                rule_id="name-column") for loc in finding_locators)
    violation = SecurityViolation(kind="plaintext-ephi-at-rest", evidence=tuple(evidence),
                                  description="plaintext")
    return _empty_report(findings=findings, violations={"App": (violation,)})


def _holds_a_dict(obj) -> bool:
    return any(type(referent) is dict for referent in gc.get_referents(obj))


@pytest.mark.parametrize("case", ["same object", "equal objects", "detail differs"])
def test_a_locator_shared_by_findings_and_evidence_encodes_like_the_reference(case):
    shared = _locator()
    other = {"same object": shared, "equal objects": _locator(),
             "detail differs": _locator("row 2")}[case]
    report = _report_citing([shared, other, shared], [other, shared])
    rendered = render_report(report)
    assert render_report(report) == rendered
    assert rendered == reference_canonical_json(report)


def test_the_locator_memo_does_not_outlive_the_call():
    # freed locators' ids are reused by the next ones, which a memo kept
    # across calls would mistake for the old objects
    for n in range(50):
        report = _report_citing([_locator(f"row {n}")], [_locator(f"row {n}")])
        assert render_report(report) == reference_canonical_json(report)
        del report


def _many_finding_report() -> ComplianceReport:
    # 20,000 findings on 5,000 locators, four findings each, 5,000 findings
    # apart, and one violation citing every locator: a locator's findings and
    # its citation fall in different blocks of the encoder
    locators = [SourceLocator(package_name="com.x", relative_path=f"db/{n % 7}.db",
                              container="sqlite-table", detail=f"TB_Größe:{n}")
                for n in range(5000)]
    findings = tuple(PhiFinding(category=PHI_CATEGORIES[n % len(PHI_CATEGORIES)],
                                value_excerpt=f"Jo**é {n} \u2028😀", locator=locators[n % 5000],
                                rule_id="name-column")
                     for n in range(20000))
    violation = SecurityViolation(kind="plaintext-ephi-at-rest", evidence=tuple(locators),
                                  description="plaintext ePHI — at rest")
    return _empty_report(findings=findings, violations={"App": (violation,)})


@pytest.mark.equivalence
def test_a_many_finding_report_encodes_like_the_reference():
    report = _many_finding_report()
    assert render_report(report) == reference_canonical_json(report)


def test_rendering_a_many_finding_report_peaks_below_twice_its_size():
    report = _many_finding_report()
    size = len(render_report(report))
    tracemalloc.start()
    try:
        render_report(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * size, (peak, size)


def _vitals_sized_report() -> ComplianceReport:
    # the size of one vitals-dir benchmark container's report: 15,300 findings,
    # two violations citing 7,200 locators, four apps in the matrix, whose ✓
    # makes the text report's characters wider than one byte
    tables = ("TB_BPResult", "TB_SPO2Result", "TB_WeightOnlineResult", "measure")
    locators = [SourceLocator(package_name="iHealthMyVitals.V2",
                              relative_path="iHealthMyVitals.V2/Databases/androidNin.db",
                              container="sqlite-table", detail=f"{tables[n % 4]}:{n}")
                for n in range(15300)]
    findings = tuple(PhiFinding(category=PHI_CATEGORIES[n % len(PHI_CATEGORIES)],
                                value_excerpt=f"1{n % 10}*", locator=locator,
                                rule_id="health-reading-column")
                     for n, locator in enumerate(locators))
    violations = {app: (SecurityViolation(kind="plaintext-ephi-at-rest", description="plaintext",
                                          evidence=tuple(locators[start:start + 3600])),)
                  for app, start in (("Health Mate", 0), ("iHealth MyVitals", 3600))}
    matrix = tuple(PhiMatrixRow(app_name=app, cells={
        cat: "recovered" if (i + n) % 2 else "not-recovered" for n, cat in enumerate(PHI_CATEGORIES)})
        for i, app in enumerate(("Gluco-Smart", "Health Mate", "com.x", "iHealth MyVitals")))
    return _empty_report(findings=findings, violations=violations, matrix=matrix,
                         warnings=tuple(f"skipped container entry: com.x/{n}" for n in range(5)))


def test_rendering_a_vitals_sized_text_report_peaks_below_twice_its_size():
    report = _vitals_sized_report()
    text = render_report(report, "text")
    assert text.count(b"\n") > 22000 and "✓".encode() in text
    tracemalloc.start()
    try:
        render_report(report, "text")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), (peak, len(text))


def test_render_report_materializes_no_instance_dict():
    if _holds_a_dict(_locator()) or _holds_a_dict(PhiFinding("name", "x", _locator(), "r")):
        pytest.skip("this interpreter shows a dict among a fresh instance's referents")
    locator = _locator()
    report = _report_citing([locator, _locator("row 2")], [locator])
    render_report(report)
    assert not any(_holds_a_dict(finding) or _holds_a_dict(finding.locator)
                   for finding in report.findings)


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


def _payload_dataclasses():
    modules = [phiscan.artifacts] + [
        importlib.import_module(f"phiscan.parsers.{m.name}")
        for m in pkgutil.iter_modules(phiscan.parsers.__path__)]
    for module in modules:
        for value in vars(module).values():
            if (isinstance(value, type) and dataclasses.is_dataclass(value)
                    and value.__module__ == module.__name__):
                yield value


def test_a_payload_with_an_instant_names_its_timeline_event():
    # a new timestamped payload without timeline_event would drop out of the timeline
    checked = []
    for cls in _payload_dataclasses():
        hints = typing.get_type_hints(cls).values()
        timestamped = any(h is EpochInstant or EpochInstant in typing.get_args(h)
                          for h in hints)
        assert timestamped == hasattr(cls, "timeline_event"), cls.__qualname__
        checked.append(cls.__name__)
    assert {"BloodPressureReading", "OximetryReading", "WeightReading", "EnvironmentReading",
            "DeviceRegistration", "HealthMateMeasurement", "CredentialSet"} <= set(checked)


# Every type a record, a report or a timeline is made of: the payload
# dataclasses, found by module so that a new one is checked too, and the rest.
_RECORD_TYPES = sorted({*_payload_dataclasses(), PhiFinding, SecurityViolation, PhiMatrixRow,
                        PhiRule, TimelineEvent, ComplianceReport, FileDigest},
                       key=lambda cls: (cls.__module__, cls.__qualname__))


@pytest.mark.parametrize("cls", _RECORD_TYPES, ids=lambda cls: cls.__qualname__)
def test_record_report_and_timeline_types_are_slotted_and_frozen(cls):
    # a scan makes tens of thousands of these; a slotted instance has no __dict__
    assert "__slots__" in vars(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    instance = cls(**dict.fromkeys(names))
    assert not hasattr(instance, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(instance, names[0], "changed")


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


@given(st.lists(st.one_of(st.integers(min_value=1, max_value=10**11 - 1),
                          st.integers(min_value=10**12, max_value=10**16)), max_size=30))
@example([300000000000000, 1542127729662])
def test_timeline_is_chronological_past_year_9999(raws):
    # 300000000000000 ms renders as 11476-08-15T05:20:00Z, which sorts before
    # 2018-11-13T16:48:49Z as text
    records = [
        ArtifactRecord(kind="weight",
                       payload=healthmate.HealthMateMeasurement(
                           "weight", 70.0, normalize_timestamp(raw), None),
                       locator=SourceLocator("p", "p/db", "sqlite-table", f"measure:{i}"))
        for i, raw in enumerate(raws)]
    seconds = [e.at.epoch_seconds() for e in build_timeline(records)]
    assert seconds == sorted(raw if raw < 10**11 else raw // 1000 for raw in raws)


def test_render_timeline_formats(tmp_path):
    events = build_timeline(_documented_records(tmp_path))
    doc = json.loads(render_timeline(events, "json"))
    assert isinstance(doc, list) and len(doc) == 7
    assert doc[0]["at"]["unit"] == "seconds"
    assert set(doc[0]) == {"at", "app", "kind", "summary", "locator"}
    assert set(doc[0]["at"]) == {"raw_value", "unit", "utc", "millis_remainder"}
    assert set(doc[0]["locator"]) == LOCATOR_KEYS
    text = render_timeline(events, "text").decode()
    assert text.splitlines()[0].startswith("2018-07-05T22:25:49Z")
    assert render_timeline([], "text") == b""
