"""Scan pipeline wiring: claims and sweeps, damaged members, read-once custody."""

from __future__ import annotations

import ast
import collections
import dataclasses
import functools
import itertools
import json
import random
import re
import signal
import sqlite3
import struct
import tempfile
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import phiscan
import phiscan.evidence
import phiscan.parsers
import phiscan.phi
import phiscan.scanner
from phiscan.evidence import hash_file, open_source, read_file
from phiscan.fixtures import (
    FixtureSpec,
    HealthMateBlock,
    MyVitalsBlock,
    build_tree,
    generate_fixture,
    load_spec,
    paper_replica_spec,
    random_spec,
    write_tree,
)
from phiscan.parsers import PARSERS, AppParser, MyVitalsParser, ParseResult
from phiscan.phi import CAT_NAME, match_raw
from phiscan.report import render_report
from phiscan.scanner import scan_evidence

from conftest import make_healthmate_db, make_myvitals_db

CLOCK = "2020-01-01T00:00:00Z"


def test_unmatched_root_is_swept_for_raw_patterns(tmp_path):
    tree = tmp_path / "tree"
    prefs = tree / "com.android.settings"
    prefs.mkdir(parents=True)
    data = (b"<map><string name='owner'>someone@example.com</string>"
            b"<string name='bt'>00:24:e4:5a:ee:6c</string></map>")
    prefs.joinpath("prefs.xml").write_bytes(data)
    assert [pattern for _, pattern, _ in match_raw(data)] == ["email"]
    result = scan_evidence(tree, fixed_clock=CLOCK)
    assert [d.relative_path for d in result.report.file_digests] == [
        "com.android.settings/prefs.xml"]
    # an email is not a Table-style PHI category and a MAC is not swept: the
    # swept hit gives no finding, no record and no matrix row
    assert result.report.findings == ()
    assert result.records == ()
    assert result.report.matrix == ()
    assert result.report.violations == {}


def test_ssn_inside_a_swept_email_is_found_at_both_hits(tmp_path):
    tree = tmp_path / "tree"
    prefs = tree / "com.android.settings"
    prefs.mkdir(parents=True)
    data = b"<map><string name='backup'>078-05-1120.someone@example.com</string></map>"
    prefs.joinpath("backup.xml").write_bytes(data)
    result = scan_evidence(tree, fixed_clock=CLOCK)
    # the SSN gives a finding as its own hit and one inside the email that holds it
    at = data.index(b"078-05-1120")
    assert [(f.category, f.locator.container, f.locator.detail)
            for f in result.report.findings] == [("ssn", "raw-bytes", f"email@{at}"),
                                                 ("ssn", "raw-bytes", f"ssn@{at}")]
    assert result.records == ()  # a sweep gives findings, never records
    assert [row.app_name for row in result.report.matrix] == ["com.android.settings"]
    assert result.report.violations == {}


def test_ssn_in_unmatched_root_creates_matrix_row(tmp_path):
    tree = tmp_path / "tree"
    app = tree / "com.example.notes"
    app.mkdir(parents=True)
    app.joinpath("scratch.txt").write_bytes(b"ssn 123-45-6789 noted")
    result = scan_evidence(tree, fixed_clock=CLOCK)
    assert [row.app_name for row in result.report.matrix] == ["com.example.notes"]
    row = result.report.matrix[0]
    assert row.cells["ssn"] == "recovered"
    # raw-bytes container is not an at-rest plaintext sqlite/xml store
    assert result.report.violations == {}


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
def test_a_folder_named_like_an_app_never_writes_into_that_apps_row(tmp_path, output_kind):
    # an unbound top-level folder named "Health Mate" is an outcome of its own:
    # its finding gets a second "Health Mate" row, sorted by folder, and the
    # bound com.withings.wiscale2 folder's row, violations and statuses stay as
    # the replica's
    spec = dataclasses.replace(paper_replica_spec(), output_kind=output_kind)
    suffix = ".zip" if output_kind == "zip" else ""
    tree, _ = build_tree(spec)
    write_tree(tree, spec, tmp_path / f"replica{suffix}")
    tree["Health Mate/notes.txt"] = b"ssn 078-05-1120 noted"
    write_tree(tree, spec, tmp_path / f"named{suffix}")

    replica = scan_evidence(tmp_path / f"replica{suffix}", fixed_clock=CLOCK).report
    report = scan_evidence(tmp_path / f"named{suffix}", fixed_clock=CLOCK).report
    (replica_row,) = [row for row in replica.matrix if row.app_name == "Health Mate"]
    assert replica_row.cells["ssn"] == "not-recovered"
    folder_row, bound_row = [row for row in report.matrix if row.app_name == "Health Mate"]
    assert folder_row.cells["ssn"] == "recovered"
    assert bound_row == replica_row
    assert [row for row in report.matrix if row is not folder_row] == list(replica.matrix)
    assert [f.locator.package_name for f in report.findings if f.category == "ssn"] == [
        "Health Mate"]
    assert report.violations == replica.violations
    assert report.database_statuses == replica.database_statuses


def test_matched_app_files_are_not_double_swept(tmp_path):
    spec = FixtureSpec(seed=12, myvitals=MyVitalsBlock(spo2_rows=2, user_rows=1))
    out = tmp_path / "t"
    generate_fixture(spec, out)
    result = scan_evidence(out, fixed_clock=CLOCK)
    # db and credential xml are claimed by the parser; no raw hits at all
    assert not any(r.kind == "raw-hit" for r in result.records)
    assert not any(f.locator.container == "raw-bytes" for f in result.report.findings)


def test_reports_equal_modulo_clock_fields(tmp_path):
    spec = FixtureSpec(seed=13, healthmate=HealthMateBlock(device_rows=1, user_rows=1))
    out = tmp_path / "t"
    generate_fixture(spec, out)
    a = scan_evidence(out).report
    b = scan_evidence(out).report
    normalized_a = dataclasses.replace(a, generated_at=CLOCK, scan_id="x")
    normalized_b = dataclasses.replace(b, generated_at=CLOCK, scan_id="x")
    assert normalized_a == normalized_b


# a credential whose values hold an SSN and a card number: their findings sit at
# the credential's locator, whose detail names the account
_PATTERNED_CREDENTIAL = {"seed": 1, "apps": {"myvitals": {"bp_rows": 1, "credential": {
    "account": "pat.doe@example.com", "password": "078-05-1120",
    "access_token": "4111 1111 1111 1111"}}}}


@pytest.mark.parametrize("name", ["replica", *(f"seed{seed}" for seed in range(40)),
                                  "patterned-credential"])
def test_no_planted_value_shows_verbatim_in_a_redacted_report(tmp_path, name):
    if name == "patterned-credential":
        spec = load_spec(json.dumps(_PATTERNED_CREDENTIAL))
    else:
        spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
    manifest = generate_fixture(spec, tmp_path / "t")
    report = scan_evidence(tmp_path / "t", fixed_clock=CLOCK).report
    rendered = (render_report(report) + render_report(report, "text")).decode()
    values = {value for planted in manifest.planted for value in planted.payload.values()
              if isinstance(value, str) and len(value) > 4}
    if name == "replica":
        assert {"medicaldevices2018exper@gmail.com", "MedExp2018"} <= values
    if name == "patterned-credential":
        assert {f.category for f in report.findings} >= {"ssn", "payment"}
    assert sorted(value for value in values if value in rendered) == []


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
def test_a_credential_file_without_the_database_is_parsed(tmp_path, output_kind):
    spec = dataclasses.replace(paper_replica_spec(), output_kind=output_kind)
    tree, _ = build_tree(spec)
    del tree["iHealthMyVitals.V2/Databases/androidNin.db"]
    out = tmp_path / ("t.zip" if output_kind == "zip" else "t")
    write_tree(tree, spec, out)
    result = scan_evidence(out, fixed_clock=CLOCK)
    assert isinstance(result.roots["iHealthMyVitals.V2"], MyVitalsParser)
    assert [r.kind for r in result.records if r.locator.package_name == "iHealthMyVitals.V2"
            ] == ["credential"]
    assert "iHealth MyVitals" in [row.app_name for row in result.report.matrix]
    assert "plaintext-credential" in [
        v.kind for v in result.report.violations["iHealth MyVitals"]]


def test_zip_source_supports_concurrent_reads(tmp_path):
    spec = FixtureSpec(seed=14, output_kind="zip",
                       myvitals=MyVitalsBlock(bp_rows=3, user_rows=1))
    out = tmp_path / "t.zip"
    generate_fixture(spec, out)
    src = open_source(out)
    paths = sorted(src.root_listing) * 8
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(lambda p: read_file(src, p), paths))
    expected = {p: read_file(src, p) for p in src.root_listing}
    assert all(data == expected[p] for p, data in zip(paths, results))


def test_code_map_override_flows_through_scan(tmp_path):
    spec = FixtureSpec(seed=15, healthmate=HealthMateBlock(
        measure_rows=({"code": 42, "value": 71.0, "measured_at": 1541807000000},)))
    out = tmp_path / "t"
    generate_fixture(spec, out)

    default = scan_evidence(out, fixed_clock=CLOCK)
    assert [r.kind for r in default.records] == ["raw-hit"]

    mapped = scan_evidence(out, fixed_clock=CLOCK, code_map={42: "pulse"})
    assert [r.kind for r in mapped.records] == ["blood-pressure"]
    assert mapped.records[0].payload.kind == "pulse"


def test_report_orderings_are_canonical(tmp_path):
    from phiscan.fixtures import paper_replica_spec
    from phiscan.report import finding_sort_key

    out = tmp_path / "replica"
    generate_fixture(paper_replica_spec(), out)
    report = scan_evidence(out, fixed_clock=CLOCK).report
    apps = [row.app_name for row in report.matrix]
    assert apps == sorted(apps)
    keys = [finding_sort_key(f) for f in report.findings]
    assert keys == sorted(keys)
    digests = [d.relative_path for d in report.file_digests]
    assert digests == sorted(digests)


def test_skipped_container_entries_surface_as_warnings(tmp_path):
    path = tmp_path / "evil.zip"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("../outside.txt", b"escape")
        zf.writestr("ok/file.txt", b"fine")
        zf.writestr("ok/./file.txt", b"shadowed")
    report = scan_evidence(path, fixed_clock=CLOCK).report
    assert report.warnings == ("skipped container entry: ../outside.txt (unsafe path)",
                               "skipped container entry: ok/./file.txt (duplicate name)")


def _replica_with_sweep(tmp_path, output_kind):
    """The replica spec plus a swept app and a top-level plain file."""
    spec = dataclasses.replace(paper_replica_spec(), output_kind=output_kind)
    out = tmp_path / ("replica.zip" if output_kind == "zip" else "replica")
    generate_fixture(spec, out)
    extra = {"com.example.notes/scratch.txt": b"ssn 123-45-6789 noted",
             "README.txt": b"top-level note"}
    if output_kind == "zip":
        with zipfile.ZipFile(out, "a") as zf:
            for name, data in extra.items():
                zf.writestr(name, data)
    else:
        for name, data in extra.items():
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (out / name).write_bytes(data)
    return out


def test_zip_folder_beside_a_plain_member_of_its_name_is_swept(tmp_path):
    path = tmp_path / "clash.zip"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("com.example.notes", b"a plain member")
        zf.writestr("com.example.notes/files/log.txt", b"ssn 123-45-6789 noted")
    result = scan_evidence(path, fixed_clock=CLOCK)
    assert list(result.roots) == ["com.example.notes"]
    assert [(f.locator.relative_path, f.locator.detail) for f in result.report.findings] == [
        ("com.example.notes/files/log.txt", "ssn@4")]
    assert [d.relative_path for d in result.report.file_digests] == [
        "com.example.notes", "com.example.notes/files/log.txt"]
    assert result.report.warnings == ()


def test_zip_scan_opens_the_archive_once_and_reads_each_member_once(tmp_path, monkeypatch):
    out = _replica_with_sweep(tmp_path, "zip")
    archives = []
    reads = collections.Counter()
    opened = collections.Counter()

    class CountingZipFile(zipfile.ZipFile):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            archives.append(self)

        def open(self, name, *args, **kwargs):
            opened[getattr(name, "filename", name)] += 1
            return super().open(name, *args, **kwargs)

    read_member = phiscan.evidence._read_member

    def counting_read_member(archive, info, end):
        reads[info.filename] += 1
        return read_member(archive, info, end)

    monkeypatch.setattr(zipfile, "ZipFile", CountingZipFile)
    monkeypatch.setattr(phiscan.evidence, "_read_member", counting_read_member)
    result = scan_evidence(out, fixed_clock=CLOCK)
    assert len(archives) == 1
    assert reads == collections.Counter(result.source.root_listing)
    # every member is stored or deflated, so none goes through ZipFile.open
    assert not opened
    with pytest.raises(ValueError):  # the scan closed the archive
        read_file(result.source, "README.txt")


def test_report_digests_match_a_fresh_hash_of_the_evidence(tmp_path):
    for output_kind in ("directory", "zip"):
        out = _replica_with_sweep(tmp_path / output_kind, output_kind)
        report = scan_evidence(out, fixed_clock=CLOCK).report
        with open_source(out) as fresh:
            expected = tuple(hash_file(rel, read_file(fresh, rel))
                             for rel in sorted(fresh.root_listing))
        assert report.file_digests == expected
        assert "README.txt" in {d.relative_path for d in expected}


def _assert_each_file_accounted_once(result):
    """Every listed file has exactly one digest or one unreadable warning, never both."""
    digested = collections.Counter(d.relative_path for d in result.report.file_digests)
    assert set(digested) <= result.source.root_listing
    for rel in result.source.root_listing:
        warned = sum(w.startswith(f"{rel}: unreadable (") for w in result.report.warnings)
        assert (digested[rel], warned) in {(1, 0), (0, 1)}, rel


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
@pytest.mark.parametrize("name", ["replica"] + [f"seed{n}" for n in range(20)])
def test_each_forged_file_is_accounted_once(tmp_path, name, output_kind):
    spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
    out = tmp_path / (f"{name}.zip" if output_kind == "zip" else name)
    generate_fixture(dataclasses.replace(spec, output_kind=output_kind), out)
    result = scan_evidence(out, fixed_clock=CLOCK)
    _assert_each_file_accounted_once(result)
    assert len(result.report.file_digests) == len(result.source.root_listing)


_REPLICA_WITH_SWEEP_MEMBERS = (
    "README.txt",
    "com.example.notes/scratch.txt",
    "com.withings.wiscale2/databases/withings-wiscale.db",
    "iHealthMyVitals.V2/Databases/androidNin.db",
    "iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml",
    "jiuana-androidBg.start/Databases/glucose.db",
    "jiuana-androidBg.start/Databases/sync.db",
    "jiuana-androidBg.start/shared_prefs/user_info.xml",
)


@pytest.mark.parametrize("member", _REPLICA_WITH_SWEEP_MEMBERS)
def test_a_bad_crc_member_is_accounted_once(tmp_path, member):
    out = _replica_with_sweep(tmp_path, "zip")
    _flip_member_byte(out, member)
    result = scan_evidence(out, fixed_clock=CLOCK)
    assert result.source.root_listing == frozenset(_REPLICA_WITH_SWEEP_MEMBERS)
    _assert_each_file_accounted_once(result)
    assert member not in {d.relative_path for d in result.report.file_digests}


class _IdleParser(AppParser):
    """Claims every file under its folder and pulls none of them."""

    display_name = "idle"

    def detect(self, source):
        return True

    def claims(self, path):
        return True

    def parse(self, files, *, code_map=None):
        return ParseResult()


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
def test_claimed_files_a_parser_never_pulls_are_still_hashed(tmp_path, monkeypatch,
                                                             output_kind):
    out = _replica_with_sweep(tmp_path, output_kind)
    expected = scan_evidence(out, fixed_clock=CLOCK).report.file_digests
    monkeypatch.setattr(phiscan.scanner, "PARSERS",
                        {folder: _IdleParser() for folder in PARSERS})
    result = scan_evidence(out, fixed_clock=CLOCK)
    assert {p.display_name for p in result.roots.values() if p} == {"idle"}
    assert result.report.file_digests == expected
    assert result.report.warnings == ()


def test_each_record_is_classified_once(tmp_path, monkeypatch):
    out = _replica_with_sweep(tmp_path, "directory")
    calls = []
    classify = phiscan.phi.classify_record

    def counting_classify(record, **kwargs):
        calls.append(record)
        return classify(record, **kwargs)

    monkeypatch.setattr(phiscan.phi, "classify_record", counting_classify)
    monkeypatch.setattr(phiscan.scanner, "classify_record", counting_classify)
    result = scan_evidence(out, fixed_clock=CLOCK)
    assert result.report.violations  # the Security Rule ran over classified records
    assert len(calls) == len(result.records)


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
def test_raw_hits_locate_the_swept_bytes(tmp_path, output_kind):
    out = _replica_with_sweep(tmp_path, output_kind)
    result = scan_evidence(out, fixed_clock=CLOCK, redact=False)
    swept = [f for f in result.report.findings if f.locator.container == "raw-bytes"]
    assert [(f.locator.package_name, f.locator.relative_path, f.value_excerpt)
            for f in swept] == [("com.example.notes", "com.example.notes/scratch.txt",
                                 "123-45-6789")]
    pattern, offset = swept[0].locator.detail.split("@")
    with open_source(out) as source:
        data = read_file(source, swept[0].locator.relative_path)
    assert (pattern, data[int(offset):int(offset) + 11]) == ("ssn", b"123-45-6789")
    assert not any(r.locator.container == "raw-bytes" for r in result.records)


def test_scan_stages_no_database_copy_in_tmpdir(tmp_path, monkeypatch):
    out = _replica_with_sweep(tmp_path, "directory")
    staging = tmp_path / "staging"
    staging.mkdir()
    monkeypatch.setenv("TMPDIR", str(staging))
    monkeypatch.setattr(tempfile, "tempdir", str(staging))
    seen = []
    connect = sqlite3.connect

    def spying_connect(*args, **kwargs):
        seen.append(sorted(p.name for p in staging.iterdir()))
        return connect(*args, **kwargs)

    monkeypatch.setattr(sqlite3, "connect", spying_connect)
    scan_evidence(out, fixed_clock=CLOCK)
    assert seen and all(names == [] for names in seen)
    assert list(staging.iterdir()) == []


@pytest.mark.parametrize("db_path, app, first_table", [
    ("iHealthMyVitals.V2/Databases/androidNin.db", "iHealth MyVitals", "TB_BPResult"),
    ("com.withings.wiscale2/databases/withings-wiscale.db", "Health Mate", "devices"),
])
def test_corrupt_database_costs_one_warning(replica_tree, db_path, app, first_table):
    tree, _ = replica_tree
    intact = scan_evidence(tree, fixed_clock=CLOCK)
    target = tree / db_path
    data = target.read_bytes()
    target.write_bytes(data[:100] + bytes(len(data) - 100))  # valid header, zeroed body

    damaged = scan_evidence(tree, fixed_clock=CLOCK)
    assert [w for w in damaged.report.warnings if db_path in w] == [
        f"{db_path}: corrupt SQLite database, not parsed"
        f" ({first_table}: database disk image is malformed)"]
    assert len(damaged.report.warnings) == len(intact.report.warnings) + 1
    assert [r.kind for r in damaged.records if r.kind == "credential"] == ["credential"]
    assert ([row for row in damaged.report.matrix if row.app_name != app]
            == [row for row in intact.report.matrix if row.app_name != app])


def test_damaged_xml_warnings_name_the_path_once_and_quote_no_value(replica_tree):
    tree, _ = replica_tree
    credential = "iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml"
    user_info = "jiuana-androidBg.start/shared_prefs/user_info.xml"
    (tree / credential).write_bytes(b'<map><string name="theme">dark</string></map>')
    (tree / user_info).write_bytes(b'<map><string name="UserName">Pat Smith</string></map>')

    report = scan_evidence(tree, fixed_clock=CLOCK).report
    assert report.redacted
    assert [w for w in report.warnings if "shared_prefs" in w] == [
        f"{credential}: no recognized credential key suffixes in map",
        f"{user_info}: device identifier not present",
    ]
    assert not any("Pat Smith" in w for w in report.warnings)


# a declared encoding expat cannot use: unknown, multi-byte, and one whose decoder fails
_UNUSABLE_ENCODINGS = ("utf-9", "shift_jis", "idna")


def _declare_encoding(xml: bytes, encoding: str) -> bytes:
    """`xml` with its XML declaration, or a new one ahead of it, naming `encoding`."""
    return re.sub(rb"^(<\?xml[^>]*\?>)?", f"<?xml version='1.0' encoding='{encoding}' ?>".encode(),
                  xml, count=1)


@pytest.mark.parametrize("encoding", _UNUSABLE_ENCODINGS)
def test_an_xml_encoding_expat_cannot_use_costs_one_warning_and_is_swept(replica_tree, encoding):
    tree, _ = replica_tree
    credential = "iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml"
    (tree / credential).write_bytes(_declare_encoding((tree / credential).read_bytes(), encoding))

    result = scan_evidence(tree, fixed_clock=CLOCK)
    (only,) = [w for w in result.report.warnings if credential in w]
    assert only.startswith(f"{credential}: unreadable XML encoding: ")
    assert not any(r.locator.relative_path == credential for r in result.records)
    assert "plaintext-credential" not in {
        v.kind for v in result.report.violations["iHealth MyVitals"]}
    _assert_each_file_accounted_once(result)


@pytest.mark.parametrize("tag, problem", [("int", "bad integer value"),
                                          ("float", "bad float value")])
def test_bad_shared_prefs_value_is_named_by_tag_and_position(replica_tree, tag, problem):
    tree, _ = replica_tree
    credential = "iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml"
    (tree / credential).write_text(f'<map><string name="theme">dark</string>'
                                   f'<{tag} name="pat.smith@example.com_user_flag" value="x" />'
                                   f'</map>')

    report = scan_evidence(tree, fixed_clock=CLOCK).report
    assert report.redacted
    assert [w for w in report.warnings if credential in w] == [
        f"{credential}: {problem} in <{tag}> entry 2"]
    for fmt in ("json", "text"):
        assert b"pat.smith" not in render_report(report, fmt)


_ACCOUNT = "pat.smith@example.com"


@pytest.mark.parametrize("document, problem", [
    (f'<!DOCTYPE map [<!ENTITY pw "Hidden2018">]><map>'
     f'<string name="{_ACCOUNT}_user_password">&pw;</string></map>',
     "a DOCTYPE declaration, which shared preferences never hold"),
    (f'<map><string name="{_ACCOUNT}_user_password">First2018</string>'
     f'<string name="{_ACCOUNT}_user_password">Second2018</string></map>',
     "<string> entry 2 repeats an earlier name"),
], ids=["doctype-entity", "repeated-name"])
def test_shared_prefs_not_as_android_writes_them_cost_one_warning_and_are_swept(
        replica_tree, document, problem):
    tree, _ = replica_tree
    credential = "iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml"
    (tree / credential).write_text(document)

    result = scan_evidence(tree, fixed_clock=CLOCK, redact=False)
    assert [w for w in result.report.warnings if credential in w] == [f"{credential}: {problem}"]
    assert not any(r.locator.relative_path == credential for r in result.records)
    assert "plaintext-credential" not in {
        v.kind for v in result.report.violations["iHealth MyVitals"]}
    _assert_each_file_accounted_once(result)


# statements that put other than a stored table's own rows behind the replica's TB_BPResult
_SCHEMA_PROBES = {
    "view": (
        "CREATE VIEW TB_BPResult AS WITH RECURSIVE n(i) AS"
        " (SELECT 1 UNION ALL SELECT i + 1 FROM n LIMIT 1000)"
        " SELECT 120 AS Sys, 80 AS Dia, 60 AS Pulse, 1530756000 + i AS MeasureTime,"
        " '7C669D51AA04' AS DeviceID, NULL AS Note, 'a@example.com' AS Account FROM n",
        "TB_BPResult: a view, not a stored table"),
    "virtual-generated-columns": (
        "CREATE TABLE TB_BPResult (DeviceID TEXT, Account TEXT,"
        " Sys INTEGER GENERATED ALWAYS AS (120) VIRTUAL,"
        " Dia INTEGER GENERATED ALWAYS AS (80) VIRTUAL,"
        " Pulse INTEGER GENERATED ALWAYS AS (60) VIRTUAL,"
        " MeasureTime INTEGER GENERATED ALWAYS AS (1530756000) VIRTUAL,"
        " Note TEXT GENERATED ALWAYS AS ('078-05-1120') VIRTUAL);"
        " INSERT INTO TB_BPResult (DeviceID, Account) VALUES ('7C669D51AA04', 'a@example.com')",
        "TB_BPResult: column Sys is generated, not stored"),
    "virtual-table": (
        "CREATE /* a comment */ VIRTUAL TABLE TB_BPResult USING fts5"
        "(Sys, Dia, Pulse, MeasureTime, DeviceID, Note, Account);"
        " INSERT INTO TB_BPResult VALUES"
        " (120, 80, 60, 1530756000, '7C669D51AA04', '078-05-1120', 'a@example.com')",
        "TB_BPResult: a virtual table, not a stored table"),
}


DB_PATH = "iHealthMyVitals.V2/Databases/androidNin.db"


def _replica_with_bp_schema(tmp_path, output_kind, script):
    """The replica with `script` run on its androidNin.db."""
    tree, _ = build_tree(paper_replica_spec())
    db = tmp_path / "androidNin.db"
    db.write_bytes(tree[DB_PATH])
    conn = sqlite3.connect(db)
    conn.executescript(script)
    conn.close()
    tree[DB_PATH] = db.read_bytes()
    out = tmp_path / ("replica.zip" if output_kind == "zip" else "replica")
    write_tree(tree, dataclasses.replace(paper_replica_spec(), output_kind=output_kind), out)
    return out


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
@pytest.mark.parametrize("probe", sorted(_SCHEMA_PROBES))
def test_a_view_virtual_table_or_generated_column_is_one_warning_and_no_record(
        tmp_path, probe, output_kind):
    create, problem = _SCHEMA_PROBES[probe]
    generate_fixture(paper_replica_spec(), tmp_path / "intact")
    intact = scan_evidence(tmp_path / "intact", fixed_clock=CLOCK, redact=False)
    out = _replica_with_bp_schema(tmp_path, output_kind, f"DROP TABLE TB_BPResult; {create}")

    result = scan_evidence(out, fixed_clock=CLOCK, redact=False)
    assert [w for w in result.report.warnings if w not in intact.report.warnings] == [
        f"{DB_PATH}: {problem}"]
    assert not any(r.locator.detail.startswith("TB_BPResult:") for r in result.records)
    assert not any(f.locator.detail.startswith("TB_BPResult:") for f in result.report.findings)
    if probe == "virtual-generated-columns":  # the SSN is in the schema text, in no record
        assert "078-05-1120" not in render_report(result.report, "json").decode()
    assert ([r for r in result.records if r.locator.relative_path == DB_PATH]
            == [r for r in intact.records if r.locator.relative_path == DB_PATH
                and not r.locator.detail.startswith("TB_BPResult:")])


def test_a_stored_generated_column_is_read(tmp_path):
    create = ("CREATE TABLE TB_BPResult (Dia INTEGER, Pulse INTEGER, MeasureTime INTEGER,"
              " DeviceID TEXT, Note TEXT, Account TEXT,"
              " Sys INTEGER GENERATED ALWAYS AS (Dia + 40) STORED);"
              " INSERT INTO TB_BPResult (Dia, Pulse, MeasureTime, DeviceID, Account)"
              " VALUES (80, 60, 1530756000, '7C669D51AA04', 'a@example.com')")
    out = _replica_with_bp_schema(tmp_path, "directory", f"DROP TABLE TB_BPResult; {create}")

    result = scan_evidence(out, fixed_clock=CLOCK, redact=False)
    assert not any("TB_BPResult" in w for w in result.report.warnings)
    (reading,) = [r.payload for r in result.records if r.locator.detail == "TB_BPResult:1"]
    assert (reading.systolic, reading.diastolic) == (120, 80)


def _give_up(signum, frame):
    raise TimeoutError("scan still running after 10 s")


# TB_BPResult's stored schema text rewritten as SQLite still parses it into the same table
@pytest.mark.parametrize("sql", [
    "'CREATE ' || '" + "-" * 60 + "' || char(10) || substr(sql, 8)",
    "CAST(CAST(sql AS BLOB) || X'202D2DFF' AS TEXT)",
], ids=["comment-between-keywords", "not-utf8"])
def test_a_stored_table_whose_schema_text_is_odd_is_read(tmp_path, sql):
    generate_fixture(paper_replica_spec(), tmp_path / "intact")
    intact = scan_evidence(tmp_path / "intact", fixed_clock=CLOCK, redact=False)
    out = _replica_with_bp_schema(tmp_path, "directory", "PRAGMA writable_schema=ON; UPDATE"
                                  f" sqlite_master SET sql = {sql} WHERE name = 'TB_BPResult'")

    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(10)
    try:
        result = scan_evidence(out, fixed_clock=CLOCK, redact=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result.report.warnings == intact.report.warnings
    assert result.records == intact.records


def _flip_member_byte(path, name):
    """Flip one byte in the middle of a zip member's stored data."""
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(name)
    data = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack("<HH", data[info.header_offset + 26:
                                                    info.header_offset + 30])
    data[info.header_offset + 30 + name_len + extra_len + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("member, package, app", [
    ("iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml", "iHealthMyVitals.V2",
     "iHealth MyVitals"),
    ("iHealthMyVitals.V2/Databases/androidNin.db", "iHealthMyVitals.V2", "iHealth MyVitals"),
    ("jiuana-androidBg.start/shared_prefs/user_info.xml", "jiuana-androidBg.start",
     "Gluco-Smart"),
    ("com.example.notes/scratch.txt", "com.example.notes", "com.example.notes"),  # swept
    ("README.txt", None, None),  # read only for custody
])
def test_damaged_zip_member_costs_one_warning(tmp_path, member, package, app):
    out = _replica_with_sweep(tmp_path, "zip")
    intact = scan_evidence(out, fixed_clock=CLOCK).report
    _flip_member_byte(out, member)

    damaged = scan_evidence(out, fixed_clock=CLOCK).report
    named = [w for w in damaged.warnings if member in w]
    assert len(named) == 1 and named[0].startswith(f"{member}: unreadable (")
    assert [w for w in damaged.warnings if w not in named] == list(intact.warnings)
    assert damaged.file_digests == tuple(d for d in intact.file_digests
                                         if d.relative_path != member)
    assert ([row for row in damaged.matrix if row.app_name != app]
            == [row for row in intact.matrix if row.app_name != app])
    assert ([f for f in damaged.findings if f.locator.package_name != package]
            == [f for f in intact.findings if f.locator.package_name != package])


_FIRST, _SECOND = "com.a/first.txt", "com.a/second.txt"


def _two_member_zip(path, compression) -> bytearray:
    """Two members, each holding an SSN the sweep finds; the first's local header is at 0."""
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name in (_FIRST, _SECOND):
            zf.writestr(name, b"ssn 123-45-6789 in " + name.encode())
    return bytearray(path.read_bytes())


def _utf8_flag_over_a_bad_local_name(data):
    data[7] |= 0x08  # the first local header's flag bit 11: its name is UTF-8
    data[30 + len("com.a/")] = 0xFF  # the local name's "f": 0xff, a byte UTF-8 never holds


def _encrypted_in_the_central_directory(data):
    data[data.index(b"PK\x01\x02") + 8] |= 0x01


def _overlapping_the_next_member(data):
    # the first member's stored data runs on over the second's local header and
    # data, with the CRC of all those bytes: a quoted overlap (Fifield, "A better
    # zip bomb", WOOT 2019), which zipfile reads before Python 3.12
    entry = data.index(b"PK\x01\x02")
    start = 30 + len(_FIRST)
    struct.pack_into("<3I", data, entry + 16, zlib.crc32(data[start:entry]),
                     entry - start, entry - start)


def _bytes_cut_from_the_first_member(data):
    # the central directory's offsets all move back by the cut, which puts the
    # second member's right again and the first's before byte 0
    del data[40:45]


@pytest.mark.parametrize("damage, compression, warning", [
    (_utf8_flag_over_a_bad_local_name, zipfile.ZIP_DEFLATED, re.escape(
        f"{_FIRST}: unreadable ('utf-8' codec can't decode byte 0xff in position 6:"
        " invalid start byte)")),
    (_utf8_flag_over_a_bad_local_name, zipfile.ZIP_BZIP2, re.escape(
        f"{_FIRST}: unreadable ('utf-8' codec can't decode byte 0xff in position 6:"
        " invalid start byte)")),
    (_encrypted_in_the_central_directory, zipfile.ZIP_DEFLATED, re.escape(
        f"{_FIRST}: unreadable (File ") + ".* is encrypted, password required for extraction\\)"),
    (_overlapping_the_next_member, zipfile.ZIP_STORED, re.escape(
        f"{_FIRST}: unreadable (Overlapped entries: '{_FIRST}' (possible zip bomb))")),
    (_bytes_cut_from_the_first_member, zipfile.ZIP_STORED, re.escape(
        f"{_FIRST}: unreadable (Local header of '{_FIRST}' lies before the start of the"
        " archive)")),
], ids=["bad-utf8-name-deflated", "bad-utf8-name-bzip2", "encrypted", "overlapped",
        "bytes-cut-before-the-central-directory"])
def test_an_unreadable_member_is_one_warning_and_the_other_is_swept(tmp_path, damage,
                                                                    compression, warning):
    # the same warning on every interpreter: zipfile checks no overlap before 3.12
    path = tmp_path / "two.zip"
    data = _two_member_zip(path, compression)
    damage(data)
    path.write_bytes(bytes(data))
    report = scan_evidence(path, fixed_clock=CLOCK, redact=False).report
    (only,) = report.warnings
    assert re.fullmatch(warning, only), only
    assert [d.relative_path for d in report.file_digests] == [_SECOND]
    assert [(f.locator.relative_path, f.value_excerpt) for f in report.findings] == [
        (_SECOND, "123-45-6789")]


def test_a_zip_of_bzip2_and_lzma_members_reports_as_its_directory(tmp_path):
    # those members go through ZipFile.read, after the same local-header checks
    directory = _replica_with_sweep(tmp_path / "dir", "directory")
    deflated = _replica_with_sweep(tmp_path / "deflated", "zip")
    out = tmp_path / "replica.zip"
    methods = itertools.cycle([zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA])
    with zipfile.ZipFile(deflated) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            data = src.read(info)
            info.compress_type = zipfile.ZIP_STORED if info.is_dir() else next(methods)
            dst.writestr(info, data)
    with zipfile.ZipFile(out) as zf:
        assert {info.compress_type for info in zf.infolist() if not info.is_dir()} == {
            zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA}
    expected = render_report(scan_evidence(directory, fixed_clock=CLOCK).report)
    assert render_report(scan_evidence(out, fixed_clock=CLOCK).report) == expected


def test_unreadable_files_warn_in_walk_order(tmp_path):
    # per root: claimed files as the parser pulls them, then the parser's own
    # warnings, then swept files; top-level plain files come last
    claimed = "jiuana-androidBg.start/shared_prefs/user_info.xml"
    swept = "jiuana-androidBg.start/files/note.txt"
    out = _replica_with_sweep(tmp_path, "zip")
    with zipfile.ZipFile(out, "a") as zf:
        zf.writestr(swept, b"a note beside the claimed files")
    for member in (claimed, swept, "README.txt"):
        _flip_member_byte(out, member)

    report = scan_evidence(out, fixed_clock=CLOCK).report
    assert report.warnings == (
        f"{claimed}: unreadable (Bad CRC-32 for file '{claimed}')",
        "jiuana-androidBg.start/Databases/glucose.db: high entropy (7.95 bits/byte),"
        " consistent with encryption",
        "jiuana-androidBg.start/Databases/sync.db: high entropy (7.95 bits/byte),"
        " consistent with encryption",
        "jiuana-androidBg.start: 2 database(s) appear encrypted;"
        " glucose readings are not recoverable",
        f"{swept}: unreadable (Bad CRC-32 for file '{swept}')",
        "README.txt: unreadable (Bad CRC-32 for file 'README.txt')",
    )


def test_unreadable_gluco_database_is_one_warning_and_not_classified(tmp_path):
    member = "jiuana-androidBg.start/Databases/glucose.db"
    out = _replica_with_sweep(tmp_path, "zip")
    intact = scan_evidence(out, fixed_clock=CLOCK).report
    _flip_member_byte(out, member)

    damaged = scan_evidence(out, fixed_clock=CLOCK).report
    named = [w for w in damaged.warnings if member in w]
    assert len(named) == 1 and named[0].startswith(f"{member}: unreadable (")
    # a database never read has no status and is not counted as encrypted
    summary = ("jiuana-androidBg.start: {} database(s) appear encrypted; "
               "glucose readings are not recoverable")
    assert summary.format(2) in intact.warnings
    assert [w for w in damaged.warnings if member not in w] == [
        summary.format(1) if w == summary.format(2) else w
        for w in intact.warnings if member not in w]
    assert damaged.database_statuses["Gluco-Smart"] == tuple(
        s for s in intact.database_statuses["Gluco-Smart"] if s.relative_path != member)


def test_plaintext_gluco_database_is_swept(tmp_path):
    tree = tmp_path / "tree"
    app = tree / "jiuana-androidBg.start"
    (app / "Databases").mkdir(parents=True)
    (app / "files").mkdir()
    conn = sqlite3.connect(app / "Databases" / "plain.db")
    conn.execute("CREATE TABLE notes (body TEXT)")
    conn.execute("INSERT INTO notes VALUES ('ssn 123-45-6789 card 4111 1111 1111 1111')")
    conn.commit()
    conn.close()
    (app / "files" / "note.txt").write_bytes(b"ssn 123-45-6789 noted")

    report = scan_evidence(tree, fixed_clock=CLOCK).report
    assert [s.status for s in report.database_statuses["Gluco-Smart"]] == ["plaintext-sqlite"]
    found = {(f.locator.relative_path.rsplit("/", 1)[-1], f.locator.container, f.category)
             for f in report.findings}
    assert found == {("plain.db", "raw-bytes", "ssn"), ("plain.db", "raw-bytes", "payment"),
                     ("note.txt", "raw-bytes", "ssn")}


_SSN = "078-05-1120"

# Which files under a bound root each parser claims, and what becomes of them.
_CLAIMS = (
    ("iHealthMyVitals.V2/Databases/androidNin.db", "parsed"),
    ("iHealthMyVitals.V2/backup/androidNin.db", "swept"),  # claimed only at Databases/
    ("iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml", "parsed"),
    ("iHealthMyVitals.V2/files/deep/sp_user_region_host_info.xml", "parsed"),
    ("iHealthMyVitals.V2/files/note.txt", "swept"),
    ("com.withings.wiscale2/databases/withings-wiscale.db", "parsed"),
    ("com.withings.wiscale2/no_backup/copy/withings-wiscale.db", "parsed"),
    ("com.withings.wiscale2/files/note.txt", "swept"),
    ("jiuana-androidBg.start/Databases/glucose.db", "classified"),
    ("jiuana-androidBg.start/cache/blob.db", "classified"),
    ("jiuana-androidBg.start/files/note.txt", "swept"),
)


def _claims_tree(tmp_path, output_kind):
    # every file but the Gluco-Smart databases holds an SSN, so each one parsed
    # or swept gives a finding at its path; a word byte after it in the row's
    # record would hide it from the sweep
    name = f"Pat {_SSN} Example"
    myvitals_db = make_myvitals_db(
        tmp_path / "mv.db", users=[(name, "1980-01-01", "UTC", "pat@example.com")]).read_bytes()
    withings_db = make_healthmate_db(
        tmp_path / "hm.db", users=[(1, name, "F", "1980-01-01", "pat@example.com")]).read_bytes()
    credential = (f'<map><string name="pat@example.com_user_password">{_SSN}</string>'
                  '</map>').encode()
    content = {"androidNin.db": myvitals_db, "withings-wiscale.db": withings_db,
               "sp_user_region_host_info.xml": credential,
               "note.txt": f"contact swept@example.com, ssn {_SSN}".encode()}
    files = {path: content.get(path.rsplit("/", 1)[-1]) or random.Random(path).randbytes(4096)
             for path, _ in _CLAIMS}
    if output_kind == "zip":
        out = tmp_path / "claims.zip"
        with zipfile.ZipFile(out, "w") as zf:
            for path, data in files.items():
                zf.writestr(path, data)
        return out
    out = tmp_path / "claims"
    for path, data in files.items():
        (out / path).parent.mkdir(parents=True, exist_ok=True)
        (out / path).write_bytes(data)
    return out


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
def test_each_parser_claims_its_files_and_the_rest_are_swept(tmp_path, output_kind):
    result = scan_evidence(_claims_tree(tmp_path, output_kind), fixed_clock=CLOCK)
    assert {getattr(p, "parser_id", None) for p in result.roots.values()} == {
        "myvitals", "healthmate", "glucosmart"}
    classified = {s.relative_path for ss in result.report.database_statuses.values()
                  for s in ss}
    fates = {}
    for path, _ in _CLAIMS:
        containers = {f.locator.container for f in result.report.findings
                      if f.locator.relative_path == path}
        if path in classified:
            fates[path] = "classified"
        elif containers == {"raw-bytes"}:
            fates[path] = "swept"
        elif containers and "raw-bytes" not in containers:
            fates[path] = "parsed"
    assert fates == dict(_CLAIMS)
    assert not any(r.locator.container == "raw-bytes" for r in result.records)
    assert {path: PARSERS[path.split("/")[0]].claims(path) for path, _ in _CLAIMS} == {
        path: fate != "swept" for path, fate in _CLAIMS}


def _set_page_size(path, page_size):
    """Write a page size into a SQLite file's header (bytes 16-17)."""
    data = bytearray(path.read_bytes())
    data[16:18] = page_size.to_bytes(2, "big")
    path.write_bytes(bytes(data))


# damage -> (database, SQL that puts its argument in a text cell)
_SSN_CELLS = {
    "page size": ("iHealthMyVitals.V2/Databases/androidNin.db",
                  "UPDATE TB_BPResult SET Note = ? WHERE rowid = 1"),
    "Health Mate page size": ("com.withings.wiscale2/databases/withings-wiscale.db",
                              "UPDATE users SET name = ? WHERE rowid = 1"),
}


@pytest.mark.parametrize("damage", ["page size", "not well-formed XML",
                                    "Health Mate page size", "Gluco-Smart keys missing"])
def test_a_file_whose_parse_fails_is_swept(replica_tree, damage):
    tree, _ = replica_tree
    if damage in _SSN_CELLS:
        path, update = _SSN_CELLS[damage]
        conn = sqlite3.connect(tree / path)
        conn.execute(update, (f"ssn {_SSN} noted",))
        conn.commit()
        conn.close()
        _set_page_size(tree / path, 3)
        warning = f"{path}: corrupt SQLite database, not parsed ("
    elif damage == "not well-formed XML":
        path = "iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml"
        (tree / path).write_bytes(
            f'<map><string name="a@b.co_user_password">{_SSN}</string'.encode())
        warning = f"{path}: not well-formed XML: "
    else:
        path = "jiuana-androidBg.start/shared_prefs/user_info.xml"
        (tree / path).write_bytes(
            f'<map><string name="note">ssn {_SSN} noted</string></map>'.encode())
        warning = f"{path}: username and device identifier not present"
    result = scan_evidence(tree, fixed_clock=CLOCK, redact=False)
    (only,) = [w for w in result.report.warnings if path in w]
    assert only.startswith(warning)
    assert not any(r.locator.relative_path == path for r in result.records)
    swept = [f for f in result.report.findings if f.locator.relative_path == path]
    assert [(f.locator.container, f.category, f.value_excerpt) for f in swept] == [
        ("raw-bytes", "ssn", _SSN)]
    offset = int(swept[0].locator.detail.removeprefix("ssn@"))
    assert (tree / path).read_bytes()[offset:offset + len(_SSN)] == _SSN.encode()


def test_a_user_info_xml_without_its_keys_gives_no_guessed_profile(tmp_path):
    # no key is UserName or DeviceID, so no value is taken for a name: the
    # file costs one warning and is handed back to the sweep, which finds nothing
    path = "jiuana-androidBg.start/shared_prefs/user_info.xml"
    (tmp_path / "tree" / path).parent.mkdir(parents=True)
    (tmp_path / "tree" / path).write_bytes(
        b'<map><string name="theme_name">Dark</string>'
        b'<string name="android_id">9774d56d682e549c</string></map>')
    result = scan_evidence(tmp_path / "tree", fixed_clock=CLOCK)
    assert result.records == ()
    assert not any(f.rule_id == "profile-name" for f in result.report.findings)
    (row,) = result.report.matrix
    assert (row.app_name, row.cells[CAT_NAME]) == ("Gluco-Smart", "not-recovered")
    assert result.report.violations == {}
    assert result.report.warnings == (f"{path}: username and device identifier not present",)


def _imported_modules(path: Path, package: str):
    """Absolute names of every module an `import` anywhere in the file can bind."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.rsplit(".", node.level - 1)[0] if node.level else ""
            module = ".".join(p for p in (base, node.module) if p)
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_only_the_parsers_and_the_forge_import_a_parser_module():
    # the rest of the program reaches a parser through phiscan.parsers alone
    root = Path(phiscan.__file__).parent
    parser_modules = {f"phiscan.parsers.{p.stem}"
                      for p in Path(phiscan.parsers.__file__).parent.glob("*.py")}
    offenders = {}
    for path in sorted(root.glob("*.py")):
        if path.name == "fixtures.py":
            continue
        imported = set(_imported_modules(path, "phiscan")) & parser_modules
        if imported:
            offenders[path.name] = sorted(imported)
    assert "phiscan.parsers.healthmate" in parser_modules
    assert offenders == {}


@functools.cache
def _replica_with_sweep_tree() -> dict[str, bytes]:
    """The files _replica_with_sweep writes, as a path -> bytes map."""
    tree, _ = build_tree(paper_replica_spec())
    return {**tree, "com.example.notes/scratch.txt": b"ssn 123-45-6789 noted",
            "README.txt": b"top-level note"}


@settings(max_examples=50, deadline=None)
@given(member=st.sampled_from(_REPLICA_WITH_SWEEP_MEMBERS),
       damage=st.sampled_from(("truncate", "overwrite", *_UNUSABLE_ENCODINGS)), data=st.data())
def test_one_damaged_member_never_ends_the_scan(member, damage, data):
    tree = dict(_replica_with_sweep_tree())
    raw = tree[member]
    if damage == "truncate":
        tree[member] = raw[:data.draw(st.integers(0, len(raw) - 1), label="kept bytes")]
    elif damage == "overwrite":
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        new = data.draw(st.binary(min_size=1, max_size=min(16, len(raw) - at)), label="bytes")
        tree[member] = raw[:at] + new + raw[at + len(new):]
    else:
        tree[member] = _declare_encoding(raw, damage)
    spec = paper_replica_spec()
    with tempfile.TemporaryDirectory() as tmp:
        for out in (Path(tmp) / "tree", Path(tmp) / "tree.zip"):
            kind = "zip" if out.suffix == ".zip" else "directory"
            write_tree(tree, dataclasses.replace(spec, output_kind=kind), out)
            result = scan_evidence(out, fixed_clock=CLOCK)
            for fmt in ("json", "text"):
                render_report(result.report, fmt)
            assert result.source.root_listing == frozenset(_REPLICA_WITH_SWEEP_MEMBERS)
            _assert_each_file_accounted_once(result)
