"""Scan pipeline wiring: sweeps, clock handling, registry edge cases."""

from __future__ import annotations

import collections
import dataclasses
import sqlite3
import tempfile
import zipfile
from concurrent.futures import ThreadPoolExecutor

import pytest

import phiscan.phi
import phiscan.scanner
from phiscan.evidence import enumerate_app_roots, hash_file, open_source, read_file
from phiscan.fixtures import (
    FixtureSpec,
    HealthMateBlock,
    MyVitalsBlock,
    generate_fixture,
    paper_replica_spec,
)
from phiscan.parsers.base import AppParser
from phiscan.scanner import scan_evidence

CLOCK = "2020-01-01T00:00:00Z"


def test_unmatched_root_is_swept_for_raw_patterns(tmp_path):
    tree = tmp_path / "tree"
    prefs = tree / "com.android.settings"
    prefs.mkdir(parents=True)
    prefs.joinpath("prefs.xml").write_bytes(
        b"<map><string name='owner'>someone@example.com</string>"
        b"<string name='bt'>00:24:e4:5a:ee:6c</string></map>")
    result = scan_evidence(tree, fixed_clock=CLOCK)
    hits = [r for r in result.records if r.kind == "raw-hit"]
    patterns = {h.payload.pattern for h in hits}
    assert {"email", "mac-address"} <= patterns
    # emails and MACs are not Table-style PHI categories: no matrix row
    assert result.report.matrix == ()
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


def test_matched_app_files_are_not_double_swept(tmp_path):
    spec = FixtureSpec(seed=12, myvitals=MyVitalsBlock(spo2_rows=2, user_rows=1))
    out = tmp_path / "t"
    generate_fixture(spec, out)
    result = scan_evidence(out, fixed_clock=CLOCK)
    # db and credential xml are consumed by the parser; no raw hits at all
    assert not any(r.kind == "raw-hit" for r in result.records)


def test_reports_equal_modulo_clock_fields(tmp_path):
    spec = FixtureSpec(seed=13, healthmate=HealthMateBlock(device_rows=1, user_rows=1))
    out = tmp_path / "t"
    generate_fixture(spec, out)
    a = scan_evidence(out).report
    b = scan_evidence(out).report
    normalized_a = dataclasses.replace(a, generated_at=CLOCK, scan_id="x")
    normalized_b = dataclasses.replace(b, generated_at=CLOCK, scan_id="x")
    assert normalized_a == normalized_b


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


class _Grabby(AppParser):
    def __init__(self, parser_id):
        self.parser_id = parser_id
        self.display_name = parser_id
        self.folder = "*"
        self.signature = "accepts anything"

    def detect(self, root, source):
        return True


def test_ambiguous_detection_leaves_root_unbound(tmp_path):
    tree = tmp_path / "tree"
    (tree / "some.app").mkdir(parents=True)
    (tree / "some.app" / "f.txt").write_bytes(b"x")
    src = open_source(tree)
    roots = enumerate_app_roots(src, registry=(_Grabby("a"), _Grabby("b")))
    assert roots[0].matched_parser is None
    roots = enumerate_app_roots(src, registry=(_Grabby("only"),))
    assert roots[0].matched_parser == "only"


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


def test_zip_scan_opens_the_archive_once_and_reads_each_member_once(tmp_path, monkeypatch):
    out = _replica_with_sweep(tmp_path, "zip")
    archives = []
    reads = collections.Counter()

    class CountingZipFile(zipfile.ZipFile):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            archives.append(self)

        def open(self, name, *args, **kwargs):
            reads[getattr(name, "filename", name)] += 1
            return super().open(name, *args, **kwargs)

    monkeypatch.setattr(zipfile, "ZipFile", CountingZipFile)
    result = scan_evidence(out, fixed_clock=CLOCK)
    assert len(archives) == 1
    assert reads == collections.Counter(result.source.root_listing)
    with pytest.raises(ValueError):  # the scan closed the archive
        read_file(result.source, "README.txt")


def test_report_digests_match_a_fresh_hash_of_the_evidence(tmp_path):
    for output_kind in ("directory", "zip"):
        out = _replica_with_sweep(tmp_path / output_kind, output_kind)
        report = scan_evidence(out, fixed_clock=CLOCK).report
        with open_source(out) as fresh:
            expected = tuple(hash_file(fresh, rel) for rel in sorted(fresh.root_listing))
        assert report.file_digests == expected
        assert "README.txt" in {d.relative_path for d in expected}


def test_each_record_is_classified_once(tmp_path, monkeypatch):
    out = _replica_with_sweep(tmp_path, "directory")
    calls = []
    classify = phiscan.phi.classify_record

    def counting_classify(record):
        calls.append(record)
        return classify(record)

    monkeypatch.setattr(phiscan.phi, "classify_record", counting_classify)
    monkeypatch.setattr(phiscan.scanner, "classify_record", counting_classify)
    result = scan_evidence(out, fixed_clock=CLOCK)
    assert result.report.violations  # the Security Rule ran over classified records
    assert len(calls) == len(result.records)


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
