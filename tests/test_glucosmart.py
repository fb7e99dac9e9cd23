"""Gluco-Smart: encrypted-database triage and user_info.xml."""

from __future__ import annotations

import collections
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from phiscan.errors import MissingFieldsError
from phiscan.evidence import enumerate_app_roots, open_source
from phiscan.parsers import PARSERS
from phiscan.parsers.glucosmart import (
    GlucoSmartParser,
    classify_database,
    parse_user_info_xml,
)
from phiscan.scanner import scan_evidence

from conftest import make_myvitals_db


def independent_entropy(data: bytes) -> float:
    counts = collections.Counter(data)
    total = len(data)
    return -sum(c / total * math.log2(c / total) for c in counts.values())


def test_random_bytes_classified_encrypted_with_high_entropy():
    data = random.Random(99).randbytes(8192)
    status = classify_database("jiuana-androidBg.start/Databases/x.db", data)
    assert status.status == "encrypted-or-opaque"
    assert status.header_magic_present is False
    assert status.entropy_bits_per_byte > 7.5
    assert status.entropy_bits_per_byte == pytest.approx(
        independent_entropy(data[:4096]), abs=1e-3)


def test_sqlite_magic_classified_plaintext(tmp_path):
    data = make_myvitals_db(tmp_path / "p.db").read_bytes()
    status = classify_database("r/p.db", data)
    assert status.status == "plaintext-sqlite"
    assert status.header_magic_present is True


def test_zero_length_classified_empty():
    status = classify_database("r/empty.db", b"")
    assert status.status == "empty"
    assert status.entropy_bits_per_byte == 0.0


def test_status_matches_magic_iff_plaintext():
    for data in (b"", b"junk" * 100, random.Random(1).randbytes(4096)):
        status = classify_database("r/f.db", data)
        assert (status.status == "plaintext-sqlite") == status.header_magic_present


def test_classification_is_total_over_db_files(tmp_path):
    root_dir = tmp_path / "tree" / "jiuana-androidBg.start"
    (root_dir / "Databases").mkdir(parents=True)
    (root_dir / "Databases" / "a.db").write_bytes(random.Random(5).randbytes(4096))
    (root_dir / "Databases" / "b.db").write_bytes(b"")
    make_myvitals_db(root_dir / "Databases" / "c.db")
    (root_dir / "not_a_db.txt").write_bytes(b"skip me")
    statuses = scan_evidence(tmp_path / "tree").report.database_statuses["Gluco-Smart"]
    assert sorted(s.relative_path for s in statuses) == [
        "jiuana-androidBg.start/Databases/a.db",
        "jiuana-androidBg.start/Databases/b.db",
        "jiuana-androidBg.start/Databases/c.db",
    ]
    by_name = {s.relative_path.rsplit("/", 1)[-1]: s.status for s in statuses}
    assert by_name == {"a.db": "encrypted-or-opaque", "b.db": "empty",
                       "c.db": "plaintext-sqlite"}


def test_user_info_xml_round_trip():
    xml = (b"<map>"
           b"<string name=\"UserName\">medicaldevices2018exper@gmail.com</string>"
           b"<string name=\"DeviceID\">BG5-0012AB</string>"
           b"</map>")
    [record], warnings = parse_user_info_xml(xml)
    assert warnings == []
    assert record.payload.username == "medicaldevices2018exper@gmail.com"
    assert record.payload.device_identifier == "BG5-0012AB"
    assert record.kind == "user-profile"


def test_user_info_empty_map_missing_fields():
    with pytest.raises(MissingFieldsError):
        parse_user_info_xml(b"<map/>")


def test_user_info_partial_missing_fields():
    xml = b"<map><string name=\"UserName\">pat</string></map>"
    with pytest.raises(MissingFieldsError):
        parse_user_info_xml(xml)


def test_detect_exact_folder_name_only(tmp_path):
    for name, expected in (("jiuana-androidBg.start", True),
                           ("iHealthMyVitals.V2", False),
                           ("jiuana-androidBg", False)):
        tree = tmp_path / name.replace(".", "_")
        (tree / name).mkdir(parents=True)
        (tree / name / "x.txt").write_bytes(b"")
        ((folder, parser),) = enumerate_app_roots(open_source(tree), PARSERS).items()
        assert folder == name
        assert isinstance(parser, GlucoSmartParser) is expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=3), st.booleans(), st.integers())
def test_parser_never_emits_plaintext_vitals(db_count, with_user, seed):
    # whatever sits under this root, the only records are profiles: a plaintext
    # database is handed back to the sweep, which gives findings, not records
    rng = random.Random(seed)
    files = [(f"jiuana-androidBg.start/Databases/d{i}.db", rng.randbytes(2048))
             for i in range(db_count)]
    if with_user:
        files.append(("jiuana-androidBg.start/shared_prefs/user_info.xml",
                      b"<map><string name=\"UserName\">u@example.com</string>"
                      b"<string name=\"DeviceID\">BG5-1</string></map>"))
    result = GlucoSmartParser().parse(files)
    assert {r.kind for r in result.records} <= {"user-profile"}
    assert len(result.db_statuses) == db_count


def test_user_info_warnings_follow_every_database_warning_and_the_count(replica_tree):
    # zz/late.db sorts after shared_prefs/, so a plain path order would put the
    # user_info.xml warning before late.db's
    tree, _ = replica_tree
    app = tree / "jiuana-androidBg.start"
    (app / "shared_prefs" / "user_info.xml").write_bytes(
        b"<map><string name=\"UserName\">pat</string></map>")
    (app / "zz").mkdir()
    (app / "zz" / "late.db").write_bytes(random.Random(7).randbytes(8192))

    report = scan_evidence(tree, fixed_clock="2020-01-01T00:00:00Z").report
    assert report.warnings == (
        "jiuana-androidBg.start/Databases/glucose.db: high entropy (7.95 bits/byte),"
        " consistent with encryption",
        "jiuana-androidBg.start/Databases/sync.db: high entropy (7.95 bits/byte),"
        " consistent with encryption",
        "jiuana-androidBg.start/zz/late.db: high entropy (7.96 bits/byte),"
        " consistent with encryption",
        "jiuana-androidBg.start: 3 database(s) appear encrypted;"
        " glucose readings are not recoverable",
        "jiuana-androidBg.start/shared_prefs/user_info.xml: device identifier not present",
    )
