"""Fixture generation determinism, schema conformance, and oracle verification."""

from __future__ import annotations

import collections
import dataclasses
import json
import pathlib
import re
import sqlite3
import tempfile
import zipfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from phiscan.errors import InvalidSpecError
from phiscan.fixtures import (
    _HEALTHMATE,
    _MYVITALS,
    FixtureSpec,
    GlucoSmartBlock,
    HealthMateBlock,
    MyVitalsBlock,
    build_tree,
    generate_fixture,
    load_spec,
    paper_replica_spec,
    random_spec,
    render_manifest,
    spec_to_dict,
    verify_scan_against_manifest,
    write_tree,
)
from phiscan.parsers import healthmate, myvitals
from phiscan.phi import PhiMatrixRow, SecurityViolation
from phiscan.report import canonical_json
from phiscan.scanner import scan_evidence

CLOCK = "2020-01-01T00:00:00Z"


def test_load_spec_reports_line_numbers():
    with pytest.raises(InvalidSpecError) as err:
        load_spec('{\n  "seed": 1,\n  "oops"\n}')
    assert "line 4" in str(err.value)


def test_load_spec_rejects_negative_counts():
    with pytest.raises(InvalidSpecError):
        load_spec('{"seed": 1, "apps": {"myvitals": {"bp_rows": -1}}}')
    with pytest.raises(InvalidSpecError):
        load_spec('{"seed": 1, "apps": {"glucosmart": {"encrypted_db_count": -2}}}')


def test_load_spec_requires_seed_and_known_apps():
    with pytest.raises(InvalidSpecError):
        load_spec('{"apps": {}}')
    with pytest.raises(InvalidSpecError):
        load_spec('{"seed": 1, "apps": {"unknown-app": {}}}')
    with pytest.raises(InvalidSpecError):
        load_spec('{"seed": 1, "output_kind": "tarball"}')


# app blocks the loader must refuse, and the name each error must carry
BAD_APP_BLOCKS = [
    ({"myvitals": 5}, "myvitals must be an object"),
    ({"healthmate": []}, "healthmate must be an object"),
    ({"myvitals": {"bp_row": 3}}, "myvitals.bp_row: unknown key"),
]


@pytest.mark.parametrize("apps, message", BAD_APP_BLOCKS,
                         ids=["a-number", "a-list", "an-unknown-key"])
def test_load_spec_rejects_a_bad_app_block(apps, message):
    with pytest.raises(InvalidSpecError, match=re.escape(message)):
        load_spec(json.dumps({"seed": 1, "apps": apps}))


def test_spec_dict_round_trip():
    spec = paper_replica_spec()
    assert load_spec(json.dumps(spec_to_dict(spec))) == spec


def test_same_spec_and_seed_byte_identical_trees():
    spec = random_spec(7)
    tree1, manifest1 = build_tree(spec)
    tree2, manifest2 = build_tree(spec)
    assert tree1 == tree2
    assert manifest1 == manifest2
    different = build_tree(dataclasses.replace(spec, seed=spec.seed + 1))[0]
    assert different != tree1


def test_zero_count_spec_yields_empty_tables(tmp_path):
    spec = FixtureSpec(seed=3, myvitals=MyVitalsBlock(), glucosmart=GlucoSmartBlock(),
                       healthmate=HealthMateBlock())
    out = tmp_path / "zero"
    manifest = generate_fixture(spec, out)
    assert (out / "iHealthMyVitals.V2" / "Databases" / "androidNin.db").exists()
    assert (out / "jiuana-androidBg.start").is_dir()
    assert manifest.planted == ()

    result = scan_evidence(out, fixed_clock=CLOCK)
    assert result.records == ()
    assert len(result.report.matrix) == 3
    assert all(cell == "not-recovered"
               for row in result.report.matrix for cell in row.cells.values())
    verdict = verify_scan_against_manifest(manifest, result.report)
    assert verdict.ok, verdict.mismatches


def test_generated_database_opens_in_independent_reader(tmp_path):
    # schema conformance: sqlite3 read of the generated file shows exactly
    # the documented tables/columns
    spec = paper_replica_spec()
    out = tmp_path / "replica"
    generate_fixture(spec, out)
    conn = sqlite3.connect(out / "iHealthMyVitals.V2" / "Databases" / "androidNin.db")
    tables = {name for (name,) in
              conn.execute("SELECT name FROM sqlite_master WHERE type='table'")}
    assert tables == {"TB_BPResult", "TB_SPO2Result", "TB_WeightOnlineResult",
                      "TB_TemperatureHumidity", "TB_Userinfo"}
    cols = [r[1] for r in conn.execute("PRAGMA table_info(TB_SPO2Result)")]
    assert cols == ["UsedUserID", "PhoneDataID", "iHealthID", "MachineType",
                    "MachineDeviceID", "MeasureTime", "LastChangeTime",
                    "PhoneCreateTime", "Result", "PR", "PI"]
    rows = list(conn.execute("SELECT Result, PR FROM TB_SPO2Result ORDER BY rowid"))
    assert rows[0] == (97, 89)
    assert len(rows) == 5
    conn.close()

    hm = sqlite3.connect(out / "com.withings.wiscale2" / "databases" / "withings-wiscale.db")
    tables = {name for (name,) in
              hm.execute("SELECT name FROM sqlite_master WHERE type='table'")}
    assert tables == {"devices", "measure", "users"}
    macs = {mac for (mac,) in hm.execute("SELECT macAddress FROM devices")}
    assert macs == {"00:24:e4:5a:ee:6c", "00:24:e4:57:12:c4"}
    hm.close()


def test_manifest_serialization_round_trip():
    _, manifest = build_tree(random_spec(11))
    rendered = render_manifest(manifest)
    doc = json.loads(rendered)
    assert canonical_json(doc) == rendered
    assert set(doc) == {"spec", "files", "planted", "expected_matrix",
                        "expected_violations", "encrypted_dbs"}
    assert (doc["spec"], doc["files"]) == (manifest.spec, manifest.files)
    assert len(doc["planted"]) == len(manifest.planted)
    for planted in doc["planted"]:
        assert set(planted) == {"app", "kind", "locator", "payload", "expected_findings"}
        assert set(planted["locator"]) == {"package_name", "relative_path", "container",
                                           "detail"}
        for finding in planted["expected_findings"]:
            assert set(finding) == {"category", "rule_id", "excerpt"}
    assert any(planted["expected_findings"] for planted in doc["planted"])


def test_verify_passes_on_clean_scan(tmp_path):
    spec = random_spec(21)
    out = tmp_path / "t"
    manifest = generate_fixture(spec, out)
    result = scan_evidence(out, fixed_clock=CLOCK)
    verdict = verify_scan_against_manifest(manifest, result.report)
    assert verdict.ok, verdict.mismatches


def test_verify_flags_dropped_row(tmp_path):
    spec = FixtureSpec(seed=5, myvitals=MyVitalsBlock(bp_rows=2, user_rows=1))
    out = tmp_path / "t"
    manifest = generate_fixture(spec, out)
    db = out / "iHealthMyVitals.V2" / "Databases" / "androidNin.db"
    conn = sqlite3.connect(db)
    conn.execute("DELETE FROM TB_BPResult WHERE rowid = 2")
    conn.commit()
    conn.close()

    verdict = verify_scan_against_manifest(manifest, scan_evidence(out, fixed_clock=CLOCK).report)
    assert not verdict.ok
    assert any("missing finding" in m and "TB_BPResult:2" in m for m in verdict.mismatches)
    assert any(m.startswith("changed file: ") and "androidNin.db" in m for m in verdict.mismatches)


def test_verify_flags_injected_content(tmp_path):
    spec = FixtureSpec(seed=6, glucosmart=GlucoSmartBlock(
        encrypted_db_count=1, user_info={"username": "u@example.com", "device_id": "BG5-2"}))
    out = tmp_path / "t"
    manifest = generate_fixture(spec, out)
    rogue = out / "jiuana-androidBg.start" / "shared_prefs" / "extra.xml"
    rogue.write_bytes(b"<map><string name=\"note\">rogue@example.com</string></map>")

    verdict = verify_scan_against_manifest(manifest, scan_evidence(out, fixed_clock=CLOCK).report)
    assert not verdict.ok
    assert any("unexpected file" in m and "extra.xml" in m for m in verdict.mismatches)


def test_verify_flags_spurious_finding(tmp_path):
    spec = FixtureSpec(seed=8, glucosmart=GlucoSmartBlock(
        encrypted_db_count=0, user_info={"username": "u@example.com", "device_id": "BG5-2"}))
    out = tmp_path / "t"
    manifest = generate_fixture(spec, out)
    # plant an SSN-bearing file the manifest knows nothing about: the raw
    # sweep turns it into an unexplained ssn finding
    rogue = out / "jiuana-androidBg.start" / "notes.txt"
    rogue.write_bytes(b"patient ssn 123-45-6789")

    verdict = verify_scan_against_manifest(manifest, scan_evidence(out, fixed_clock=CLOCK).report)
    assert not verdict.ok
    assert any("unexpected finding" in m for m in verdict.mismatches)


@pytest.mark.parametrize("output_kind", ["directory", "zip"])
def test_verify_flags_a_matrix_label_two_rows_share(tmp_path, output_kind):
    # an unbound folder named like an app gets a matrix row under the same label
    spec = dataclasses.replace(paper_replica_spec(), output_kind=output_kind)
    tree, manifest = build_tree(spec)
    tree["Health Mate/notes.txt"] = b"ssn 078-05-1120 noted"
    out = tmp_path / ("named.zip" if output_kind == "zip" else "named")
    write_tree(tree, spec, out)
    verdict = verify_scan_against_manifest(manifest, scan_evidence(out, fixed_clock=CLOCK).report)
    assert [m.split(":", 1)[0] for m in verdict.mismatches] == [
        "unexpected file", "unexpected finding", "unexpected matrix row"]
    assert verdict.mismatches[0] == "unexpected file: Health Mate/notes.txt"
    assert verdict.mismatches[2] == "unexpected matrix row: Health Mate (2 rows)"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 21(a): a matrix row does not name its folder, so the oracle "
    "compares neither row of a label that two rows share"))
def test_verify_names_a_changed_cell_in_the_bound_row_of_a_shared_label(tmp_path):
    spec = paper_replica_spec()
    tree, manifest = build_tree(spec)
    tree["Health Mate/notes.txt"] = b"ssn 078-05-1120 noted"
    write_tree(tree, spec, tmp_path / "named")
    report = scan_evidence(tmp_path / "named", fixed_clock=CLOCK).report
    # rows sort by (app, folder): the com.withings.wiscale2 row comes second
    _, bound_row = [row for row in report.matrix if row.app_name == "Health Mate"]
    edited = dataclasses.replace(report, matrix=tuple(
        dataclasses.replace(row, cells={**row.cells, "payment": "recovered"})
        if row is bound_row else row for row in report.matrix))
    assert (verify_scan_against_manifest(manifest, edited).mismatches
            != verify_scan_against_manifest(manifest, report).mismatches)


@pytest.fixture(scope="module")
def clean_replica_scan(tmp_path_factory):
    out = tmp_path_factory.mktemp("oracle") / "replica"
    manifest = generate_fixture(paper_replica_spec(), out)
    report = scan_evidence(out, fixed_clock=CLOCK).report
    assert verify_scan_against_manifest(manifest, report).ok
    return manifest, report


def _first_replaced(items: tuple, **changes) -> tuple:
    return (dataclasses.replace(items[0], **changes), *items[1:])


MYVITALS_APP, GLUCOSE_DB = "iHealth MyVitals", "jiuana-androidBg.start/Databases/glucose.db"


def _glucose_db_as(report, status: str | None):
    """The report with glucose.db classified as `status`, or not classified when None."""
    statuses = report.database_statuses["Gluco-Smart"]
    (glucose,) = (s for s in statuses if s.relative_path == GLUCOSE_DB)
    others = tuple(s for s in statuses if s is not glucose)
    edited = others if status is None else (dataclasses.replace(glucose, status=status), *others)
    return dataclasses.replace(report, database_statuses={"Gluco-Smart": edited})


def _finding_key(f) -> tuple:
    return (*dataclasses.astuple(f.locator), f.category, f.rule_id, f.value_excerpt)


# each case edits a clean scan's report, and gives the start of the one mismatch it must cause
ORACLE_EDITS = {
    "dropped-digest": lambda r: (
        dataclasses.replace(r, file_digests=r.file_digests[1:]),
        f"missing file: {r.file_digests[0].relative_path}"),
    "changed-digest": lambda r: (
        dataclasses.replace(r, file_digests=_first_replaced(r.file_digests, hex_digest="0" * 64)),
        f"changed file: {r.file_digests[0].relative_path}: expected "),
    "dropped-matrix-row": lambda r: (
        dataclasses.replace(r, matrix=r.matrix[1:]),
        f"missing matrix row: {r.matrix[0].app_name}"),
    "added-matrix-row": lambda r: (
        dataclasses.replace(r, matrix=(*r.matrix, PhiMatrixRow("com.example.notes", {}))),
        "unexpected matrix row: com.example.notes"),
    "changed-matrix-cell": lambda r: (
        dataclasses.replace(r, matrix=_first_replaced(
            r.matrix, cells={**r.matrix[0].cells, "ssn": "recovered"})),
        f"changed matrix row: {r.matrix[0].app_name}: expected "),
    "dropped-violation": lambda r: (
        dataclasses.replace(r, violations={**r.violations,
                                           MYVITALS_APP: r.violations[MYVITALS_APP][1:]}),
        f"changed violations: {MYVITALS_APP}: expected "),
    "added-violation": lambda r: (
        dataclasses.replace(r, violations={**r.violations, MYVITALS_APP: (
            *r.violations[MYVITALS_APP], SecurityViolation("weak-safeguard-note", (), ""))}),
        f"changed violations: {MYVITALS_APP}: expected "),
    "unclassified-encrypted-db": lambda r: (
        _glucose_db_as(r, None), f"missing encrypted db: {GLUCOSE_DB}"),
    "reclassified-encrypted-db": lambda r: (
        _glucose_db_as(r, "plaintext-sqlite"),
        f"changed encrypted db: {GLUCOSE_DB}: expected encrypted-or-opaque, got plaintext-sqlite"),
    "repeated-finding": lambda r: (
        dataclasses.replace(r, findings=(*r.findings, r.findings[0])),
        f"changed finding: {_finding_key(r.findings[0])}: expected 1, got 2"),
}


@pytest.mark.parametrize("edit", sorted(ORACLE_EDITS))
def test_verify_names_the_section_and_key_of_each_mismatch(clean_replica_scan, edit):
    manifest, report = clean_replica_scan
    edited, mismatch = ORACLE_EDITS[edit](report)
    verdict = verify_scan_against_manifest(manifest, edited)
    assert not verdict.ok
    assert len(verdict.mismatches) == 1 and verdict.mismatches[0].startswith(mismatch), (
        verdict.mismatches)


def test_explicit_rows_validated():
    with pytest.raises(InvalidSpecError):
        build_tree(FixtureSpec(seed=1, myvitals=MyVitalsBlock(
            bp_rows=({"systolic": 80, "diastolic": 120, "pulse": 60,
                      "measure_time": 1530829549, "device_id": "d",
                      "account": "a@b.co"},))))
    with pytest.raises(InvalidSpecError):
        build_tree(FixtureSpec(seed=1, healthmate=HealthMateBlock(
            device_rows=({"id": 1, "association_date": 1541806236000,
                          "last_use_date": 1542127729662, "modified_date": 1542127635000,
                          "mac_address": "00:24:e4:5a:ee:6c", "firmware": 1,
                          "battery_pct": 150, "device_type": 1, "device_model": 1},))))
    with pytest.raises(InvalidSpecError):
        # seconds-scale epoch in a milliseconds field
        build_tree(FixtureSpec(seed=1, healthmate=HealthMateBlock(
            measure_rows=({"code": 1, "value": 80.0, "measured_at": 1541806236},))))

    # one bad row per remaining parser check; each good row builds
    good = {
        ("myvitals", "bp_rows"): {"systolic": 120, "diastolic": 80, "pulse": 65,
                                  "measure_time": 1530756000, "device_id": "7C669D51AA04",
                                  "account": "a@b.co"},
        ("myvitals", "spo2_rows"): {"used_user_id": 0, "phone_data_id": "5CF821DED2ED",
                                    "health_id": "a@b.co", "machine_type": "PO3M",
                                    "machine_device_id": "5CF821DED2ED",
                                    "measure_time": 1530829549, "last_change_time": 1530829596,
                                    "phone_create_time": 1530829549, "result_spo2": 97,
                                    "pulse_rate": 89, "perfusion_index": 9.7},
        ("myvitals", "weight_rows"): {"weight": 80.5, "bmi": 24.1, "body_fat_pct": 18.2,
                                      "body_water_pct": 55.0, "muscle_mass": 60.3,
                                      "daily_calorie_intake": 2200.0, "bone_mass": 3.1,
                                      "measure_time": 1530845000, "account": "a@b.co"},
        ("myvitals", "env_rows"): {"humidity": 45.0, "temperature": 22.5,
                                   "lighting_level": 300.0, "measure_time": 1530845000},
        ("myvitals", "user_rows"): {"name": "Pat Example", "date_of_birth": "1985-06-15",
                                    "timezone_location": "UTC", "email": "a@b.co"},
        ("healthmate", "device_rows"): {"id": 1, "association_date": 1541806236000,
                                        "last_use_date": 1542127729662,
                                        "modified_date": 1542127635000,
                                        "mac_address": "00:24:e4:5a:ee:6c", "firmware": 1,
                                        "battery_pct": 77, "device_type": 1, "device_model": 1},
        ("healthmate", "measure_rows"): {"code": 1, "value": 80.0,
                                         "measured_at": 1541806236000},
        ("healthmate", "user_rows"): {"name": "Pat Example", "gender": "F",
                                      "birthday": "1985-06-15", "email": "a@b.co"},
    }
    blocks = {"myvitals": MyVitalsBlock, "healthmate": HealthMateBlock}

    def build(app, field, row):
        build_tree(FixtureSpec(seed=1, **{app: blocks[app](**{field: (row,)})}))

    for (app, field), row in good.items():
        build(app, field, row)
    bad = (
        ("myvitals", "spo2_rows", {"result_spo2": 101}, "Result out of range: 101"),
        ("myvitals", "weight_rows", {"weight": 0}, "Weight not positive: 0.0"),
        ("myvitals", "env_rows", {"humidity": 101}, "Humidity out of [0,100]: 101.0"),
        ("myvitals", "user_rows", {"email": "not-an-email"}, "bad email 'not-an-email'"),
        ("healthmate", "user_rows", {"email": "not-an-email"}, "bad email 'not-an-email'"),
        ("healthmate", "measure_rows", {"value": 0}, "value not positive: 0.0"),
        ("healthmate", "device_rows", {"mac_address": "00-24-e4"},
         "macAddress not colon-hex: '00-24-e4'"),
    )
    for app, field, change, message in bad:
        with pytest.raises(InvalidSpecError, match=re.escape(f"{app}.{field}[0]: {message}")):
            build(app, field, {**good[app, field], **change})
    row = {k: v for k, v in good["myvitals", "bp_rows"].items() if k != "device_id"}
    with pytest.raises(InvalidSpecError,
                       match=re.escape("myvitals.bp_rows[0]: missing fields ['device_id']")):
        build("myvitals", "bp_rows", row)


def test_forge_tables_match_the_parser_declarations():
    parsed = {"myvitals": myvitals.TABLES,
              "healthmate": (healthmate.DEVICES,
                             healthmate.measure_table(healthmate.DEFAULT_CODE_MAP),
                             healthmate.USERS)}
    blocks = {"myvitals": MyVitalsBlock, "healthmate": HealthMateBlock}
    for db in (_MYVITALS, _HEALTHMATE):
        forge = collections.Counter(table.name for table in db.tables)
        assert forge == collections.Counter(table.name for table in parsed[db.app])
        for table in parsed[db.app]:
            (entry,) = [t for t in db.tables if t.name == table.name]
            columns = [column for column, _, _ in entry.columns]
            id_column = [] if table.id_column == "rowid" else [table.id_column]
            assert sorted(columns) == sorted({*table.columns, *id_column}), table.name
            assert len(columns) == len(set(columns)), table.name
        assert [table.field for table in db.tables] == [
            f.name for f in dataclasses.fields(blocks[db.app]) if f.name.endswith("_rows")]


@pytest.mark.parametrize("app, block, message", [
    ("myvitals", {"credential": {"account": "a@b.co", "pasword": "Secret99",
                                 "refresh_token": "tok"}},
     "myvitals.credential.pasword: unknown key"),
    ("glucosmart", {"user_info": {"username": "pat", "device_id": "BG5-0012AB",
                                  "DeviceID": "BG5-0012AB"}},
     "glucosmart.user_info.DeviceID: unknown key"),
])
def test_a_key_the_forge_does_not_write_is_rejected(app, block, message):
    spec = load_spec(json.dumps({"seed": 1, "apps": {app: block}}))
    with pytest.raises(InvalidSpecError, match=re.escape(message)):
        build_tree(spec)


def test_explicit_rows_repeating_an_integer_primary_key_are_rejected():
    row = {"id": 1, "association_date": 1541806236000, "last_use_date": 1542127729662,
           "modified_date": 1542127635000, "mac_address": "00:24:e4:5a:ee:6c",
           "firmware": 1, "battery_pct": 77, "device_type": 1, "device_model": 1}
    other = {**row, "id": 2, "mac_address": "00:24:e4:57:12:c4"}
    build_tree(FixtureSpec(seed=1, healthmate=HealthMateBlock(device_rows=(row, other))))
    with pytest.raises(InvalidSpecError,
                       match=re.escape("healthmate.device_rows[2]: duplicate id 1")):
        build_tree(FixtureSpec(seed=1, healthmate=HealthMateBlock(
            device_rows=(row, other, {**other, "id": 1}))))


def test_credential_without_material_rejected():
    with pytest.raises(InvalidSpecError):
        build_tree(FixtureSpec(seed=1, myvitals=MyVitalsBlock(
            credential={"account": "a@b.co"})))


def test_encrypted_dbs_never_carry_sqlite_magic():
    spec = FixtureSpec(seed=9, glucosmart=GlucoSmartBlock(encrypted_db_count=3))
    tree, manifest = build_tree(spec)
    assert len(manifest.encrypted_dbs) == 3
    for path in manifest.encrypted_dbs:
        assert tree[path][:16] != b"SQLite format 3\x00"
        assert len(tree[path]) >= 4096


def test_directory_and_zip_forms_have_identical_content(tmp_path):
    spec = random_spec(33)
    d = tmp_path / "tree"
    generate_fixture(spec, d)
    z = tmp_path / "tree.zip"
    generate_fixture(dataclasses.replace(spec, output_kind="zip"), z)

    from phiscan.evidence import open_source, read_file

    src_d, src_z = open_source(d), open_source(z)
    assert src_d.root_listing == src_z.root_listing
    for rel in sorted(src_d.root_listing):
        assert read_file(src_d, rel) == read_file(src_z, rel)


_REAL_CONNECT = sqlite3.connect


@pytest.mark.equivalence
@settings(deadline=None)  # the reference commits each database to a file
@given(st.none() | st.integers(min_value=0))
@example(None)  # the replica
def test_memdb_databases_equal_file_databases(seed):
    # The reference opens each database on a fresh file, and serialize() of a
    # file-backed connection returns that file's bytes. This runs with the
    # interpreter's own SQLite, where perfbench's pins hold for one version.
    spec = paper_replica_spec() if seed is None else random_spec(seed)
    with tempfile.TemporaryDirectory() as tmp:
        files = []

        def connect_a_file(*args, **kwargs):
            files.append(pathlib.Path(tmp) / f"{len(files)}.db")
            return _REAL_CONNECT(files[-1])

        with mock.patch.object(sqlite3, "connect", connect_a_file):
            on_file, _ = build_tree(spec)
        written = sorted(path.read_bytes() for path in files)
    assert build_tree(spec)[0] == on_file
    assert written == sorted(data for data in on_file.values()
                             if data.startswith(b"SQLite format 3\x00"))


def test_the_forge_writes_no_file_of_its_own(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the forge made a temporary file")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    monkeypatch.chdir(tmp_path)  # a database named as a file would land here
    tree, _ = build_tree(paper_replica_spec())
    assert any(data.startswith(b"SQLite format 3\x00") for data in tree.values())
    assert list(tmp_path.iterdir()) == []


def test_a_forged_zip_pins_each_entry_s_metadata(tmp_path):
    spec = dataclasses.replace(paper_replica_spec(), output_kind="zip")
    tree, _ = build_tree(spec)
    write_tree(tree, spec, tmp_path / "replica.zip")
    with zipfile.ZipFile(tmp_path / "replica.zip") as zf:
        entries = zf.infolist()
    dirs = [info for info in entries if info.filename.endswith("/")]
    files = entries[len(dirs):]
    assert entries[:len(dirs)] == dirs  # every directory entry comes first
    assert [info.filename for info in dirs] == sorted(info.filename for info in dirs)
    assert {rel.rpartition("/")[0] + "/" for rel in tree if "/" in rel} <= {
        info.filename for info in dirs}
    assert [info.filename for info in files] == sorted(tree)
    for info in dirs:
        assert info.is_dir()
        assert info.external_attr == (0o755 << 16) | 0x10
        assert info.compress_type == zipfile.ZIP_STORED
    for info in files:
        assert info.external_attr == 0o644 << 16
        assert info.compress_type == zipfile.ZIP_DEFLATED
    assert {info.date_time for info in entries} == {(2020, 1, 1, 0, 0, 0)}
