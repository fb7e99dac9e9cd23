"""iHealth MyVitals table and credential-XML parsing."""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, strategies as st

from phiscan.errors import MalformedXmlError, NoCredentialKeysError
from phiscan.evidence import enumerate_app_roots, open_source
from phiscan.parsers.myvitals import TABLES, MyVitalsParser, parse_region_host_xml
from phiscan.parsers.tables import parse_tables

from conftest import FIG1_SPO2_ROWS, FIG2_CREDENTIAL_XML, make_myvitals_db


@pytest.fixture
def db_bytes(tmp_path):
    def build(**tables) -> bytes:
        path = tmp_path / "androidNin.db"
        if path.exists():
            path.unlink()
        make_myvitals_db(path, **tables)
        return path.read_bytes()

    return build


DB_PATH = "iHealthMyVitals.V2/Databases/androidNin.db"


def parse(data: bytes):
    """Every androidNin.db table, through the app's declared-table loop."""
    return parse_tables(data, TABLES, package="iHealthMyVitals.V2", relative_path=DB_PATH)


def test_bp_row_round_trip(db_bytes):
    data = db_bytes(bp=[(120, 80, 65, 1530829549, "7C669D51AA04", "after run",
                         "medicaldevices2018exper@gmail.com")])
    records, warnings = parse(data)
    assert warnings == []
    assert len(records) == 1
    reading = records[0].payload
    assert (reading.systolic, reading.diastolic, reading.pulse) == (120, 80, 65)
    assert reading.note == "after run"
    assert reading.measured_at.unit == "seconds"
    assert records[0].locator.detail == "TB_BPResult:1"
    assert records[0].kind == "blood-pressure"


def test_wal_mode_database_parses(tmp_path):
    path = make_myvitals_db(tmp_path / "androidNin.db", spo2=FIG1_SPO2_ROWS[:2])
    conn = sqlite3.connect(path)
    assert conn.execute("PRAGMA journal_mode=WAL").fetchone() == ("wal",)
    conn.close()
    data = path.read_bytes()
    assert data[18:20] == b"\x02\x02"  # WAL write/read format versions
    records, warnings = parse(data)
    assert warnings == []
    assert [r.payload.result_spo2 for r in records] == [97, 96]


def test_undecodable_text_cell_keeps_the_table(tmp_path):
    path = make_myvitals_db(tmp_path / "androidNin.db", bp=[
        (120, 80, 65, 1530829549, "d", None, "a@b.co"),
        (118, 79, 64, 1530829600, "d", "ok", "a@b.co")])
    conn = sqlite3.connect(path)
    conn.execute("UPDATE TB_BPResult SET Note = CAST(x'41ff42' AS TEXT) WHERE rowid = 1")
    conn.commit()
    conn.close()
    records, warnings = parse(path.read_bytes())
    assert [r.payload.note for r in records] == ["A\ufffdB", "ok"]
    assert warnings == [f"{DB_PATH}: TB_BPResult: column Note holds text that is not "
                        "valid UTF-8, undecodable bytes replaced"]


def test_bp_empty_table(db_bytes):
    records, warnings = parse(db_bytes())
    assert records == [] and warnings == []


def test_bp_null_vitals_tallied(db_bytes):
    data = db_bytes(bp=[(None, 80, 65, 1530829549, "d", None, "a@b.co"),
                        (120, 80, 65, 1530829549, "d", None, "a@b.co")])
    records, warnings = parse(data)
    assert len(records) == 1
    assert len(warnings) == 1 and "TB_BPResult:1" in warnings[0]


def test_bp_invariant_violations_tallied(db_bytes):
    data = db_bytes(bp=[(80, 120, 65, 1530829549, "d", None, "a@b.co"),      # sys < dia
                        (120, 80, 0, 1530829549, "d", None, "a@b.co"),       # pulse 0
                        (120, 80, "fast", 1530829549, "d", None, "a@b.co")])  # non-integer
    records, warnings = parse(data)
    assert records == []
    assert len(warnings) == 3
    assert all("malformed row" in w for w in warnings)


def test_not_sqlite_is_one_warning(db_bytes):
    records, warnings = parse(b"\x13\x37" * 64)
    assert records == []
    assert warnings == [f"{DB_PATH}: not a SQLite database (possibly encrypted)"]


def test_missing_table_is_a_warning_per_table(tmp_path):
    path = tmp_path / "other.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE unrelated (x)")
    conn.commit()
    conn.close()
    records, warnings = parse(path.read_bytes())
    assert records == []
    assert warnings == [f"{DB_PATH}: {table.name}: no such table: {table.name}"
                        for table in TABLES]


def test_spo2_first_documented_row(db_bytes):
    records, warnings = parse(db_bytes(spo2=FIG1_SPO2_ROWS[:1]))
    assert warnings == []
    reading = records[0].payload
    assert reading.result_spo2 == 97
    assert reading.pulse_rate == 89
    assert reading.perfusion_index == pytest.approx(9.7)
    assert reading.health_id == "medicaldevices2018exper@gmail.com"
    assert reading.machine_type == "PO3M"
    assert reading.machine_device_id == "5CF821DED2ED"
    assert reading.measured_at.raw_value == 1530829549
    assert reading.measured_at.unit == "seconds"


def test_spo2_all_rows_ordered_by_measure_time(db_bytes):
    # insert out of order; parse must come back MeasureTime-ascending
    shuffled = [FIG1_SPO2_ROWS[3], FIG1_SPO2_ROWS[0], FIG1_SPO2_ROWS[4],
                FIG1_SPO2_ROWS[1], FIG1_SPO2_ROWS[2]]
    records, _ = parse(db_bytes(spo2=shuffled))
    times = [r.payload.measured_at.raw_value for r in records]
    assert times == sorted(times)
    assert times[0] == 1530829549 and times[-1] == 1531259730
    assert len(records) == 5


def test_spo2_zero_result_tallied(db_bytes):
    row = list(FIG1_SPO2_ROWS[0])
    row[8] = 0  # Result
    records, warnings = parse(db_bytes(spo2=[tuple(row)]))
    assert records == []
    assert len(warnings) == 1 and "malformed row" in warnings[0]


def test_weight_row_round_trip(db_bytes):
    data = db_bytes(weight=[(80.5, 24.1, 18.2, 55.0, 60.3, 2200.0, 3.1,
                             1530845000, "a@b.co")])
    records, warnings = parse(data)
    assert warnings == []
    reading = records[0].payload
    assert reading.weight == pytest.approx(80.5)
    assert reading.bmi == pytest.approx(24.1)
    assert reading.bone_mass == pytest.approx(3.1)
    assert records[0].locator.detail == "TB_WeightOnlineResult:1"


def test_weight_percentage_bound(db_bytes):
    data = db_bytes(weight=[(80.5, 24.1, 120.0, 55.0, 60.3, 2200.0, 3.1,
                             1530845000, "a@b.co")])
    records, warnings = parse(data)
    assert records == [] and len(warnings) == 1


def test_environment_row_and_bounds(db_bytes):
    records, warnings = parse(
        db_bytes(env=[(45.0, 22.5, 300.0, 1530845000)]))
    assert warnings == []
    assert records[0].payload.humidity == pytest.approx(45.0)

    records, warnings = parse(
        db_bytes(env=[(101.0, 22.5, 300.0, 1530845000)]))
    assert records == [] and len(warnings) == 1


def test_user_info_rows(db_bytes):
    records, _ = parse(db_bytes(users=[
        ("Pat One", "1980-01-02", "America/Chicago", "medicaldevices2018exper@gmail.com")]))
    assert records[0].payload.email == "medicaldevices2018exper@gmail.com"

    records, _ = parse(db_bytes())
    assert records == []

    records, _ = parse(db_bytes(users=[
        ("A", "1980-01-02", "UTC", "a@b.co"), ("B", "1981-02-03", "UTC", "b@c.co")]))
    assert len(records) == 2


def test_parse_is_layout_independent(tmp_path, db_bytes):
    # same rows, different page layout after VACUUM: identical payloads
    rows = [(120 + i, 80, 60 + i, 1530829549 + i, "dev", None, "a@b.co")
            for i in range(20)]
    data = db_bytes(bp=rows)
    path = tmp_path / "vacuumed.db"
    path.write_bytes(data)
    conn = sqlite3.connect(path)
    conn.execute("VACUUM")
    conn.commit()
    conn.close()
    before = [r.payload for r in parse(data)[0]]
    after = [r.payload for r in parse(path.read_bytes())[0]]
    assert before == after


# -- credential XML ----------------------------------------------------------

def test_documented_credential_xml(tmp_path):
    records, warnings = parse_region_host_xml(FIG2_CREDENTIAL_XML)
    assert warnings == []
    assert len(records) == 1
    cred = records[0].payload
    assert cred.account == "medicaldevices2018exper@gmail.com"
    assert cred.password_plaintext == "MedExp2018"
    assert cred.is_online_flag is False
    assert cred.refresh_token and cred.refresh_token.startswith("D2PXXZMS")
    assert cred.access_token and cred.access_token.startswith("YgQLYRcd")
    assert cred.region_host == "http://ap2.1hoad"
    assert records[0].kind == "credential"
    assert records[0].locator.container == "xml-file"


def test_empty_map_has_no_credential_keys():
    with pytest.raises(NoCredentialKeysError):
        parse_region_host_xml(b"<map/>")


def test_single_flag_key_yields_partial_credential():
    xml = (b"<map><boolean name=\"a@b.co_user_is_online\" value=\"true\" /></map>")
    records, warnings = parse_region_host_xml(xml)
    assert warnings == []
    cred = records[0].payload
    assert cred.is_online_flag is True
    assert cred.password_plaintext is None
    assert cred.refresh_token is None


def test_inconsistent_prefixes_return_all_sets_flagged():
    xml = (b"<map>"
           b"<string name=\"a@b.co_user_password\">one</string>"
           b"<string name=\"c@d.co_user_password\">two</string>"
           b"</map>")
    records, warnings = parse_region_host_xml(xml)
    assert len(records) == 2
    assert {r.payload.account for r in records} == {"a@b.co", "c@d.co"}
    assert any("inconsistent account prefixes" in w for w in warnings)


def test_malformed_xml_raises():
    with pytest.raises(MalformedXmlError):
        parse_region_host_xml(b"<map><string name='x'>unclosed")
    with pytest.raises(MalformedXmlError):
        parse_region_host_xml(b"<wrong/>")


_SUFFIX_FIELDS = {
    "_user_password": "password_plaintext",
    "_user_refresh_token": "refresh_token",
    "_user_access_token": "access_token",
    "_user_region_host_info": "region_host",
}


@given(st.sets(st.sampled_from(sorted(_SUFFIX_FIELDS)), max_size=4),
       st.booleans())
def test_credential_extraction_never_fabricates(suffixes, include_flag):
    # password comes out iff the password key went in
    parts = ["<map>"]
    for suffix in sorted(suffixes):
        parts.append(f'<string name="user@example.com{suffix}">v-{suffix}</string>')
    if include_flag:
        parts.append('<boolean name="user@example.com_user_is_online" value="true" />')
    parts.append("</map>")
    xml = "".join(parts).encode()
    if not suffixes and not include_flag:
        with pytest.raises(NoCredentialKeysError):
            parse_region_host_xml(xml)
        return
    records, _ = parse_region_host_xml(xml)
    cred = records[0].payload
    assert (cred.password_plaintext is not None) == ("_user_password" in suffixes)
    for suffix, field in _SUFFIX_FIELDS.items():
        assert (getattr(cred, field) is not None) == (suffix in suffixes)
    assert (cred.is_online_flag is not None) == include_flag


# -- detection ---------------------------------------------------------------

def _root_named(tmp_path, name, with_db=True):
    folder = tmp_path / "tree" / name
    (folder / "Databases").mkdir(parents=True)
    if with_db:
        make_myvitals_db(folder / "Databases" / "androidNin.db")
    src = open_source(tmp_path / "tree")
    root = next(r for r in enumerate_app_roots(src, registry=())
                if r.package_name == name)
    return root, src


def test_detect_requires_folder_and_database(tmp_path):
    parser = MyVitalsParser()
    root, src = _root_named(tmp_path, "iHealthMyVitals.V2")
    assert parser.detect(root, src) is True


def test_detect_rejects_other_folder(tmp_path):
    parser = MyVitalsParser()
    root, src = _root_named(tmp_path, "com.withings.wiscale2")
    assert parser.detect(root, src) is False


def test_detect_rejects_missing_database(tmp_path):
    parser = MyVitalsParser()
    root, src = _root_named(tmp_path, "iHealthMyVitals.V2", with_db=False)
    assert parser.detect(root, src) is False
