"""Health Mate: devices, measure (code map), users."""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from phiscan.errors import InvalidSpecError
from phiscan.evidence import enumerate_app_roots, open_source
from phiscan.parsers.healthmate import (
    DEFAULT_CODE_MAP,
    DEVICES,
    USERS,
    HealthMateParser,
    load_code_map,
    measure_table,
)
from phiscan.parsers.tables import parse_tables

from conftest import FIG3_DEVICE_ROWS, make_healthmate_db


@pytest.fixture
def db_bytes(tmp_path):
    def build(**tables) -> bytes:
        path = tmp_path / "withings-wiscale.db"
        if path.exists():
            path.unlink()
        make_healthmate_db(path, **tables)
        return path.read_bytes()

    return build


DB_PATH = "com.withings.wiscale2/databases/withings-wiscale.db"


def parse(data: bytes, code_map=DEFAULT_CODE_MAP):
    """Every withings-wiscale.db table, through the app's declared-table loop."""
    return parse_tables(data, (DEVICES, measure_table(code_map), USERS),
                        package="com.withings.wiscale2", relative_path=DB_PATH)


def test_documented_device_rows(db_bytes):
    records, warnings = parse(db_bytes(devices=FIG3_DEVICE_ROWS))
    assert warnings == []
    assert len(records) == 2
    by_id = {r.payload.id: r.payload for r in records}

    scale = by_id[5595648]
    assert scale.mac_address == "00:24:e4:5a:ee:6c"
    assert scale.firmware == 431
    assert scale.timezone is None
    assert scale.battery_pct == 77
    assert (scale.device_type, scale.device_model) == (4, 43)
    assert scale.last_use_date.raw_value == 1542127729662

    bpm = by_id[5402710]
    assert bpm.mac_address == "00:24:e4:57:12:c4"
    assert bpm.timezone == "America/Chicago"
    assert bpm.battery_pct == 78
    assert (bpm.device_type, bpm.device_model) == (1, 6)

    for payload in by_id.values():
        for instant in (payload.association_date, payload.last_use_date,
                        payload.modified_date):
            assert instant.unit == "milliseconds"

    details = {r.locator.detail for r in records}
    assert details == {"devices:5595648", "devices:5402710"}


def test_devices_empty_table(db_bytes):
    records, warnings = parse(db_bytes())
    assert records == [] and warnings == []


def test_device_malformed_rows_tallied(db_bytes):
    rows = [
        (1, 1541806236000, 1542127729662, 1542127635000, "not-a-mac", 1, None, 50, 1, 1),
        (2, 1541806236000, 1542127729662, 1542127635000, "00:24:e4:5a:ee:6c",
         1, None, 150, 1, 1),  # battery out of range
    ]
    records, warnings = parse(db_bytes(devices=rows))
    assert records == []
    assert len(warnings) == 2


def test_device_mac_normalized_to_lowercase(db_bytes):
    rows = [(3, 1541806236000, 1542127729662, 1542127635000, "00:24:E4:5A:EE:6C",
             1, None, 50, 1, 1)]
    records, _ = parse(db_bytes(devices=rows))
    assert records[0].payload.mac_address == "00:24:e4:5a:ee:6c"


def test_measure_known_code(db_bytes):
    records, warnings = parse(
        db_bytes(measures=[(1, 1541807000000, 1, 80.5, 5595648)]))
    assert warnings == []
    m = records[0].payload
    assert m.kind == "weight"
    assert m.value == pytest.approx(80.5)
    assert m.measured_at.unit == "milliseconds"
    assert m.device_ref == 5595648
    assert records[0].kind == "weight"
    assert records[0].locator.detail == "measure:1"


def test_measure_pressure_codes_are_blood_pressure_records(db_bytes):
    records, _ = parse(db_bytes(measures=[
        (1, 1541807000000, 4, 120.0, None), (2, 1541807000000, 11, 64.0, None)]))
    assert [r.kind for r in records] == ["blood-pressure", "blood-pressure"]
    assert [r.payload.kind for r in records] == ["systolic", "pulse"]


def test_measure_unknown_code_becomes_raw_hit(db_bytes):
    records, warnings = parse(
        db_bytes(measures=[(1, 1541807000000, 999, 42.0, None)]))
    assert warnings == []
    assert records[0].kind == "raw-hit"
    assert records[0].payload.pattern == "measure-type-code"
    assert records[0].payload.value == "999"


def test_measure_empty_and_invalid_value(db_bytes):
    records, warnings = parse(db_bytes())
    assert records == [] and warnings == []
    records, warnings = parse(
        db_bytes(measures=[(1, 1541807000000, 1, -5.0, None)]))
    assert records == [] and len(warnings) == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(sorted(DEFAULT_CODE_MAP) + [999, 1234]),
                          st.floats(min_value=0.1, max_value=500)),
                max_size=8))
def test_code_map_totality(tmp_path_factory, rows):
    # every measure row yields exactly one record, typed or raw-hit
    tmp = tmp_path_factory.mktemp("hm")
    path = tmp / "m.db"
    make_healthmate_db(path, measures=[
        (i + 1, 1541807000000, code, value, None) for i, (code, value) in enumerate(rows)])
    records, warnings = parse(path.read_bytes())
    assert len(records) + len(warnings) == len(rows)
    assert len(warnings) == 0  # all values positive by construction


def test_users_round_trip(db_bytes):
    records, warnings = parse(db_bytes(users=[
        (1, "Pat Example", "F", "1985-06-15", "pat@example.com")]))
    assert warnings == []
    user = records[0].payload
    assert (user.name, user.gender, user.birthday, user.email) == (
        "Pat Example", "F", "1985-06-15", "pat@example.com")

    assert parse(db_bytes())[0] == []


def test_users_missing_email_column_is_schema_error(tmp_path):
    path = tmp_path / "short.db"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, gender TEXT,"
                 " birthday TEXT)")  # no email column
    conn.execute("INSERT INTO users VALUES (1, 'A', 'F', '1980-01-01')")
    conn.execute("CREATE TABLE devices (id INTEGER PRIMARY KEY, associationDate INTEGER,"
                 " lastUseDate INTEGER, modifiedDate INTEGER, macAddress TEXT,"
                 " firmware INTEGER, timezone TEXT, battery INTEGER, type INTEGER,"
                 " model INTEGER)")
    conn.execute("CREATE TABLE measure (id INTEGER PRIMARY KEY, date INTEGER,"
                 " type INTEGER, value REAL, deviceid INTEGER)")
    conn.commit()
    conn.close()
    records, warnings = parse(path.read_bytes())
    assert records == []
    assert warnings == [f"{DB_PATH}: users: no such column: email"]

    # at the app-parser level the schema error is tallied, not fatal
    tree = tmp_path / "tree" / "com.withings.wiscale2" / "databases"
    tree.mkdir(parents=True)
    tree.joinpath("withings-wiscale.db").write_bytes(path.read_bytes())
    src = open_source(tmp_path / "tree")
    root = enumerate_app_roots(src)[0]
    result = HealthMateParser().parse(root, src)
    assert any("users" in w for w in result.warnings)
    assert result.records == ()


def test_not_sqlite_database_is_one_warning(tmp_path):
    tree = tmp_path / "tree" / "com.withings.wiscale2" / "databases"
    tree.mkdir(parents=True)
    tree.joinpath("withings-wiscale.db").write_bytes(b"\x13\x37" * 64)
    src = open_source(tmp_path / "tree")
    result = HealthMateParser().parse(enumerate_app_roots(src)[0], src)
    assert result.records == ()
    assert result.warnings == (f"{DB_PATH}: not a SQLite database (possibly encrypted)",)


def test_undecodable_schema_error_is_one_corrupt_warning(tmp_path):
    data = make_healthmate_db(tmp_path / "w.db", users=[(1, "A", "F", "1980-01-01", "a@b.co")])
    damaged = data.read_bytes().replace(b"tablemeasuremeasure", b"tablemeasur\xe5measure", 1)
    assert damaged != data.read_bytes()
    records, warnings = parse(damaged)
    assert records == []
    assert len(warnings) == 1
    assert warnings[0].startswith(f"{DB_PATH}: corrupt SQLite database, not parsed (devices: ")


def test_detect_requires_folder_and_database(tmp_path):
    parser = HealthMateParser()

    tree = tmp_path / "a" / "com.withings.wiscale2" / "databases"
    tree.mkdir(parents=True)
    make_healthmate_db(tree / "withings-wiscale.db")
    src = open_source(tmp_path / "a")
    assert parser.detect(enumerate_app_roots(src, registry=())[0], src) is True

    (tmp_path / "b" / "com.withings.wiscale2").mkdir(parents=True)
    (tmp_path / "b" / "com.withings.wiscale2" / "other.db").write_bytes(b"x")
    src = open_source(tmp_path / "b")
    assert parser.detect(enumerate_app_roots(src, registry=())[0], src) is False

    (tmp_path / "c" / "com.withings").mkdir(parents=True)
    (tmp_path / "c" / "com.withings" / "withings-wiscale.db").write_bytes(b"x")
    src = open_source(tmp_path / "c")
    assert parser.detect(enumerate_app_roots(src, registry=())[0], src) is False


def test_load_code_map_round_trip_and_errors(tmp_path):
    text = "# comment\n1 = weight\n4=systolic\n  170 = bmi  # inline\n"
    assert load_code_map(text) == {1: "weight", 4: "systolic", 170: "bmi"}
    with pytest.raises(InvalidSpecError):
        load_code_map("nonsense line")
    with pytest.raises(InvalidSpecError):
        load_code_map("x = weight")
    with pytest.raises(InvalidSpecError):
        load_code_map("7 = blood-sugar")  # unknown kind


def test_custom_code_map_overrides_default(db_bytes):
    records, _ = parse(db_bytes(measures=[(1, 1541807000000, 42, 70.0, None)]),
                                code_map={42: "pulse"})
    assert records[0].payload.kind == "pulse"
