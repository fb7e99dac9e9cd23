"""Declared tables: what declare refuses, and how each column's null cell reads."""

from __future__ import annotations

import functools
import re
import sqlite3
from dataclasses import dataclass

import pytest

from phiscan.parsers import healthmate, myvitals
from phiscan.parsers.base import parse_each
from phiscan.parsers.tables import Table, column, declare, parse_tables, require_int


def test_declare_refuses_a_payload_field_that_is_not_a_column():
    @dataclass(frozen=True)
    class Loose:
        value: int = column("Value", require_int)
        note: str = "none"

    with pytest.raises(ValueError, match=r"T: a Loose field is not a column"):
        declare("T", "kind", Loose)


T, MS = 1530829549, 1541807000000
# a row of each declared table that every converter and check accepts
VALID_ROWS = {
    "TB_BPResult": {"Sys": 120, "Dia": 80, "Pulse": 65, "MeasureTime": T, "DeviceID": "dev",
                    "Note": "ok", "Account": "a@b.co"},
    "TB_SPO2Result": {"Result": 97, "PR": 89, "PI": 9.7, "MeasureTime": T,
                      "LastChangeTime": T + 40, "PhoneCreateTime": T, "iHealthID": "a@b.co",
                      "MachineType": "PO3M", "MachineDeviceID": "5CF821DED2ED",
                      "UsedUserID": 0, "PhoneDataID": "5CF821DED2ED"},
    "TB_WeightOnlineResult": {"Weight": 80.5, "BMI": 24.1, "BodyFat": 18.2, "BodyWater": 55.0,
                              "MuscleMass": 60.3, "DailyCalorie": 2200.0, "BoneMass": 3.1,
                              "MeasureTime": T, "Account": "a@b.co"},
    "TB_TemperatureHumidity": {"Humidity": 45.0, "Temperature": 22.5, "Lighting": 300.0,
                               "MeasureTime": T},
    "TB_Userinfo": {"Name": "Pat", "Birthday": "1980-01-02", "TimeZone": "UTC",
                    "Email": "a@b.co"},
    "devices": {"id": 1, "associationDate": MS, "lastUseDate": MS, "modifiedDate": MS,
                "macAddress": "00:24:e4:5a:ee:6c", "firmware": 431, "timezone": "UTC",
                "battery": 77, "type": 4, "model": 43},
    "measure": {"id": 1, "date": MS, "type": 1, "value": 80.5, "deviceid": 1},
    "users": {"id": 1, "name": "Pat", "gender": "F", "birthday": "1980-01-02",
              "email": "a@b.co"},
}

# the columns whose converter holds a null; a null in any other column refuses the row
HOLDS_NULL = {
    "TB_BPResult": {"DeviceID", "Note", "Account"},
    "TB_SPO2Result": {"iHealthID", "MachineType", "MachineDeviceID", "UsedUserID",
                      "PhoneDataID"},
    "TB_WeightOnlineResult": {"Account"},
    "TB_TemperatureHumidity": set(),
    "TB_Userinfo": {"Name", "Birthday", "TimeZone", "Email"},
    "devices": {"timezone"},
    "measure": {"deviceid"},
    "users": {"name", "gender", "birthday", "email"},
}

HM_DB = f"{healthmate.PACKAGE_FOLDER}/databases/{healthmate.DB_NAME}"
DECLARED = [
    *((table, myvitals.PACKAGE_FOLDER, myvitals.DB_PATH) for table in myvitals.TABLES),
    *((table, healthmate.PACKAGE_FOLDER, HM_DB) for table in (
        healthmate.DEVICES, healthmate.USERS,
        healthmate.measure_table(healthmate.DEFAULT_CODE_MAP))),
]


def _one_row_db(table: Table, row: dict) -> bytes:
    """A database holding only `table`, untyped, with the one row `row`."""
    columns = [c for c in dict.fromkeys((table.id_column, *table.columns)) if c != "rowid"]
    conn = sqlite3.connect(":memory:")
    conn.execute(f"CREATE TABLE {table.name} ({', '.join(columns)})")
    conn.execute(f"INSERT INTO {table.name} VALUES ({', '.join('?' * len(columns))})",
                 [row[c] for c in columns])
    data = conn.serialize()
    conn.close()
    return data


@pytest.mark.parametrize("table, package, path, name", [
    pytest.param(table, package, path, name, id=f"{table.name}.{name}")
    for table, package, path in DECLARED for name in table.columns])
def test_a_null_cell_gives_one_record_or_one_warning_that_names_its_column(
        table, package, path, name):
    parse = functools.partial(parse_tables, tables=(table,), package=package)
    valid = parse_each([(path, _one_row_db(table, VALID_ROWS[table.name]))], lambda p: parse)
    assert len(valid.records) == 1 and valid.warnings == ()

    nulled = {**VALID_ROWS[table.name], name: None}
    result = parse_each([(path, _one_row_db(table, nulled))], lambda p: parse)
    if name in HOLDS_NULL[table.name]:
        assert len(result.records) == 1 and result.warnings == ()
    else:
        assert result.records == ()
        (warning,) = result.warnings
        assert re.fullmatch(rf"{re.escape(path)}: {table.name}:1: malformed row "
                            rf"\(.*\b{name}\b.*\bNone\), row skipped", warning), warning
