"""Shared test helpers: independent artifact builders and result reporting."""

from __future__ import annotations

import sqlite3
from pathlib import Path

import pytest
from hypothesis import settings

# A larger example budget for the reference-equivalence property tests,
# selected with --hypothesis-profile=equivalence.
settings.register_profile("equivalence", max_examples=2000)


def make_myvitals_db(path: Path, *, bp=(), spo2=(), weight=(), env=(), users=()) -> Path:
    """Build an androidNin.db lookalike with plain sqlite3 (independent of
    the package's fixture generator)."""
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE TB_BPResult (Sys INTEGER, Dia INTEGER, Pulse INTEGER,"
                 " MeasureTime INTEGER, DeviceID TEXT, Note TEXT, Account TEXT)")
    conn.execute("CREATE TABLE TB_SPO2Result (UsedUserID INTEGER, PhoneDataID TEXT,"
                 " iHealthID TEXT, MachineType TEXT, MachineDeviceID TEXT,"
                 " MeasureTime INTEGER, LastChangeTime INTEGER, PhoneCreateTime INTEGER,"
                 " Result INTEGER, PR INTEGER, PI REAL)")
    conn.execute("CREATE TABLE TB_WeightOnlineResult (Weight REAL, BMI REAL, BodyFat REAL,"
                 " BodyWater REAL, MuscleMass REAL, DailyCalorie REAL, BoneMass REAL,"
                 " MeasureTime INTEGER, Account TEXT)")
    conn.execute("CREATE TABLE TB_TemperatureHumidity (Humidity REAL, Temperature REAL,"
                 " Lighting REAL, MeasureTime INTEGER)")
    conn.execute("CREATE TABLE TB_Userinfo (Name TEXT, Birthday TEXT, TimeZone TEXT, Email TEXT)")
    conn.executemany("INSERT INTO TB_BPResult VALUES (?,?,?,?,?,?,?)", bp)
    conn.executemany("INSERT INTO TB_SPO2Result VALUES (?,?,?,?,?,?,?,?,?,?,?)", spo2)
    conn.executemany("INSERT INTO TB_WeightOnlineResult VALUES (?,?,?,?,?,?,?,?,?)", weight)
    conn.executemany("INSERT INTO TB_TemperatureHumidity VALUES (?,?,?,?)", env)
    conn.executemany("INSERT INTO TB_Userinfo VALUES (?,?,?,?)", users)
    conn.commit()
    conn.close()
    return path


def make_healthmate_db(path: Path, *, devices=(), measures=(), users=()) -> Path:
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE devices (id INTEGER PRIMARY KEY, associationDate INTEGER,"
                 " lastUseDate INTEGER, modifiedDate INTEGER, macAddress TEXT,"
                 " firmware INTEGER, timezone TEXT, battery INTEGER, type INTEGER,"
                 " model INTEGER)")
    conn.execute("CREATE TABLE measure (id INTEGER PRIMARY KEY, date INTEGER, type INTEGER,"
                 " value REAL, deviceid INTEGER)")
    conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, gender TEXT,"
                 " birthday TEXT, email TEXT)")
    conn.executemany("INSERT INTO devices VALUES (?,?,?,?,?,?,?,?,?,?)", devices)
    conn.executemany("INSERT INTO measure VALUES (?,?,?,?,?)", measures)
    conn.executemany("INSERT INTO users VALUES (?,?,?,?,?)", users)
    conn.commit()
    conn.close()
    return path


FIG1_SPO2_ROWS = [
    (0, "5CF821DED2ED", "medicaldevices2018exper@gmail.com", "PO3M", "5CF821DED2ED",
     1530829549, 1530829596, 1530829549, 97, 89, 9.7),
    (0, "5CF821DED2ED", "medicaldevices2018exper@gmail.com", "PO3M", "5CF821DED2ED",
     1530884863, 1530884878, 1530884863, 96, 77, 8.3),
    (0, "5CF821DED2ED", "medicaldevices2018exper@gmail.com", "PO3M", "5CF821DED2ED",
     1531090846, 1531090859, 1531090846, 97, 90, 4.9),
    (0, "5CF821DED2ED", "medicaldevices2018exper@gmail.com", "PO3M", "5CF821DED2ED",
     1531169685, 1531169699, 1531169685, 96, 80, 12.3),
    (0, "5CF821DED2ED", "medicaldevices2018exper@gmail.com", "PO3M", "5CF821DED2ED",
     1531259730, 1531259755, 1531259730, 97, 90, 3.0),
]

FIG3_DEVICE_ROWS = [
    (5595648, 1541806236000, 1542127729662, 1542127635000, "00:24:e4:5a:ee:6c",
     431, None, 77, 4, 43),
    (5402710, 1541806407000, 1542070868000, 1542093243000, "00:24:e4:57:12:c4",
     1751, "America/Chicago", 78, 1, 6),
]

FIG2_CREDENTIAL_XML = b"""<?xml version='1.0' encoding='utf-8' standalone='yes' ?>
<map>
    <boolean name="medicaldevices2018exper@gmail.com_user_is_online" value="false" />
    <string name="medicaldevices2018exper@gmail.com_user_refresh_token">D2PXXZMSfnfbwDALTvmpUw0VRnZXD0djicG9CT0QPuODtvy-BEwR8wjr7coVdcAvge0t0-zTYf6ier3jyPQiUT5u7otC*4ZrrkVzYkx85LyoS9DftfXM-ig0*qcbcHx*RtLim-B1K7tZfzcoXtWg</string>
    <string name="medicaldevices2018exper@gmail.com_user_access_token">YgQLYRcdlyAWpL7cBiNLoORlyXd-uTznbuJaZRxiQgMb8EfrHdEF2q-hS0f2dQ0ryf*ubXJmrrUwG3RzYfsZEZV9f3ZoWYCG1zSXbIgjPupID*XleiJwi2JKVf7dw</string>
    <string name="medicaldevices2018exper@gmail.com_user_password">MedExp2018</string>
    <string name="medicaldevices2018exper@gmail.com_user_region_host_info">http://ap2.1hoad</string>
    <int name="medicaldevices2018exper@gmail.com_user_region_flag" value="1" />
</map>
"""

# Table 2, column by app: cells in PHI_CATEGORIES order (health, provision,
# payment, name, address, ssn, date-of-birth).
TABLE2 = {
    "iHealth MyVitals": ("recovered", "recovered", "not-recovered", "recovered",
                         "recovered", "not-recovered", "recovered"),
    "Gluco-Smart": ("not-recovered", "not-recovered", "not-recovered", "recovered",
                    "not-recovered", "not-recovered", "not-recovered"),
    "Health Mate": ("recovered", "recovered", "not-recovered", "recovered",
                    "not-recovered", "not-recovered", "recovered"),
}


@pytest.fixture
def replica_tree(tmp_path):
    from phiscan.fixtures import generate_fixture, paper_replica_spec

    out = tmp_path / "replica"
    manifest = generate_fixture(paper_replica_spec(), out)
    return out, manifest


def pytest_terminal_summary(terminalreporter):
    results = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if "test_acceptance.py" in rep.nodeid and rep.when == "call":
                results.append((rep.nodeid.split("::")[-1], outcome == "passed"))
    if results:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, ok in sorted(results):
            terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {name}")
