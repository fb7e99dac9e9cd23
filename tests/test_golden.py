"""Golden report guard: the report bytes a refactor must leave unchanged.

Each forge spec's report is pinned by the SHA-256 of its canonical JSON
with `file_digests` and `scan_id` removed. Forge databases carry SQLite's
version number in header bytes 96-99, so the file digests (and the scan id
derived from them) vary with the SQLite build; the rest of the report does
not. A directory and a zip of the same spec must both match the pin.

The hostile tree is built with conftest's independent builders and holds
one row per fault each table tallies, so its warning text is pinned in
full.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import sqlite3

import pytest

from phiscan.fixtures import generate_fixture, paper_replica_spec, random_spec
from phiscan.report import canonical_json, report_to_dict
from phiscan.scanner import scan_evidence

from conftest import make_healthmate_db, make_myvitals_db

CLOCK = "2020-01-01T00:00:00Z"

GOLDEN = {
    "replica": "ba55e44ece897b95be7daf6065841d45ace04a76357a99c2d242698aebd24e2f",
    "seed0": "599c162219cce4f8cd3e8a4f6fe027f855047efac524ed11a1736fdad414b93c",
    "seed1": "b072f16662a5b0ce9d4c702d66cf5b52f72fb588befb9b82533492d6ff59262a",
    "seed2": "094de0115cdf8449dec860642997d26df58fce4510f8113387466d0afc1d5de9",
    "seed3": "e9e33aa65ed238e97a435b30bcdd8f035bbdb8c291ca1ce7831330af0ab71df8",
    "seed4": "a25d26612060e41d5a5e533a174226aefe5633e225464b0044efe557434d655f",
    "seed5": "526d9248bb296692d9857e4c6232a9889860646230a5e5719ab2084edbf84816",
    "seed6": "020d1f4677ae1ffa2fbaabdf72b775a59ef59eb7acc95e5f3dc6f52d31c64d71",
    "seed7": "f99a90052e3f96c24dcc459a7297795a5d08f626b711d43411eeb89eaae9c39c",
    "seed8": "67ba4b419fce7fbdfbcb3a281f5f00c86990769ec213fa92171862df78ccfead",
    "seed9": "08c76f2e4474c431bcac74abd933a5841b1d5642f888709bf76e02ee087bb719",
    "seed10": "b699acf01417692c4bebeb7824250bebb9cfe79966bc75e85aa20d9ad03b6599",
    "seed11": "3aea92b0ed096a57bd647568fc31eebd3f9ec64c211061499a43d559df31fc53",
    "seed12": "2d1ab7e750afc92d2ddda97a7ebc8e939e9bf59b1e02577fc13ff72b82bc5dcb",
    "seed13": "952f4f3233d48f1dc29ab40656b5f75f7b1bd96dfc8919d8f45cddac3fbb2edb",
    "seed14": "d27e693c95eef54e7e49b63925c3ee7747a17aa7ca8961ab7ca60203a9f11183",
    "seed15": "004848703897cd5e51d976245e01f3bf1f70a5fc90e368b21bd92ecf29ee0887",
    "seed16": "813ea5cb6d9742c1b2985bf9f85cd872d9339f613c9cf1487d863497cd1f2a67",
    "seed17": "57c4640b3887be80f2a932a7c2521eea1cb59f611c5e3895da5e43ee181586bb",
    "seed18": "34f423f111f7ca7915f06b041d7d3df149631aa1b42500ff18c5c94ca1f3c000",
    "seed19": "cafd4cb998c8a1d2893f011d2eb35257b82742b02d72d81e1e70adc7692599d1",
}


def _report_sha(path) -> str:
    doc = report_to_dict(scan_evidence(path, fixed_clock=CLOCK).report)
    del doc["file_digests"], doc["scan_id"]
    return hashlib.sha256(canonical_json(doc)).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_forge_reports_match_golden(tmp_path, name):
    spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
    out = tmp_path / name
    generate_fixture(dataclasses.replace(spec, output_kind="directory"), out)
    zip_out = tmp_path / f"{name}.zip"
    generate_fixture(dataclasses.replace(spec, output_kind="zip"), zip_out)
    assert (_report_sha(out), _report_sha(zip_out)) == (GOLDEN[name], GOLDEN[name])


def _hostile_tree(tmp_path):
    tree = tmp_path / "hostile"
    mv = tree / "iHealthMyVitals.V2" / "Databases"
    mv.mkdir(parents=True)
    t, acct = 1530829549, "a@b.co"
    spo2 = (0, "5CF821DED2ED", acct, "PO3M", "5CF821DED2ED", t, t + 40, t)
    make_myvitals_db(
        mv / "androidNin.db",
        bp=[(120, 80, 65, t, "dev", "ok", acct),
            (None, 80, 65, t, "dev", None, acct),                 # null vital
            (120, 80, "fast", t, "dev", None, acct),              # non-integer
            (80, 120, 65, t, "dev", None, acct),                  # sys < dia
            (120, 80, 0, t, "dev", None, acct),                   # pulse 0
            (120, 80, 65, 500000000000, "dev", None, acct)],      # ambiguous epoch
        spo2=[spo2 + (97, 89, 9.7),
              spo2 + (None, 89, 9.7),                             # null vital
              spo2 + (97, "x", 9.7),                              # non-integer
              spo2 + (101, "x", 9.7),                             # converts before range
              spo2 + (0, 89, 9.7),                                # Result out of range
              spo2 + (97, 0, 9.7),                                # PR not positive
              spo2 + (97, 89, -1.0),                              # PI negative
              spo2[:6] + (None, t) + (97, 89, 9.7),               # null LastChangeTime
              (None,) + spo2[1:] + (96, 80, 3.0),                 # UsedUserID defaults
              ("u",) + spo2[1:] + (96, 80, 3.0)],                 # non-integer UsedUserID
        weight=[(80.5, 24.1, 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),
                (80.5, None, 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),     # null vital
                (80.5, "heavy", 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),  # non-numeric
                (0.0, 24.1, 18.2, 55.0, 60.3, 2200.0, 3.1, t, acct),      # weight 0
                (80.5, 24.1, 120.0, 55.0, 60.3, 2200.0, 3.1, t, acct),    # BodyFat > 100
                (80.5, 24.1, 18.2, -1.0, 60.3, 2200.0, 3.1, t, acct),     # BodyWater < 0
                (80.5, 24.1, 18.2, 55.0, 60.3, 2200.0, 3.1, 0, acct),     # epoch 0
                (70.0, 22.0, 18.2, 55.0, 60.3, 2200.0, 3.1, t, None)],    # no account
        env=[(45.0, 22.5, 300.0, t),
             (45.0, 22.5, None, t),                               # null column
             (45.0, "warm", 300.0, t),                            # non-numeric
             (101.0, 22.5, 300.0, t)],                            # humidity > 100
        users=[("Pat One", "1980-01-02", "UTC", acct),
               ("Pat Two", "1980-01-02", "UTC", "not-an-email"),  # bad email
               ("Pat Three", "1980-01-02", "UTC", None)],         # no email
    )
    hm = tree / "com.withings.wiscale2" / "databases"
    hm.mkdir(parents=True)
    ms, mac = 1541807000000, "00:24:e4:5a:ee:6c"
    make_healthmate_db(
        hm / "withings-wiscale.db",
        devices=[(1, ms, ms, ms, mac, 431, None, 77, 4, 43),
                 (2, ms, ms, ms, "not-a-mac", "x", None, 77, 4, 43),   # MAC checked first
                 (3, ms, ms, ms, mac, "x", None, 77, 4, 43),           # non-integer
                 (4, ms, ms, ms, mac, 431, None, 150, 4, 43),          # battery > 100
                 (5, 0, ms, ms, mac, 431, None, 77, 4, 43),            # epoch 0
                 (6, ms, ms, ms, mac, 431, None, None, 4, 43),         # null battery
                 (7, ms, ms, ms, "00:24:E4:57:12:C4", 1751, "UTC", 78, 1, 6),
                 (8, ms, ms, ms, None, 431, None, 77, 4, 43)],         # null MAC
        measures=[(1, ms, 1, 80.5, 1),
                  (2, ms, 4, 120.0, None),
                  (3, ms, 999, 42.0, None),                   # unknown code: raw hit
                  (4, ms, 1, -5.0, None),                     # non-positive value
                  (5, ms, "x", 10.0, None),                   # non-integer code
                  (6, ms, 1, "heavy", None),                  # non-numeric value
                  (7, 0, 1, 10.0, None),                      # epoch 0
                  (8, ms, 1, 10.0, "dev"),                    # non-integer deviceid
                  (9, ms, None, 10.0, None),                  # null code
                  (10, ms, 999, -1.0, None)],                 # unknown code wins
        users=[(1, "Pat Example", "F", "1985-06-15", "pat@example.com"),
               (2, "Pat Bad", "M", "1990-01-01", "bad-email"),   # bad email
               (3, None, None, None, None)],
    )
    old = hm / "old"
    old.mkdir()
    path = make_healthmate_db(old / "withings-wiscale.db")
    conn = sqlite3.connect(path)
    conn.execute("ALTER TABLE users DROP COLUMN email")
    conn.execute("INSERT INTO users VALUES (1, 'A', 'F', '1980-01-01')")
    conn.commit()
    conn.close()
    return tree


HOSTILE_WARNINGS = (
    'com.withings.wiscale2/databases/old/withings-wiscale.db: users: no such column: email',
    "devices:2: malformed row (macAddress not colon-hex: 'not-a-mac'), row skipped",
    "devices:3: malformed row (firmware is not an integer: 'x'), row skipped",
    'devices:4: malformed row (battery out of [0,100]: 150), row skipped',
    'devices:5: malformed row (associationDate: raw epoch must be positive, got 0), row skipped',
    'devices:6: malformed row (battery is not an integer: None), row skipped',
    'devices:8: malformed row (macAddress not colon-hex: None), row skipped',
    'measure:4: malformed row (value not positive: -5.0), row skipped',
    "measure:5: malformed row (type is not an integer: 'x'), row skipped",
    "measure:6: malformed row (value is not numeric: 'heavy'), row skipped",
    'measure:7: malformed row (date: raw epoch must be positive, got 0), row skipped',
    "measure:8: malformed row (deviceid is not an integer: 'dev'), row skipped",
    'measure:9: malformed row (type is not an integer: None), row skipped',
    "users:2: malformed row (bad email 'bad-email'), row skipped",
    'TB_BPResult:2: null vital columns, row skipped',
    "TB_BPResult:3: malformed row (Pulse is not an integer: 'fast'), row skipped",
    'TB_BPResult:4: malformed row (systolic/diastolic out of order: 80/120), row skipped',
    'TB_BPResult:5: malformed row (pulse not positive: 0), row skipped',
    'TB_BPResult:6: malformed row (MeasureTime: 500000000000 is in the ambiguous band [10^11, 10^12): too large for epoch seconds, too small for epoch milliseconds), row skipped',
    'TB_SPO2Result:2: null vital columns, row skipped',
    "TB_SPO2Result:3: malformed row (PR is not an integer: 'x'), row skipped",
    "TB_SPO2Result:4: malformed row (PR is not an integer: 'x'), row skipped",
    'TB_SPO2Result:5: malformed row (Result out of range: 0), row skipped',
    'TB_SPO2Result:6: malformed row (PR not positive: 0), row skipped',
    'TB_SPO2Result:7: malformed row (PI negative: -1.0), row skipped',
    'TB_SPO2Result:8: malformed row (LastChangeTime: LastChangeTime is not an integer: None), row skipped',
    "TB_SPO2Result:10: malformed row (UsedUserID is not an integer: 'u'), row skipped",
    'TB_WeightOnlineResult:2: null vital columns, row skipped',
    "TB_WeightOnlineResult:3: malformed row (BMI is not numeric: 'heavy'), row skipped",
    'TB_WeightOnlineResult:4: malformed row (Weight not positive: 0.0), row skipped',
    'TB_WeightOnlineResult:5: malformed row (BodyFat out of [0,100]: 120.0), row skipped',
    'TB_WeightOnlineResult:6: malformed row (BodyWater out of [0,100]: -1.0), row skipped',
    'TB_WeightOnlineResult:7: malformed row (MeasureTime: raw epoch must be positive, got 0), row skipped',
    'TB_TemperatureHumidity:2: null columns, row skipped',
    "TB_TemperatureHumidity:3: malformed row (Temperature is not numeric: 'warm'), row skipped",
    'TB_TemperatureHumidity:4: malformed row (Humidity out of [0,100]: 101.0), row skipped',
    "TB_Userinfo:2: malformed row (bad email 'not-an-email'), row skipped",
)

HOSTILE_KINDS = {
    'blood-pressure': 2,
    'device-registration': 2,
    'environment': 1,
    'oximetry': 2,
    'raw-hit': 2,
    'user-profile': 4,
    'weight': 3,
}


def test_hostile_rows_warnings_and_counts_match_golden(tmp_path):
    result = scan_evidence(_hostile_tree(tmp_path), fixed_clock=CLOCK)
    assert result.report.warnings == HOSTILE_WARNINGS
    assert dict(collections.Counter(r.kind for r in result.records)) == HOSTILE_KINDS
