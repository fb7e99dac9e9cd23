"""Synthetic evidence trees from declarative specs, plus the scan oracle.

A FixtureSpec describes what to plant per app (explicit row values, or a
count to fill with seeded plausible values). Generation is deterministic:
the same spec and seed always produce byte-identical trees, in directory
or zip form. Alongside the tree comes a manifest listing every planted
record, the findings a scan is expected to produce for it, the expected
compliance matrix/violations, and a digest of every written file.
verify_scan_against_manifest closes the loop: generate -> scan -> verify
is the central round-trip property of the whole artifact.

Encrypted Gluco-Smart databases are simulated as seeded pseudorandom
bytes. The scanner only ever classifies them, never decrypts, so random
bytes are behaviorally equivalent to ciphertext.

Plausible-value ranges used for generated vitals: SpO2 90-100, pulse
55-105, systolic 100-160, diastolic 55-95 (always below systolic), weight
45-140, BMI 16-34, body fat 8-42%, body water 40-62%, muscle 25-75, bone
1.5-4.5, calories 1300-3200, humidity 20-75%, temperature 16-29.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sqlite3
import tempfile
import zipfile
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

from .artifacts import (
    CONTAINER_SQLITE,
    CONTAINER_XML,
    SourceLocator,
    looks_like_email,
    normalize_timestamp,
)
from .errors import InvalidSpecError
from .parsers import glucosmart, healthmate, myvitals
from .phi import (
    CAT_ADDRESS,
    CAT_DATE_OF_BIRTH,
    CAT_HEALTH_CONDITION,
    CAT_NAME,
    CAT_PROVISION,
    CELL_NOT_RECOVERED,
    CELL_RECOVERED,
    PHI_CATEGORIES,
    VIOLATION_PLAINTEXT_CREDENTIAL,
    VIOLATION_PLAINTEXT_EPHI,
    VIOLATION_WEAK_SAFEGUARD,
    redact_value,
)
from .report import ComplianceReport, canonical_json

SPEC_VERSION = 1

OUTPUT_DIRECTORY = "directory"
OUTPUT_ZIP = "zip"

_IDENTITY_CATEGORIES = (CAT_NAME, CAT_DATE_OF_BIRTH, CAT_ADDRESS)

_ENCRYPTED_DB_NAMES = ("glucose.db", "sync.db", "cache.db")

_FIRST_NAMES = ("Alex", "Jordan", "Sam", "Taylor", "Morgan", "Casey")
_LAST_NAMES = ("Reyes", "Carter", "Brooks", "Nguyen", "Okafor", "Lindqvist")
_TIMEZONES = ("America/Chicago", "America/New_York", "Europe/London",
              "Europe/Zagreb", "Asia/Tokyo")
_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZabcdefghjkmnpqrstuvwxyz"
_ALNUM = _LETTERS + "0123456789"


@dataclass(frozen=True)
class MyVitalsBlock:
    bp_rows: int | tuple = 0
    spo2_rows: int | tuple = 0
    weight_rows: int | tuple = 0
    env_rows: int | tuple = 0
    user_rows: int | tuple = 0
    credential: dict | None = None


@dataclass(frozen=True)
class GlucoSmartBlock:
    encrypted_db_count: int = 0
    user_info: dict | None = None


@dataclass(frozen=True)
class HealthMateBlock:
    device_rows: int | tuple = 0
    measure_rows: int | tuple = 0
    user_rows: int | tuple = 0


@dataclass(frozen=True)
class FixtureSpec:
    seed: int
    output_kind: str = OUTPUT_DIRECTORY
    myvitals: MyVitalsBlock | None = None
    glucosmart: GlucoSmartBlock | None = None
    healthmate: HealthMateBlock | None = None
    version: int = SPEC_VERSION


@dataclass(frozen=True)
class ExpectedFinding:
    category: str
    rule_id: str
    excerpt: str


@dataclass(frozen=True)
class PlantedRecord:
    app: str
    kind: str
    locator: SourceLocator
    payload: dict
    expected_findings: tuple[ExpectedFinding, ...]


@dataclass(frozen=True)
class FixtureManifest:
    spec: dict
    files: dict                      # relpath -> {"sha256": hex, "byte_length": n}
    planted: tuple[PlantedRecord, ...]
    expected_matrix: dict            # app -> {category -> cell}
    expected_violations: dict        # app -> sorted violation kinds
    encrypted_dbs: tuple[str, ...]


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    mismatches: tuple[str, ...]


# -- spec loading ------------------------------------------------------------

def _validate_credential(credential: dict) -> None:
    if "account" not in credential:
        raise InvalidSpecError("myvitals.credential requires an 'account'")
    material = [k for k in ("password", "refresh_token", "access_token",
                            "region_host", "is_online") if credential.get(k) is not None]
    if not material:
        raise InvalidSpecError("myvitals.credential needs at least one credential field")


def _rows_field(value, field_name: str) -> int | tuple:
    if isinstance(value, bool):
        raise InvalidSpecError(f"{field_name}: expected a count or row list")
    if isinstance(value, int):
        if value < 0:
            raise InvalidSpecError(f"{field_name}: negative count {value}")
        return value
    if isinstance(value, list):
        for i, row in enumerate(value):
            if not isinstance(row, dict):
                raise InvalidSpecError(f"{field_name}[{i}]: expected an object")
        return tuple(dict(row) for row in value)
    raise InvalidSpecError(f"{field_name}: expected a count or row list")


def spec_from_dict(doc: dict) -> FixtureSpec:
    if not isinstance(doc, dict):
        raise InvalidSpecError("spec document must be a JSON object")
    version = doc.get("version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise InvalidSpecError(f"unsupported spec version {version!r}")
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise InvalidSpecError("spec requires an integer 'seed'")
    output_kind = doc.get("output_kind", OUTPUT_DIRECTORY)
    if output_kind not in (OUTPUT_DIRECTORY, OUTPUT_ZIP):
        raise InvalidSpecError(f"output_kind must be directory or zip, got {output_kind!r}")
    apps = doc.get("apps", {})
    if not isinstance(apps, dict):
        raise InvalidSpecError("'apps' must be an object")
    unknown = set(apps) - {"myvitals", "glucosmart", "healthmate"}
    if unknown:
        raise InvalidSpecError(f"unknown app blocks: {sorted(unknown)}")

    mv = None
    if "myvitals" in apps:
        block = apps["myvitals"]
        credential = block.get("credential")
        if credential is not None:
            if not isinstance(credential, dict):
                raise InvalidSpecError("myvitals.credential must be an object")
            _validate_credential(credential)
        mv = MyVitalsBlock(
            bp_rows=_rows_field(block.get("bp_rows", 0), "myvitals.bp_rows"),
            spo2_rows=_rows_field(block.get("spo2_rows", 0), "myvitals.spo2_rows"),
            weight_rows=_rows_field(block.get("weight_rows", 0), "myvitals.weight_rows"),
            env_rows=_rows_field(block.get("env_rows", 0), "myvitals.env_rows"),
            user_rows=_rows_field(block.get("user_rows", 0), "myvitals.user_rows"),
            credential=dict(credential) if credential else None,
        )

    gs = None
    if "glucosmart" in apps:
        block = apps["glucosmart"]
        count = block.get("encrypted_db_count", 0)
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise InvalidSpecError("glucosmart.encrypted_db_count must be a non-negative integer")
        user_info = block.get("user_info")
        if user_info is not None and not isinstance(user_info, dict):
            raise InvalidSpecError("glucosmart.user_info must be an object")
        gs = GlucoSmartBlock(encrypted_db_count=count,
                             user_info=dict(user_info) if user_info else None)

    hm = None
    if "healthmate" in apps:
        block = apps["healthmate"]
        hm = HealthMateBlock(
            device_rows=_rows_field(block.get("device_rows", 0), "healthmate.device_rows"),
            measure_rows=_rows_field(block.get("measure_rows", 0), "healthmate.measure_rows"),
            user_rows=_rows_field(block.get("user_rows", 0), "healthmate.user_rows"),
        )
    return FixtureSpec(seed=seed, output_kind=output_kind,
                       myvitals=mv, glucosmart=gs, healthmate=hm, version=version)


def load_spec(text: str) -> FixtureSpec:
    """Parse a JSON fixture spec; syntax errors carry line numbers."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"spec line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return spec_from_dict(doc)


def spec_to_dict(spec: FixtureSpec) -> dict:
    def rows(value):
        return list(value) if isinstance(value, tuple) else value

    apps = {}
    if spec.myvitals:
        apps["myvitals"] = {
            "bp_rows": rows(spec.myvitals.bp_rows),
            "spo2_rows": rows(spec.myvitals.spo2_rows),
            "weight_rows": rows(spec.myvitals.weight_rows),
            "env_rows": rows(spec.myvitals.env_rows),
            "user_rows": rows(spec.myvitals.user_rows),
            "credential": spec.myvitals.credential,
        }
    if spec.glucosmart:
        apps["glucosmart"] = {
            "encrypted_db_count": spec.glucosmart.encrypted_db_count,
            "user_info": spec.glucosmart.user_info,
        }
    if spec.healthmate:
        apps["healthmate"] = {
            "device_rows": rows(spec.healthmate.device_rows),
            "measure_rows": rows(spec.healthmate.measure_rows),
            "user_rows": rows(spec.healthmate.user_rows),
        }
    return {"version": spec.version, "seed": spec.seed,
            "output_kind": spec.output_kind, "apps": apps}


def paper_replica_spec() -> FixtureSpec:
    """The bundled replica of the documented artifact values."""
    from importlib import resources

    text = (resources.files("phiscan") / "data/paper_replica.json").read_text()
    return load_spec(text)


# -- random row generation ---------------------------------------------------

def _rand_name(rng: random.Random) -> str:
    return f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"


def _rand_token(rng: random.Random, pairs: int = 20) -> str:
    # letter/alnum alternation keeps long digit runs (and thus accidental
    # ssn/card pattern hits) impossible
    return "".join(rng.choice(_LETTERS) + rng.choice(_ALNUM) for _ in range(pairs))


def _rand_mac(rng: random.Random) -> str:
    return ":".join(f"{rng.randrange(256):02x}" for _ in range(6))


def _rand_secs(rng: random.Random) -> int:
    return rng.randrange(1_400_000_000, 1_700_000_000)


def _rand_ms(rng: random.Random) -> int:
    return rng.randrange(1_400_000_000_000, 1_700_000_000_000)


def _round1(value: float) -> float:
    return round(value, 1)


def _gen_bp_row(rng: random.Random, account: str) -> dict:
    systolic = rng.randrange(100, 161)
    return {
        "systolic": systolic,
        "diastolic": rng.randrange(55, systolic - 9),
        "pulse": rng.randrange(55, 106),
        "measure_time": _rand_secs(rng),
        "device_id": "".join(rng.choice("0123456789ABCDEF") for _ in range(12)),
        "note": rng.choice((None, "resting", "after walk", "morning")),
        "account": account,
    }


def _gen_spo2_row(rng: random.Random, account: str) -> dict:
    measured = _rand_secs(rng)
    return {
        "used_user_id": 0,
        "phone_data_id": "".join(rng.choice("0123456789ABCDEF") for _ in range(12)),
        "health_id": account,
        "machine_type": "PO3M",
        "machine_device_id": "".join(rng.choice("0123456789ABCDEF") for _ in range(12)),
        "measure_time": measured,
        "last_change_time": measured + rng.randrange(5, 60),
        "phone_create_time": measured,
        "result_spo2": rng.randrange(90, 101),
        "pulse_rate": rng.randrange(55, 106),
        "perfusion_index": _round1(rng.uniform(0.5, 15.0)),
    }


def _gen_weight_row(rng: random.Random, account: str) -> dict:
    return {
        "weight": _round1(rng.uniform(45, 140)),
        "bmi": _round1(rng.uniform(16, 34)),
        "body_fat_pct": _round1(rng.uniform(8, 42)),
        "body_water_pct": _round1(rng.uniform(40, 62)),
        "muscle_mass": _round1(rng.uniform(25, 75)),
        "daily_calorie_intake": float(rng.randrange(1300, 3201)),
        "bone_mass": _round1(rng.uniform(1.5, 4.5)),
        "measure_time": _rand_secs(rng),
        "account": account,
    }


def _gen_env_row(rng: random.Random) -> dict:
    return {
        "humidity": _round1(rng.uniform(20, 75)),
        "temperature": _round1(rng.uniform(16, 29)),
        "lighting_level": float(rng.randrange(10, 900)),
        "measure_time": _rand_secs(rng),
    }


def _gen_mv_user_row(rng: random.Random, account: str) -> dict:
    return {
        "name": _rand_name(rng),
        "date_of_birth": f"{rng.randrange(1950, 2001)}-{rng.randrange(1, 13):02d}-"
                         f"{rng.randrange(1, 29):02d}",
        "timezone_location": rng.choice(_TIMEZONES),
        "email": account,
    }


def _gen_device_row(rng: random.Random, used_ids: set[int]) -> dict:
    dev_id = rng.randrange(1_000_000, 9_999_999)
    while dev_id in used_ids:
        dev_id = rng.randrange(1_000_000, 9_999_999)
    used_ids.add(dev_id)
    assoc = _rand_ms(rng)
    return {
        "id": dev_id,
        "association_date": assoc,
        "last_use_date": assoc + rng.randrange(1_000_000, 40_000_000_000),
        "modified_date": assoc + rng.randrange(1_000_000, 40_000_000_000),
        "mac_address": _rand_mac(rng),
        "firmware": rng.randrange(100, 2000),
        "timezone": rng.choice((None,) + _TIMEZONES),
        "battery_pct": rng.randrange(5, 101),
        "device_type": rng.randrange(1, 8),
        "device_model": rng.randrange(1, 60),
    }


_MEASURE_VALUE_RANGES = {
    "weight": (45.0, 140.0), "body-fat": (8.0, 42.0), "body-water": (40.0, 62.0),
    "pulse": (55.0, 105.0), "bone-mass": (1.5, 4.5), "muscle-mass": (25.0, 75.0),
    "bmi": (16.0, 34.0), "systolic": (100.0, 160.0), "diastolic": (60.0, 95.0),
}

_KIND_BY_CODE = dict(healthmate.DEFAULT_CODE_MAP)


def _gen_measure_row(rng: random.Random, device_ids: list[int]) -> dict:
    code = rng.choice(sorted(_KIND_BY_CODE))
    low, high = _MEASURE_VALUE_RANGES[_KIND_BY_CODE[code]]
    return {
        "code": code,
        "value": _round1(rng.uniform(low, high)),
        "measured_at": _rand_ms(rng),
        "device_ref": rng.choice(device_ids) if device_ids else None,
    }


def _gen_hm_user_row(rng: random.Random) -> dict:
    return {
        "name": _rand_name(rng),
        "gender": rng.choice(("F", "M", "X")),
        "birthday": f"{rng.randrange(1950, 2001)}-{rng.randrange(1, 13):02d}-"
                    f"{rng.randrange(1, 29):02d}",
        "email": f"patient{rng.randrange(100):02d}@example.com",
    }


def random_spec(seed: int) -> FixtureSpec:
    """A randomized but always-valid spec, for the round-trip property suite."""
    rng = random.Random(seed ^ 0x5EED_F1D0)
    myvitals_block = None
    if rng.random() < 0.85:
        credential = None
        if rng.random() < 0.6:
            account = f"user{rng.randrange(100):02d}@example.com"
            credential = {"account": account, "is_online": rng.random() < 0.5,
                          "refresh_token": _rand_token(rng),
                          "access_token": _rand_token(rng)}
            if rng.random() < 0.7:
                credential["password"] = "Pw" + _rand_token(rng, pairs=4)
            if rng.random() < 0.5:
                credential["region_host"] = "http://api.example.net"
        myvitals_block = MyVitalsBlock(
            bp_rows=rng.randrange(0, 4), spo2_rows=rng.randrange(0, 5),
            weight_rows=rng.randrange(0, 3), env_rows=rng.randrange(0, 3),
            user_rows=rng.randrange(0, 3), credential=credential,
        )
    gluco_block = None
    if rng.random() < 0.8:
        user_info = None
        if rng.random() < 0.7:
            user_info = {"username": f"user{rng.randrange(100):02d}@example.com",
                         "device_id": f"BG5-{rng.randrange(0x10000):04X}"}
        gluco_block = GlucoSmartBlock(encrypted_db_count=rng.randrange(0, 4),
                                      user_info=user_info)
    healthmate_block = None
    if rng.random() < 0.85:
        healthmate_block = HealthMateBlock(
            device_rows=rng.randrange(0, 3), measure_rows=rng.randrange(0, 6),
            user_rows=rng.randrange(0, 3),
        )
    return FixtureSpec(seed=seed, myvitals=myvitals_block,
                       glucosmart=gluco_block, healthmate=healthmate_block)


# -- row validation (explicit rows must satisfy the domain invariants) -------

def _need(row: dict, keys: tuple[str, ...], where: str) -> None:
    missing = [k for k in keys if k not in row]
    if missing:
        raise InvalidSpecError(f"{where}: missing fields {missing}")


def _check_ts(value, where: str, unit: str) -> None:
    try:
        instant = normalize_timestamp(value)
    except Exception as exc:
        raise InvalidSpecError(f"{where}: bad timestamp {value!r} ({exc})") from exc
    if instant.unit != unit:
        raise InvalidSpecError(f"{where}: timestamp {value} is not {unit}-scale")


def _validate_rows(kind: str, rows: tuple, app: str) -> None:
    for i, row in enumerate(rows):
        where = f"{app}.{kind}[{i}]"
        if kind == "bp_rows":
            _need(row, ("systolic", "diastolic", "pulse", "measure_time",
                        "device_id", "account"), where)
            if not row["systolic"] > row["diastolic"] > 0 or row["pulse"] <= 0:
                raise InvalidSpecError(f"{where}: vitals violate invariants")
            _check_ts(row["measure_time"], where, "seconds")
        elif kind == "spo2_rows":
            _need(row, ("used_user_id", "phone_data_id", "health_id", "machine_type",
                        "machine_device_id", "measure_time", "last_change_time",
                        "phone_create_time", "result_spo2", "pulse_rate",
                        "perfusion_index"), where)
            if not (0 < row["result_spo2"] <= 100 and row["pulse_rate"] > 0
                    and row["perfusion_index"] >= 0):
                raise InvalidSpecError(f"{where}: vitals violate invariants")
            for key in ("measure_time", "last_change_time", "phone_create_time"):
                _check_ts(row[key], where, "seconds")
        elif kind == "weight_rows":
            _need(row, ("weight", "bmi", "body_fat_pct", "body_water_pct", "muscle_mass",
                        "daily_calorie_intake", "bone_mass", "measure_time", "account"), where)
            if row["weight"] <= 0 or not (0 <= row["body_fat_pct"] <= 100
                                          and 0 <= row["body_water_pct"] <= 100):
                raise InvalidSpecError(f"{where}: values violate invariants")
            _check_ts(row["measure_time"], where, "seconds")
        elif kind == "env_rows":
            _need(row, ("humidity", "temperature", "lighting_level", "measure_time"), where)
            if not 0 <= row["humidity"] <= 100:
                raise InvalidSpecError(f"{where}: humidity out of [0,100]")
            _check_ts(row["measure_time"], where, "seconds")
        elif kind == "user_rows":
            _need(row, ("name", "date_of_birth", "timezone_location", "email"), where)
            if row["email"] and not looks_like_email(row["email"]):
                raise InvalidSpecError(f"{where}: bad email {row['email']!r}")
        elif kind == "device_rows":
            _need(row, ("id", "association_date", "last_use_date", "modified_date",
                        "mac_address", "firmware", "battery_pct",
                        "device_type", "device_model"), where)
            if not 0 <= row["battery_pct"] <= 100:
                raise InvalidSpecError(f"{where}: battery out of [0,100]")
            for key in ("association_date", "last_use_date", "modified_date"):
                _check_ts(row[key], where, "milliseconds")
        elif kind == "measure_rows":
            _need(row, ("code", "value", "measured_at"), where)
            if row["code"] in _KIND_BY_CODE and row["value"] <= 0:
                raise InvalidSpecError(f"{where}: value must be positive")
            _check_ts(row["measured_at"], where, "milliseconds")
        elif kind == "hm_user_rows":
            _need(row, ("name", "gender", "birthday", "email"), where)
            if row["email"] and not looks_like_email(row["email"]):
                raise InvalidSpecError(f"{where}: bad email {row['email']!r}")


def _resolve_rows(value: int | tuple, kind: str, app: str, gen) -> list[dict]:
    if isinstance(value, tuple):
        _validate_rows(kind, value, app)
        return [dict(r) for r in value]
    return [gen() for _ in range(value)]


# -- file builders -----------------------------------------------------------

def _sqlite_file(build) -> bytes:
    fd, path = tempfile.mkstemp(suffix=".db", prefix="phiscan-forge-")
    os.close(fd)
    try:
        conn = sqlite3.connect(path)
        try:
            build(conn)
            conn.commit()
        finally:
            conn.close()
        return Path(path).read_bytes()
    finally:
        os.unlink(path)


def _myvitals_db(rows: dict) -> bytes:
    def build(conn: sqlite3.Connection) -> None:
        conn.execute("CREATE TABLE TB_BPResult (Sys INTEGER, Dia INTEGER, Pulse INTEGER,"
                     " MeasureTime INTEGER, DeviceID TEXT, Note TEXT, Account TEXT)")
        conn.execute("CREATE TABLE TB_SPO2Result (UsedUserID INTEGER, PhoneDataID TEXT,"
                     " iHealthID TEXT, MachineType TEXT, MachineDeviceID TEXT,"
                     " MeasureTime INTEGER, LastChangeTime INTEGER, PhoneCreateTime INTEGER,"
                     " Result INTEGER, PR INTEGER, PI REAL)")
        conn.execute("CREATE TABLE TB_WeightOnlineResult (Weight REAL, BMI REAL,"
                     " BodyFat REAL, BodyWater REAL, MuscleMass REAL, DailyCalorie REAL,"
                     " BoneMass REAL, MeasureTime INTEGER, Account TEXT)")
        conn.execute("CREATE TABLE TB_TemperatureHumidity (Humidity REAL, Temperature REAL,"
                     " Lighting REAL, MeasureTime INTEGER)")
        conn.execute("CREATE TABLE TB_Userinfo (Name TEXT, Birthday TEXT, TimeZone TEXT,"
                     " Email TEXT)")
        conn.executemany(
            "INSERT INTO TB_BPResult VALUES (?,?,?,?,?,?,?)",
            [(r["systolic"], r["diastolic"], r["pulse"], r["measure_time"],
              r["device_id"], r.get("note"), r["account"]) for r in rows["bp"]])
        conn.executemany(
            "INSERT INTO TB_SPO2Result VALUES (?,?,?,?,?,?,?,?,?,?,?)",
            [(r["used_user_id"], r["phone_data_id"], r["health_id"], r["machine_type"],
              r["machine_device_id"], r["measure_time"], r["last_change_time"],
              r["phone_create_time"], r["result_spo2"], r["pulse_rate"],
              float(r["perfusion_index"])) for r in rows["spo2"]])
        conn.executemany(
            "INSERT INTO TB_WeightOnlineResult VALUES (?,?,?,?,?,?,?,?,?)",
            [(float(r["weight"]), float(r["bmi"]), float(r["body_fat_pct"]),
              float(r["body_water_pct"]), float(r["muscle_mass"]),
              float(r["daily_calorie_intake"]), float(r["bone_mass"]),
              r["measure_time"], r["account"]) for r in rows["weight"]])
        conn.executemany(
            "INSERT INTO TB_TemperatureHumidity VALUES (?,?,?,?)",
            [(float(r["humidity"]), float(r["temperature"]), float(r["lighting_level"]),
              r["measure_time"]) for r in rows["env"]])
        conn.executemany(
            "INSERT INTO TB_Userinfo VALUES (?,?,?,?)",
            [(r["name"], r["date_of_birth"], r["timezone_location"], r["email"])
             for r in rows["user"]])

    return _sqlite_file(build)


def _healthmate_db(rows: dict) -> bytes:
    def build(conn: sqlite3.Connection) -> None:
        conn.execute("CREATE TABLE devices (id INTEGER PRIMARY KEY, associationDate INTEGER,"
                     " lastUseDate INTEGER, modifiedDate INTEGER, macAddress TEXT,"
                     " firmware INTEGER, timezone TEXT, battery INTEGER,"
                     " type INTEGER, model INTEGER)")
        conn.execute("CREATE TABLE measure (id INTEGER PRIMARY KEY, date INTEGER,"
                     " type INTEGER, value REAL, deviceid INTEGER)")
        conn.execute("CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, gender TEXT,"
                     " birthday TEXT, email TEXT)")
        conn.executemany(
            "INSERT INTO devices VALUES (?,?,?,?,?,?,?,?,?,?)",
            [(r["id"], r["association_date"], r["last_use_date"], r["modified_date"],
              r["mac_address"], r["firmware"], r.get("timezone"), r["battery_pct"],
              r["device_type"], r["device_model"]) for r in rows["devices"]])
        conn.executemany(
            "INSERT INTO measure VALUES (?,?,?,?,?)",
            [(i + 1, r["measured_at"], r["code"], float(r["value"]), r.get("device_ref"))
             for i, r in enumerate(rows["measures"])])
        conn.executemany(
            "INSERT INTO users VALUES (?,?,?,?,?)",
            [(i + 1, r["name"], r["gender"], r["birthday"], r["email"])
             for i, r in enumerate(rows["users"])])

    return _sqlite_file(build)


def _prefs_xml(entries: list[tuple[str, str, object]]) -> bytes:
    # entries: (tag, name, value) in file order
    lines = ["<?xml version='1.0' encoding='utf-8' standalone='yes' ?>", "<map>"]
    for tag, name, value in entries:
        if tag == "string":
            lines.append(f"    <string name={quoteattr(name)}>{escape(str(value))}</string>")
        elif tag == "boolean":
            rendered = "true" if value else "false"
            lines.append(f"    <boolean name={quoteattr(name)} value=\"{rendered}\" />")
        else:
            lines.append(f"    <{tag} name={quoteattr(name)} value=\"{value}\" />")
    lines.append("</map>")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _credential_xml(credential: dict) -> bytes:
    account = credential["account"]
    entries: list[tuple[str, str, object]] = []
    if credential.get("is_online") is not None:
        entries.append(("boolean", f"{account}_user_is_online", credential["is_online"]))
    if credential.get("refresh_token") is not None:
        entries.append(("string", f"{account}_user_refresh_token", credential["refresh_token"]))
    if credential.get("access_token") is not None:
        entries.append(("string", f"{account}_user_access_token", credential["access_token"]))
    if credential.get("password") is not None:
        entries.append(("string", f"{account}_user_password", credential["password"]))
    if credential.get("region_host") is not None:
        entries.append(("string", f"{account}_user_region_host_info", credential["region_host"]))
    if credential.get("region_flag") is not None:
        entries.append(("int", f"{account}_user_region_flag", credential["region_flag"]))
    return _prefs_xml(entries)


def _encrypted_db_bytes(rng: random.Random) -> bytes:
    data = rng.randbytes(8192 + rng.randrange(0, 4096))
    if data[:16] == b"SQLite format 3\x00":  # one-in-forever guard
        data = b"\xff" + data[1:]
    return data


# -- manifest expectations ---------------------------------------------------

def _planted_myvitals(rows: dict, account: str) -> list[PlantedRecord]:
    app = myvitals.DISPLAY_NAME
    pkg = myvitals.PACKAGE_FOLDER
    db_path = f"{pkg}/{myvitals.DB_SUBPATH}"

    def loc(detail: str) -> SourceLocator:
        return SourceLocator(pkg, db_path, CONTAINER_SQLITE, detail)

    planted = []
    for i, r in enumerate(rows["bp"], start=1):
        utc = normalize_timestamp(r["measure_time"]).utc
        planted.append(PlantedRecord(
            app=app, kind="blood-pressure", locator=loc(f"TB_BPResult:{i}"), payload=dict(r),
            expected_findings=(
                ExpectedFinding(CAT_HEALTH_CONDITION, "vital-reading",
                                f"{r['systolic']}/{r['diastolic']} mmHg, pulse {r['pulse']} bpm"),
                ExpectedFinding(CAT_PROVISION, "device-usage",
                                f"device {r['device_id'] or 'unknown'} at {utc}"),
            )))
    spo2_sorted = sorted(enumerate(rows["spo2"], start=1), key=lambda p: (p[1]["measure_time"], p[0]))
    for i, r in spo2_sorted:
        utc = normalize_timestamp(r["measure_time"]).utc
        pi = float(r["perfusion_index"])
        planted.append(PlantedRecord(
            app=app, kind="oximetry", locator=loc(f"TB_SPO2Result:{i}"), payload=dict(r),
            expected_findings=(
                ExpectedFinding(CAT_HEALTH_CONDITION, "vital-reading",
                                f"SpO2 {r['result_spo2']}%, pulse {r['pulse_rate']} bpm, PI {pi}"),
                ExpectedFinding(CAT_PROVISION, "device-usage",
                                f"device {r['machine_device_id']} ({r['machine_type']}) at {utc}"),
            )))
    for i, r in enumerate(rows["weight"], start=1):
        utc = normalize_timestamp(r["measure_time"]).utc
        planted.append(PlantedRecord(
            app=app, kind="weight", locator=loc(f"TB_WeightOnlineResult:{i}"), payload=dict(r),
            expected_findings=(
                ExpectedFinding(CAT_HEALTH_CONDITION, "vital-reading",
                                f"weight {float(r['weight'])}, BMI {float(r['bmi'])}"),
                ExpectedFinding(CAT_PROVISION, "device-usage", f"measured at {utc}"),
            )))
    for i, r in enumerate(rows["env"], start=1):
        utc = normalize_timestamp(r["measure_time"]).utc
        planted.append(PlantedRecord(
            app=app, kind="environment", locator=loc(f"TB_TemperatureHumidity:{i}"),
            payload=dict(r),
            expected_findings=(
                ExpectedFinding(CAT_PROVISION, "device-usage", f"measured at {utc}"),
            )))
    for i, r in enumerate(rows["user"], start=1):
        expected = []
        if r["name"]:
            expected.append(ExpectedFinding(CAT_NAME, "profile-name", r["name"]))
        if r["date_of_birth"]:
            expected.append(ExpectedFinding(CAT_DATE_OF_BIRTH, "profile-birth-date",
                                            r["date_of_birth"]))
        if r["timezone_location"]:
            expected.append(ExpectedFinding(CAT_ADDRESS, "address-timezone-proxy",
                                            r["timezone_location"]))
        planted.append(PlantedRecord(
            app=app, kind="user-profile", locator=loc(f"TB_Userinfo:{i}"), payload=dict(r),
            expected_findings=tuple(expected)))
    return planted


def _planted_credential(credential: dict) -> PlantedRecord:
    pkg = myvitals.PACKAGE_FOLDER
    xml_path = f"{pkg}/shared_prefs/{myvitals.CREDENTIAL_XML_NAME}"
    return PlantedRecord(
        app=myvitals.DISPLAY_NAME, kind="credential",
        locator=SourceLocator(pkg, xml_path, CONTAINER_XML,
                              f"key prefix {credential['account']}"),
        payload=dict(credential), expected_findings=())


def _planted_gluco(user_info: dict) -> PlantedRecord:
    pkg = glucosmart.PACKAGE_FOLDER
    xml_path = f"{pkg}/shared_prefs/{glucosmart.USER_INFO_XML_NAME}"
    return PlantedRecord(
        app=glucosmart.DISPLAY_NAME, kind="user-profile",
        locator=SourceLocator(pkg, xml_path, CONTAINER_XML, "UserName/DeviceID"),
        payload=dict(user_info),
        expected_findings=(
            ExpectedFinding(CAT_NAME, "profile-name", user_info["username"]),
        ))


def _planted_healthmate(rows: dict) -> list[PlantedRecord]:
    app = healthmate.DISPLAY_NAME
    pkg = healthmate.PACKAGE_FOLDER
    db_path = f"{pkg}/databases/{healthmate.DB_NAME}"

    def loc(detail: str) -> SourceLocator:
        return SourceLocator(pkg, db_path, CONTAINER_SQLITE, detail)

    planted = []
    for r in rows["devices"]:
        utc = normalize_timestamp(r["last_use_date"]).utc
        planted.append(PlantedRecord(
            app=app, kind="device-registration", locator=loc(f"devices:{r['id']}"),
            payload=dict(r),
            expected_findings=(
                ExpectedFinding(CAT_PROVISION, "device-usage",
                                f"device {r['mac_address'].lower()}, last used {utc}"),
            )))
    for i, r in enumerate(rows["measures"], start=1):
        utc = normalize_timestamp(r["measured_at"]).utc
        kind = _KIND_BY_CODE.get(r["code"])
        if kind is None:
            planted.append(PlantedRecord(
                app=app, kind="raw-hit", locator=loc(f"measure:{i}"), payload=dict(r),
                expected_findings=()))
            continue
        prefix = (f"device {r['device_ref']} " if r.get("device_ref") is not None else "")
        record_kind = "blood-pressure" if kind in ("systolic", "diastolic", "pulse") else "weight"
        planted.append(PlantedRecord(
            app=app, kind=record_kind, locator=loc(f"measure:{i}"), payload=dict(r),
            expected_findings=(
                ExpectedFinding(CAT_HEALTH_CONDITION, "vital-reading",
                                f"{kind} {float(r['value'])}"),
                ExpectedFinding(CAT_PROVISION, "device-usage",
                                f"{prefix}measured at {utc}"),
            )))
    for i, r in enumerate(rows["users"], start=1):
        expected = []
        if r["name"]:
            expected.append(ExpectedFinding(CAT_NAME, "profile-name", r["name"]))
        if r["birthday"]:
            expected.append(ExpectedFinding(CAT_DATE_OF_BIRTH, "profile-birth-date",
                                            r["birthday"]))
        planted.append(PlantedRecord(
            app=app, kind="user-profile", locator=loc(f"users:{i}"), payload=dict(r),
            expected_findings=tuple(expected)))
    return planted


def _expected_matrix(apps: list[str], planted: list[PlantedRecord]) -> dict:
    matrix = {}
    for app in apps:
        cats = {f.category for p in planted if p.app == app for f in p.expected_findings}
        matrix[app] = {cat: CELL_RECOVERED if cat in cats else CELL_NOT_RECOVERED
                       for cat in PHI_CATEGORIES}
    return matrix


def _expected_violations(apps: list[str], planted: list[PlantedRecord]) -> dict:
    violations: dict[str, list[str]] = {}
    for app in apps:
        cats = {f.category for p in planted if p.app == app for f in p.expected_findings}
        kinds = []
        if CAT_HEALTH_CONDITION in cats:
            kinds.append(VIOLATION_PLAINTEXT_EPHI)
        if any(p.app == app and p.kind == "credential" and p.payload.get("password") is not None
               for p in planted):
            kinds.append(VIOLATION_PLAINTEXT_CREDENTIAL)
        if CAT_HEALTH_CONDITION not in cats and any(c in cats for c in _IDENTITY_CATEGORIES):
            kinds.append(VIOLATION_WEAK_SAFEGUARD)
        if kinds:
            violations[app] = sorted(kinds)
    return violations


# -- generation --------------------------------------------------------------

def build_tree(spec: FixtureSpec) -> tuple[dict[str, bytes], FixtureManifest]:
    """Materialize all fixture files in memory plus the oracle manifest."""
    rng = random.Random(spec.seed)
    tree: dict[str, bytes] = {}
    planted: list[PlantedRecord] = []
    apps: list[str] = []
    encrypted: list[str] = []

    if spec.myvitals is not None:
        block = spec.myvitals
        account = (block.credential or {}).get("account")
        if account is None and isinstance(block.user_rows, tuple) and block.user_rows:
            account = block.user_rows[0].get("email")
        account = account or "patient01@example.com"
        rows = {
            "bp": _resolve_rows(block.bp_rows, "bp_rows", "myvitals",
                                lambda: _gen_bp_row(rng, account)),
            "spo2": _resolve_rows(block.spo2_rows, "spo2_rows", "myvitals",
                                  lambda: _gen_spo2_row(rng, account)),
            "weight": _resolve_rows(block.weight_rows, "weight_rows", "myvitals",
                                    lambda: _gen_weight_row(rng, account)),
            "env": _resolve_rows(block.env_rows, "env_rows", "myvitals",
                                 lambda: _gen_env_row(rng)),
            "user": _resolve_rows(block.user_rows, "user_rows", "myvitals",
                                  lambda: _gen_mv_user_row(rng, account)),
        }
        tree[f"{myvitals.PACKAGE_FOLDER}/{myvitals.DB_SUBPATH}"] = _myvitals_db(rows)
        apps.append(myvitals.DISPLAY_NAME)
        planted.extend(_planted_myvitals(rows, account))
        if block.credential is not None:
            _validate_credential(block.credential)
            xml_path = f"{myvitals.PACKAGE_FOLDER}/shared_prefs/{myvitals.CREDENTIAL_XML_NAME}"
            tree[xml_path] = _credential_xml(block.credential)
            planted.append(_planted_credential(block.credential))

    if spec.glucosmart is not None:
        block = spec.glucosmart
        apps.append(glucosmart.DISPLAY_NAME)
        for i in range(block.encrypted_db_count):
            name = (_ENCRYPTED_DB_NAMES[i] if i < len(_ENCRYPTED_DB_NAMES)
                    else f"data{i}.db")
            path = f"{glucosmart.PACKAGE_FOLDER}/Databases/{name}"
            tree[path] = _encrypted_db_bytes(rng)
            encrypted.append(path)
        if block.user_info is not None:
            info = block.user_info
            if not info.get("username") or not info.get("device_id"):
                raise InvalidSpecError("glucosmart.user_info needs username and device_id")
            xml_path = f"{glucosmart.PACKAGE_FOLDER}/shared_prefs/{glucosmart.USER_INFO_XML_NAME}"
            tree[xml_path] = _prefs_xml([
                ("string", "UserName", info["username"]),
                ("string", "DeviceID", info["device_id"]),
            ])
            planted.append(_planted_gluco(info))

    if spec.healthmate is not None:
        block = spec.healthmate
        used_ids: set[int] = set()
        devices = _resolve_rows(block.device_rows, "device_rows", "healthmate",
                                lambda: _gen_device_row(rng, used_ids))
        device_ids = [d["id"] for d in devices]
        rows = {
            "devices": devices,
            "measures": _resolve_rows(block.measure_rows, "measure_rows", "healthmate",
                                      lambda: _gen_measure_row(rng, device_ids)),
            "users": _resolve_rows(block.user_rows, "hm_user_rows", "healthmate",
                                   lambda: _gen_hm_user_row(rng)),
        }
        tree[f"{healthmate.PACKAGE_FOLDER}/databases/{healthmate.DB_NAME}"] = _healthmate_db(rows)
        apps.append(healthmate.DISPLAY_NAME)
        planted.extend(_planted_healthmate(rows))

    files = {path: {"sha256": hashlib.sha256(data).hexdigest(), "byte_length": len(data)}
             for path, data in tree.items()}
    manifest = FixtureManifest(
        spec=spec_to_dict(spec),
        files=files,
        planted=tuple(planted),
        expected_matrix=_expected_matrix(apps, planted),
        expected_violations=_expected_violations(apps, planted),
        encrypted_dbs=tuple(sorted(encrypted)),
    )
    return tree, manifest


def _tree_dirs(tree: dict[str, bytes], spec: FixtureSpec) -> list[str]:
    dirs: set[str] = set()
    for path in tree:
        parts = path.split("/")
        for i in range(1, len(parts)):
            dirs.add("/".join(parts[:i]))
    # app folders exist even when empty (e.g. gluco with nothing planted)
    for block, pkg in ((spec.myvitals, myvitals.PACKAGE_FOLDER),
                       (spec.glucosmart, glucosmart.PACKAGE_FOLDER),
                       (spec.healthmate, healthmate.PACKAGE_FOLDER)):
        if block is not None:
            dirs.add(pkg)
    return sorted(dirs)


def write_tree(tree: dict[str, bytes], spec: FixtureSpec, out: Path) -> None:
    """Write the in-memory tree as a directory or a reproducible zip."""
    out = Path(out)
    if spec.output_kind == OUTPUT_DIRECTORY:
        out.mkdir(parents=True, exist_ok=True)
        for rel in _tree_dirs(tree, spec):
            (out / rel).mkdir(parents=True, exist_ok=True)
        for rel in sorted(tree):
            target = out / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(tree[rel])
        return
    out.parent.mkdir(parents=True, exist_ok=True)
    # pinned entry metadata keeps archives byte-identical per (spec, seed)
    with zipfile.ZipFile(out, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        for rel in _tree_dirs(tree, spec):
            info = zipfile.ZipInfo(rel + "/", date_time=(2020, 1, 1, 0, 0, 0))
            info.external_attr = (0o755 << 16) | 0x10
            zf.writestr(info, b"")
        for rel in sorted(tree):
            info = zipfile.ZipInfo(rel, date_time=(2020, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            zf.writestr(info, tree[rel])


def generate_fixture(spec: FixtureSpec, out: Path) -> FixtureManifest:
    """Emit the synthetic evidence tree at ``out`` and return its manifest."""
    tree, manifest = build_tree(spec)
    write_tree(tree, spec, Path(out))
    return manifest


# -- manifest serialization --------------------------------------------------

def render_manifest(manifest: FixtureManifest) -> bytes:
    return canonical_json(manifest)


# -- verification ------------------------------------------------------------

def verify_scan_against_manifest(manifest: FixtureManifest,
                                 report: ComplianceReport) -> VerificationResult:
    """Compare a scan report against what the fixture planted.

    Passes iff the file inventory matches digest-for-digest, every
    expected finding is present (value excerpts included, respecting the
    report's redaction flag), nothing unexplained was found, and the
    matrix, violation kinds, and encrypted-database classifications all
    agree.
    """
    mismatches: list[str] = []

    report_files = {d.relative_path: d for d in report.file_digests}
    for path, meta in sorted(manifest.files.items()):
        digest = report_files.get(path)
        if digest is None:
            mismatches.append(f"file missing from scan: {path}")
        elif digest.hex_digest != meta["sha256"]:
            mismatches.append(f"file content changed since generation: {path}")
    for path in sorted(set(report_files) - set(manifest.files)):
        mismatches.append(f"unexpected file in evidence: {path}")

    def expected_excerpt(text: str) -> str:
        return redact_value(text) if report.redacted else text

    expected = {}
    for p in manifest.planted:
        for f in p.expected_findings:
            key = (p.locator.package_name, p.locator.relative_path, p.locator.detail,
                   f.category, f.rule_id, expected_excerpt(f.excerpt))
            expected[key] = f"{p.locator.relative_path} {p.locator.detail} {f.category}"
    actual = {}
    for f in report.findings:
        key = (f.locator.package_name, f.locator.relative_path, f.locator.detail,
               f.category, f.rule_id, f.value_excerpt)
        actual[key] = f"{f.locator.relative_path} {f.locator.detail} {f.category}"
    for key in sorted(set(expected) - set(actual)):
        mismatches.append(f"missing finding: {expected[key]}")
    for key in sorted(set(actual) - set(expected)):
        mismatches.append(f"unexpected finding: {actual[key]} ({key[5]!r})")

    matrix_by_app = {row.app_name: row.cells for row in report.matrix}
    for app, cells in sorted(manifest.expected_matrix.items()):
        got = matrix_by_app.get(app)
        if got is None:
            mismatches.append(f"matrix row missing for {app}")
            continue
        for cat, cell in cells.items():
            if got.get(cat) != cell:
                mismatches.append(f"matrix cell {app}/{cat}: expected {cell}, got {got.get(cat)}")
    for app in sorted(set(matrix_by_app) - set(manifest.expected_matrix)):
        mismatches.append(f"unexpected matrix row for {app}")

    report_kinds = {app: sorted(v.kind for v in vs) for app, vs in report.violations.items()}
    for app, kinds in sorted(manifest.expected_violations.items()):
        if report_kinds.get(app, []) != kinds:
            mismatches.append(f"violations for {app}: expected {kinds}, "
                              f"got {report_kinds.get(app, [])}")
    for app in sorted(set(report_kinds) - set(manifest.expected_violations)):
        mismatches.append(f"unexpected violations for {app}: {report_kinds[app]}")

    classified = {s.relative_path: s for ss in report.database_statuses.values() for s in ss}
    for path in manifest.encrypted_dbs:
        status = classified.get(path)
        if status is None:
            mismatches.append(f"encrypted db not classified: {path}")
        elif status.status != "encrypted-or-opaque":
            mismatches.append(f"encrypted db misclassified as {status.status}: {path}")

    return VerificationResult(ok=not mismatches, mismatches=tuple(mismatches))
