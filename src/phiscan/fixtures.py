"""Synthetic evidence trees from declarative specs, plus the scan oracle.

A FixtureSpec describes what to plant per app (explicit row values, or a
count to fill with seeded plausible values). Generation is deterministic:
the same spec and seed always produce byte-identical trees, in directory
or zip form. Alongside the tree comes a manifest listing every planted
record, the findings a scan is expected to produce for it, the expected
compliance matrix/violations, and a digest of every written file.
verify_scan_against_manifest closes the loop: generate -> scan -> verify
is the central round-trip property of the whole artifact. It compares
each report section with the manifest's in one loop, findings counted, so
a finding reported twice fails like one reported never.

Each planted SQLite table is declared once, as a _ForgeTable: one loop
writes every table from those declarations, one checks explicit rows and
one plants the manifest records. An explicit row must carry its table's
keys, give epochs on the app's scale and pass the parser's own declared
checks; generated rows are not checked, so the round trip still tests
the parsers against independent data. The expected findings are written
here by hand, never derived from the parsers. Each database is built in
SQLite's memdb VFS, so nothing is written outside the output.

Encrypted Gluco-Smart databases are simulated as seeded pseudorandom
bytes. The scanner only ever classifies them, never decrypts, so random
bytes are behaviorally equivalent to ciphertext.

Plausible-value ranges used for generated vitals: SpO2 90-100, pulse
55-105, systolic 100-160, diastolic 55-95 (always below systolic), weight
45-140, BMI 16-34, body fat 8-42%, body water 40-62%, muscle 25-75, bone
1.5-4.5, calories 1300-3200, humidity 20-75%, temperature 16-29.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sqlite3
import zipfile
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable
from xml.sax.saxutils import escape, quoteattr

from .artifacts import (
    CONTAINER_SQLITE,
    CONTAINER_XML,
    STATUS_ENCRYPTED,
    EpochInstant,
    SourceLocator,
    normalize_timestamp,
)
from .errors import InvalidSpecError, MalformedRowError
from .parsers import glucosmart, healthmate, myvitals
from .parsers.tables import Table
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


# each app's spec key -> its block and its parser module
_APPS = {"myvitals": (MyVitalsBlock, myvitals), "glucosmart": (GlucoSmartBlock, glucosmart),
         "healthmate": (HealthMateBlock, healthmate)}


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

def _known_keys(doc: dict, known, where: str) -> None:
    for key in doc:
        if key not in known:
            raise InvalidSpecError(f"{where}.{key}: unknown key")


def _validate_credential(credential: dict) -> None:
    _known_keys(credential, {"account", *_CREDENTIAL_ENTRIES}, "myvitals.credential")
    if "account" not in credential:
        raise InvalidSpecError("myvitals.credential requires an 'account'")
    material = [k for k in ("password", "refresh_token", "access_token",
                            "region_host", "is_online") if credential.get(k) is not None]
    if not material:
        raise InvalidSpecError("myvitals.credential needs at least one credential field")


def _field_value(value, type_: str, where: str):
    """A block field's spec value, checked against the field's declared type."""
    if type_ == "dict | None":
        if value is not None and not isinstance(value, dict):
            raise InvalidSpecError(f"{where} must be an object")
        return dict(value) if value else None      # an empty or null object plants no file
    rows = type_ == "int | tuple"
    if rows and isinstance(value, list):
        for i, row in enumerate(value):
            if not isinstance(row, dict):
                raise InvalidSpecError(f"{where}[{i}] must be an object")
        return tuple(dict(row) for row in value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise InvalidSpecError(f"{where}: expected a non-negative count"
                               + (" or a row list" if rows else ""))
    return value


def _block_from_dict(app: str, doc) -> object:
    """The block of `app` from its spec object, each key checked by its field's type."""
    if not isinstance(doc, dict):
        raise InvalidSpecError(f"{app} must be an object")
    block_type = _APPS[app][0]
    types = {field.name: field.type for field in dataclasses.fields(block_type)}
    _known_keys(doc, types, app)
    return block_type(**{key: _field_value(value, types[key], f"{app}.{key}")
                         for key, value in doc.items()})


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
    unknown = set(apps) - set(_APPS)
    if unknown:
        raise InvalidSpecError(f"unknown app blocks: {sorted(unknown)}")
    blocks = {app: _block_from_dict(app, block) for app, block in apps.items()}
    return FixtureSpec(seed=seed, output_kind=output_kind, version=version, **blocks)


def load_spec(text: str) -> FixtureSpec:
    """Parse a JSON fixture spec; syntax errors carry line numbers."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpecError(f"spec line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return spec_from_dict(doc)


def spec_to_dict(spec: FixtureSpec) -> dict:
    apps = {app: {key: list(value) if isinstance(value, tuple) else value
                  for key, value in vars(block).items()}
            for app in _APPS if (block := getattr(spec, app)) is not None}
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


def _rand_birth_date(rng: random.Random) -> str:
    return f"{rng.randrange(1950, 2001)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}"


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
        "date_of_birth": _rand_birth_date(rng),
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


def _gen_measure_row(rng: random.Random, devices: list[dict]) -> dict:
    code = rng.choice(sorted(_KIND_BY_CODE))
    low, high = _MEASURE_VALUE_RANGES[_KIND_BY_CODE[code]]
    return {
        "code": code,
        "value": _round1(rng.uniform(low, high)),
        "measured_at": _rand_ms(rng),
        "device_ref": rng.choice(devices)["id"] if devices else None,
    }


def _gen_hm_user_row(rng: random.Random) -> dict:
    return {
        "name": _rand_name(rng),
        "gender": rng.choice(("F", "M", "X")),
        "birthday": _rand_birth_date(rng),
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


# -- forge tables ------------------------------------------------------------

_Planting = tuple[str, tuple[ExpectedFinding, ...]]     # (record kind, expected findings)


def _usage(kind: str, usage: str) -> _Planting:
    return kind, (ExpectedFinding(CAT_PROVISION, "device-usage", usage),)


def _vitals(kind: str, reading: str, usage: str) -> _Planting:
    return kind, (ExpectedFinding(CAT_HEALTH_CONDITION, "vital-reading", reading),
                  ExpectedFinding(CAT_PROVISION, "device-usage", usage))


def _profile(fields: tuple[tuple[str, str, str], ...], row: dict) -> _Planting:
    return "user-profile", tuple(ExpectedFinding(category, rule_id, row[key])
                                 for category, rule_id, key in fields if row[key])


def _utc(value: int) -> str:
    return normalize_timestamp(value).utc


def _plant_measure(r: dict) -> _Planting:
    kind = _KIND_BY_CODE.get(r["code"])
    if kind is None:
        return "raw-hit", ()
    prefix = f"device {r['device_ref']} " if r.get("device_ref") is not None else ""
    return _vitals("blood-pressure" if kind in ("systolic", "diastolic", "pulse") else "weight",
                   f"{kind} {float(r['value'])}", f"{prefix}measured at {_utc(r['measured_at'])}")


@dataclass(frozen=True)
class _ForgeTable:
    """One planted SQLite table, declared once for writing, checking and planting.

    columns are (column, SQL type, row key) triples in file order; a None
    key is the row's 1-based position. plant(row) gives the planted
    record's kind and the findings a scan must report for it, written
    here independently of the parsers. Planted records follow spec order,
    or (row[order_key], position) when order_key is set.
    """

    field: str
    name: str
    columns: tuple[tuple[str, str, str | None], ...]
    plant: Callable[[dict], _Planting]
    optional: tuple[str, ...] = ()
    order_key: str | None = None

    def key_of(self, column: str) -> str | None:
        return next((key for name, _, key in self.columns if name == column), None)


@dataclass(frozen=True)
class _ForgeDb:
    """One app database: where it goes, its epoch scale and its tables in file order."""

    app: str
    display_name: str
    package: str
    path: str
    unit: str
    tables: tuple[_ForgeTable, ...]
    parsed: dict[str, Table]      # the parser's declaration of each table, by name


_MYVITALS = _ForgeDb("myvitals", myvitals.DISPLAY_NAME, myvitals.PACKAGE_FOLDER,
                     myvitals.DB_PATH, "seconds", (
    _ForgeTable("bp_rows", "TB_BPResult", (
        ("Sys", "INTEGER", "systolic"), ("Dia", "INTEGER", "diastolic"),
        ("Pulse", "INTEGER", "pulse"), ("MeasureTime", "INTEGER", "measure_time"),
        ("DeviceID", "TEXT", "device_id"), ("Note", "TEXT", "note"),
        ("Account", "TEXT", "account"),
    ), lambda r: _vitals(
        "blood-pressure", f"{r['systolic']}/{r['diastolic']} mmHg, pulse {r['pulse']} bpm",
        f"device {r['device_id'] or 'unknown'} at {_utc(r['measure_time'])}"),
        optional=("note",)),
    _ForgeTable("spo2_rows", "TB_SPO2Result", (
        ("UsedUserID", "INTEGER", "used_user_id"), ("PhoneDataID", "TEXT", "phone_data_id"),
        ("iHealthID", "TEXT", "health_id"), ("MachineType", "TEXT", "machine_type"),
        ("MachineDeviceID", "TEXT", "machine_device_id"),
        ("MeasureTime", "INTEGER", "measure_time"),
        ("LastChangeTime", "INTEGER", "last_change_time"),
        ("PhoneCreateTime", "INTEGER", "phone_create_time"),
        ("Result", "INTEGER", "result_spo2"), ("PR", "INTEGER", "pulse_rate"),
        ("PI", "REAL", "perfusion_index"),
    ), lambda r: _vitals(
        "oximetry", f"SpO2 {r['result_spo2']}%, pulse {r['pulse_rate']} bpm, "
                    f"PI {float(r['perfusion_index'])}",
        f"device {r['machine_device_id']} ({r['machine_type']}) at {_utc(r['measure_time'])}"),
        order_key="measure_time"),
    _ForgeTable("weight_rows", "TB_WeightOnlineResult", (
        ("Weight", "REAL", "weight"), ("BMI", "REAL", "bmi"),
        ("BodyFat", "REAL", "body_fat_pct"), ("BodyWater", "REAL", "body_water_pct"),
        ("MuscleMass", "REAL", "muscle_mass"), ("DailyCalorie", "REAL", "daily_calorie_intake"),
        ("BoneMass", "REAL", "bone_mass"), ("MeasureTime", "INTEGER", "measure_time"),
        ("Account", "TEXT", "account"),
    ), lambda r: _vitals(
        "weight", f"weight {float(r['weight'])}, BMI {float(r['bmi'])}",
        f"measured at {_utc(r['measure_time'])}")),
    _ForgeTable("env_rows", "TB_TemperatureHumidity", (
        ("Humidity", "REAL", "humidity"), ("Temperature", "REAL", "temperature"),
        ("Lighting", "REAL", "lighting_level"), ("MeasureTime", "INTEGER", "measure_time"),
    ), lambda r: _usage("environment", f"measured at {_utc(r['measure_time'])}")),
    _ForgeTable("user_rows", "TB_Userinfo", (
        ("Name", "TEXT", "name"), ("Birthday", "TEXT", "date_of_birth"),
        ("TimeZone", "TEXT", "timezone_location"), ("Email", "TEXT", "email"),
    ), partial(_profile, ((CAT_NAME, "profile-name", "name"),
                          (CAT_DATE_OF_BIRTH, "profile-birth-date", "date_of_birth"),
                          (CAT_ADDRESS, "address-timezone-proxy", "timezone_location")))),
), {t.name: t for t in myvitals.TABLES})

_HEALTHMATE = _ForgeDb("healthmate", healthmate.DISPLAY_NAME, healthmate.PACKAGE_FOLDER,
                       f"{healthmate.PACKAGE_FOLDER}/databases/{healthmate.DB_NAME}",
                       "milliseconds", (
    _ForgeTable("device_rows", "devices", (
        ("id", "INTEGER PRIMARY KEY", "id"), ("associationDate", "INTEGER", "association_date"),
        ("lastUseDate", "INTEGER", "last_use_date"), ("modifiedDate", "INTEGER", "modified_date"),
        ("macAddress", "TEXT", "mac_address"), ("firmware", "INTEGER", "firmware"),
        ("timezone", "TEXT", "timezone"), ("battery", "INTEGER", "battery_pct"),
        ("type", "INTEGER", "device_type"), ("model", "INTEGER", "device_model"),
    ), lambda r: _usage(
        "device-registration",
        f"device {r['mac_address'].lower()}, last used {_utc(r['last_use_date'])}"),
        optional=("timezone",)),
    _ForgeTable("measure_rows", "measure", (
        ("id", "INTEGER PRIMARY KEY", None), ("date", "INTEGER", "measured_at"),
        ("type", "INTEGER", "code"), ("value", "REAL", "value"),
        ("deviceid", "INTEGER", "device_ref"),
    ), _plant_measure, optional=("device_ref",)),
    _ForgeTable("user_rows", "users", (
        ("id", "INTEGER PRIMARY KEY", None), ("name", "TEXT", "name"),
        ("gender", "TEXT", "gender"), ("birthday", "TEXT", "birthday"),
        ("email", "TEXT", "email"),
    ), partial(_profile, ((CAT_NAME, "profile-name", "name"),
                          (CAT_DATE_OF_BIRTH, "profile-birth-date", "birthday")))),
), {t.name: t for t in (healthmate.DEVICES, healthmate.measure_table(healthmate.DEFAULT_CODE_MAP),
                        healthmate.USERS)})

# -- row validation (explicit rows must pass the parsers' own checks) --------

def _resolve_rows(db: _ForgeDb, table: _ForgeTable, value: int | tuple, gen) -> list[dict]:
    """`value` rows from gen(), or the explicit rows, each checked as the parser would.

    A row with a missing key, an epoch off the app's scale, a cell or a
    check the parser's table refuses (a null vital reads, for example,
    `myvitals.bp_rows[0]: Sys is not an integer: None`) or the id of an
    earlier row is rejected, naming `<app>.<field>[i]`.
    """
    if not isinstance(value, tuple):
        return [gen() for _ in range(value)]
    parsed = db.parsed[table.name]
    cell_keys = list(map(table.key_of, parsed.columns))
    needed = [key for _, _, key in table.columns if key is not None and key not in table.optional]
    # a locator names a row by its id; the devices' id is an INTEGER PRIMARY KEY too
    id_key, ids = table.key_of(parsed.id_column), set()
    for i, row in enumerate(value):
        where = f"{db.app}.{table.field}[{i}]"
        missing = [key for key in needed if key not in row]
        if missing:
            raise InvalidSpecError(f"{where}: missing fields {missing}")
        try:
            _, payload = parsed.row(list(map(row.get, cell_keys)))
        except MalformedRowError as exc:
            raise InvalidSpecError(f"{where}: {exc}") from exc
        for f in dataclasses.fields(payload):
            v = getattr(payload, f.name)
            if isinstance(v, EpochInstant) and v.unit != db.unit:
                raise InvalidSpecError(f"{where}: {f.name} {v.raw_value} is not {db.unit}-scale")
        if id_key is not None:
            if row[id_key] in ids:
                raise InvalidSpecError(f"{where}: duplicate {id_key} {row[id_key]}")
            ids.add(row[id_key])
    return [dict(r) for r in value]


# -- file builders -----------------------------------------------------------

def _sqlite_file(db: _ForgeDb, rows: dict[str, list[dict]]) -> bytes:
    """The database of `db` holding `rows`: every CREATE, then every INSERT.

    It is built in SQLite's memdb VFS, whose pager writes the header a file
    gets; a ":memory:" database skips the file change counter. A name that
    does not begin with "/" keeps the database private to this connection.
    """
    conn = sqlite3.connect("file:forge?vfs=memdb", uri=True)
    try:
        for table in db.tables:
            columns = ", ".join(f"{column} {type_}" for column, type_, _ in table.columns)
            conn.execute(f"CREATE TABLE {table.name} ({columns})")
        for table in db.tables:
            # a None key inserts NULL, which an INTEGER PRIMARY KEY turns into the position
            keys = [key for _, _, key in table.columns]
            conn.executemany(f"INSERT INTO {table.name} VALUES ({','.join('?' * len(keys))})",
                             [tuple(map(row.get, keys)) for row in rows[table.field]])
        conn.commit()
        return conn.serialize()
    finally:
        conn.close()


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


# credential spec key -> (prefs tag, key suffix after the account), in file order
_CREDENTIAL_ENTRIES = {
    "is_online": ("boolean", "_user_is_online"),
    "refresh_token": ("string", "_user_refresh_token"),
    "access_token": ("string", "_user_access_token"),
    "password": ("string", "_user_password"),
    "region_host": ("string", "_user_region_host_info"),
    "region_flag": ("int", "_user_region_flag"),
}


def _credential_xml(credential: dict) -> bytes:
    return _prefs_xml([(tag, credential["account"] + suffix, credential[key])
                       for key, (tag, suffix) in _CREDENTIAL_ENTRIES.items()
                       if credential.get(key) is not None])


def _encrypted_db_bytes(rng: random.Random) -> bytes:
    data = rng.randbytes(8192 + rng.randrange(0, 4096))
    if data[:16] == b"SQLite format 3\x00":  # one-in-forever guard
        data = b"\xff" + data[1:]
    return data


# -- manifest expectations ---------------------------------------------------

def _planted(db: _ForgeDb, rows: dict[str, list[dict]]) -> list[PlantedRecord]:
    planted = []
    for table in db.tables:
        id_key = table.key_of(db.parsed[table.name].id_column)
        numbered = list(enumerate(rows[table.field], start=1))
        if table.order_key is not None:
            numbered.sort(key=lambda p: (p[1][table.order_key], p[0]))
        for i, r in numbered:
            kind, expected = table.plant(r)
            detail = f"{table.name}:{i if id_key is None else r[id_key]}"
            planted.append(PlantedRecord(
                app=db.display_name, kind=kind, payload=dict(r), expected_findings=expected,
                locator=SourceLocator(db.package, db.path, CONTAINER_SQLITE, detail)))
    return planted


def _planted_credential(credential: dict) -> PlantedRecord:
    return PlantedRecord(
        app=myvitals.DISPLAY_NAME, kind="credential",
        locator=SourceLocator(myvitals.PACKAGE_FOLDER, myvitals.DEFAULT_XML_PATH,
                              CONTAINER_XML, f"key prefix {credential['account']}"),
        payload=dict(credential), expected_findings=())


def _planted_gluco(user_info: dict) -> PlantedRecord:
    return PlantedRecord(
        app=glucosmart.DISPLAY_NAME, kind="user-profile",
        locator=SourceLocator(glucosmart.PACKAGE_FOLDER, glucosmart.DEFAULT_XML_PATH,
                              CONTAINER_XML, "UserName/DeviceID"),
        payload=dict(user_info),
        expected_findings=(
            ExpectedFinding(CAT_NAME, "profile-name", user_info["username"]),
        ))


def _expected(records: list[PlantedRecord]) -> tuple[dict, list[str]]:
    """One app's expected matrix row and sorted violation kinds, from its planted records."""
    cats = {f.category for p in records for f in p.expected_findings}
    kinds = []
    if CAT_HEALTH_CONDITION in cats:
        kinds.append(VIOLATION_PLAINTEXT_EPHI)
    elif not cats.isdisjoint(_IDENTITY_CATEGORIES):
        kinds.append(VIOLATION_WEAK_SAFEGUARD)
    if any(p.kind == "credential" and p.payload.get("password") is not None for p in records):
        kinds.append(VIOLATION_PLAINTEXT_CREDENTIAL)
    return ({cat: CELL_RECOVERED if cat in cats else CELL_NOT_RECOVERED
             for cat in PHI_CATEGORIES}, sorted(kinds))


# -- generation --------------------------------------------------------------

def build_tree(spec: FixtureSpec) -> tuple[dict[str, bytes], FixtureManifest]:
    """Materialize all fixture files in memory plus the oracle manifest."""
    rng = random.Random(spec.seed)
    tree: dict[str, bytes] = {}
    planted: dict[str, list[PlantedRecord]] = {}      # app -> its planted records
    encrypted: list[str] = []

    def forge_db(db: _ForgeDb, block, *gens: Callable[[dict], dict]) -> None:
        # each table in file order: gens[i](rows) makes one row of the i-th
        # table, given the rows resolved for the tables before it
        rows: dict[str, list[dict]] = {}
        for table, gen in zip(db.tables, gens):
            rows[table.field] = _resolve_rows(db, table, getattr(block, table.field),
                                              partial(gen, rows))
        tree[db.path] = _sqlite_file(db, rows)
        planted[db.display_name] = _planted(db, rows)

    if spec.myvitals is not None:
        block = spec.myvitals
        account = (block.credential or {}).get("account")
        if account is None and isinstance(block.user_rows, tuple) and block.user_rows:
            account = block.user_rows[0].get("email")
        account = account or "patient01@example.com"
        forge_db(_MYVITALS, block, lambda _: _gen_bp_row(rng, account),
                 lambda _: _gen_spo2_row(rng, account), lambda _: _gen_weight_row(rng, account),
                 lambda _: _gen_env_row(rng), lambda _: _gen_mv_user_row(rng, account))
        if block.credential is not None:
            _validate_credential(block.credential)
            tree[myvitals.DEFAULT_XML_PATH] = _credential_xml(block.credential)
            planted[myvitals.DISPLAY_NAME].append(_planted_credential(block.credential))

    if spec.glucosmart is not None:
        block = spec.glucosmart
        planted[glucosmart.DISPLAY_NAME] = []
        for i in range(block.encrypted_db_count):
            name = (_ENCRYPTED_DB_NAMES[i] if i < len(_ENCRYPTED_DB_NAMES)
                    else f"data{i}.db")
            path = f"{glucosmart.PACKAGE_FOLDER}/Databases/{name}"
            tree[path] = _encrypted_db_bytes(rng)
            encrypted.append(path)
        if block.user_info is not None:
            info = block.user_info
            _known_keys(info, ("username", "device_id"), "glucosmart.user_info")
            if not info.get("username") or not info.get("device_id"):
                raise InvalidSpecError("glucosmart.user_info needs username and device_id")
            tree[glucosmart.DEFAULT_XML_PATH] = _prefs_xml([
                ("string", "UserName", info["username"]),
                ("string", "DeviceID", info["device_id"]),
            ])
            planted[glucosmart.DISPLAY_NAME].append(_planted_gluco(info))

    if spec.healthmate is not None:
        used_ids: set[int] = set()
        forge_db(_HEALTHMATE, spec.healthmate, lambda _: _gen_device_row(rng, used_ids),
                 lambda rows: _gen_measure_row(rng, rows["device_rows"]),
                 lambda _: _gen_hm_user_row(rng))

    files = {path: {"sha256": hashlib.sha256(data).hexdigest(), "byte_length": len(data)}
             for path, data in tree.items()}
    expected = {app: _expected(records) for app, records in planted.items()}
    manifest = FixtureManifest(
        spec=spec_to_dict(spec),
        files=files,
        planted=tuple(p for records in planted.values() for p in records),
        expected_matrix={app: row for app, (row, _) in expected.items()},
        expected_violations={app: kinds for app, (_, kinds) in expected.items() if kinds},
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
    dirs.update(module.PACKAGE_FOLDER for app, (_, module) in _APPS.items()
                if getattr(spec, app) is not None)
    return sorted(dirs)


def write_tree(tree: dict[str, bytes], spec: FixtureSpec, out: Path) -> None:
    """Write the in-memory tree as a directory or a reproducible zip."""
    out = Path(out)
    if spec.output_kind == OUTPUT_DIRECTORY:
        out.mkdir(parents=True, exist_ok=True)
        for rel in _tree_dirs(tree, spec):
            (out / rel).mkdir(parents=True, exist_ok=True)
        for rel in sorted(tree):  # _tree_dirs made every parent
            (out / rel).write_bytes(tree[rel])
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

def _finding_key(locator: SourceLocator, category: str, rule_id: str, excerpt: str) -> tuple:
    return (locator.package_name, locator.relative_path, locator.container, locator.detail,
            category, rule_id, excerpt)


def verify_scan_against_manifest(manifest: FixtureManifest,
                                 report: ComplianceReport) -> VerificationResult:
    """Compare a scan report against what the fixture planted, one section at a time.

    Both sides of a section map keys to values: files by path to SHA-256,
    findings by locator, category, rule id and shown excerpt to a count (so
    a repeat fails), matrix rows and violation kinds by app, and, one way,
    each planted encrypted database by path to its status. A mismatch reads
    `missing|unexpected <section>: <key>` or `changed <section>: <key>:
    expected <value>, got <value>`; an app label that n > 1 matrix rows
    carry reads `unexpected matrix row: <app> (n rows)`.
    """
    shown = redact_value if report.redacted else str
    labels = Counter(row.app_name for row in report.matrix)
    classified = {s.relative_path: s.status for ss in report.database_statuses.values()
                  for s in ss}
    sections = (
        ("file", {path: meta["sha256"] for path, meta in manifest.files.items()},
         {d.relative_path: d.hex_digest for d in report.file_digests}),
        ("finding", Counter(_finding_key(p.locator, f.category, f.rule_id, shown(f.excerpt))
                            for p in manifest.planted for f in p.expected_findings),
         Counter(_finding_key(f.locator, f.category, f.rule_id, f.value_excerpt)
                 for f in report.findings)),
        ("matrix row", manifest.expected_matrix,
         {row.app_name: row.cells for row in report.matrix}),
        ("violations", manifest.expected_violations,
         {app: sorted(v.kind for v in vs) for app, vs in report.violations.items()}),
        ("encrypted db", dict.fromkeys(manifest.encrypted_dbs, STATUS_ENCRYPTED),
         {path: classified[path] for path in manifest.encrypted_dbs if path in classified}),
    )
    mismatches = []
    for section, expected, actual in sections:
        for key in sorted(expected.keys() | actual.keys()):
            want, got = expected.get(key), actual.get(key)
            if section == "matrix row" and labels[key] > 1:
                mismatches.append(f"unexpected {section}: {key} ({labels[key]} rows)")
            elif want is None:
                mismatches.append(f"unexpected {section}: {key}")
            elif got is None:
                mismatches.append(f"missing {section}: {key}")
            elif want != got:
                mismatches.append(f"changed {section}: {key}: expected {want}, got {got}")
    return VerificationResult(ok=not mismatches, mismatches=tuple(mismatches))
