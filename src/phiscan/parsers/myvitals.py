"""iHealth MyVitals parser: androidNin.db tables plus the credential XML.

The app keeps device readings in a SQLite database under
iHealthMyVitals.V2/Databases/androidNin.db and, separately, stores the
account's authentication material (password included, in plaintext) in a
shared-preferences file named sp_user_region_host_info.xml.

Column names for TB_SPO2Result are documented artifacts; the remaining
four tables are bound to the fixture schema. Each table's columns are
declared on the fields of the payload its rows become, and TABLES lists
the tables in parse order. Real-device schema drift surfaces as
MissingTable/malformed-row warnings, never as a guess.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass

from ..artifacts import (
    ArtifactRecord,
    CredentialSet,
    EpochInstant,
    KIND_BLOOD_PRESSURE,
    KIND_CREDENTIAL,
    KIND_ENVIRONMENT,
    KIND_OXIMETRY,
    KIND_USER_PROFILE,
    KIND_WEIGHT,
    CONTAINER_XML,
    SourceLocator,
    looks_like_email,
)
from ..errors import NoCredentialKeysError
from ..shared_prefs import parse_shared_prefs
from .base import AppParser, ParseResult, parse_each
from .tables import (
    column,
    declare,
    email,
    optional_text,
    parse_tables,
    require_instant,
    require_int,
    require_num,
    text,
)

PACKAGE_FOLDER = "iHealthMyVitals.V2"
DISPLAY_NAME = "iHealth MyVitals"
DB_SUBPATH = "Databases/androidNin.db"
DB_PATH = f"{PACKAGE_FOLDER}/{DB_SUBPATH}"
CREDENTIAL_XML_NAME = "sp_user_region_host_info.xml"
DEFAULT_XML_PATH = f"{PACKAGE_FOLDER}/shared_prefs/{CREDENTIAL_XML_NAME}"

# Recognized credential key suffixes in sp_user_region_host_info.xml; the
# prefix before each suffix is the account email.
CREDENTIAL_SUFFIXES = {
    "_user_password": "password_plaintext",
    "_user_refresh_token": "refresh_token",
    "_user_access_token": "access_token",
    "_user_region_host_info": "region_host",
    "_user_is_online": "is_online_flag",
}


def _int_or_zero(value, column: str) -> int:
    return require_int(0 if value is None else value, column)


@dataclass(frozen=True)
class BloodPressureReading:
    systolic: int = column("Sys", require_int)
    diastolic: int = column("Dia", require_int)
    pulse: int = column("Pulse", require_int)
    measured_at: EpochInstant = column("MeasureTime", require_instant)
    device_id: str = column("DeviceID", text)
    note: str | None = column("Note", optional_text)
    account: str = column("Account", text)

    def timeline_event(self) -> tuple[EpochInstant, str]:
        return self.measured_at, f"{KIND_BLOOD_PRESSURE} reading"

    def phi_excerpts(self) -> dict[str, str]:
        return {"vital_reading": f"{self.systolic}/{self.diastolic} mmHg, pulse {self.pulse} bpm",
                "device_usage": f"device {self.device_id or 'unknown'} at {self.measured_at.utc}"}


@dataclass(frozen=True)
class OximetryReading:
    result_spo2: int = column("Result", require_int)
    pulse_rate: int = column("PR", require_int)
    perfusion_index: float = column("PI", require_num)
    measured_at: EpochInstant = column("MeasureTime", require_instant)
    last_change_at: EpochInstant = column("LastChangeTime", require_instant)
    phone_created_at: EpochInstant = column("PhoneCreateTime", require_instant)
    health_id: str = column("iHealthID", text)
    machine_type: str = column("MachineType", text)
    machine_device_id: str = column("MachineDeviceID", text)
    used_user_id: int = column("UsedUserID", _int_or_zero)
    phone_data_id: str = column("PhoneDataID", text)

    def timeline_event(self) -> tuple[EpochInstant, str]:
        return self.measured_at, f"{KIND_OXIMETRY} reading"

    def phi_excerpts(self) -> dict[str, str]:
        return {"vital_reading": (f"SpO2 {self.result_spo2}%, pulse {self.pulse_rate} bpm, "
                                  f"PI {self.perfusion_index}"),
                "device_usage": (f"device {self.machine_device_id} ({self.machine_type}) "
                                 f"at {self.measured_at.utc}")}


@dataclass(frozen=True)
class WeightReading:
    weight: float = column("Weight", require_num)
    bmi: float = column("BMI", require_num)
    body_fat_pct: float = column("BodyFat", require_num)
    body_water_pct: float = column("BodyWater", require_num)
    muscle_mass: float = column("MuscleMass", require_num)
    daily_calorie_intake: float = column("DailyCalorie", require_num)
    bone_mass: float = column("BoneMass", require_num)
    measured_at: EpochInstant = column("MeasureTime", require_instant)
    account: str = column("Account", text)

    def timeline_event(self) -> tuple[EpochInstant, str]:
        return self.measured_at, f"{KIND_WEIGHT} reading"

    def phi_excerpts(self) -> dict[str, str]:
        return {"vital_reading": f"weight {self.weight}, BMI {self.bmi}",
                "device_usage": f"measured at {self.measured_at.utc}"}


@dataclass(frozen=True)
class EnvironmentReading:
    humidity: float = column("Humidity", require_num)
    temperature: float = column("Temperature", require_num)
    lighting_level: float = column("Lighting", require_num)
    measured_at: EpochInstant = column("MeasureTime", require_instant)

    def timeline_event(self) -> tuple[EpochInstant, str]:
        return self.measured_at, f"{KIND_ENVIRONMENT} reading"

    def phi_excerpts(self) -> dict[str, str]:
        return {"device_usage": f"measured at {self.measured_at.utc}"}


@dataclass(frozen=True)
class MyVitalsProfile:
    name: str = column("Name", text)
    date_of_birth: str = column("Birthday", text)
    timezone_location: str = column("TimeZone", text)
    email: str = column("Email", email)

    def phi_excerpts(self) -> dict[str, str]:
        return {"profile_name": self.name, "profile_birth_date": self.date_of_birth,
                "timezone_address_proxy": self.timezone_location}


# androidNin.db, in parse order; TB_SPO2Result comes back MeasureTime-ascending.
TABLES = (
    declare("TB_BPResult", KIND_BLOOD_PRESSURE, BloodPressureReading,
            required=("Sys", "Dia", "Pulse", "MeasureTime"), checks=(
        (lambda r: not (r.systolic > r.diastolic > 0),
         "systolic/diastolic out of order: {0.systolic}/{0.diastolic}"),
        (lambda r: r.pulse <= 0, "pulse not positive: {0.pulse}"),
    )),
    declare("TB_SPO2Result", KIND_OXIMETRY, OximetryReading,
            required=("Result", "PR", "PI", "MeasureTime"), checks=(
        (lambda r: not 0 < r.result_spo2 <= 100, "Result out of range: {0.result_spo2}"),
        (lambda r: r.pulse_rate <= 0, "PR not positive: {0.pulse_rate}"),
        (lambda r: r.perfusion_index < 0, "PI negative: {0.perfusion_index}"),
    ), order_by="MeasureTime, rowid"),
    declare("TB_WeightOnlineResult", KIND_WEIGHT, WeightReading,
            required=("Weight", "BMI", "BodyFat", "BodyWater", "MuscleMass", "DailyCalorie",
                      "BoneMass", "MeasureTime"), checks=(
        (lambda r: r.weight <= 0, "Weight not positive: {0.weight}"),
        (lambda r: not 0 <= r.body_fat_pct <= 100, "BodyFat out of [0,100]: {0.body_fat_pct}"),
        (lambda r: not 0 <= r.body_water_pct <= 100,
         "BodyWater out of [0,100]: {0.body_water_pct}"),
    )),
    declare("TB_TemperatureHumidity", KIND_ENVIRONMENT, EnvironmentReading,
            required=("Humidity", "Temperature", "Lighting", "MeasureTime"), checks=(
        (lambda r: not 0 <= r.humidity <= 100, "Humidity out of [0,100]: {0.humidity}"),
    ), null_text="null columns"),
    declare("TB_Userinfo", KIND_USER_PROFILE, MyVitalsProfile),
)


def parse_region_host_xml(xml: bytes, *, relative_path: str = DEFAULT_XML_PATH
                          ) -> tuple[list[ArtifactRecord], list[str]]:
    """Recover account credentials from sp_user_region_host_info.xml.

    Keys are "<account email><suffix>"; suffixes map to CredentialSet
    fields, each value taken as a str except is_online_flag's, a bool.
    Normally one credential set comes back; if entries carry different
    account prefixes every set is returned and the inconsistency flagged.
    """
    entries = parse_shared_prefs(xml)
    by_account: dict[str, dict[str, object]] = {}
    for key, value in entries.items():
        for suffix, field_name in CREDENTIAL_SUFFIXES.items():
            if key.endswith(suffix):
                prefix = key[: -len(suffix)]
                by_account.setdefault(prefix, {})[field_name] = (
                    bool(value) if field_name == "is_online_flag" else str(value))
                break
    if not by_account:
        raise NoCredentialKeysError("no recognized credential key suffixes in map")
    # a warning names a prefix by its 1-based position among the sorted
    # prefixes, never by the prefix itself: it is the account
    warnings: list[str] = []
    if len(by_account) > 1:
        warnings.append(f"{relative_path}: inconsistent account prefixes in credential XML: "
                        f"{len(by_account)} accounts")
    records: list[ArtifactRecord] = []
    for position, (account, fields) in enumerate(sorted(by_account.items()), 1):
        if not looks_like_email(account):
            warnings.append(f"{relative_path}: credential key prefix {position} of "
                            f"{len(by_account)} is not an email address")
        records.append(ArtifactRecord(
            kind=KIND_CREDENTIAL,
            payload=CredentialSet(account=account, **fields),
            locator=SourceLocator(PACKAGE_FOLDER, relative_path, CONTAINER_XML,
                                  f"key prefix {account}"),
        ))
    return records, warnings


class MyVitalsParser(AppParser):
    parser_id = "myvitals"
    display_name = DISPLAY_NAME
    folder = PACKAGE_FOLDER
    signature = f"{DB_SUBPATH} or a {CREDENTIAL_XML_NAME} present under the app folder"

    def claims(self, path: str) -> bool:
        return path == DB_PATH or path.rsplit("/", 1)[-1] == CREDENTIAL_XML_NAME

    def parse(self, files: Iterable[tuple[str, bytes]], *, code_map=None) -> ParseResult:
        parse_db = functools.partial(parse_tables, tables=TABLES, package=PACKAGE_FOLDER)
        return parse_each(
            files, lambda path: parse_db if path == DB_PATH else parse_region_host_xml)
