"""iHealth MyVitals parser: androidNin.db tables plus the credential XML.

The app keeps device readings in a SQLite database under
iHealthMyVitals.V2/Databases/androidNin.db and, separately, stores the
account's authentication material (password included, in plaintext) in a
shared-preferences file named sp_user_region_host_info.xml.

Column names for TB_SPO2Result are documented artifacts; the remaining
four tables are bound to the fixture schema declared in TABLES. Real-device
schema drift surfaces as MissingTable/malformed-row warnings, never as a
guess.
"""

from __future__ import annotations

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
    looks_like_email,
    make_locator,
)
from ..errors import NoCredentialKeysError, ScanError
from ..evidence import AppDataRoot, EvidenceSource, files_under, read_file
from ..shared_prefs import parse_shared_prefs
from .base import AppParser, ParseResult
from .tables import (
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


@dataclass(frozen=True)
class BloodPressureReading:
    systolic: int
    diastolic: int
    pulse: int
    measured_at: EpochInstant
    device_id: str
    note: str | None
    account: str

    def phi_excerpts(self) -> dict[str, str]:
        return {"vital_reading": f"{self.systolic}/{self.diastolic} mmHg, pulse {self.pulse} bpm",
                "device_usage": f"device {self.device_id or 'unknown'} at {self.measured_at.utc}"}


@dataclass(frozen=True)
class OximetryReading:
    result_spo2: int
    pulse_rate: int
    perfusion_index: float
    measured_at: EpochInstant
    last_change_at: EpochInstant
    phone_created_at: EpochInstant
    health_id: str
    machine_type: str
    machine_device_id: str
    used_user_id: int
    phone_data_id: str

    def phi_excerpts(self) -> dict[str, str]:
        return {"vital_reading": (f"SpO2 {self.result_spo2}%, pulse {self.pulse_rate} bpm, "
                                  f"PI {self.perfusion_index}"),
                "device_usage": (f"device {self.machine_device_id} ({self.machine_type}) "
                                 f"at {self.measured_at.utc}")}


@dataclass(frozen=True)
class WeightReading:
    weight: float
    bmi: float
    body_fat_pct: float
    body_water_pct: float
    muscle_mass: float
    daily_calorie_intake: float
    bone_mass: float
    measured_at: EpochInstant
    account: str

    def phi_excerpts(self) -> dict[str, str]:
        return {"vital_reading": f"weight {self.weight}, BMI {self.bmi}",
                "device_usage": f"measured at {self.measured_at.utc}"}


@dataclass(frozen=True)
class EnvironmentReading:
    humidity: float
    temperature: float
    lighting_level: float
    measured_at: EpochInstant

    def phi_excerpts(self) -> dict[str, str]:
        return {"device_usage": f"measured at {self.measured_at.utc}"}


@dataclass(frozen=True)
class MyVitalsProfile:
    name: str
    date_of_birth: str
    timezone_location: str
    email: str

    def phi_excerpts(self) -> dict[str, str]:
        excerpts = {"profile_name": self.name, "profile_birth_date": self.date_of_birth,
                    "timezone_address_proxy": self.timezone_location}
        return {predicate: value for predicate, value in excerpts.items() if value}


def _int_or_zero(value, column: str) -> int:
    return require_int(0 if value is None else value, column)


# androidNin.db, in parse order; TB_SPO2Result comes back MeasureTime-ascending.
TABLES = (
    declare("TB_BPResult", KIND_BLOOD_PRESSURE, BloodPressureReading, (
        ("Sys", "systolic", require_int),
        ("Dia", "diastolic", require_int),
        ("Pulse", "pulse", require_int),
        ("MeasureTime", "measured_at", require_instant),
        ("DeviceID", "device_id", text),
        ("Note", "note", optional_text),
        ("Account", "account", text),
    ), required=("Sys", "Dia", "Pulse", "MeasureTime"), checks=(
        (lambda r: not (r.systolic > r.diastolic > 0),
         "systolic/diastolic out of order: {0.systolic}/{0.diastolic}"),
        (lambda r: r.pulse <= 0, "pulse not positive: {0.pulse}"),
    )),
    declare("TB_SPO2Result", KIND_OXIMETRY, OximetryReading, (
        ("Result", "result_spo2", require_int),
        ("PR", "pulse_rate", require_int),
        ("PI", "perfusion_index", require_num),
        ("MeasureTime", "measured_at", require_instant),
        ("LastChangeTime", "last_change_at", require_instant),
        ("PhoneCreateTime", "phone_created_at", require_instant),
        ("iHealthID", "health_id", text),
        ("MachineType", "machine_type", text),
        ("MachineDeviceID", "machine_device_id", text),
        ("UsedUserID", "used_user_id", _int_or_zero),
        ("PhoneDataID", "phone_data_id", text),
    ), required=("Result", "PR", "PI", "MeasureTime"), checks=(
        (lambda r: not 0 < r.result_spo2 <= 100, "Result out of range: {0.result_spo2}"),
        (lambda r: r.pulse_rate <= 0, "PR not positive: {0.pulse_rate}"),
        (lambda r: r.perfusion_index < 0, "PI negative: {0.perfusion_index}"),
    ), order_by="MeasureTime, rowid"),
    declare("TB_WeightOnlineResult", KIND_WEIGHT, WeightReading, (
        ("Weight", "weight", require_num),
        ("BMI", "bmi", require_num),
        ("BodyFat", "body_fat_pct", require_num),
        ("BodyWater", "body_water_pct", require_num),
        ("MuscleMass", "muscle_mass", require_num),
        ("DailyCalorie", "daily_calorie_intake", require_num),
        ("BoneMass", "bone_mass", require_num),
        ("MeasureTime", "measured_at", require_instant),
        ("Account", "account", text),
    ), required=("Weight", "BMI", "BodyFat", "BodyWater", "MuscleMass", "DailyCalorie",
                 "BoneMass", "MeasureTime"), checks=(
        (lambda r: r.weight <= 0, "Weight not positive: {0.weight}"),
        (lambda r: not 0 <= r.body_fat_pct <= 100, "BodyFat out of [0,100]: {0.body_fat_pct}"),
        (lambda r: not 0 <= r.body_water_pct <= 100,
         "BodyWater out of [0,100]: {0.body_water_pct}"),
    )),
    declare("TB_TemperatureHumidity", KIND_ENVIRONMENT, EnvironmentReading, (
        ("Humidity", "humidity", require_num),
        ("Temperature", "temperature", require_num),
        ("Lighting", "lighting_level", require_num),
        ("MeasureTime", "measured_at", require_instant),
    ), required=("Humidity", "Temperature", "Lighting", "MeasureTime"), checks=(
        (lambda r: not 0 <= r.humidity <= 100, "Humidity out of [0,100]: {0.humidity}"),
    ), null_text="null columns"),
    declare("TB_Userinfo", KIND_USER_PROFILE, MyVitalsProfile, (
        ("Name", "name", text),
        ("Birthday", "date_of_birth", text),
        ("TimeZone", "timezone_location", text),
        ("Email", "email", email),
    )),
)


def parse_region_host_xml(xml: bytes, *, package: str = PACKAGE_FOLDER,
                          relative_path: str = DEFAULT_XML_PATH,
                          recovered_at: str = "") -> tuple[list[ArtifactRecord], list[str]]:
    """Recover account credentials from sp_user_region_host_info.xml.

    Keys are "<account email><suffix>"; suffixes map to credential fields.
    Normally one credential set comes back; if entries carry different
    account prefixes every set is returned and the inconsistency flagged.
    """
    entries = parse_shared_prefs(xml)
    by_account: dict[str, dict[str, object]] = {}
    for key, value in entries.items():
        for suffix, field_name in CREDENTIAL_SUFFIXES.items():
            if key.endswith(suffix):
                prefix = key[: -len(suffix)]
                by_account.setdefault(prefix, {})[field_name] = value
                break
    if not by_account:
        raise NoCredentialKeysError(
            f"{relative_path}: no recognized credential key suffixes in map"
        )
    warnings: list[str] = []
    if len(by_account) > 1:
        warnings.append(
            "inconsistent account prefixes in credential XML: "
            + ", ".join(sorted(by_account))
        )
    records: list[ArtifactRecord] = []
    for account in sorted(by_account):
        fields = by_account[account]
        if not looks_like_email(account):
            warnings.append(f"credential key prefix is not an email address: {account!r}")
        flag = fields.get("is_online_flag")
        credential = CredentialSet(
            account=account,
            password_plaintext=optional_text(fields.get("password_plaintext"), "password"),
            refresh_token=optional_text(fields.get("refresh_token"), "refresh_token"),
            access_token=optional_text(fields.get("access_token"), "access_token"),
            region_host=optional_text(fields.get("region_host"), "region_host"),
            is_online_flag=bool(flag) if flag is not None else None,
        )
        records.append(ArtifactRecord(
            kind=KIND_CREDENTIAL,
            payload=credential,
            locator=make_locator(package, relative_path, CONTAINER_XML,
                                 f"key prefix {account}"),
            recovered_at=recovered_at,
        ))
    return records, warnings


class MyVitalsParser(AppParser):
    parser_id = "myvitals"
    display_name = DISPLAY_NAME
    folder = PACKAGE_FOLDER
    signature = f"{DB_SUBPATH} present under the app folder"

    def detect(self, root: AppDataRoot, source: EvidenceSource) -> bool:
        return (root.package_name == PACKAGE_FOLDER
                and f"{root.relative_path}/{DB_SUBPATH}" in source.root_listing)

    def parse(self, root: AppDataRoot, source: EvidenceSource, *,
              recovered_at: str = "", code_map=None) -> ParseResult:
        db_path = f"{root.relative_path}/{DB_SUBPATH}"
        consumed = {db_path}
        records, warnings = parse_tables(read_file(source, db_path), TABLES,
                                         package=root.package_name, relative_path=db_path,
                                         recovered_at=recovered_at)

        for xml_path in files_under(source, root):
            if xml_path.rsplit("/", 1)[-1] != CREDENTIAL_XML_NAME:
                continue
            consumed.add(xml_path)
            try:
                recs, warns = parse_region_host_xml(
                    read_file(source, xml_path), package=root.package_name,
                    relative_path=xml_path, recovered_at=recovered_at)
                records.extend(recs)
                warnings.extend(warns)
            except ScanError as exc:
                warnings.append(f"{xml_path}: {exc}")

        return ParseResult(records=tuple(records), warnings=tuple(warnings),
                           consumed=frozenset(consumed))
