"""Withings/Nokia Health Mate parser: withings-wiscale.db tables.

Three tables matter: devices (registration/usage metadata incl. MAC
address and battery at last use), measure (scale and BPM readings keyed
by an integer type code), and users (account holder identity). All Health
Mate epochs are millisecond-scale.

The measure table's type codes are not documented by the app; the
fixture-normative default map ships as a config file
(data/measure_codes_v1.txt) and can be replaced at scan time with a
key=value text file, so real-device maps drop in without a code change.
Unknown codes come through as raw hits, never dropped.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable
from dataclasses import dataclass

from ..artifacts import (
    EpochInstant,
    KIND_BLOOD_PRESSURE,
    KIND_DEVICE_REGISTRATION,
    KIND_RAW_HIT,
    KIND_USER_PROFILE,
    KIND_WEIGHT,
    RawHit,
)
from ..errors import InvalidSpecError, MalformedRowError
from .base import AppParser, ParseResult, parse_each
from .tables import (
    Table,
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

PACKAGE_FOLDER = "com.withings.wiscale2"
DISPLAY_NAME = "Health Mate"
DB_NAME = "withings-wiscale.db"

MEASUREMENT_KINDS = ("weight", "body-fat", "body-water", "pulse", "bone-mass",
                     "muscle-mass", "bmi", "systolic", "diastolic")

# Composition measurements are scale artifacts; pressure ones come from the
# BPM cuff. The record-level kind tracks that split while the payload keeps
# the exact measurement kind.
_PRESSURE_KINDS = frozenset({"systolic", "diastolic", "pulse"})

_MAC_RE = re.compile(r"^[0-9a-f]{2}(:[0-9a-f]{2}){5}$")


def _mac(value, column: str) -> str:
    """Colon-hex MAC address, normalized to lowercase."""
    mac = str(value or "").lower()
    if not _MAC_RE.match(mac):
        raise MalformedRowError(f"{column} not colon-hex: {value!r}")
    return mac


@dataclass(frozen=True, slots=True)
class DeviceRegistration:
    # The MAC is converted first, so a row with a bad MAC reports that.
    mac_address: str = column("macAddress", _mac)
    id: int = column("id", require_int)
    association_date: EpochInstant = column("associationDate", require_instant)
    last_use_date: EpochInstant = column("lastUseDate", require_instant)
    modified_date: EpochInstant = column("modifiedDate", require_instant)
    firmware: int = column("firmware", require_int)
    timezone: str | None = column("timezone", optional_text)
    battery_pct: int = column("battery", require_int)
    device_type: int = column("type", require_int)
    device_model: int = column("model", require_int)

    def timeline_event(self) -> tuple[EpochInstant, str]:
        return self.last_use_date, "device last used"

    def phi_excerpts(self) -> dict[str, str]:
        return {"device_usage": f"device {self.mac_address}, last used {self.last_use_date.utc}"}


@dataclass(frozen=True, slots=True)
class HealthMateMeasurement:
    kind: str
    value: float
    measured_at: EpochInstant
    device_ref: int | None

    def timeline_event(self) -> tuple[EpochInstant, str]:
        return self.measured_at, f"{self.kind} measurement"

    def phi_excerpts(self) -> dict[str, str]:
        prefix = f"device {self.device_ref} " if self.device_ref is not None else ""
        return {"vital_reading": f"{self.kind} {self.value}",
                "device_usage": f"{prefix}measured at {self.measured_at.utc}"}


@dataclass(frozen=True, slots=True)
class HealthMateUser:
    name: str = column("name", text)
    gender: str = column("gender", text)
    birthday: str = column("birthday", text)
    email: str = column("email", email)

    def phi_excerpts(self) -> dict[str, str]:
        return {"profile_name": self.name, "profile_birth_date": self.birthday}


def load_code_map(text: str) -> dict[int, str]:
    """Parse a measure code map: one "code = kind" pair per line, # comments."""
    mapping: dict[int, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSpecError(f"code map line {lineno}: expected 'code = kind'")
        code_s, kind = (part.strip() for part in line.split("=", 1))
        try:
            code = int(code_s)
        except ValueError as exc:
            raise InvalidSpecError(f"code map line {lineno}: bad code {code_s!r}") from exc
        if kind not in MEASUREMENT_KINDS:
            raise InvalidSpecError(f"code map line {lineno}: unknown kind {kind!r}")
        mapping[code] = kind
    return mapping


def _default_code_map() -> dict[int, str]:
    from importlib import resources

    text = (resources.files("phiscan") / "data/measure_codes_v1.txt").read_text()
    return load_code_map(text)


# Fixture-normative measure.type decode table, published as a config file.
DEFAULT_CODE_MAP: dict[int, str] = _default_code_map()


DEVICES = declare("devices", KIND_DEVICE_REGISTRATION, DeviceRegistration, checks=(
    (lambda r: not 0 <= r.battery_pct <= 100, "battery out of [0,100]: {0.battery_pct}"),
), order_by="id", id_column="id")

USERS = declare("users", KIND_USER_PROFILE, HealthMateUser, order_by="id", id_column="id")


def measure_table(code_map: dict[int, str]) -> Table:
    """The measure table, its type codes decoded with `code_map`.

    A row's record kind follows its decoded measurement kind; a code the
    map does not know is kept as a raw hit, never dropped.
    """
    def row(cells: list) -> tuple[str, object]:
        date, type_code, value, device_ref = cells
        code = require_int(type_code, "type")
        kind = code_map.get(code)
        if kind is None:
            return KIND_RAW_HIT, RawHit(pattern="measure-type-code", value=str(code))
        measurement = HealthMateMeasurement(
            kind, require_num(value, "value"), require_instant(date, "date"),
            None if device_ref is None else require_int(device_ref, "deviceid"))
        if measurement.value <= 0:
            raise MalformedRowError(f"value not positive: {measurement.value}")
        return (KIND_BLOOD_PRESSURE if kind in _PRESSURE_KINDS else KIND_WEIGHT), measurement

    return Table("measure", ("date", "type", "value", "deviceid"), row,
                 order_by="id", id_column="id")


class HealthMateParser(AppParser):
    parser_id = "healthmate"
    display_name = DISPLAY_NAME
    folder = PACKAGE_FOLDER
    signature = f"{DB_NAME} present under the app folder"

    def claims(self, path: str) -> bool:
        return path.rsplit("/", 1)[-1] == DB_NAME

    def parse(self, files: Iterable[tuple[str, bytes]], *,
              code_map: dict[int, str] | None = None) -> ParseResult:
        tables = (DEVICES, measure_table(DEFAULT_CODE_MAP if code_map is None else code_map),
                  USERS)
        parse = functools.partial(parse_tables, tables=tables, package=PACKAGE_FOLDER)
        return parse_each(files, lambda path: parse)
