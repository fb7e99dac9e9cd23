"""Shared domain model: recovered records, provenance locators, timestamps.

Epoch unit inference is by magnitude. Device apps mix second- and
millisecond-scale epochs without documenting which; 10^11 seconds is
already year 5138 and 10^12 ms is 2001, so the two bands cannot collide
for plausible device data. Values in between are rejected as ambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import AmbiguousUnitError, EmptyFieldError, NonPositiveTimestampError

_EMAIL_RE = re.compile(r"^[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}$")


def looks_like_email(value: str) -> bool:
    return bool(_EMAIL_RE.match(value))

SECONDS_BAND_MAX = 10 ** 11   # raw < this  -> seconds
MILLIS_BAND_MIN = 10 ** 12    # raw >= this -> milliseconds

UNIT_SECONDS = "seconds"
UNIT_MILLISECONDS = "milliseconds"

# Locator container kinds.
CONTAINER_SQLITE = "sqlite-table"
CONTAINER_XML = "xml-file"
CONTAINER_RAW = "raw-bytes"
CONTAINERS = frozenset({CONTAINER_SQLITE, CONTAINER_XML, CONTAINER_RAW})

# Top-level artifact record kinds.
KIND_BLOOD_PRESSURE = "blood-pressure"
KIND_OXIMETRY = "oximetry"
KIND_WEIGHT = "weight"
KIND_ENVIRONMENT = "environment"
KIND_USER_PROFILE = "user-profile"
KIND_CREDENTIAL = "credential"
KIND_DEVICE_REGISTRATION = "device-registration"
KIND_RAW_HIT = "raw-hit"
RECORD_KINDS = frozenset({
    KIND_BLOOD_PRESSURE,
    KIND_OXIMETRY,
    KIND_WEIGHT,
    KIND_ENVIRONMENT,
    KIND_USER_PROFILE,
    KIND_CREDENTIAL,
    KIND_DEVICE_REGISTRATION,
    KIND_RAW_HIT,
})


@dataclass(frozen=True)
class EpochInstant:
    """A raw epoch integer plus its inferred unit and UTC rendering.

    ``utc`` has second precision; for millisecond inputs the sub-second
    part is truncated toward zero and kept in ``millis_remainder`` so the
    original raw value stays reconstructible.
    """

    raw_value: int
    unit: str
    utc: str
    millis_remainder: int = 0

    def epoch_seconds(self) -> int:
        if self.unit == UNIT_MILLISECONDS:
            return (self.raw_value - self.millis_remainder) // 1000
        return self.raw_value


@dataclass(frozen=True)
class SourceLocator:
    """Where a recovered value came from: package, file, and in-file detail."""

    package_name: str
    relative_path: str
    container: str
    detail: str


@dataclass(frozen=True)
class RawHit:
    """A pattern match from the generic byte sweep."""

    pattern: str
    value: str


@dataclass(frozen=True)
class CredentialSet:
    """Account credentials recovered from a shared-preferences file.

    ``password_plaintext`` is only ever populated from material that was
    stored unencrypted at rest; that is the field's meaning.
    """

    account: str
    password_plaintext: str | None = None
    refresh_token: str | None = None
    access_token: str | None = None
    region_host: str | None = None
    is_online_flag: bool | None = None


@dataclass(frozen=True)
class ArtifactRecord:
    """One typed unit of recovered data with provenance."""

    kind: str
    payload: object
    locator: SourceLocator
    recovered_at: str = ""

    def __post_init__(self) -> None:
        if self.kind not in RECORD_KINDS:
            raise ValueError(f"unknown record kind: {self.kind!r}")


def _civil_from_days(days: int) -> tuple[int, int, int]:
    # Days-since-epoch to (year, month, day), proleptic Gregorian.
    # Pure integer math so arbitrarily large epochs render without overflow.
    days += 719468
    era = (days if days >= 0 else days - 146096) // 146097
    doe = days - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    year = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = mp + 3 if mp < 10 else mp - 9
    if month <= 2:
        year += 1
    return year, month, day


def days_from_civil(year: int, month: int, day: int) -> int:
    """Inverse of the UTC rendering: civil date to days since epoch."""
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def render_utc(epoch_seconds: int) -> str:
    """Render epoch seconds as an ISO-8601 UTC string with second precision."""
    days, rem = divmod(epoch_seconds, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, seconds = divmod(rem, 60)
    year, month, day = _civil_from_days(days)
    return f"{year:04d}-{month:02d}-{day:02d}T{hours:02d}:{minutes:02d}:{seconds:02d}Z"


def parse_utc(utc: str) -> int:
    """Parse a string produced by :func:`render_utc` back to epoch seconds."""
    date_part, time_part = utc.rstrip("Z").split("T")
    year, month, day = (int(p) for p in date_part.split("-"))
    hours, minutes, seconds = (int(p) for p in time_part.split(":"))
    return days_from_civil(year, month, day) * 86400 + hours * 3600 + minutes * 60 + seconds


def normalize_timestamp(raw: int) -> EpochInstant:
    """Infer the epoch unit of ``raw`` by magnitude and render it as UTC.

    Raises NonPositiveTimestampError for raw <= 0 and AmbiguousUnitError
    for values in [10^11, 10^12), which are too large for seconds and too
    small for milliseconds.
    """
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise NonPositiveTimestampError(f"raw epoch must be an integer, got {raw!r}")
    if raw <= 0:
        raise NonPositiveTimestampError(f"raw epoch must be positive, got {raw}")
    if raw < SECONDS_BAND_MAX:
        return EpochInstant(raw_value=raw, unit=UNIT_SECONDS, utc=render_utc(raw))
    if raw >= MILLIS_BAND_MIN:
        seconds, remainder = divmod(raw, 1000)
        return EpochInstant(
            raw_value=raw,
            unit=UNIT_MILLISECONDS,
            utc=render_utc(seconds),
            millis_remainder=remainder,
        )
    raise AmbiguousUnitError(
        f"{raw} is in the ambiguous band [10^11, 10^12): too large for "
        "epoch seconds, too small for epoch milliseconds"
    )


def make_locator(package: str, path: str, container: str, detail: str) -> SourceLocator:
    """Build a provenance locator; every field must be non-empty."""
    for name, value in (
        ("package", package),
        ("path", path),
        ("container", container),
        ("detail", detail),
    ):
        if not value:
            raise EmptyFieldError(f"locator field {name!r} must be non-empty")
    if container not in CONTAINERS:
        raise EmptyFieldError(f"unknown locator container {container!r}")
    return SourceLocator(
        package_name=package, relative_path=path, container=container, detail=detail
    )
