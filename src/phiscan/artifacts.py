"""Shared domain model: recovered records, provenance locators, timestamps.

Epoch unit inference is by magnitude. Device apps mix second- and
millisecond-scale epochs without documenting which; 10^11 seconds is
already year 5138 and 10^12 ms is 2001, so the two bands cannot collide
for plausible device data. Values in between are rejected as ambiguous.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import AmbiguousUnitError, NonPositiveTimestampError

# looks_like_email's pattern, matched against a whole value
EMAIL_RE = re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")


def looks_like_email(value: str) -> bool:
    return EMAIL_RE.fullmatch(value) is not None

SECONDS_BAND_MAX = 10 ** 11   # raw < this  -> seconds
MILLIS_BAND_MIN = 10 ** 12    # raw >= this -> milliseconds

UNIT_SECONDS = "seconds"
UNIT_MILLISECONDS = "milliseconds"

# Locator container kinds.
CONTAINER_SQLITE = "sqlite-table"
CONTAINER_XML = "xml-file"
CONTAINER_RAW = "raw-bytes"

# Top-level artifact record kinds.
KIND_BLOOD_PRESSURE = "blood-pressure"
KIND_OXIMETRY = "oximetry"
KIND_WEIGHT = "weight"
KIND_ENVIRONMENT = "environment"
KIND_USER_PROFILE = "user-profile"
KIND_CREDENTIAL = "credential"
KIND_DEVICE_REGISTRATION = "device-registration"
KIND_RAW_HIT = "raw-hit"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class SourceLocator:
    """Where a recovered value came from: package, file, and in-file detail."""

    package_name: str
    relative_path: str
    container: str
    detail: str


@dataclass(frozen=True, slots=True)
class RawHit:
    """A value kept undecoded: a Health Mate measure type code no code map knows."""

    pattern: str
    value: str


# DatabaseStatus.status values.
STATUS_PLAINTEXT = "plaintext-sqlite"
STATUS_ENCRYPTED = "encrypted-or-opaque"
STATUS_EMPTY = "empty"


@dataclass(frozen=True, slots=True)
class DatabaseStatus:
    """How one database file's bytes were classified, with entropy as evidence."""

    relative_path: str
    status: str
    header_magic_present: bool
    entropy_bits_per_byte: float


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ArtifactRecord:
    """One typed unit of recovered data with provenance."""

    kind: str
    payload: object
    locator: SourceLocator


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


def render_utc(epoch_seconds: int) -> str:
    """Render epoch seconds as an ISO-8601 UTC string with second precision."""
    days, rem = divmod(epoch_seconds, 86400)
    hours, rem = divmod(rem, 3600)
    minutes, seconds = divmod(rem, 60)
    year, month, day = _civil_from_days(days)
    return f"{year:04d}-{month:02d}-{day:02d}T{hours:02d}:{minutes:02d}:{seconds:02d}Z"


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
        return EpochInstant(raw, UNIT_SECONDS, render_utc(raw))
    if raw >= MILLIS_BAND_MIN:
        seconds, remainder = divmod(raw, 1000)
        return EpochInstant(raw, UNIT_MILLISECONDS, render_utc(seconds), remainder)
    raise AmbiguousUnitError(
        f"{raw} is in the ambiguous band [10^11, 10^12): too large for "
        "epoch seconds, too small for epoch milliseconds"
    )

