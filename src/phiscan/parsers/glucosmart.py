"""iHealth Gluco-Smart parser: encrypted-database triage plus user_info.xml.

Every database this app writes under jiuana-androidBg.start is encrypted,
so no glucose readings are recoverable; decryption is out of scope. What
the parser does instead is classify each .db file (plaintext / encrypted
/ empty, with Shannon entropy as supporting evidence) and pull the
username and device identifier out of user_info.xml.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..artifacts import (
    ArtifactRecord,
    CONTAINER_XML,
    KIND_USER_PROFILE,
    make_locator,
)
from ..errors import MissingFieldsError, ScanError
from ..evidence import AppDataRoot, EvidenceSource, files_under, read_file
from ..shared_prefs import parse_shared_prefs
from ..sqlite_bytes import is_sqlite
from .base import AppParser, ParseResult

PACKAGE_FOLDER = "jiuana-androidBg.start"
DISPLAY_NAME = "Gluco-Smart"
USER_INFO_XML_NAME = "user_info.xml"
DEFAULT_XML_PATH = f"{PACKAGE_FOLDER}/shared_prefs/{USER_INFO_XML_NAME}"

STATUS_PLAINTEXT = "plaintext-sqlite"
STATUS_ENCRYPTED = "encrypted-or-opaque"
STATUS_EMPTY = "empty"

HIGH_ENTROPY_BITS = 7.5
ENTROPY_WINDOW = 4096


@dataclass(frozen=True)
class DatabaseStatus:
    relative_path: str
    status: str
    header_magic_present: bool
    entropy_bits_per_byte: float


@dataclass(frozen=True)
class GlucoProfile:
    username: str
    device_identifier: str

    def phi_excerpts(self) -> dict[str, str]:
        return {"profile_name": self.username} if self.username else {}


def shannon_entropy(data: bytes) -> float:
    """Shannon entropy in bits per byte, rounded for stable serialization."""
    if not data:
        return 0.0
    counts = [0] * 256
    for b in data:
        counts[b] += 1
    total = len(data)
    entropy = -sum(c / total * math.log2(c / total) for c in counts if c)
    return round(entropy, 4)


def classify_database(relative_path: str, data: bytes) -> DatabaseStatus:
    """Classify one database file by header magic, with entropy evidence."""
    if len(data) == 0:
        return DatabaseStatus(relative_path, STATUS_EMPTY, False, 0.0)
    magic = is_sqlite(data)
    return DatabaseStatus(
        relative_path=relative_path,
        status=STATUS_PLAINTEXT if magic else STATUS_ENCRYPTED,
        header_magic_present=magic,
        entropy_bits_per_byte=shannon_entropy(data[:ENTROPY_WINDOW]),
    )


def classify_databases(root: AppDataRoot, source: EvidenceSource
                       ) -> tuple[list[DatabaseStatus], list[str]]:
    """Classify every .db file under the root; classification is total."""
    statuses: list[DatabaseStatus] = []
    warnings: list[str] = []
    for path in files_under(source, root):
        if not path.endswith(".db"):
            continue
        try:
            data = read_file(source, path)
        except (OSError, ScanError) as exc:
            statuses.append(DatabaseStatus(path, STATUS_ENCRYPTED, False, 0.0))
            warnings.append(f"{path}: unreadable ({exc}), treated as opaque")
            continue
        status = classify_database(path, data)
        statuses.append(status)
        if status.status == STATUS_ENCRYPTED and status.entropy_bits_per_byte > HIGH_ENTROPY_BITS:
            warnings.append(
                f"{path}: high entropy ({status.entropy_bits_per_byte:.2f} bits/byte), "
                "consistent with encryption"
            )
    return statuses, warnings


def parse_user_info_xml(xml: bytes, *, package: str = PACKAGE_FOLDER,
                        relative_path: str = DEFAULT_XML_PATH,
                        recovered_at: str = "") -> ArtifactRecord:
    """Username and device identifier from user_info.xml.

    The app's key names are fixture-normative ("UserName", "DeviceID");
    fallback matching is by key substring (user/name, device/id). Missing
    either field raises MissingFieldsError.
    """
    entries = parse_shared_prefs(xml)
    strings = {k: v for k, v in entries.items() if isinstance(v, str) and v}
    username = strings.get("UserName")
    device_id = strings.get("DeviceID")
    if username is None:
        for key, value in sorted(strings.items()):
            low = key.lower()
            if "user" in low or "name" in low:
                username = value
                break
    if device_id is None:
        for key, value in sorted(strings.items()):
            low = key.lower()
            if value == username:
                continue
            if "device" in low or "id" in low:
                device_id = value
                break
    missing = [n for n, v in (("username", username), ("device identifier", device_id)) if not v]
    if missing:
        raise MissingFieldsError(
            f"{relative_path}: {' and '.join(missing)} not present "
            f"(recovered: username={username!r}, device={device_id!r})"
        )
    return ArtifactRecord(
        kind=KIND_USER_PROFILE,
        payload=GlucoProfile(username=username, device_identifier=device_id),
        locator=make_locator(package, relative_path, CONTAINER_XML, "UserName/DeviceID"),
        recovered_at=recovered_at,
    )


class GlucoSmartParser(AppParser):
    parser_id = "glucosmart"
    display_name = DISPLAY_NAME
    folder = PACKAGE_FOLDER
    signature = "app folder name match (databases are encrypted)"

    def detect(self, root: AppDataRoot, source: EvidenceSource) -> bool:
        return root.package_name == PACKAGE_FOLDER

    def parse(self, root: AppDataRoot, source: EvidenceSource, *,
              recovered_at: str = "", code_map=None) -> ParseResult:
        records: list[ArtifactRecord] = []
        consumed: set[str] = set()
        statuses, warnings = classify_databases(root, source)
        consumed.update(s.relative_path for s in statuses)
        encrypted = [s for s in statuses if s.status == STATUS_ENCRYPTED]
        if encrypted:
            warnings.append(
                f"{root.package_name}: {len(encrypted)} database(s) appear encrypted; "
                "glucose readings are not recoverable"
            )
        for xml_path in files_under(source, root):
            if xml_path.rsplit("/", 1)[-1] != USER_INFO_XML_NAME:
                continue
            consumed.add(xml_path)
            try:
                records.append(parse_user_info_xml(
                    read_file(source, xml_path), package=root.package_name,
                    relative_path=xml_path, recovered_at=recovered_at))
            except ScanError as exc:
                warnings.append(f"{xml_path}: {exc}")
        return ParseResult(records=tuple(records), warnings=tuple(warnings),
                           db_statuses=tuple(statuses), consumed=frozenset(consumed))
