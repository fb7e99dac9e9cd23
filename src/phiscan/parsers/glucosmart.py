"""iHealth Gluco-Smart parser: encrypted-database triage plus user_info.xml.

Every database this app writes under jiuana-androidBg.start is encrypted,
so no glucose readings are recoverable; decryption is out of scope. The
parser is bound by folder name alone and claims every .db file and every
user_info.xml beneath it. It classifies each .db file (plaintext /
encrypted / empty, with Shannon entropy as supporting evidence), hands a
plaintext one back to the scanner's raw sweep, since no schema is known
for it, and reads the username and device identifier from user_info.xml's
UserName and DeviceID keys. No other key is read: a user_info.xml without
both costs one warning and is handed back to the sweep too.
Only a plaintext database's bytes are kept; the user_info.xml files go
through parse_each after the databases, so their warnings follow the count.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from ..artifacts import (
    ArtifactRecord,
    CONTAINER_XML,
    DatabaseStatus,
    KIND_USER_PROFILE,
    STATUS_EMPTY,
    STATUS_ENCRYPTED,
    STATUS_PLAINTEXT,
    SourceLocator,
)
from ..errors import MissingFieldsError
from ..evidence import EvidenceSource
from ..shared_prefs import parse_shared_prefs
from ..sqlite_bytes import is_sqlite
from .base import AppParser, ParseResult, parse_each

PACKAGE_FOLDER = "jiuana-androidBg.start"
DISPLAY_NAME = "Gluco-Smart"
USER_INFO_XML_NAME = "user_info.xml"
DEFAULT_XML_PATH = f"{PACKAGE_FOLDER}/shared_prefs/{USER_INFO_XML_NAME}"

HIGH_ENTROPY_BITS = 7.5
ENTROPY_WINDOW = 4096


@dataclass(frozen=True)
class GlucoProfile:
    username: str
    device_identifier: str

    def phi_excerpts(self) -> dict[str, str]:
        return {"profile_name": self.username}


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


def parse_user_info_xml(xml: bytes, *, relative_path: str = DEFAULT_XML_PATH
                        ) -> tuple[list[ArtifactRecord], list[str]]:
    """([profile record], []): the username and device identifier of user_info.xml.

    The app's key names are fixture-normative ("UserName", "DeviceID"), and
    no other key is read. Missing either field raises MissingFieldsError,
    which names only the missing fields: the caller adds the path, and a
    recovered value is PHI.
    """
    strings = {k: v for k, v in parse_shared_prefs(xml).items() if isinstance(v, str) and v}
    username = strings.get("UserName")
    device_id = strings.get("DeviceID")
    missing = [n for n, v in (("username", username), ("device identifier", device_id)) if not v]
    if missing:
        raise MissingFieldsError(f"{' and '.join(missing)} not present")
    return [ArtifactRecord(
        kind=KIND_USER_PROFILE,
        payload=GlucoProfile(username=username, device_identifier=device_id),
        locator=SourceLocator(PACKAGE_FOLDER, relative_path, CONTAINER_XML, "UserName/DeviceID"),
    )], []


class GlucoSmartParser(AppParser):
    parser_id = "glucosmart"
    display_name = DISPLAY_NAME
    folder = PACKAGE_FOLDER
    signature = "app folder name match (databases are encrypted)"

    def detect(self, source: EvidenceSource) -> bool:
        # the folder name suffices: an empty folder still gets its matrix row
        return True

    def claims(self, path: str) -> bool:
        return path.endswith(".db") or path.rsplit("/", 1)[-1] == USER_INFO_XML_NAME

    def parse(self, files: Iterable[tuple[str, bytes]], *, code_map=None) -> ParseResult:
        statuses, plaintext, user_infos = [], [], []
        for path, data in files:
            if not path.endswith(".db"):
                user_infos.append((path, data))
                continue
            status = classify_database(path, data)
            statuses.append(status)
            if status.status == STATUS_PLAINTEXT:
                plaintext.append((path, data))
        warnings = [
            f"{s.relative_path}: high entropy ({s.entropy_bits_per_byte:.2f} bits/byte), "
            "consistent with encryption"
            for s in statuses
            if s.status == STATUS_ENCRYPTED and s.entropy_bits_per_byte > HIGH_ENTROPY_BITS
        ]
        if encrypted := sum(s.status == STATUS_ENCRYPTED for s in statuses):
            warnings.append(
                f"{PACKAGE_FOLDER}: {encrypted} database(s) appear encrypted; "
                "glucose readings are not recoverable"
            )
        # user_info.xml warnings come after every database's and the encrypted count
        xml = parse_each(user_infos, lambda path: parse_user_info_xml)
        return ParseResult(records=xml.records, warnings=(*warnings, *xml.warnings),
                           db_statuses=tuple(statuses), sweep=(*plaintext, *xml.sweep))
