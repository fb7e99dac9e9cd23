"""Compliance report assembly, canonical serialization, and the timeline.

JSON output is canonical: UTF-8, LF, sorted keys, compact separators,
shortest round-trip float formatting. Reports, timelines and fixture
manifests are encoded straight from their dataclasses: an instance becomes
the object of its fields, in sorted field-name order, so the JSON keys are
the field names, and adding a field adds a key (which needs a
schema_version bump). The record, report and timeline types are slotted.
Each SourceLocator object is encoded once per call, however many findings
and violations share it. The encoder writes UTF-8 into one buffer a block
of text chunks at a time, so the document never exists as one str beside
its bytes; both text renders write a block of lines at a time the same way.
Re-encoding the parse of a rendered document reproduces it byte for
byte, which is what makes golden-file and container-equivalence testing
meaningful.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, is_dataclass
from itertools import islice
from json.encoder import encode_basestring

from .artifacts import ArtifactRecord, EpochInstant, SourceLocator
from .errors import ScanError
from .evidence import FileDigest
from .parsers import display_name_for
from .phi import (
    CATEGORY_LABELS,
    CELL_RECOVERED,
    MATRIX_KEY_LINE,
    PHI_CATEGORIES,
    PhiFinding,
    PhiMatrixRow,
)

SCHEMA_VERSION = "1"

FORMAT_JSON = "json"
FORMAT_TEXT = "text"


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    at: EpochInstant
    app: str
    kind: str
    summary: str
    locator: SourceLocator


@dataclass(frozen=True, slots=True)
class ComplianceReport:
    scan_id: str
    tool_version: str
    evidence_origin: str
    generated_at: str
    redacted: bool
    file_digests: tuple[FileDigest, ...]
    matrix: tuple[PhiMatrixRow, ...]
    findings: tuple[PhiFinding, ...]
    violations: dict
    database_statuses: dict
    warnings: tuple[str, ...]
    schema_version: str = SCHEMA_VERSION


def finding_sort_key(finding: PhiFinding) -> tuple:
    loc = finding.locator
    return (loc.package_name, loc.relative_path, loc.detail, finding.category)


# -- timeline ----------------------------------------------------------------

def build_timeline(records: list[ArtifactRecord]) -> list[TimelineEvent]:
    """Merge all timestamped records onto one UTC axis, totally ordered.

    A record is on the timeline when its payload names its event:
    timeline_event() gives the instant and the summary. Second- and
    millisecond-scale sources interleave correctly because ordering happens
    on epoch seconds, not on the UTC rendering, whose five-digit years after
    9999 would sort first as text. Records without a timestamp (profiles,
    credentials, undecoded Health Mate measure codes) are simply absent;
    the caller can count them as len(records) - len(events). The raw sweep
    gives findings, not records, so nothing it matches is counted there.
    """
    events = []
    for record in records:
        timeline_event = getattr(record.payload, "timeline_event", None)
        if timeline_event is None:
            continue
        instant, summary = timeline_event()
        events.append(TimelineEvent(instant, display_name_for(record.locator.package_name),
                                    record.kind, summary, record.locator))
    events.sort(key=lambda e: (e.at.epoch_seconds(), e.app, e.locator.package_name,
                               e.locator.relative_path, e.locator.detail,
                               e.kind, e.summary))
    return events


# -- serialization -----------------------------------------------------------

# The text chunks canonical_json collects before it encodes them into its
# buffer, checked after each item of a list or tuple: a block of a large
# report is about 110 KiB of UTF-8. The text report and the text timeline
# encode as many lines at a time, about 400 KiB.
_BLOCK_CHUNKS = 4096

# Per dataclass: (text before the field's value, field name), in sorted
# field-name order; the first text opens the object.
_LAYOUTS: dict[type, tuple[tuple[str, str], ...]] = {}


def _layout(cls: type) -> tuple[tuple[str, str], ...] | None:
    layout = _LAYOUTS.get(cls)
    if layout is None:
        if not is_dataclass(cls):
            return None
        names = sorted(f.name for f in fields(cls))
        layout = _LAYOUTS[cls] = tuple(
            (("{" if i == 0 else ",") + encode_basestring(name) + ":", name)
            for i, name in enumerate(names))
    return layout


def canonical_json(obj) -> bytes:
    """The bytes json.dumps(obj, sort_keys=True, ensure_ascii=False, allow_nan=False,
    separators=(",", ":")) gives, with each dataclass encoded as the object of
    its fields, plus a final LF.

    That holds for dicts with str keys, the only keys phiscan's dicts have;
    any other key raises TypeError.

    A dataclass is read field by field, so a slotted one, which has no
    __dict__, encodes as any other does. The text of each SourceLocator
    object is kept for the rest of the call: a record's locator is shared
    by its findings and the violations citing it.

    Text chunks collect in a list. After an item of a list or tuple, once the
    list holds _BLOCK_CHUNKS chunks, they are joined, encoded to UTF-8 and
    written to one BytesIO, and the list is emptied; on CPython the BytesIO
    hands back its own bytes, with no copy. So the document never exists as
    one str, only as its bytes and the text of the block in hand. A
    SourceLocator's memoized text is cut from the list, so no flush may fall
    inside it; none can, since a locator's fields are all str and encoding
    one never reaches a list or tuple.
    """
    out = io.BytesIO()
    chunks: list[str] = []
    emit = chunks.append
    locators: dict[int, str] = {}

    def flush() -> None:
        out.write("".join(chunks).encode("utf-8"))
        chunks.clear()

    def encode(value) -> None:
        cls = type(value)
        if cls is str:
            emit(encode_basestring(value))
        elif cls is int:
            emit(int.__repr__(value))
        elif value is None:
            emit("null")
        elif value is True:
            emit("true")
        elif value is False:
            emit("false")
        elif cls is SourceLocator:
            text = locators.get(id(value))
            if text is None:
                # No flush may fall between start and the del: a locator's
                # fields are all str, so encoding one never reaches a sequence.
                start = len(chunks)
                encode_fields(value, _layout(cls))
                text = locators[id(value)] = "".join(chunks[start:])
                del chunks[start:]
            emit(text)
        elif (layout := _LAYOUTS.get(cls)) is not None:
            encode_fields(value, layout)
        elif isinstance(value, (list, tuple)):
            emit("[")
            for index, item in enumerate(value):
                if index:
                    emit(",")
                encode(item)
                if len(chunks) >= _BLOCK_CHUNKS:
                    flush()
            emit("]")
        elif isinstance(value, dict):
            emit("{")
            for index, (key, item) in enumerate(sorted(value.items())):
                emit(("," if index else "") + encode_basestring(key) + ":")
                encode(item)
            emit("}")
        elif (layout := _layout(cls)) is not None:  # a dataclass met for the first time
            encode_fields(value, layout)
        else:  # floats and subclasses of str or int; refuses NaN and foreign objects
            emit(json.dumps(value, ensure_ascii=False, allow_nan=False))

    def encode_fields(value, layout) -> None:
        for prefix, name in layout:
            emit(prefix)
            field = getattr(value, name)
            if type(field) is str:
                emit(encode_basestring(field))
            else:
                encode(field)
        emit("}" if layout else "{}")

    encode(obj)
    emit("\n")
    flush()
    return out.getvalue()


def render_report(report: ComplianceReport, fmt: str = FORMAT_JSON) -> bytes:
    """Serialize a report canonically (json) or as an analyst table (text)."""
    if fmt == FORMAT_JSON:
        return canonical_json(report)
    if fmt == FORMAT_TEXT:
        return _encode_lines(_report_text_lines(report))
    raise ScanError(f"unknown report format: {fmt!r}")


def _encode_lines(lines: Iterable[str]) -> bytes:
    """The UTF-8 of `lines`, each ended by LF, encoded _BLOCK_CHUNKS lines at a
    time into one buffer, so the text never exists as one str beside its bytes."""
    out = io.BytesIO()
    lines = iter(lines)
    while block := list(islice(lines, _BLOCK_CHUNKS)):
        out.write(("\n".join(block) + "\n").encode("utf-8"))
    return out.getvalue()


def _report_text_lines(report: ComplianceReport) -> Iterator[str]:
    yield "PHI COMPLIANCE SCAN REPORT"
    yield (f"scan id: {report.scan_id}    tool: phiscan {report.tool_version}    "
           f"schema: {report.schema_version}")
    yield f"evidence: {report.evidence_origin}    generated: {report.generated_at}"
    yield (f"files hashed: {len(report.file_digests)} (sha-256)    "
           f"redaction: {'on' if report.redacted else 'off'}")

    yield ""
    yield "HIPAA PHI RECOVERY MATRIX"
    label_width = max(len(label) for label in CATEGORY_LABELS.values())
    header = "PHI category".ljust(label_width) + "".join(" | " + row.app_name
                                                         for row in report.matrix)
    yield header
    yield "-" * len(header)
    for cat in PHI_CATEGORIES:
        yield CATEGORY_LABELS[cat].ljust(label_width) + "".join(
            " | " + ("✓" if row.cells[cat] == CELL_RECOVERED else "X").center(len(row.app_name))
            for row in report.matrix)
    yield MATRIX_KEY_LINE

    yield ""
    yield "SECURITY RULE EVALUATION"
    if any(report.violations.values()):
        for app in sorted(report.violations):
            for violation in report.violations[app]:
                yield f"[{app}] {violation.kind}: {violation.description}"
                for loc in violation.evidence:
                    yield f"    evidence: {loc.relative_path} ({loc.detail})"
    else:
        yield "no violations recorded"

    if report.database_statuses:
        yield ""
        yield "DATABASE CLASSIFICATION"
        for app in sorted(report.database_statuses):
            for status in report.database_statuses[app]:
                yield (f"[{app}] {status.relative_path}: {status.status} "
                       f"(entropy {status.entropy_bits_per_byte:.2f} bits/byte)")

    yield ""
    yield f"FINDINGS ({len(report.findings)})"
    for f in report.findings:
        yield (f"{f.locator.package_name} {f.locator.relative_path} "
               f"[{f.locator.detail}] {f.category} ({f.rule_id}): {f.value_excerpt}")

    if report.warnings:
        yield ""
        yield f"WARNINGS ({len(report.warnings)})"
        yield from (f"- {w}" for w in report.warnings)


def render_timeline(events: list[TimelineEvent], fmt: str = FORMAT_JSON) -> bytes:
    if fmt == FORMAT_JSON:
        return canonical_json(events)
    if fmt == FORMAT_TEXT:
        return _encode_lines([f"{e.at.utc}  {e.app}  {e.summary}  "
                              f"({e.locator.relative_path} {e.locator.detail})"
                              for e in events])
    raise ScanError(f"unknown timeline format: {fmt!r}")
