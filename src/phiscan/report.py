"""Compliance report assembly, canonical serialization, and the timeline.

JSON output is canonical: UTF-8, LF, sorted keys, compact separators,
shortest round-trip float formatting. Reports, timelines and fixture
manifests are encoded straight from their dataclasses: an instance becomes
an object of its fields, so the JSON keys are the field names, and adding
a field adds a key (which needs a schema_version bump). Re-encoding the
parse of a rendered document reproduces it byte for byte, which is what
makes golden-file and container-equivalence testing meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass

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


@dataclass(frozen=True)
class TimelineEvent:
    at: EpochInstant
    app: str
    kind: str
    summary: str
    locator: SourceLocator


@dataclass(frozen=True)
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
        events.append(TimelineEvent(
            at=instant,
            app=display_name_for(record.locator.package_name),
            kind=record.kind,
            summary=summary,
            locator=record.locator,
        ))
    events.sort(key=lambda e: (e.at.epoch_seconds(), e.app, e.locator.package_name,
                               e.locator.relative_path, e.locator.detail,
                               e.kind, e.summary))
    return events


# -- serialization -----------------------------------------------------------

def _encode(obj) -> dict:
    # json.dumps calls this for any object it cannot encode itself. vars() is
    # the fastest encoding; on CPython 3.11 it materializes the instance's
    # __dict__, which costs memory and slows later attribute reads.
    if is_dataclass(obj):
        return vars(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"), allow_nan=False, default=_encode)
    return text.encode("utf-8") + b"\n"


def render_report(report: ComplianceReport, fmt: str = FORMAT_JSON) -> bytes:
    """Serialize a report canonically (json) or as an analyst table (text)."""
    if fmt == FORMAT_JSON:
        return canonical_json(report)
    if fmt == FORMAT_TEXT:
        return _render_report_text(report).encode("utf-8")
    raise ScanError(f"unknown report format: {fmt!r}")


def _render_report_text(report: ComplianceReport) -> str:
    lines = []
    lines.append("PHI COMPLIANCE SCAN REPORT")
    lines.append(f"scan id: {report.scan_id}    tool: phiscan {report.tool_version}    "
                 f"schema: {report.schema_version}")
    lines.append(f"evidence: {report.evidence_origin}    generated: {report.generated_at}")
    lines.append(f"files hashed: {len(report.file_digests)} (sha-256)    "
                 f"redaction: {'on' if report.redacted else 'off'}")
    lines.append("")

    lines.append("HIPAA PHI RECOVERY MATRIX")
    apps = [row.app_name for row in report.matrix]
    label_width = max((len(label) for label in CATEGORY_LABELS.values()), default=0)
    header = "PHI category".ljust(label_width)
    for app in apps:
        header += " | " + app
    lines.append(header)
    lines.append("-" * len(header))
    by_app = {row.app_name: row for row in report.matrix}
    for cat in PHI_CATEGORIES:
        line = CATEGORY_LABELS[cat].ljust(label_width)
        for app in apps:
            mark = "✓" if by_app[app].cells[cat] == CELL_RECOVERED else "X"
            line += " | " + mark.center(len(app))
        lines.append(line)
    lines.append(MATRIX_KEY_LINE)
    lines.append("")

    lines.append("SECURITY RULE EVALUATION")
    if any(report.violations.values()):
        for app in sorted(report.violations):
            for violation in report.violations[app]:
                lines.append(f"[{app}] {violation.kind}: {violation.description}")
                for loc in violation.evidence:
                    lines.append(f"    evidence: {loc.relative_path} ({loc.detail})")
    else:
        lines.append("no violations recorded")
    lines.append("")

    if report.database_statuses:
        lines.append("DATABASE CLASSIFICATION")
        for app in sorted(report.database_statuses):
            for status in report.database_statuses[app]:
                lines.append(f"[{app}] {status.relative_path}: {status.status} "
                             f"(entropy {status.entropy_bits_per_byte:.2f} bits/byte)")
        lines.append("")

    lines.append(f"FINDINGS ({len(report.findings)})")
    for f in report.findings:
        lines.append(f"{f.locator.package_name} {f.locator.relative_path} "
                     f"[{f.locator.detail}] {f.category} ({f.rule_id}): {f.value_excerpt}")
    lines.append("")

    if report.warnings:
        lines.append(f"WARNINGS ({len(report.warnings)})")
        lines.extend(f"- {w}" for w in report.warnings)
        lines.append("")

    return "\n".join(lines)


def render_timeline(events: list[TimelineEvent], fmt: str = FORMAT_JSON) -> bytes:
    if fmt == FORMAT_JSON:
        return canonical_json(events)
    if fmt == FORMAT_TEXT:
        lines = [f"{e.at.utc}  {e.app}  {e.summary}  "
                 f"({e.locator.relative_path} {e.locator.detail})" for e in events]
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
    raise ScanError(f"unknown timeline format: {fmt!r}")
