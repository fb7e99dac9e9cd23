"""Compliance report assembly, canonical serialization, and the timeline.

JSON output is canonical: UTF-8, LF, sorted keys, compact separators,
shortest round-trip float formatting. Rendering the parse of a rendered
report reproduces it byte for byte, which is what makes golden-file and
container-equivalence testing meaningful.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .artifacts import ArtifactRecord, EpochInstant, SourceLocator
from .errors import ScanError
from .evidence import FileDigest
from .parsers import display_name_for
from .parsers.glucosmart import DatabaseStatus
from .parsers.healthmate import DeviceRegistration, HealthMateMeasurement
from .phi import (
    CATEGORY_LABELS,
    CELL_RECOVERED,
    MATRIX_KEY_LINE,
    PHI_CATEGORIES,
    PhiFinding,
    PhiMatrixRow,
    SecurityViolation,
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

def _timeline_instant(record: ArtifactRecord) -> EpochInstant | None:
    payload = record.payload
    if isinstance(payload, DeviceRegistration):
        return payload.last_use_date
    instant = getattr(payload, "measured_at", None)
    return instant if isinstance(instant, EpochInstant) else None


def _timeline_summary(record: ArtifactRecord) -> str:
    if isinstance(record.payload, HealthMateMeasurement):
        return f"{record.payload.kind} measurement"
    if isinstance(record.payload, DeviceRegistration):
        return "device last used"
    return f"{record.kind} reading"


def build_timeline(records: list[ArtifactRecord]) -> list[TimelineEvent]:
    """Merge all timestamped records onto one UTC axis, totally ordered.

    Second- and millisecond-scale sources interleave correctly because
    ordering happens on the normalized UTC rendering. Records without a
    timestamp (profiles, credentials, raw hits) are simply absent; the
    caller can count them as len(records) - len(events).
    """
    events = []
    for record in records:
        instant = _timeline_instant(record)
        if instant is None:
            continue
        events.append(TimelineEvent(
            at=instant,
            app=display_name_for(record.locator.package_name),
            kind=record.kind,
            summary=_timeline_summary(record),
            locator=record.locator,
        ))
    events.sort(key=lambda e: (e.at.utc, e.app, e.locator.package_name,
                               e.locator.relative_path, e.locator.detail,
                               e.kind, e.summary))
    return events


# -- serialization -----------------------------------------------------------

def _instant_dict(instant: EpochInstant) -> dict:
    return {"raw_value": instant.raw_value, "unit": instant.unit,
            "utc": instant.utc, "millis_remainder": instant.millis_remainder}


def _locator_dict(loc: SourceLocator) -> dict:
    return {"package_name": loc.package_name, "relative_path": loc.relative_path,
            "container": loc.container, "detail": loc.detail}


def _locator_from(d: dict) -> SourceLocator:
    return SourceLocator(package_name=d["package_name"], relative_path=d["relative_path"],
                         container=d["container"], detail=d["detail"])


def _digest_dict(d: FileDigest) -> dict:
    return {"relative_path": d.relative_path, "algorithm": d.algorithm,
            "hex_digest": d.hex_digest, "byte_length": d.byte_length}


def _digest_from(d: dict) -> FileDigest:
    return FileDigest(relative_path=d["relative_path"], algorithm=d["algorithm"],
                      hex_digest=d["hex_digest"], byte_length=d["byte_length"])


def _finding_dict(f: PhiFinding) -> dict:
    return {"category": f.category, "value_excerpt": f.value_excerpt,
            "locator": _locator_dict(f.locator), "rule_id": f.rule_id}


def _finding_from(d: dict) -> PhiFinding:
    return PhiFinding(category=d["category"], value_excerpt=d["value_excerpt"],
                      locator=_locator_from(d["locator"]), rule_id=d["rule_id"])


def _violation_dict(v: SecurityViolation) -> dict:
    return {"kind": v.kind, "evidence": [_locator_dict(loc) for loc in v.evidence],
            "description": v.description}


def _violation_from(d: dict) -> SecurityViolation:
    return SecurityViolation(kind=d["kind"],
                             evidence=tuple(_locator_from(e) for e in d["evidence"]),
                             description=d["description"])


def _status_dict(s: DatabaseStatus) -> dict:
    return {"relative_path": s.relative_path, "status": s.status,
            "header_magic_present": s.header_magic_present,
            "entropy_bits_per_byte": s.entropy_bits_per_byte}


def _status_from(d: dict) -> DatabaseStatus:
    return DatabaseStatus(relative_path=d["relative_path"], status=d["status"],
                          header_magic_present=d["header_magic_present"],
                          entropy_bits_per_byte=d["entropy_bits_per_byte"])


def report_to_dict(report: ComplianceReport) -> dict:
    return {
        "schema_version": report.schema_version,
        "scan_id": report.scan_id,
        "tool_version": report.tool_version,
        "evidence_origin": report.evidence_origin,
        "generated_at": report.generated_at,
        "redacted": report.redacted,
        "file_digests": [_digest_dict(d) for d in report.file_digests],
        "matrix": [{"app_name": row.app_name, "cells": dict(row.cells)}
                   for row in report.matrix],
        "findings": [_finding_dict(f) for f in report.findings],
        "violations": {app: [_violation_dict(v) for v in vs]
                       for app, vs in report.violations.items()},
        "database_statuses": {app: [_status_dict(s) for s in ss]
                              for app, ss in report.database_statuses.items()},
        "warnings": list(report.warnings),
    }


def report_from_dict(d: dict) -> ComplianceReport:
    return ComplianceReport(
        schema_version=d["schema_version"],
        scan_id=d["scan_id"],
        tool_version=d["tool_version"],
        evidence_origin=d["evidence_origin"],
        generated_at=d["generated_at"],
        redacted=d["redacted"],
        file_digests=tuple(_digest_from(x) for x in d["file_digests"]),
        matrix=tuple(PhiMatrixRow(app_name=row["app_name"],
                                  cells={cat: row["cells"][cat] for cat in PHI_CATEGORIES})
                     for row in d["matrix"]),
        findings=tuple(_finding_from(x) for x in d["findings"]),
        violations={app: tuple(_violation_from(v) for v in vs)
                    for app, vs in d["violations"].items()},
        database_statuses={app: tuple(_status_from(s) for s in ss)
                           for app, ss in d["database_statuses"].items()},
        warnings=tuple(d["warnings"]),
    )


def canonical_json(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"), allow_nan=False)
    return text.encode("utf-8") + b"\n"


def render_report(report: ComplianceReport, fmt: str = FORMAT_JSON) -> bytes:
    """Serialize a report canonically (json) or as an analyst table (text)."""
    if fmt == FORMAT_JSON:
        return canonical_json(report_to_dict(report))
    if fmt == FORMAT_TEXT:
        return _render_report_text(report).encode("utf-8")
    raise ScanError(f"unknown report format: {fmt!r}")


def parse_report(data: bytes) -> ComplianceReport:
    """Inverse of the json rendering; parse(render(r)) == r."""
    return report_from_dict(json.loads(data.decode("utf-8")))


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


def timeline_to_dicts(events: list[TimelineEvent]) -> list[dict]:
    return [{"at": _instant_dict(e.at), "app": e.app, "kind": e.kind,
             "summary": e.summary, "locator": _locator_dict(e.locator)}
            for e in events]


def render_timeline(events: list[TimelineEvent], fmt: str = FORMAT_JSON) -> bytes:
    if fmt == FORMAT_JSON:
        return canonical_json(timeline_to_dicts(events))
    if fmt == FORMAT_TEXT:
        lines = [f"{e.at.utc}  {e.app}  {e.summary}  "
                 f"({e.locator.relative_path} {e.locator.detail})" for e in events]
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
    raise ScanError(f"unknown timeline format: {fmt!r}")
