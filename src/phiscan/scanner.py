"""Full scan pipeline: open, enumerate, parse, classify, evaluate, assemble."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .artifacts import ArtifactRecord
from .errors import UnreadableFileError
from .evidence import (
    AppDataRoot,
    EvidenceSource,
    enumerate_app_roots,
    evidence_label,
    files_under,
    hash_file,
    open_source,
    read_file,
)
from .parsers import PARSERS
from .phi import (
    PhiFinding,
    classify_record,
    evaluate_privacy_rule,
    evaluate_security_rule,
    scan_raw,
)
from .report import ComplianceReport, finding_sort_key


@dataclass(frozen=True)
class ScanResult:
    source: EvidenceSource
    roots: tuple[AppDataRoot, ...]
    records: tuple[ArtifactRecord, ...]
    report: ComplianceReport


def utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _scan_id(origin: str, generated_at: str, digests) -> str:
    h = hashlib.sha256()
    h.update(origin.encode("utf-8"))
    h.update(generated_at.encode("utf-8"))
    for d in digests:
        h.update(d.hex_digest.encode("ascii"))
    return h.hexdigest()[:16]


def _read_each(source: EvidenceSource, paths: list[str], warnings: list[str]):
    """(path, bytes) for each path, read when asked for; an unreadable file is a warning."""
    for rel in paths:
        try:
            yield rel, read_file(source, rel)
        except UnreadableFileError as exc:
            warnings.append(str(exc))


def scan_evidence(path, *, fixed_clock: str | None = None, redact: bool = True,
                  code_map: dict[int, str] | None = None) -> ScanResult:
    """Run the whole pipeline over one evidence container.

    Each app folder is bound to its parser in parsers.PARSERS. Every listed
    file under a folder is read exactly once: the files its parser claims
    are handed to the parser as bytes, in path order, and every other file
    is swept for raw patterns. An unreadable file is one warning and is
    neither parsed nor swept.

    fixed_clock pins generated_at for reproducible output; without it the
    scan wall clock is used and excluded from report comparisons.
    """
    with open_source(path) as source:
        generated_at = fixed_clock or utc_now()
        roots = enumerate_app_roots(source, PARSERS)

        app_records: dict[str, list[ArtifactRecord]] = {}
        statuses_by_app: dict[str, list] = {}
        warnings: list[str] = []
        warnings.extend(f"skipped container entry: {e}" for e in source.skipped_entries)

        for root in roots:
            parser = root.parser
            paths = files_under(source, root.package_name)
            app, swept = root.package_name, paths
            if parser is not None:
                app = parser.display_name
                claimed = [rel for rel in paths if parser.claims(rel)]
                swept = [rel for rel in paths if not parser.claims(rel)]
                result = parser.parse(_read_each(source, claimed, warnings), code_map=code_map)
                app_records.setdefault(app, []).extend(result.records)
                warnings.extend(result.warnings)
                if result.db_statuses:
                    statuses_by_app.setdefault(app, []).extend(result.db_statuses)
            for rel, data in _read_each(source, swept, warnings):
                hits = scan_raw(data, root.package_name, rel)
                if hits:
                    app_records.setdefault(app, []).extend(hits)
        # files neither parsed nor swept are read here, once, for custody;
        # a file whose read failed has its warning and no digest
        digests = []
        for rel in sorted(source.root_listing):
            if rel in source.unreadable:
                continue
            try:
                digests.append(hash_file(source, rel))
            except UnreadableFileError as exc:
                warnings.append(str(exc))

    findings_by_app: dict[str, list[PhiFinding]] = {}
    for app, records in app_records.items():
        findings_by_app[app] = [f for r in records for f in classify_record(r, redact=redact)]

    matrix_apps = sorted({r.parser.display_name for r in roots if r.parser is not None}
                         | {a for a, fs in findings_by_app.items() if fs})
    matrix = tuple(evaluate_privacy_rule(app, findings_by_app.get(app, []))
                   for app in matrix_apps)

    violations = {}
    for app in matrix_apps:
        found = evaluate_security_rule(app, app_records.get(app, []),
                                       findings_by_app.get(app, []),
                                       statuses_by_app.get(app, []), redact=redact)
        if found:
            violations[app] = tuple(found)

    findings = [f for app in sorted(findings_by_app) for f in findings_by_app[app]]
    findings.sort(key=finding_sort_key)

    origin = evidence_label(source)
    report = ComplianceReport(
        scan_id=_scan_id(origin, generated_at, digests),
        tool_version=__version__,
        evidence_origin=origin,
        generated_at=generated_at,
        redacted=redact,
        file_digests=tuple(digests),
        matrix=matrix,
        findings=tuple(findings),
        violations=violations,
        database_statuses={app: tuple(sorted(ss, key=lambda s: s.relative_path))
                           for app, ss in sorted(statuses_by_app.items())},
        warnings=tuple(warnings),
    )
    all_records = tuple(r for app in sorted(app_records) for r in app_records[app])
    return ScanResult(source=source, roots=tuple(roots), records=all_records, report=report)


def load_code_map_file(path) -> dict[int, str]:
    from .parsers.healthmate import load_code_map

    return load_code_map(Path(path).read_text(encoding="utf-8"))
