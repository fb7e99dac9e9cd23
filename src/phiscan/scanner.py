"""Full scan pipeline: open, enumerate, parse, classify, evaluate, assemble."""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .artifacts import ArtifactRecord, CONTAINER_RAW, SourceLocator
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
from .parsers import AppParser, default_registry
from .phi import (
    PhiFinding,
    classify_record,
    evaluate_privacy_rule,
    evaluate_security_rule,
    redact_value,
    scan_raw,
)
from .report import ComplianceReport, finding_sort_key


@dataclass(frozen=True)
class ScanResult:
    source: EvidenceSource
    roots: tuple[AppDataRoot, ...]
    records: tuple[ArtifactRecord, ...]
    report: ComplianceReport
    records_by_app: dict = field(default_factory=dict)


def utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _scan_id(origin: str, generated_at: str, digests) -> str:
    h = hashlib.sha256()
    h.update(origin.encode("utf-8"))
    h.update(generated_at.encode("utf-8"))
    for d in digests:
        h.update(d.hex_digest.encode("ascii"))
    return h.hexdigest()[:16]


def scan_evidence(path, *, fixed_clock: str | None = None, redact: bool = True,
                  code_map: dict[int, str] | None = None,
                  registry: tuple[AppParser, ...] | None = None) -> ScanResult:
    """Run the whole pipeline over one evidence container.

    fixed_clock pins generated_at/recovered_at for reproducible output;
    without it the scan wall clock is used and excluded from report
    comparisons.
    """
    if registry is None:
        registry = default_registry()
    with open_source(path) as source:
        generated_at = fixed_clock or utc_now()
        roots = enumerate_app_roots(source, registry)
        by_id = {p.parser_id: p for p in registry}

        records_by_app: dict[str, list[ArtifactRecord]] = {}
        statuses_by_app: dict[str, list] = {}
        warnings: list[str] = []
        warnings.extend(f"skipped container entry: {e}" for e in source.skipped_entries)
        matched_apps: list[str] = []

        for root in roots:
            parser = by_id.get(root.matched_parser) if root.matched_parser else None
            consumed: frozenset[str] = frozenset()
            if parser is not None:
                app = parser.display_name
                matched_apps.append(app)
                result = parser.parse(root, source, recovered_at=generated_at,
                                      code_map=code_map)
                records_by_app.setdefault(app, []).extend(result.records)
                warnings.extend(result.warnings)
                if result.db_statuses:
                    statuses_by_app.setdefault(app, []).extend(result.db_statuses)
                consumed = result.consumed
            else:
                app = root.package_name
            # generic sweep over whatever no structured parser consumed
            for rel in files_under(source, root):
                if rel in consumed:
                    continue
                base = SourceLocator(package_name=root.package_name, relative_path=rel,
                                     container=CONTAINER_RAW, detail="sweep")
                hits = scan_raw(read_file(source, rel), base)
                if hits:
                    records_by_app.setdefault(app, []).extend(
                        dataclasses.replace(h, recovered_at=generated_at) for h in hits)
        # files neither parsed nor swept are read here, once, for custody
        digests = tuple(hash_file(source, rel) for rel in sorted(source.root_listing))

    findings_by_app: dict[str, list[PhiFinding]] = {}
    for app, records in records_by_app.items():
        findings_by_app[app] = [f for r in records for f in classify_record(r)]

    matrix_apps = sorted(set(matched_apps) | {a for a, fs in findings_by_app.items() if fs})
    matrix = tuple(evaluate_privacy_rule(app, findings_by_app.get(app, []))
                   for app in matrix_apps)

    violations = {}
    for app in matrix_apps:
        found = evaluate_security_rule(app, records_by_app.get(app, []),
                                       findings_by_app.get(app, []),
                                       statuses_by_app.get(app, []), redact=redact)
        if found:
            violations[app] = tuple(found)

    findings = [f for app in sorted(findings_by_app) for f in findings_by_app[app]]
    if redact:
        findings = [dataclasses.replace(f, value_excerpt=redact_value(f.value_excerpt))
                    for f in findings]
    findings.sort(key=finding_sort_key)

    origin = evidence_label(source)
    report = ComplianceReport(
        scan_id=_scan_id(origin, generated_at, digests),
        tool_version=__version__,
        evidence_origin=origin,
        generated_at=generated_at,
        redacted=redact,
        file_digests=digests,
        matrix=matrix,
        findings=tuple(findings),
        violations=violations,
        database_statuses={app: tuple(sorted(ss, key=lambda s: s.relative_path))
                           for app, ss in sorted(statuses_by_app.items())},
        warnings=tuple(warnings),
    )
    all_records = tuple(r for app in sorted(records_by_app) for r in records_by_app[app])
    return ScanResult(source=source, roots=tuple(roots), records=all_records,
                      report=report, records_by_app=records_by_app)


def load_code_map_file(path) -> dict[int, str]:
    from .parsers.healthmate import load_code_map

    return load_code_map(Path(path).read_text(encoding="utf-8"))
