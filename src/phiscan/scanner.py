"""Full scan pipeline: open, walk the listing once (parse, sweep or hash), classify, report."""

from __future__ import annotations

import hashlib
import itertools
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __version__
from .artifacts import ArtifactRecord
from .errors import UnreadableFileError
from .evidence import (
    EvidenceSource,
    enumerate_app_roots,
    evidence_label,
    hash_file,
    open_source,
    read_file,
)
from .parsers import PARSERS, AppParser, ParseResult
from .phi import classify_record, evaluate_privacy_rule, evaluate_security_rule, scan_raw
from .report import ComplianceReport, finding_sort_key


@dataclass(frozen=True)
class ScanResult:
    source: EvidenceSource
    roots: dict[str, AppParser | None]
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


def _read_each(source: EvidenceSource, paths: list[str], digests: list, warnings: list[str]):
    """(path, bytes) for each path, read and hashed when asked for; unreadable is a warning."""
    for rel in paths:
        try:
            data = read_file(source, rel)
        except UnreadableFileError as exc:
            warnings.append(str(exc))
            continue
        digests.append(hash_file(rel, data))
        yield rel, data


def scan_evidence(path, *, fixed_clock: str | None = None, redact: bool = True,
                  code_map: dict[int, str] | None = None) -> ScanResult:
    """Run the whole pipeline over one evidence container.

    One sorted pass over the listing gives each file one fate: parsed if
    the parser bound to its app folder (parsers.PARSERS) claims it, else
    swept for raw patterns; a top-level plain file is custody-only. A
    claimed file the parser hands back (ParseResult.sweep) is swept too.
    Each file is read once, in that order per folder and custody-only
    last, and hashed from the bytes read; an unreadable file is one
    warning instead. Parsed records are classified; a sweep gives findings
    and no records. Each top-level folder that is bound or has a finding is
    one outcome and one matrix row, in (app, folder) order: a folder named
    like an app gets a row of its own under that label, never a share of
    the app's.

    fixed_clock pins generated_at for reproducible output; without it the
    scan wall clock is used and excluded from report comparisons.
    """
    with open_source(path) as source:
        generated_at = fixed_clock or utc_now()
        roots = enumerate_app_roots(source, PARSERS)
        claimed, swept, custody = defaultdict(list), defaultdict(list), []
        for rel in sorted(source.root_listing):
            folder, sep, _ = rel.partition("/")
            if not sep:
                custody.append(rel)
            elif roots[folder] is not None and roots[folder].claims(rel):
                claimed[folder].append(rel)
            else:
                swept[folder].append(rel)

        outcomes = []  # (app, folder, ParseResult, findings)
        digests = []
        warnings = [f"skipped container entry: {e}" for e in source.skipped_entries]

        for folder, parser in roots.items():
            result, found = ParseResult(), []
            if parser is not None:
                files = _read_each(source, claimed[folder], digests, warnings)
                result = parser.parse(files, code_map=code_map)
                for _ in files:  # hash the claimed files the parser did not pull
                    pass
                found.extend(f for r in result.records for f in classify_record(r, redact=redact))
                warnings.extend(result.warnings)
            for rel, data in itertools.chain(
                    result.sweep, _read_each(source, swept[folder], digests, warnings)):
                found.extend(scan_raw(data, folder, rel, redact=redact))
            if parser is not None or found:
                outcomes.append((parser.display_name if parser else folder, folder, result, found))
        for _ in _read_each(source, custody, digests, warnings):
            pass
        digests.sort(key=lambda d: d.relative_path)

    # one matrix row per outcome, by app and then folder: two folders can share a label
    matrix, violations, statuses, findings, records = [], {}, {}, [], []
    for app, _, result, found in sorted(outcomes, key=lambda outcome: outcome[:2]):
        matrix.append(evaluate_privacy_rule(app, found))
        # violations and statuses come from a bound parser only: no two outcomes share a key
        if broken := evaluate_security_rule(app, result.records, found, result.db_statuses,
                                            redact=redact):
            violations[app] = tuple(broken)
        if result.db_statuses:
            statuses[app] = result.db_statuses
        findings += found
        records += result.records
    findings.sort(key=finding_sort_key)

    origin = evidence_label(source)
    report = ComplianceReport(
        scan_id=_scan_id(origin, generated_at, digests),
        tool_version=__version__,
        evidence_origin=origin,
        generated_at=generated_at,
        redacted=redact,
        file_digests=tuple(digests),
        matrix=tuple(matrix),
        findings=tuple(findings),
        violations=violations,
        database_statuses=statuses,
        warnings=tuple(warnings),
    )
    return ScanResult(source=source, roots=roots, records=tuple(records), report=report)
