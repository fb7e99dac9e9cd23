"""Analyst-facing command line: scan, timeline, fixtures, list-parsers.

stdout carries only the requested report or listing; every diagnostic
goes to stderr so output can be piped. Exit codes: 0 scan completed
clean, 2 scan completed and (non-informational) violations were found,
1 scan error.
"""

from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import ScanError
from .evidence import shown_name
from .fixtures import generate_fixture, load_spec, render_manifest
from .parsers import PARSERS, load_code_map
from .phi import INFORMATIONAL_VIOLATIONS
from .report import (
    FORMAT_JSON,
    FORMAT_TEXT,
    build_timeline,
    canonical_json,
    render_report,
    render_timeline,
)
from .scanner import scan_evidence

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATIONS = 2


def _parse_fixed_clock(value: str) -> str:
    try:
        stamp = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ScanError(f"bad --fixed-clock value {value!r}: {exc}") from exc
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _read_text(path: str, what: str) -> str:
    """The text of the UTF-8 file at `path`, `what` naming it in an error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScanError(f"{what} {shown_name(path)} is not UTF-8: "
                        f"byte {exc.start} cannot be decoded") from exc


def _emit(data: bytes, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_bytes(data)
        print(f"wrote {len(data)} bytes to {shown_name(out_path)}", file=sys.stderr)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


def _add_scan_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("evidence", help="evidence directory or zip archive")
    sub.add_argument("--format", choices=(FORMAT_JSON, FORMAT_TEXT), default=FORMAT_TEXT)
    sub.add_argument("--no-redact", action="store_true",
                     help="emit full PHI values instead of masked excerpts")
    sub.add_argument("--fixed-clock", metavar="ISO",
                     help="pin the scan clock (for reproducible golden output)")
    sub.add_argument("--code-map", metavar="PATH",
                     help="measure type-code map overriding the built-in default")
    sub.add_argument("-o", "--output", metavar="PATH", help="write output here instead of stdout")


def _run_scan_pipeline(args):
    fixed_clock = _parse_fixed_clock(args.fixed_clock) if args.fixed_clock else None
    if args.output and Path(args.output).resolve().is_relative_to(
            Path(args.evidence).resolve()):
        raise ScanError(f"output {shown_name(args.output)} is inside the evidence "
                        f"{shown_name(args.evidence)}, which a scan never writes to")
    code_map = load_code_map(_read_text(args.code_map, "code map")) if args.code_map else None
    result = scan_evidence(args.evidence, fixed_clock=fixed_clock,
                           redact=not args.no_redact, code_map=code_map)
    print(f"scanned {shown_name(args.evidence)}: {len(result.source.root_listing)} file(s), "
          f"{len(result.roots)} app root(s), {len(result.records)} record(s)",
          file=sys.stderr)
    return result


def cmd_scan(args) -> int:
    result = _run_scan_pipeline(args)
    _emit(render_report(result.report, args.format), args.output)
    gating = [v for vs in result.report.violations.values()
              for v in vs if v.kind not in INFORMATIONAL_VIOLATIONS]
    return EXIT_VIOLATIONS if gating else EXIT_OK


def cmd_timeline(args) -> int:
    result = _run_scan_pipeline(args)
    events = build_timeline(list(result.records))
    excluded = len(result.records) - len(events)
    if excluded:
        print(f"{excluded} record(s) without timestamps excluded from timeline",
              file=sys.stderr)
    _emit(render_timeline(events, args.format), args.output)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    spec = load_spec(_read_text(args.spec, "fixture spec"))
    manifest = generate_fixture(spec, Path(args.output))
    manifest_path = Path(str(args.output).rstrip("/") + ".manifest.json")
    manifest_path.write_bytes(render_manifest(manifest))
    print(f"generated {spec.output_kind} fixture at {shown_name(args.output)} "
          f"({len(manifest.files)} file(s)); manifest: {shown_name(manifest_path)}",
          file=sys.stderr)
    return EXIT_OK


def cmd_list_parsers(args) -> int:
    registry = PARSERS.values()
    if args.format == FORMAT_JSON:
        listing = [{"id": p.parser_id, "app": p.display_name, "folder": p.folder,
                    "signature": p.signature} for p in registry]
        _emit(canonical_json(listing), None)
        return EXIT_OK
    id_w = max(len(p.parser_id) for p in registry)
    folder_w = max(len(p.folder) for p in registry)
    app_w = max(len(p.display_name) for p in registry)
    for p in registry:
        print(f"{p.parser_id.ljust(id_w)}  {p.folder.ljust(folder_w)}  "
              f"{p.display_name.ljust(app_w)}  {p.signature}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phiscan",
        description="Scan an extracted Android /data/data tree for residual ePHI "
                    "and evaluate HIPAA Privacy/Security-Rule exposure.")
    parser.add_argument("--version", action="version", version=f"phiscan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="full compliance scan of an evidence tree")
    _add_scan_flags(scan)
    scan.set_defaults(func=cmd_scan)

    timeline = sub.add_parser("timeline", help="unified measurement timeline")
    _add_scan_flags(timeline)
    timeline.set_defaults(func=cmd_timeline)

    fixtures = sub.add_parser("fixtures", help="generate a synthetic evidence tree")
    fixtures.add_argument("spec", help="fixture spec (JSON)")
    fixtures.add_argument("-o", "--output", required=True,
                          help="output directory or zip path")
    fixtures.set_defaults(func=cmd_fixtures)

    listing = sub.add_parser("list-parsers", help="registered artifact parsers")
    listing.add_argument("--format", choices=(FORMAT_JSON, FORMAT_TEXT),
                         default=FORMAT_TEXT)
    listing.set_defaults(func=cmd_list_parsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScanError, OSError) as exc:
        print(f"phiscan: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
