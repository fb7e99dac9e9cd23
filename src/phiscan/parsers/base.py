"""Parser plugin base: one app's claim on the files under its data folder.

The scanner binds a parser to the top-level folder named by its `folder`
when the parser claims a listed file under it (detect may override that),
reads each file the parser claims exactly once and hands the parser those
bytes; it sweeps every other file for raw patterns, and each claimed file
the parser hands back. parse returns a ParseResult, most often parse_each's.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ..artifacts import ArtifactRecord
from ..errors import ScanError
from ..evidence import EvidenceSource, files_under


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Everything one parser recovered from one app root.

    `sweep` holds the claimed files the parser hands back to the scanner's
    raw sweep, as (path, bytes) pairs: a file whose parse failed as a
    whole, or one it has no schema for (a plaintext Gluco-Smart database).
    """

    records: tuple[ArtifactRecord, ...] = ()
    warnings: tuple[str, ...] = ()
    db_statuses: tuple = ()
    sweep: tuple[tuple[str, bytes], ...] = ()


class AppParser:
    """One app's artifact parser.

    Subclasses set the identity fields and implement claims/parse, and may
    override detect. detect and claims must be cheap and side-effect free;
    parse never raises for partial or damaged artifacts, it degrades into
    warnings.
    """

    parser_id: str = ""
    display_name: str = ""
    folder: str = ""
    signature: str = ""  # human-readable artifact requirement, for list-parsers

    def detect(self, source: EvidenceSource) -> bool:
        """Whether `folder` holds this app's artifacts: it claims a listed file under it."""
        return any(map(self.claims, files_under(source, self.folder)))

    def claims(self, path: str) -> bool:
        """Whether parse reads the file at `path`, a listed path under `folder`."""
        raise NotImplementedError

    def parse(self, files: Iterable[tuple[str, bytes]], *, code_map=None) -> ParseResult:
        """Records from the readable claimed files, as (path, bytes) pairs in path order.

        A file whose parse fails as a whole (not SQLite, corrupt, XML that
        is not well-formed or lacks the keys the parser reads) costs one
        warning and is handed back in ParseResult.sweep, so it is swept:
        parse_each does both, file by file, and returns the result.
        """
        raise NotImplementedError


def parse_each(files: Iterable[tuple[str, bytes]], reader: Callable) -> ParseResult:
    """The records and warnings of `reader(path)(data, relative_path=path)` for each file.

    A per-file reader returns (records, warnings) for one file, and no
    warning of its names the file: each comes back as `<path>: <warning>`.
    If the reader raises ScanError, the file costs the one warning
    `<path>: <error>` and is handed back in `sweep`, so it is swept, and no
    record comes back.
    """
    records, warnings, sweep = [], [], []
    for path, data in files:
        try:
            file_records, file_warnings = reader(path)(data, relative_path=path)
        except ScanError as exc:
            warnings.append(f"{path}: {exc}")
            sweep.append((path, data))
            continue
        records += file_records
        warnings += (f"{path}: {warning}" for warning in file_warnings)
    return ParseResult(records=tuple(records), warnings=tuple(warnings), sweep=tuple(sweep))
