"""Declared SQLite tables and the one loop that turns their rows into records.

A converter takes (cell, column name) and returns a payload field's value,
or raises MalformedRowError naming the column.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import call, itemgetter
from typing import Callable

from ..artifacts import (
    ArtifactRecord,
    CONTAINER_SQLITE,
    EpochInstant,
    SourceLocator,
    looks_like_email,
    make_locator,
    normalize_timestamp,
)
from ..errors import (
    CorruptDatabaseError,
    MalformedRowError,
    MissingTableError,
    NotSqliteError,
    ScanError,
)
from ..sqlite_bytes import connect_bytes, select_rows


def require_int(value, column: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedRowError(f"{column} is not an integer: {value!r}")
    return value


def require_num(value, column: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedRowError(f"{column} is not numeric: {value!r}")
    return float(value)


def require_instant(value, column: str) -> EpochInstant:
    try:
        return normalize_timestamp(require_int(value, column))
    except ScanError as exc:
        raise MalformedRowError(f"{column}: {exc}") from exc


def text(value, column: str) -> str:
    return "" if value is None else str(value)


def optional_text(value, column: str) -> str | None:
    return None if value is None else str(value)


def email(value, column: str) -> str:
    address = text(value, column)
    if address and not looks_like_email(address):
        raise MalformedRowError(f"bad email {address!r}")
    return address


@dataclass(frozen=True)
class Table:
    """One table of an app database: what to select and what each row becomes.

    row(cells) maps the cells of `columns`, in order, to (record kind,
    payload), or raises MalformedRowError. A row with a null in one of the
    first `required` columns is skipped with the `null_text` warning.
    Locator details name a row by `id_column`, or by rowid when that is null.
    """

    name: str
    columns: tuple[str, ...]
    row: Callable[[list], tuple[str, object]]
    required: int = 0
    order_by: str = "rowid"
    id_column: str = "rowid"
    null_text: str = "null vital columns"


def declare(name: str, kind: str, payload: type, columns: tuple[tuple[str, str, Callable], ...],
            *, required: tuple[str, ...] = (), checks: tuple[tuple[Callable, str], ...] = (),
            **options) -> Table:
    """A Table each of whose rows becomes one `payload` record of `kind`.

    columns are (column, payload field, converter) triples in conversion
    order, so a row's first bad column is the one its warning names.
    `required` names the null-checked columns, which lead `columns`.
    checks are (fails, message) pairs, tried in order once a row has
    converted: a payload for which fails(payload) is true skips the row,
    with message.format(payload) as the reason. options are passed to
    Table: order_by, id_column, null_text.
    """
    names = tuple(column for column, _, _ in columns)
    declared = [field for _, field, _ in columns]
    fields = [f.name for f in dataclasses.fields(payload)]
    if sorted(declared) != sorted(fields) or names[:len(required)] != required:
        raise ValueError(f"{name}: columns {names} do not declare {payload.__name__}")
    converters = tuple(convert for _, _, convert in columns)
    in_field_order = itemgetter(*(declared.index(field) for field in fields))

    def row(cells: list) -> tuple[str, object]:
        values = list(map(call, converters, cells, names))  # convert(cell, column)
        record = payload(*in_field_order(values))
        for fails, message in checks:
            if fails(record):
                raise MalformedRowError(message.format(record))
        return kind, record

    return Table(name, names, row, len(required), **options)


def parse_tables(db: bytes, tables: tuple[Table, ...], *, package: str, relative_path: str,
                 recovered_at: str = "") -> tuple[list[ArtifactRecord], list[str]]:
    """Records and warnings from every table of one database's bytes.

    The bytes are opened once, and every table is selected before any row
    is converted. A missing table or column costs that table a warning,
    and so does text that is not valid UTF-8, which keeps the table's rows
    with the undecodable bytes replaced. Bytes that are not SQLite, or that
    SQLite finds corrupt, cost one warning and yield no records.
    """
    selected = []
    try:
        with connect_bytes(db) as conn:
            for table in tables:
                try:
                    rows, note = select_rows(conn, table.name,
                                             [table.id_column, *table.columns], table.order_by)
                except MissingTableError as exc:
                    rows, note = [], str(exc)
                selected.append((table, rows, note))
    except NotSqliteError:
        return [], [f"{relative_path}: not a SQLite database (possibly encrypted)"]
    except CorruptDatabaseError as exc:
        return [], [f"{relative_path}: corrupt SQLite database, not parsed ({exc})"]

    # Row locators share package, path and container, checked once here; no detail is empty.
    make_locator(package, relative_path, CONTAINER_SQLITE, relative_path)
    records: list[ArtifactRecord] = []
    warnings: list[str] = []
    for table, rows, note in selected:
        if note is not None:
            warnings.append(f"{relative_path}: {note}")
        name, row, required = table.name, table.row, table.required
        for rowid, key, *cells in rows:
            detail = f"{name}:{rowid if key is None else key}"
            if None in cells[:required]:
                warnings.append(f"{detail}: {table.null_text}, row skipped")
                continue
            try:
                kind, payload = row(cells)
            except MalformedRowError as exc:
                warnings.append(f"{detail}: malformed row ({exc}), row skipped")
                continue
            records.append(ArtifactRecord(
                kind=kind,
                payload=payload,
                locator=SourceLocator(package, relative_path, CONTAINER_SQLITE, detail),
                recovered_at=recovered_at,
            ))
    return records, warnings
