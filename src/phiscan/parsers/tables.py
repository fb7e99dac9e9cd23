"""Declared SQLite tables and the one loop that turns their rows into records.

A payload dataclass declares its table's columns on its own fields: each
field is a column(name, converter), in conversion order. A converter takes
(cell, column name) and returns the field's value, or raises
MalformedRowError naming the column.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from operator import call
from typing import Callable

from ..artifacts import (
    ArtifactRecord,
    CONTAINER_SQLITE,
    EpochInstant,
    SourceLocator,
    looks_like_email,
    normalize_timestamp,
)
from ..errors import MalformedRowError, ScanError
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
    epoch = require_int(value, column)
    try:
        return normalize_timestamp(epoch)
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


@dataclass(frozen=True, slots=True)
class Table:
    """One table of an app database: what to select and what each row becomes.

    row(cells) maps the cells of `columns`, in order, to (record kind,
    payload), or raises MalformedRowError, whose text is the reason the
    row is skipped: a null cell is refused, if at all, by its column's
    converter. Locator details name a row by `id_column`, or by rowid when
    that is null.
    """

    name: str
    columns: tuple[str, ...]
    row: Callable[[list], tuple[str, object]]
    order_by: str = "rowid"
    id_column: str = "rowid"


def column(name: str, convert: Callable) -> dataclasses.Field:
    """A payload field filled from column `name` by convert(cell, name)."""
    return dataclasses.field(metadata={"column": (name, convert)})


def declare(name: str, kind: str, payload: type, *,
            checks: tuple[tuple[Callable, str], ...] = (), **options) -> Table:
    """A Table each of whose rows becomes one `payload` record of `kind`.

    Every payload field is a column(...), and the fields' order is the
    conversion order, so a row's first bad column, null or not, is the one
    its warning names. checks are (fails, message) pairs, tried in order
    once a row has converted: a payload for which fails(payload) is true
    skips the row, with message.format(payload) as the reason. options are
    passed to Table: order_by, id_column.
    """
    columns = [f.metadata.get("column") for f in dataclasses.fields(payload)]
    if None in columns:
        raise ValueError(f"{name}: a {payload.__name__} field is not a column(...)")
    names, converters = zip(*columns)

    def row(cells: list) -> tuple[str, object]:
        record = payload(*map(call, converters, cells, names))  # convert(cell, column)
        for fails, message in checks:
            if fails(record):
                raise MalformedRowError(message.format(record))
        return kind, record

    return Table(name, names, row, **options)


def parse_tables(db: bytes, tables: tuple[Table, ...], *, package: str, relative_path: str
                 ) -> tuple[list[ArtifactRecord], list[str]]:
    """Records and warnings from every table of one database's bytes.

    The bytes are opened once, and every table is selected before any row
    is converted. A note from select_rows is one warning for its table: a
    table or column that is missing, or computed rather than stored, gives
    no rows, and text that is not valid UTF-8 keeps the table's rows with
    the undecodable bytes replaced. A row the table refuses costs the warning
    `<table>:<id>: malformed row (<reason>), row skipped`. Only a
    whole-file failure raises: bytes that are not SQLite, or that SQLite
    finds corrupt, raise connect_bytes' NotSqliteError or select_rows'
    CorruptDatabaseError. No warning names the file: parse_each adds its
    path.
    """
    with connect_bytes(db) as conn:
        selected = [(table, *select_rows(conn, table.name, [table.id_column, *table.columns],
                                         table.order_by))
                    for table in tables]

    records: list[ArtifactRecord] = []
    warnings: list[str] = []
    for table, rows, note in selected:
        if note is not None:
            warnings.append(note)
        name, row = table.name, table.row
        for rowid, key, *cells in rows:
            detail = f"{name}:{rowid if key is None else key}"
            try:
                kind, payload = row(cells)
            except MalformedRowError as exc:
                warnings.append(f"{detail}: malformed row ({exc}), row skipped")
                continue
            records.append(ArtifactRecord(
                kind, payload, SourceLocator(package, relative_path, CONTAINER_SQLITE, detail)))
    return records, warnings
