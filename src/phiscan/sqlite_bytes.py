"""Open SQLite databases from raw recovered bytes.

Forensic input is a byte string, not a live database file: the main file
is read as extracted, with no WAL/journal sidecars. A private copy of the
bytes is deserialized into an in-memory database marked query-only, so a
scan can never mutate evidence, look for sidecar files that were not
extracted, or leave a copy of the data on disk.
"""

from __future__ import annotations

import contextlib
import re
import sqlite3

from .errors import CorruptDatabaseError, MissingTableError, NotSqliteError

SQLITE_MAGIC = b"SQLite format 3\x00"

# Header bytes 18-19 are the file-format write/read versions: 1 is rollback
# journal, 2 is WAL. An in-memory database cannot open in WAL mode, and no
# WAL sidecar was extracted, so the copy is marked as a rollback-journal one.
_WAL_VERSIONS = b"\x02\x02"
_JOURNAL_VERSIONS = b"\x01\x01"

# The sqlite3 module's error for a text cell that is not valid UTF-8.
_UNDECODABLE_RE = re.compile(r"Could not decode to UTF-8 column '(.*?)' with text")


def is_sqlite(data: bytes) -> bool:
    """True iff the bytes start with the 16-byte SQLite-3 header magic."""
    return data[:16] == SQLITE_MAGIC


@contextlib.contextmanager
def connect_bytes(data: bytes):
    """Context manager yielding a read-only connection over database bytes.

    Raises NotSqliteError when the header magic is absent, which for a
    recovered medical-app database usually signals encryption.
    """
    if not is_sqlite(data):
        raise NotSqliteError("missing SQLite-3 header magic (database may be encrypted)")
    if data[18:20] == _WAL_VERSIONS:
        data = data[:18] + _JOURNAL_VERSIONS + data[20:]
    conn = sqlite3.connect(":memory:")
    try:
        conn.deserialize(data)  # SQLite takes its own copy of the bytes
        conn.execute("PRAGMA query_only=ON")
        yield conn
    finally:
        conn.close()


def select_rows(conn: sqlite3.Connection, table: str, columns: list[str],
                order_by: str = "rowid") -> tuple[list[tuple], str | None]:
    """SELECT the named columns (rowid prepended), and a note if text was lossy.

    A text cell that is not valid UTF-8 has the table selected again with
    the bad bytes replaced; the note names the table and the column, never
    the cell's text. Raises MissingTableError when the table or a column is
    absent, and CorruptDatabaseError when SQLite finds the file damaged (a
    damaged schema can make SQLite's error message itself undecodable).
    """
    sql = f'SELECT rowid, {", ".join(columns)} FROM "{table}" ORDER BY {order_by}'
    try:
        try:
            return list(conn.execute(sql)), None
        except sqlite3.OperationalError as exc:
            if not (undecodable := _UNDECODABLE_RE.match(str(exc))):
                raise
        conn.text_factory = lambda data: data.decode("utf-8", "replace")
        try:
            rows = list(conn.execute(sql))
        finally:
            conn.text_factory = str
    except sqlite3.OperationalError as exc:
        raise MissingTableError(f"{table}: {exc}") from exc
    except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
        raise CorruptDatabaseError(f"{table}: {exc}") from exc
    return rows, (f"{table}: column {undecodable[1]} holds text that is not valid UTF-8, "
                  "undecodable bytes replaced")
