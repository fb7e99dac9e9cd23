"""Open SQLite databases from raw recovered bytes.

Forensic input is a byte string, not a live database file: the main file
is read as extracted, with no WAL/journal sidecars. A private copy of the
bytes is deserialized into an in-memory database marked query-only, so a
scan can never mutate evidence, look for sidecar files that were not
extracted, or leave a copy of the data on disk.
"""

from __future__ import annotations

import contextlib
import functools
import re
import sqlite3

from .errors import CorruptDatabaseError, NotSqliteError

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


class EvidenceConnection(sqlite3.Connection):
    @functools.cached_property
    def computed(self) -> dict[tuple[bytes, bytes | None], str]:
        """What the schema computes rather than the file stores, by lower-cased name.

        Views and virtual tables have no root page and are keyed (name, None);
        VIRTUAL generated columns (table_xinfo hidden = 2; a STORED one is 3
        and is read) are keyed (table, column). Names stay bytes, ASCII-folded.
        """
        return {(t.lower(), c and c.lower()): what for t, c, what in self.execute(
            "SELECT CAST(name AS BLOB), NULL, iif(type = 'view', 'a view', 'a virtual table')"
            " FROM sqlite_master WHERE type IN ('table', 'view') AND NOT ifnull(rootpage, 0)"
            " UNION ALL SELECT CAST(m.name AS BLOB), CAST(x.name AS BLOB), 'generated'"
            " FROM sqlite_master AS m, pragma_table_xinfo(m.name) AS x"
            " WHERE m.type = 'table' AND m.rootpage AND x.hidden = 2")}


@contextlib.contextmanager
def connect_bytes(data: bytes):
    """Context manager yielding a read-only connection over database bytes.

    Raises NotSqliteError when the header magic is absent, which for a
    recovered medical-app database usually signals encryption. Its text,
    like every error text of this module, is a warning without the path.
    """
    if not is_sqlite(data):
        raise NotSqliteError("not a SQLite database (possibly encrypted)")
    if data[18:20] == _WAL_VERSIONS:
        data = data[:18] + _JOURNAL_VERSIONS + data[20:]
    conn = sqlite3.connect(":memory:", factory=EvidenceConnection)
    try:
        conn.deserialize(data)  # SQLite takes its own copy of the bytes
        conn.execute("PRAGMA query_only=ON")
        conn.execute("PRAGMA trusted_schema=OFF")
        yield conn
    finally:
        conn.close()


def select_rows(conn: EvidenceConnection, table: str, columns: list[str],
                order_by: str) -> tuple[list[tuple], str | None]:
    """Rows of the named columns (rowid first), and a note for a refused table or lossy text.

    A table or column that is absent, or computed rather than stored, gives
    no rows and a note naming it. A text cell that is not valid UTF-8 has
    the table selected again with the bad bytes replaced; the note names the
    table and the column, never the cell's text. Only a whole-file failure
    raises: CorruptDatabaseError when SQLite finds the file damaged (a
    damaged schema can make SQLite's error message itself undecodable).
    """
    sql = f'SELECT rowid, {", ".join(columns)} FROM "{table}" ORDER BY {order_by}'
    key = table.lower().encode()
    try:
        if what := conn.computed.get((key, None)):
            return [], f"{table}: {what}, not a stored table"
        if generated := [c for c in columns if (key, c.lower().encode()) in conn.computed]:
            return [], f"{table}: column {generated[0]} is generated, not stored"
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
        return [], f"{table}: {exc}"
    except (sqlite3.DatabaseError, UnicodeDecodeError) as exc:
        raise CorruptDatabaseError(
            f"corrupt SQLite database, not parsed ({table}: {exc})") from exc
    return rows, (f"{table}: column {undecodable[1]} holds text that is not valid UTF-8, "
                  "undecodable bytes replaced")
