"""Exception types shared across the scanner."""


class ScanError(Exception):
    """Base class for all scanner errors."""


# -- evidence containers ----------------------------------------------------

class NotFoundError(ScanError):
    """Evidence path or in-container relative path does not exist."""


class UnsupportedContainerError(ScanError):
    """Evidence path is neither a directory nor a zip archive."""


class CorruptArchiveError(ScanError):
    """Zip central directory is unreadable."""


class UnreadableFileError(ScanError):
    """One file's bytes cannot be read (damaged zip member, I/O error)."""


# -- timestamps -------------------------------------------------------------

class NonPositiveTimestampError(ScanError):
    """Raw epoch value must be a positive integer."""


class AmbiguousUnitError(ScanError):
    """Raw epoch value falls in the ambiguous band between seconds and ms."""


# -- artifact parsing -------------------------------------------------------

class NotSqliteError(ScanError):
    """File bytes lack the SQLite-3 header magic (possibly encrypted)."""


class CorruptDatabaseError(ScanError):
    """SQLite reports the database file as malformed or not a database."""


class MalformedRowError(ScanError):
    """Row violates the reading's type or range invariants (tallied, not fatal)."""


class MalformedXmlError(ScanError):
    """Bytes are not a well-formed shared-preferences XML document."""


class NoCredentialKeysError(ScanError):
    """Shared-preferences map holds no recognized credential key suffixes."""


class MissingFieldsError(ScanError):
    """Profile XML lacks required username/device fields."""


# -- fixtures ---------------------------------------------------------------

class InvalidSpecError(ScanError):
    """Fixture spec document is malformed or has impossible counts."""
