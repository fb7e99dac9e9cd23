"""Read-only evidence containers: extracted /data/data trees as dirs or zips.

Android application data lives under /data/data, one folder per installed
package. This module opens an already-extracted copy of that layout
(plain directory or zip archive), enumerates the per-app roots, and reads
files' stored bytes. Nothing here ever writes to the container, and an
opened source holds no state that a scan changes.

A zip is opened once and stays open, with a name -> member index, until
the source is closed. A stored or deflated member is read straight from
the archive's descriptor, one local header and one data read, each bounded
by where the next member begins; any other member goes through
ZipFile.read after the same header checks. A read that fails raises
UnreadableFileError.
hash_file digests bytes already in hand, so the custody digests describe
exactly the bytes analysed and no file is read a second time to hash it.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import (
    CorruptArchiveError,
    NotFoundError,
    ScanError,
    UnreadableFileError,
    UnsupportedContainerError,
)

if TYPE_CHECKING:
    from .parsers import AppParser

CONTAINER_DIRECTORY = "directory"
CONTAINER_ZIP = "zip-archive"

DIGEST_ALGORITHM = "sha-256"

# What reading one file can raise: zipfile.BadZipFile covers a bad CRC and
# overlapped members, NotImplementedError an unsupported compression method,
# RuntimeError an encrypted member, UnicodeDecodeError a local name flagged
# UTF-8 that is not.
_READ_ERRORS = (OSError, EOFError, NotImplementedError, RuntimeError, UnicodeDecodeError,
                zipfile.BadZipFile, zlib.error)

# A zip local file header: signature, general-purpose flags, and the lengths
# of the name and extra field that follow it (PKWARE APPNOTE 4.3.7).
_LOCAL_HEADER = struct.Struct("<4s2xH18xHH")
_LOCAL_MAGIC = b"PK\x03\x04"
_MAX_LOCAL_HEADER = _LOCAL_HEADER.size + 2 * 0xFFFF
_FLAG_ENCRYPTED = 0x01
_FLAGS_UNSUPPORTED = 0x60  # compressed patched data (bit 5), strong encryption (bit 6)
_FLAG_UTF8_NAME = 0x0800


@dataclass(frozen=True, slots=True)
class FileDigest:
    relative_path: str
    algorithm: str
    hex_digest: str
    byte_length: int


@dataclass(frozen=True)
class EvidenceSource:
    """An opened evidence container; all operations on it are pure reads.

    A zip source holds its archive open: close it, or use the source as a
    context manager. `skipped_entries` names what the listing left out and
    why: symlinks, files that are not regular (FIFOs, devices, sockets),
    names that are not UTF-8, unsafe or duplicate zip names, unreadable
    directories, entries whose type cannot be read.
    """

    origin: str
    container_kind: str
    root_listing: frozenset[str]
    top_level_dirs: tuple[str, ...] = ()
    skipped_entries: tuple[str, ...] = ()
    archive: zipfile.ZipFile | None = field(default=None, compare=False, repr=False)
    # listed name -> (member, the offset its local record must end by)
    members: dict[str, tuple[zipfile.ZipInfo, int]] = field(default_factory=dict,
                                                           compare=False, repr=False)

    def close(self) -> None:
        if self.archive is not None:
            self.archive.close()

    def __enter__(self) -> EvidenceSource:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _safe_relpath(name: str) -> str | None:
    # Normalize an archive entry name; None means the entry is unsafe or
    # meaningless (absolute, parent-escaping, backslashed, empty).
    if "\\" in name or name.startswith("/"):
        return None
    parts = [p for p in name.split("/") if p not in ("", ".")]
    if not parts or any(p == ".." for p in parts):
        return None
    if ":" in parts[0]:  # windows drive prefix smuggled into the archive
        return None
    return "/".join(parts)


def shown_name(name: str | os.PathLike) -> str:
    """An OS name (a listing's or argv's) as a report shows it: non-UTF-8 bytes as \\xNN."""
    return os.fsencode(name).decode("utf-8", "backslashreplace")


def _open_directory(root: str) -> tuple[frozenset[str], tuple[str, ...], tuple[str, ...]]:
    """The listing, top-level folders and skipped entries, in one iterative scandir walk.

    Each entry is judged by its own DirEntry, so no link is followed. A directory
    that cannot be listed, or fails part-way, keeps no entry.
    """
    listing, top_dirs, skipped = [], [], []
    stack = [(root, "")]  # (directory, its listing prefix)
    while stack:
        directory, prefix = stack.pop()
        files, subdirs, skips = [], [], []
        try:
            with os.scandir(directory) as entries:
                for entry in entries:
                    rel = prefix + entry.name
                    try:
                        if (shown := shown_name(rel)) != rel:  # no report could name it
                            skips.append(f"{shown} (name is not UTF-8)")
                        elif entry.is_symlink():  # evidence must never escape its root
                            skips.append(f"{rel} (symlink)")
                        elif entry.is_dir(follow_symlinks=False):
                            subdirs.append((entry.path, rel + "/"))
                        elif entry.is_file(follow_symlinks=False):
                            files.append(rel)
                        else:  # a FIFO or device: reading it could block
                            skips.append(f"{rel} (not a regular file)")
                    except OSError:
                        skips.append(f"{rel} (unreadable entry)")
        except OSError as exc:
            if not prefix:
                raise ScanError(f"{shown_name(root)}: evidence directory cannot be listed "
                                f"({exc.strerror})") from exc
            skipped.append(f"{prefix[:-1]} (unreadable directory)")
            continue
        listing += files
        skipped += skips
        stack += subdirs
        if prefix.count("/") == 1:
            top_dirs.append(prefix[:-1])
    return frozenset(listing), tuple(sorted(top_dirs)), tuple(sorted(skipped))


def _open_zip(path: Path) -> tuple[zipfile.ZipFile, dict[str, tuple[zipfile.ZipInfo, int]],
                                   tuple[str, ...], tuple[str, ...]]:
    try:
        zf = zipfile.ZipFile(path)
    except (zipfile.BadZipFile, NotImplementedError, UnicodeDecodeError) as exc:
        # the last two: a member needing a newer zip version, or a member name
        # flagged UTF-8 that is not
        raise CorruptArchiveError(f"{shown_name(path)}: {exc}") from exc
    # Each entry's local record ends by the next larger header offset, the
    # last by the central directory; equal offsets keep directory order, so
    # the second of two entries sharing one local header ends where it starts
    # (CPython 3.12's end-offset rule, here on every interpreter).
    ends = {}
    end = zf.start_dir
    for info in sorted(zf.infolist(), key=lambda info: info.header_offset, reverse=True):
        ends[info] = end
        end = info.header_offset
    members: dict[str, tuple[zipfile.ZipInfo, int]] = {}
    skipped: list[str] = []
    top_dirs: set[str] = set()
    for info in zf.infolist():
        safe = _safe_relpath(info.filename)
        if safe is None:
            skipped.append(f"{info.filename} (unsafe path)")
            continue
        if info.is_dir():
            top_dirs.add(safe.split("/")[0])
            continue
        if safe in members:  # the first member of a name is the one analysed
            skipped.append(f"{info.filename} (duplicate name)")
            continue
        members[safe] = (info, ends[info])
        if "/" in safe:
            top_dirs.add(safe.split("/")[0])
    # a folder is an app root even beside a plain member of its name: a zip
    # may hold both, and that member is still listed and hashed
    return zf, members, tuple(sorted(top_dirs)), tuple(sorted(skipped))


def open_source(path: str | Path) -> EvidenceSource:
    """Open a directory or zip archive rooted at the extracted /data/data layout."""
    path = Path(path)
    if not path.exists():
        raise NotFoundError(f"evidence path does not exist: {shown_name(path)}")
    if path.is_dir():
        return EvidenceSource(str(path), CONTAINER_DIRECTORY, *_open_directory(str(path)))
    if zipfile.is_zipfile(path):
        archive, members, top_dirs, skipped = _open_zip(path)
        return EvidenceSource(origin=str(path), container_kind=CONTAINER_ZIP,
                              root_listing=frozenset(members), top_level_dirs=top_dirs,
                              skipped_entries=skipped, archive=archive, members=members)
    if path.suffix.lower() == ".zip":
        raise CorruptArchiveError(f"{shown_name(path)}: zip central directory unreadable")
    raise UnsupportedContainerError(f"{shown_name(path)}: neither a directory nor a zip archive")


def evidence_label(source: EvidenceSource) -> str:
    """Container-independent label: basename with any .zip suffix stripped.

    Keeps reports over a directory and a zip of the same content
    byte-identical. The name is shown_name's, as a skipped listing entry's
    is, so the label is valid UTF-8.
    """
    base = os.path.basename(source.origin.rstrip("/"))
    if base.lower().endswith(".zip"):
        base = base[:-4]
    return shown_name(base)


def read_file(source: EvidenceSource, relative_path: str) -> bytes:
    """Return the exact stored bytes of one file.

    Raises UnreadableFileError, naming the path, if the bytes cannot be read.
    """
    if relative_path not in source.root_listing:
        raise NotFoundError(f"not in evidence listing: {relative_path}")
    try:
        if source.container_kind == CONTAINER_DIRECTORY:
            with open(os.path.join(source.origin, relative_path), "rb", buffering=0) as f:
                return f.read()
        return _read_member(source.archive, *source.members[relative_path])
    except _READ_ERRORS as exc:
        # an OSError's text names the absolute path; the report names only the relative one
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise UnreadableFileError(f"{relative_path}: unreadable ({reason})") from exc


def _read_member(archive: zipfile.ZipFile, info: zipfile.ZipInfo, end: int) -> bytes:
    """One member's bytes, as ZipFile.read gives them, or its exception and text.

    The local header is read once, with os.pread on the open descriptor, and
    checked in ZipFile.open's order (magic, the flags it refuses, name); then
    the member's data must end by `end`. A stored or deflated member is read
    with one more pread, inflated and CRC-checked here. Any other member, and
    a deflate stream that does not end within its declared size (cut short,
    damaged, or longer), goes to ZipFile.read, whose reading loop decides.
    """
    if archive.fp is None:
        raise ValueError("Attempt to use ZIP archive that was already closed")
    fd = archive.fp.fileno()
    offset = info.header_offset
    if offset < 0:  # bytes cut before the central directory: no pread may start here
        raise zipfile.BadZipFile(f"Local header of {info.orig_filename!r} lies before "
                                 "the start of the archive")
    # what lies between the member's start and end besides its data: the
    # header, name and extra field, and any data descriptor
    head = os.pread(fd, min(max(end - offset - info.compress_size, _LOCAL_HEADER.size),
                            _MAX_LOCAL_HEADER), offset)
    if len(head) < _LOCAL_HEADER.size:
        raise zipfile.BadZipFile("Truncated file header")
    magic, flags, name_length, extra_length = _LOCAL_HEADER.unpack_from(head)
    if magic != _LOCAL_MAGIC:
        raise zipfile.BadZipFile("Bad magic number for file header")
    if info.flag_bits & _FLAGS_UNSUPPORTED:
        return archive.read(info)  # refused before any name check
    start = _LOCAL_HEADER.size + name_length
    name = head[_LOCAL_HEADER.size:start]
    if len(name) < name_length:  # a header that runs past `end`: it overlaps the next
        name = os.pread(fd, name_length, offset + _LOCAL_HEADER.size)
    if name.decode("utf-8" if flags & _FLAG_UTF8_NAME else "cp437") != info.orig_filename:
        raise zipfile.BadZipFile("File name in directory %r and header %r differ."
                                 % (info.orig_filename, name))
    start += offset + extra_length
    if start + info.compress_size > end:
        raise zipfile.BadZipFile(f"Overlapped entries: {info.orig_filename!r} (possible zip bomb)")
    if (info.flag_bits & _FLAG_ENCRYPTED
            or info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)):
        return archive.read(info)
    data = os.pread(fd, info.compress_size, start)
    if len(data) < info.compress_size:
        return archive.read(info)  # the file ends first: `end` is a bogus offset past it
    if info.compress_type == zipfile.ZIP_DEFLATED:
        inflater = zlib.decompressobj(-15)
        data = inflater.decompress(data, info.file_size + 1)  # a limit of 0 is none
        if not inflater.eof:
            return archive.read(info)
    data = data[:info.file_size]
    if zlib.crc32(data) != info.CRC:
        raise zipfile.BadZipFile("Bad CRC-32 for file %r" % info.filename)
    return data


def hash_file(relative_path: str, data: bytes) -> FileDigest:
    """SHA-256 digest of one file's bytes as read, for chain-of-custody."""
    return FileDigest(relative_path=relative_path, algorithm=DIGEST_ALGORITHM,
                      hex_digest=hashlib.sha256(data).hexdigest(), byte_length=len(data))


def enumerate_app_roots(source: EvidenceSource,
                        parsers: dict[str, AppParser]) -> dict[str, AppParser | None]:
    """Each top-level folder, in name order, mapped to its bound parser or None.

    A folder is bound to parsers[its name] when that parser's detect
    accepts the container.
    """
    roots = {}
    for name in sorted(source.top_level_dirs):
        parser = parsers.get(name)
        roots[name] = parser if parser is not None and parser.detect(source) else None
    return roots


def files_under(source: EvidenceSource, folder: str) -> list[str]:
    """All listed files beneath a top-level folder, sorted."""
    prefix = folder + "/"
    return sorted(p for p in source.root_listing if p.startswith(prefix))
