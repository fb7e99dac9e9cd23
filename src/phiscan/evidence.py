"""Read-only evidence containers: extracted /data/data trees as dirs or zips.

Android application data lives under /data/data, one folder per installed
package. This module opens an already-extracted copy of that layout
(plain directory or zip archive), enumerates the per-app roots, and gives
hashed read access for chain-of-custody. Nothing here ever writes to the
container.

A zip is opened once and stays open, with a name -> member index, until
the source is closed. Every read records the SHA-256 of the bytes it
returns, so the custody digests describe exactly the bytes analysed and
no file is read a second time to hash it.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorruptArchiveError, NotFoundError, UnsupportedContainerError

CONTAINER_DIRECTORY = "directory"
CONTAINER_ZIP = "zip-archive"

DIGEST_ALGORITHM = "sha-256"


@dataclass(frozen=True)
class FileDigest:
    relative_path: str
    algorithm: str
    hex_digest: str
    byte_length: int


@dataclass(frozen=True)
class AppDataRoot:
    """One top-level application folder inside the evidence tree."""

    package_name: str
    relative_path: str
    matched_parser: str | None = None


@dataclass(frozen=True)
class EvidenceSource:
    """An opened evidence container; all operations on it are pure reads.

    A zip source holds its archive open: close it, or use the source as a
    context manager. `digests` fills in as files are read.
    """

    origin: str
    container_kind: str
    root_listing: frozenset[str]
    top_level_dirs: tuple[str, ...] = ()
    skipped_entries: tuple[str, ...] = ()
    archive: zipfile.ZipFile | None = field(default=None, compare=False, repr=False)
    members: dict[str, zipfile.ZipInfo] = field(default_factory=dict, compare=False,
                                                repr=False)
    digests: dict[str, FileDigest] = field(default_factory=dict, compare=False, repr=False)

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


def _open_directory(path: Path) -> tuple[frozenset[str], tuple[str, ...], tuple[str, ...]]:
    listing: set[str] = set()
    skipped: list[str] = []
    top_dirs: set[str] = set()
    for dirpath, dirnames, filenames in os.walk(path, followlinks=False):
        rel_dir = Path(dirpath).relative_to(path)
        if rel_dir != Path("."):
            first = rel_dir.as_posix().split("/")[0]
            top_dirs.add(first)
        # prune symlinked subdirectories: evidence must never escape its root
        pruned = [d for d in dirnames if (Path(dirpath) / d).is_symlink()]
        for d in pruned:
            dirnames.remove(d)
            skipped.append((rel_dir / d).as_posix() + " (symlink)")
        for fn in filenames:
            full = Path(dirpath) / fn
            if full.is_symlink():
                skipped.append((rel_dir / fn).as_posix() + " (symlink)")
                continue
            listing.add((rel_dir / fn).as_posix() if rel_dir != Path(".") else fn)
    return frozenset(listing), tuple(sorted(top_dirs)), tuple(sorted(skipped))


def _open_zip(path: Path) -> tuple[zipfile.ZipFile, dict[str, zipfile.ZipInfo],
                                   tuple[str, ...], tuple[str, ...]]:
    try:
        zf = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise CorruptArchiveError(f"{path}: {exc}") from exc
    members: dict[str, zipfile.ZipInfo] = {}
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
        members[safe] = info
        if "/" in safe:
            top_dirs.add(safe.split("/")[0])
    # a top-level plain file is not an app root
    top_dirs = {d for d in top_dirs if d not in members}
    return zf, members, tuple(sorted(top_dirs)), tuple(sorted(skipped))


def open_source(path: str | Path) -> EvidenceSource:
    """Open a directory or zip archive rooted at the extracted /data/data layout."""
    path = Path(path)
    if not path.exists():
        raise NotFoundError(f"evidence path does not exist: {path}")
    if path.is_dir():
        listing, top_dirs, skipped = _open_directory(path)
        return EvidenceSource(origin=str(path), container_kind=CONTAINER_DIRECTORY,
                              root_listing=listing, top_level_dirs=top_dirs,
                              skipped_entries=skipped)
    if zipfile.is_zipfile(path):
        archive, members, top_dirs, skipped = _open_zip(path)
        return EvidenceSource(origin=str(path), container_kind=CONTAINER_ZIP,
                              root_listing=frozenset(members), top_level_dirs=top_dirs,
                              skipped_entries=skipped, archive=archive, members=members)
    if path.suffix.lower() == ".zip":
        raise CorruptArchiveError(f"{path}: zip central directory unreadable")
    raise UnsupportedContainerError(f"{path}: neither a directory nor a zip archive")


def evidence_label(source: EvidenceSource) -> str:
    """Container-independent label: basename with any .zip suffix stripped.

    Keeps reports over a directory and a zip of the same content
    byte-identical.
    """
    base = os.path.basename(source.origin.rstrip("/"))
    if base.lower().endswith(".zip"):
        base = base[:-4]
    return base


def read_file(source: EvidenceSource, relative_path: str) -> bytes:
    """Return the exact stored bytes of one file, recording their digest."""
    if relative_path not in source.root_listing:
        raise NotFoundError(f"not in evidence listing: {relative_path}")
    if source.container_kind == CONTAINER_DIRECTORY:
        data = (Path(source.origin) / relative_path).read_bytes()
    else:
        data = source.archive.read(source.members[relative_path])
    source.digests[relative_path] = FileDigest(
        relative_path=relative_path,
        algorithm=DIGEST_ALGORITHM,
        hex_digest=hashlib.sha256(data).hexdigest(),
        byte_length=len(data),
    )
    return data


def hash_file(source: EvidenceSource, relative_path: str) -> FileDigest:
    """SHA-256 digest over the exact file bytes, for chain-of-custody.

    A file already read is not read again: its digest is the one recorded
    over the bytes that read returned.
    """
    if relative_path not in source.digests:
        read_file(source, relative_path)
    return source.digests[relative_path]


def enumerate_app_roots(source: EvidenceSource, registry=None) -> list[AppDataRoot]:
    """One AppDataRoot per top-level directory, sorted by package name.

    matched_parser is set iff exactly one registered parser's detect
    accepts the root.
    """
    if registry is None:
        from .parsers import default_registry

        registry = default_registry()
    roots = []
    for name in sorted(source.top_level_dirs):
        provisional = AppDataRoot(package_name=name, relative_path=name)
        matches = [p.parser_id for p in registry if p.detect(provisional, source)]
        matched = matches[0] if len(matches) == 1 else None
        roots.append(
            AppDataRoot(package_name=name, relative_path=name, matched_parser=matched)
        )
    return roots


def files_under(source: EvidenceSource, root: AppDataRoot) -> list[str]:
    """All listed files beneath an app root, sorted."""
    prefix = root.relative_path + "/"
    return sorted(p for p in source.root_listing if p.startswith(prefix))
