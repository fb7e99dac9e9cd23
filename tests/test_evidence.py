"""Evidence containers: opening, listing, reading, hashing, root discovery."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import re
import struct
import tempfile
import warnings
import zipfile

import pytest
from hypothesis import event, example, given, reject, settings, strategies as st

from phiscan import evidence
from phiscan.errors import (
    CorruptArchiveError,
    NotFoundError,
    ScanError,
    UnreadableFileError,
    UnsupportedContainerError,
)
from phiscan.evidence import (
    FileDigest,
    enumerate_app_roots,
    evidence_label,
    files_under,
    hash_file,
    open_source,
    read_file,
)

from phiscan.fixtures import build_tree, paper_replica_spec, random_spec, write_tree
from phiscan.parsers import PARSERS
from phiscan.scanner import scan_evidence

from conftest import make_myvitals_db

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_empty_directory_yields_empty_listing(tmp_path):
    source = open_source(tmp_path)
    assert source.root_listing == frozenset()
    assert enumerate_app_roots(source, PARSERS) == {}


def test_missing_path_raises_not_found(tmp_path):
    with pytest.raises(NotFoundError):
        open_source(tmp_path / "nope")


def test_plain_file_is_unsupported(tmp_path):
    f = tmp_path / "notes.txt"
    f.write_text("hello")
    with pytest.raises(UnsupportedContainerError):
        open_source(f)


def test_garbage_zip_is_corrupt(tmp_path):
    f = tmp_path / "evil.zip"
    f.write_bytes(b"this is not a zip archive at all")
    with pytest.raises(CorruptArchiveError):
        open_source(f)


@pytest.mark.parametrize("name, error", [(b"notes\xff.txt", UnsupportedContainerError),
                                         (b"evil\xff.zip", CorruptArchiveError)])
def test_an_error_shows_a_container_name_that_is_not_utf8_escaped(tmp_path, name, error):
    path = os.path.join(os.fsencode(tmp_path), name)
    with open(path, "wb") as f:
        f.write(b"this is not a zip archive at all")
    with pytest.raises(error) as raised:
        open_source(os.fsdecode(path))
    shown = name.decode("utf-8", "backslashreplace")
    assert str(raised.value).startswith(f"{tmp_path}/{shown}: ")


def _tree_with_files(tmp_path, files: dict[str, bytes]):
    root = tmp_path / "tree"
    for rel, data in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_bytes(data)
    return root


def _zip_of(tmp_path, files: dict[str, bytes], name="tree.zip"):
    path = tmp_path / name
    with zipfile.ZipFile(path, "w") as zf:
        for rel, data in sorted(files.items()):
            zf.writestr(rel, data)
    return path


SAMPLE = {
    "appA/data/one.bin": b"\x00\x01\x02",
    "appA/empty.txt": b"",
    "appB/shared_prefs/x.xml": b"<map/>",
}


def test_directory_and_zip_listings_match(tmp_path):
    d = _tree_with_files(tmp_path, SAMPLE)
    z = _zip_of(tmp_path, SAMPLE)
    src_d = open_source(d)
    src_z = open_source(z)
    assert src_d.root_listing == src_z.root_listing == frozenset(SAMPLE)
    assert src_d.container_kind == "directory"
    assert src_z.container_kind == "zip-archive"
    for rel in SAMPLE:
        assert read_file(src_d, rel) == read_file(src_z, rel) == SAMPLE[rel]


def test_read_zero_byte_file(tmp_path):
    src = open_source(_tree_with_files(tmp_path, SAMPLE))
    assert read_file(src, "appA/empty.txt") == b""


def test_read_missing_path_raises(tmp_path):
    src = open_source(_tree_with_files(tmp_path, SAMPLE))
    with pytest.raises(NotFoundError):
        read_file(src, "appA/ghost.bin")


def test_database_file_round_trips_sqlite_header(tmp_path):
    # db written by the sqlite3 module directly, read back through evidence
    root = tmp_path / "tree" / "iHealthMyVitals.V2" / "Databases"
    root.mkdir(parents=True)
    make_myvitals_db(root / "androidNin.db")
    src = open_source(tmp_path / "tree")
    data = read_file(src, "iHealthMyVitals.V2/Databases/androidNin.db")
    assert data[:16] == b"SQLite format 3\x00"


def test_hash_empty_file_is_well_known_digest(tmp_path):
    src = open_source(_tree_with_files(tmp_path, SAMPLE))
    digest = hash_file("appA/empty.txt", read_file(src, "appA/empty.txt"))
    assert digest.relative_path == "appA/empty.txt"
    assert digest.hex_digest == SHA256_EMPTY
    assert digest.algorithm == "sha-256"
    assert digest.byte_length == 0
    assert len(digest.hex_digest) == 64


def test_hash_is_deterministic_and_sensitive_to_content(tmp_path):
    src = open_source(_tree_with_files(tmp_path, SAMPLE))
    first = hash_file("appA/data/one.bin", read_file(src, "appA/data/one.bin"))
    second = hash_file("appA/data/one.bin", read_file(src, "appA/data/one.bin"))
    assert first == second
    assert first.hex_digest == hashlib.sha256(b"\x00\x01\x02").hexdigest()

    flipped = dict(SAMPLE)
    flipped["appA/data/one.bin"] = b"\x00\x01\x03"
    other = open_source(_tree_with_files(tmp_path / "alt", flipped))
    changed = hash_file("appA/data/one.bin", read_file(other, "appA/data/one.bin"))
    assert changed.hex_digest != first.hex_digest
    assert changed.hex_digest == hashlib.sha256(b"\x00\x01\x03").hexdigest()


def test_enumerate_app_roots_binds_parsers(tmp_path):
    root = tmp_path / "tree"
    db_dir = root / "iHealthMyVitals.V2" / "Databases"
    db_dir.mkdir(parents=True)
    make_myvitals_db(db_dir / "androidNin.db")
    hm = root / "com.withings.wiscale2" / "databases"
    hm.mkdir(parents=True)
    from conftest import make_healthmate_db

    make_healthmate_db(hm / "withings-wiscale.db")
    (root / "com.android.settings").mkdir()
    (root / "com.android.settings" / "prefs.xml").write_bytes(b"<map/>")

    roots = enumerate_app_roots(open_source(root), PARSERS)
    assert list(roots) == [
        "com.android.settings", "com.withings.wiscale2", "iHealthMyVitals.V2"]
    by_name = {folder: getattr(parser, "parser_id", None) for folder, parser in roots.items()}
    assert by_name == {"com.android.settings": None, "com.withings.wiscale2": "healthmate",
                       "iHealthMyVitals.V2": "myvitals"}


def test_both_ihealth_folders_bind_distinct_parsers(tmp_path):
    root = tmp_path / "tree"
    db_dir = root / "iHealthMyVitals.V2" / "Databases"
    db_dir.mkdir(parents=True)
    make_myvitals_db(db_dir / "androidNin.db")
    (root / "jiuana-androidBg.start").mkdir()
    (root / "jiuana-androidBg.start" / "enc.db").write_bytes(os.urandom(64))

    roots = enumerate_app_roots(open_source(root), PARSERS)
    matched = {folder: parser.parser_id for folder, parser in roots.items()}
    assert matched == {"iHealthMyVitals.V2": "myvitals",
                       "jiuana-androidBg.start": "glucosmart"}


def test_enumeration_is_idempotent(tmp_path):
    root = _tree_with_files(tmp_path, SAMPLE)
    first = open_source(root)
    second = open_source(root)
    assert first.root_listing == second.root_listing
    assert enumerate_app_roots(first, PARSERS) == enumerate_app_roots(second, PARSERS)
    assert [read_file(first, p) for p in sorted(first.root_listing)] == \
        [read_file(second, p) for p in sorted(second.root_listing)]


def test_adversarial_zip_entries_are_rejected(tmp_path):
    path = tmp_path / "evil.zip"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("../outside.txt", b"escape")
        zf.writestr("/absolute.txt", b"escape")
        zf.writestr("app/../../up.txt", b"escape")
        zf.writestr("app\\win.txt", b"escape")
        zf.writestr("ok/file.txt", b"fine")
    src = open_source(path)
    assert src.root_listing == frozenset({"ok/file.txt"})
    assert len(src.skipped_entries) == 4


@given(st.sets(st.text(alphabet="ab./\\:", min_size=1, max_size=12), max_size=6))
def test_zip_listing_never_escapes_root(tmp_path_factory, names):
    tmp = tmp_path_factory.mktemp("zips")
    path = tmp / "fuzz.zip"
    with zipfile.ZipFile(path, "w") as zf:
        for name in sorted(names):
            try:
                zf.writestr(name, b"x")
            except ValueError:
                continue
        zf.writestr("keep/file.txt", b"x")
    src = open_source(path)
    for rel in src.root_listing:
        assert not rel.startswith("/")
        assert "\\" not in rel
        assert ".." not in rel.split("/")


def test_duplicate_zip_member_is_skipped_with_its_name(tmp_path):
    path = tmp_path / "dup.zip"
    with zipfile.ZipFile(path, "w") as zf, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # zipfile warns on the duplicate
        zf.writestr("com.x/a.txt", b"first")
        zf.writestr("com.x/a.txt", b"second")
        zf.writestr("com.x/./b.txt", b"third")
        zf.writestr("com.x/b.txt", b"fourth")
    with open_source(path) as src:
        assert src.root_listing == frozenset({"com.x/a.txt", "com.x/b.txt"})
        assert src.skipped_entries == ("com.x/a.txt (duplicate name)",
                                       "com.x/b.txt (duplicate name)")
        assert read_file(src, "com.x/a.txt") == b"first"
        assert read_file(src, "com.x/b.txt") == b"third"


def test_zip_source_closes_its_archive(tmp_path):
    with open_source(_zip_of(tmp_path, SAMPLE)) as src:
        assert read_file(src, "appA/data/one.bin") == SAMPLE["appA/data/one.bin"]
    with pytest.raises(ValueError):
        read_file(src, "appA/data/one.bin")
    open_source(_tree_with_files(tmp_path, SAMPLE)).close()  # no-op for a directory


def test_read_file_has_no_side_effect_and_hash_file_is_sha256(tmp_path):
    for path in (_tree_with_files(tmp_path, SAMPLE), _zip_of(tmp_path, SAMPLE)):
        with open_source(path) as src, open_source(path) as fresh:
            members = dict(src.members)
            for rel in sorted(SAMPLE):
                data = read_file(src, rel)
                assert hash_file(rel, data) == FileDigest(
                    rel, "sha-256", hashlib.sha256(data).hexdigest(), len(data))
            # a source holds its listing and its open archive, nothing a read changes
            assert [f.name for f in dataclasses.fields(src)] == [
                "origin", "container_kind", "root_listing", "top_level_dirs",
                "skipped_entries", "archive", "members"]
            assert src == fresh and src.members == members


def _patched(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + bytes([value]) + data[offset + 1:]


# Each damage to a one-member zip: the member's stored bytes, then the
# central-directory header (general-purpose flags at +8, method at +10).
DAMAGED_MEMBERS = {
    "bad CRC": (lambda d: _patched(d, 40, d[40] ^ 0xFF), "Bad CRC-32"),
    "bad deflate data": (lambda d: _patched(d, 39, 0xFF), "Error -3 while decompressing"),
    "encrypted": (lambda d: _patched(d, d.index(b"PK\x01\x02") + 8, 1), "is encrypted"),
    "unknown method": (lambda d: _patched(d, d.index(b"PK\x01\x02") + 10, 99),
                       "compression method is not supported"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_MEMBERS))
def test_unreadable_zip_member_raises_a_scan_error_naming_it(tmp_path, damage):
    patch, reason = DAMAGED_MEMBERS[damage]
    path = tmp_path / "one.zip"
    compression = zipfile.ZIP_DEFLATED if damage == "bad deflate data" else zipfile.ZIP_STORED
    with zipfile.ZipFile(path, "w", compression) as zf:
        zf.writestr("app/f.txt", b"0123456789" * 4)  # the data starts at byte 39
    path.write_bytes(patch(path.read_bytes()))
    with open_source(path) as src:
        with pytest.raises(UnreadableFileError, match=reason) as err:
            read_file(src, "app/f.txt")
        assert str(err.value).startswith("app/f.txt: unreadable (")


def _outcome(read):
    """What a read gives: its bytes, or the type and text of what it raises."""
    try:
        return read()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _damaged_zips(draw) -> bytes:
    """A small zip of stored, deflated, bzip2 and lzma members, then damaged.

    Damage: byte flips in a member's local header, name or data; the local
    UTF-8 flag flipped; a declared size or a local-header offset edited in
    the central directory; a span of bytes cut from before the central
    directory (last, so that the offsets of the other damage are the
    written ones).
    """
    names = draw(st.lists(st.sampled_from(["a/x.txt", "a/\u00e9.txt", "b/y.bin", "c"]),
                          min_size=1, max_size=3, unique=True))
    written = io.BytesIO()
    with zipfile.ZipFile(written, "w") as zf:
        for name in names:
            body = draw(st.binary(min_size=1, max_size=200) | st.sampled_from([b"", b"ab" * 300]))
            zf.writestr(name, body, compress_type=draw(st.sampled_from(
                [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED, zipfile.ZIP_BZIP2,
                 zipfile.ZIP_LZMA])))
        start_dir = zf.start_dir
        infos = zf.infolist()
    data = bytearray(written.getvalue())
    entries = []  # each member's central directory entry
    at = start_dir
    for _ in infos:
        entries.append(at)
        at += 46 + sum(struct.unpack_from("<3H", data, at + 28))
    regions = []  # each member's local header, name and data, as written
    for info in infos:
        name_length, extra_length = struct.unpack_from("<2H", data, info.header_offset + 26)
        regions.append({"header": (info.header_offset, 30),
                        "name": (info.header_offset + 30, name_length),
                        "data": (info.header_offset + 30 + name_length + extra_length,
                                 info.compress_size)})
    cut = None
    for _ in range(draw(st.integers(1, 3))):
        member = draw(st.integers(0, len(infos) - 1))
        info, entry = infos[member], entries[member]
        damage = draw(st.sampled_from(["flip", "utf-8 flag", "size", "offset", "cut"]))
        if damage == "flip":
            start, length = regions[member][draw(st.sampled_from(["header", "name", "data"]))]
            if length:
                data[start + draw(st.integers(0, length - 1))] ^= draw(st.integers(1, 255))
        elif damage == "utf-8 flag":
            data[info.header_offset + 7] ^= 0x08  # general-purpose flag bit 11
        elif damage == "size":
            at = entry + draw(st.sampled_from([20, 24]))  # compressed or stored size
            size = struct.unpack_from("<I", data, at)[0]
            struct.pack_into("<I", data, at, draw(
                st.integers(max(0, size - 40), size + 40) | st.integers(0, 1 << 20)))
        elif damage == "offset":
            struct.pack_into("<I", data, entry + 42, draw(st.integers(0, len(data) + 40)))
        else:
            start = draw(st.integers(0, start_dir - 1))
            cut = (start, start + draw(st.integers(1, 40)))
    if cut:
        del data[cut[0]:cut[1]]
    return bytes(data)


_LINES = b"".join(b"line %d of the member\n" % i for i in range(200))


def _one_member_zip(method: int, body: bytes, patch) -> bytes:
    """A zip of one member, a/x.txt, changed by patch(data, central directory entry)."""
    written = io.BytesIO()
    with zipfile.ZipFile(written, "w") as zf:
        zf.writestr("a/x.txt", body, compress_type=method)
    data = bytearray(written.getvalue())
    patch(data, data.index(b"PK\x01\x02"))
    return bytes(data)


def _bad_utf8_local_name(data, entry):
    data[7] |= 0x08  # the local header's flag bit 11: the name is UTF-8
    data[30] = 0xFF  # the local name's first byte: 0xff, a byte UTF-8 never holds


def _bad_deflate_past_the_declared_size(data, entry):
    struct.pack_into("<I", data, entry + 24, 10)  # declared stored size: 10 bytes
    data[entry - 197] ^= 0xFF  # zlib: "invalid distance too far back", well past byte 10


def _flagged_patched_data(data, entry):
    data[entry + 8] |= 0x20  # flag bit 5, which zipfile refuses before the name check


def _cut_before_the_central_directory(data, entry):
    del data[10:20]  # the central directory's offsets now point 10 bytes early


def _data_past_the_end_of_the_file() -> bytes:
    """Two stored members of 40 bytes. The first declares 5,000 compressed
    bytes, more than the file holds, and the second's local header offset
    is 1,000,000, so the first's data may run that far before it overlaps."""
    written = io.BytesIO()
    with zipfile.ZipFile(written, "w") as zf:
        zf.writestr("a/x.txt", b"0123456789" * 4)
        zf.writestr("a/y.txt", b"0123456789" * 4)
    data = bytearray(written.getvalue())
    first = data.index(b"PK\x01\x02")
    struct.pack_into("<I", data, first + 20, 5000)
    struct.pack_into("<I", data, data.index(b"PK\x01\x02", first + 1) + 42, 1_000_000)
    return bytes(data)


@pytest.mark.equivalence
@settings(deadline=None)  # an LZMA member can take over 200 ms under -X dev
@given(_damaged_zips())
@example(_one_member_zip(zipfile.ZIP_DEFLATED, b"data", _bad_utf8_local_name))
@example(_one_member_zip(zipfile.ZIP_STORED, b"stored member",  # declared shorter than stored
                         lambda data, entry: struct.pack_into("<I", data, entry + 24, 4)))
@example(_one_member_zip(zipfile.ZIP_DEFLATED, _LINES, _bad_deflate_past_the_declared_size))
@example(_one_member_zip(zipfile.ZIP_DEFLATED, b"data", _flagged_patched_data))
@example(_one_member_zip(zipfile.ZIP_STORED, b"stored member", _cut_before_the_central_directory))
@example(_data_past_the_end_of_the_file())  # the short read goes to ZipFile.read
def test_read_member_equals_zipfile_read_on_damaged_zips(archive):
    # Two allowed differences. A member whose local data runs past the next
    # member's header or the central directory is refused as overlapped,
    # which zipfile does only from Python 3.12 on. A member whose local
    # header offset is negative, as bytes cut before the central directory
    # make it, is refused before any read, where zipfile's seek fails with
    # a bare "Invalid argument". A local name flagged UTF-8 that is not
    # raises zipfile's own UnicodeDecodeError on both paths, so it needs no
    # allowance.
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "damaged.zip"
        path.write_bytes(archive)
        try:
            zf, members, _, _ = evidence._open_zip(path)
        except CorruptArchiveError:
            reject()
        with zf:
            for info, end in members.values():
                ours = _outcome(lambda: evidence._read_member(zf, info, end))
                reference = _outcome(lambda: zf.read(info))
                overlapped = (zipfile.BadZipFile,
                              f"Overlapped entries: {info.orig_filename!r} (possible zip bomb)")
                before_start = (zipfile.BadZipFile, f"Local header of {info.orig_filename!r}"
                                " lies before the start of the archive")
                if info.header_offset < 0:
                    assert ours == before_start, info
                else:
                    assert ours == reference or ours == overlapped, info
                event("before the start" if ours == before_start else "overlapped"
                      if ours == overlapped else "bytes" if isinstance(ours, bytes)
                      else ours[0].__name__)


@pytest.mark.parametrize("run_on", [0, 1])
def test_a_member_whose_data_runs_into_the_next_header_is_overlapped(tmp_path, run_on):
    # the first member's declared compressed size runs `run_on` bytes into the
    # second's local header; its stored size and CRC still give its own bytes,
    # which zipfile before 3.12 returns
    path = tmp_path / "two.zip"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("a/x.txt", b"first member")
        zf.writestr("a/y.txt", b"second member")
    data = bytearray(path.read_bytes())
    entry = data.index(b"PK\x01\x02")
    struct.pack_into("<I", data, entry + 20, len(b"first member") + run_on)
    path.write_bytes(bytes(data))
    with open_source(path) as src:
        if run_on:
            with pytest.raises(UnreadableFileError, match=re.escape(
                    "a/x.txt: unreadable (Overlapped entries: 'a/x.txt' (possible zip bomb))")):
                read_file(src, "a/x.txt")
        else:
            assert read_file(src, "a/x.txt") == b"first member"
        assert read_file(src, "a/y.txt") == b"second member"


def test_unreadable_directory_file_names_only_the_relative_path(tmp_path, monkeypatch):
    root = _tree_with_files(tmp_path, SAMPLE)

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(evidence, "open", denied, raising=False)
    src = open_source(root)
    with pytest.raises(UnreadableFileError) as err:
        read_file(src, "appA/data/one.bin")
    assert str(err.value) == "appA/data/one.bin: unreadable (Permission denied)"


def _deny_scandir(monkeypatch, denied_suffix: str) -> None:
    # a chmod cannot stop a process running as root, so deny the listing itself
    scandir = os.scandir

    def denying_scandir(path):
        if os.fspath(path).endswith(denied_suffix):
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", denying_scandir)


def test_unlistable_directory_is_a_skipped_entry(tmp_path, monkeypatch):
    root = _tree_with_files(tmp_path, {"app/g.txt": b"g", "app/sub/h.txt": b"h",
                                       "app/sub/deeper/i.txt": b"i"})
    _deny_scandir(monkeypatch, "app/sub")
    src = open_source(root)
    assert src.root_listing == frozenset({"app/g.txt"})
    assert src.skipped_entries == ("app/sub (unreadable directory)",)
    assert src.top_level_dirs == ("app",)
    assert scan_evidence(root).report.warnings == (
        "skipped container entry: app/sub (unreadable directory)",)


def test_unlistable_evidence_root_raises_a_scan_error(tmp_path, monkeypatch):
    root = _tree_with_files(tmp_path, SAMPLE)
    _deny_scandir(monkeypatch, "tree")
    with pytest.raises(ScanError, match=r"cannot be listed \(Permission denied\)"):
        open_source(root)


# -- the directory listing against its reference -------------------------------

def _reference_unlisted(full: pathlib.Path, rel: str, is_dir: bool) -> str | None:
    """The skipped-entry text of a directory entry left out of the listing, or None."""
    shown = evidence.shown_name(rel)
    if shown != rel:  # no report could name it
        return f"{shown} (name is not UTF-8)"
    if full.is_symlink():  # evidence must never escape its root
        return f"{rel} (symlink)"
    if not is_dir and not full.is_file():  # a FIFO or device: reading it could block
        return f"{rel} (not a regular file)"
    return None


def _reference_open_directory(path: pathlib.Path):
    """The listing as os.walk and pathlib gave it, before the scandir walk: the reference."""
    listing: set[str] = set()
    skipped: list[str] = []
    top_dirs: set[str] = set()

    def unlistable(exc: OSError) -> None:
        rel = pathlib.Path(exc.filename).relative_to(path).as_posix()
        if rel == ".":
            raise ScanError(f"{evidence.shown_name(path)}: evidence directory cannot be listed "
                            f"({exc.strerror})")
        skipped.append(f"{rel} (unreadable directory)")

    for dirpath, dirnames, filenames in os.walk(path, onerror=unlistable, followlinks=False):
        rel_dir = pathlib.Path(dirpath).relative_to(path)
        if rel_dir != pathlib.Path("."):
            top_dirs.add(rel_dir.parts[0])
        for d in list(dirnames):  # a pruned directory is never walked
            if skip := _reference_unlisted(pathlib.Path(dirpath) / d, (rel_dir / d).as_posix(),
                                           True):
                dirnames.remove(d)
                skipped.append(skip)
        for fn in filenames:
            rel = (rel_dir / fn).as_posix()
            if skip := _reference_unlisted(pathlib.Path(dirpath) / fn, rel, False):
                skipped.append(skip)
            else:
                listing.add(rel)
    return frozenset(listing), tuple(sorted(top_dirs)), tuple(sorted(skipped))


# A tree: name -> "file", "fifo", "link:<target>" or a subtree. A directory
# named "denied" cannot be listed. A link's target is a sibling's name, its
# own directory, its parent, a name that does not exist, or a directory or
# file outside the tree.
_TREE_NAMES = st.sampled_from([b"a", b"b.txt", b"sub", b"com.x", b"denied", b"n\xff", b"d\xfe"])
_TREE_LEAVES = st.sampled_from(
    ["file", "fifo"] + [f"link:{target}" for target in (
        "a", "b.txt", "sub", "com.x", "denied", ".", "..", "nowhere",
        "{outside}", "{outside}/secret.txt")])
_TREES = st.dictionaries(_TREE_NAMES, st.recursive(
    _TREE_LEAVES, lambda subtrees: st.dictionaries(_TREE_NAMES, subtrees, max_size=4),
    max_leaves=12), max_size=5)


def _write_tree(directory: bytes, tree: dict, outside: str) -> None:
    for name, node in tree.items():
        path = os.path.join(directory, name)
        if isinstance(node, dict):
            os.mkdir(path)
            _write_tree(path, node, outside)
        elif node == "file":
            with open(path, "wb") as f:
                f.write(name)
        elif node == "fifo":
            os.mkfifo(path)
        else:
            os.symlink(node.removeprefix("link:").replace("{outside}", outside), path)


@pytest.mark.equivalence
@given(_TREES)
@example({b"com.x": {b"sub": {b"sub": {b"a": "file"}}, b"b.txt": "file"}, b"a": "file"})
@example({b"com.x": {b"b.txt": "file", b"a": "link:b.txt"}})
@example({b"com.x": {b"sub": {b"a": "file"}, b"a": "link:sub"}})
@example({b"com.x": {b"a": "link:nowhere", b"sub": "link:."}})
@example({b"a": "link:{outside}", b"com.x": {b"b.txt": "link:{outside}/secret.txt",
                                            b"sub": "link:.."}})
@example({b"com.x": {b"a": "fifo", b"b.txt": "file"}})
@example({b"com.x": {b"n\xff": "file", b"b.txt": "file"}})
@example({b"d\xfe": {b"a": "file"}, b"com.x": {b"d\xfe": {b"a": "file"}}})
@example({b"com.x": {b"denied": {b"a": "file"}, b"b.txt": "file"}, b"denied": {}})
def test_directory_listing_equals_the_os_walk_reference(tree):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        outside = os.path.join(tmp, "outside")
        os.mkdir(outside)
        with open(os.path.join(outside, "secret.txt"), "wb") as f:
            f.write(b"secret")
        root = os.path.join(tmp, "tree")
        os.mkdir(root)
        _write_tree(os.fsencode(root), tree, outside)
        _deny_scandir(patch, "/denied")
        listed = evidence._open_directory(root)
        assert listed == _reference_open_directory(pathlib.Path(root))
    event("skips" if listed[2] else "no skips")


def _forged_spec(name: str, output_kind: str):
    spec = paper_replica_spec() if name == "replica" else random_spec(int(name[4:]))
    return dataclasses.replace(spec, output_kind=output_kind)


FORGED = ["replica", *(f"seed{seed}" for seed in range(40))]


@pytest.mark.equivalence
@pytest.mark.parametrize("name", FORGED)
def test_a_forged_directory_lists_as_the_reference_does(tmp_path, name):
    spec = _forged_spec(name, "directory")
    tree, _ = build_tree(spec)
    write_tree(tree, spec, tmp_path / name)
    listed = evidence._open_directory(str(tmp_path / name))
    assert listed == _reference_open_directory(tmp_path / name)
    assert listed[0] == frozenset(tree) and listed[2] == ()


@pytest.mark.parametrize("name", FORGED)
def test_a_forged_zip_has_no_gap_between_its_members(tmp_path, name):
    # each member's local header, name, extra field and data end exactly where
    # the next member's local header starts, and the last where the central
    # directory does: no byte of the archive lies outside a member
    spec = _forged_spec(name, "zip")
    path = tmp_path / f"{name}.zip"
    write_tree(build_tree(spec)[0], spec, path)
    data = path.read_bytes()
    with zipfile.ZipFile(path) as zf:
        members, start_dir = zf.infolist(), zf.start_dir
    at = 0  # where the next member must start
    for info in sorted(members, key=lambda info: info.header_offset):
        assert info.header_offset == at, info.filename
        magic, name_length, extra_length = struct.unpack_from("<4s22xHH", data, at)
        assert magic == b"PK\x03\x04", info.filename
        at += 30 + name_length + extra_length + info.compress_size
    assert at == start_dir


def test_a_tree_nested_1200_directories_deep_scans_to_the_end(tmp_path, monkeypatch):
    # deeper than the interpreter's recursion limit: the walk must not recurse
    root = tmp_path / "deep"
    root.mkdir()
    monkeypatch.chdir(root)
    for _ in range(1200):  # relative names keep every path the test uses short
        os.mkdir("d")
        os.chdir("d")
    with open("ssn.txt", "wb") as f:
        f.write(b"ssn 123-45-6789\n")
    try:
        report = scan_evidence(root, fixed_clock="2020-01-01T00:00:00Z").report
    finally:
        # the bottom-up removal the tmp_path clean-up would do by recursion
        os.remove("ssn.txt")
        for _ in range(1200):
            os.chdir("..")
            os.rmdir("d")
    (digest,) = report.file_digests
    assert digest.relative_path == "d/" * 1200 + "ssn.txt"
    assert [(f.category, f.locator.relative_path) for f in report.findings] == [
        ("ssn", digest.relative_path)]


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: a directory is listed by its "
                   "absolute path, so one longer than PATH_MAX is an unreadable directory")
def test_a_tree_deeper_than_path_max_scans_to_the_end(tmp_path, monkeypatch):
    root = tmp_path / "deep"
    (root / "com.x").mkdir(parents=True)
    monkeypatch.chdir(root / "com.x")
    for _ in range(2100):  # "d/" * 2100 alone is longer than Linux's 4,096-byte PATH_MAX
        os.mkdir("d")
        os.chdir("d")
    with open("ssn.txt", "wb") as f:
        f.write(b"ssn 078-05-1120\n")
    try:
        report = scan_evidence(root, fixed_clock="2020-01-01T00:00:00Z").report
    finally:
        # bottom-up: shutil.rmtree, and so tmp_path's clean-up, recurse too deep here
        os.remove("ssn.txt")
        for _ in range(2100):
            os.chdir("..")
            os.rmdir("d")
    (digest,) = report.file_digests
    assert digest.relative_path == "com.x/" + "d/" * 2100 + "ssn.txt"
    assert [(f.category, f.locator.relative_path) for f in report.findings] == [
        ("ssn", digest.relative_path)]


class _FailingListing:
    """A scandir iterator that gives its first entry, then fails as a disk read can."""

    def __init__(self, path, entries):
        self._path, self._entries, self._given = path, entries, False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self):
        self._entries.close()

    def __iter__(self):
        return self

    def __next__(self):
        if self._given:
            raise OSError(5, "Input/output error", self._path)
        self._given = True
        return next(self._entries)


def test_a_directory_that_fails_part_way_keeps_none_of_its_entries(tmp_path, monkeypatch):
    root = _tree_with_files(tmp_path, {"app/g.txt": b"g", "app/sub/h.txt": b"h",
                                       "app/sub/i.txt": b"i", "app/sub/deeper/j.txt": b"j",
                                       "other/k.txt": b"k"})
    scandir = os.scandir
    monkeypatch.setattr(os, "scandir", lambda path: _FailingListing(path, scandir(path))
                        if os.fspath(path).endswith("app/sub") else scandir(path))
    listed = evidence._open_directory(str(root))
    assert listed == _reference_open_directory(root)
    assert listed == (frozenset({"app/g.txt", "other/k.txt"}), ("app", "other"),
                      ("app/sub (unreadable directory)",))


class _Untyped:
    """A DirEntry whose type tests fail, as lstat can where readdir gives no type."""

    def __init__(self, entry):
        self.name, self.path = entry.name, entry.path

    def _fails(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", self.path)

    is_symlink = is_dir = is_file = _fails


def test_an_entry_whose_type_cannot_be_read_is_a_skipped_entry(tmp_path, monkeypatch):
    root = _tree_with_files(tmp_path, {"com.x/a.txt": b"a", "com.x/b.txt": b"ssn 123-45-6789"})
    scandir = os.scandir

    @contextlib.contextmanager
    def listing(path):
        with scandir(path) as entries:
            yield (_Untyped(e) if e.name == "b.txt" else e for e in entries)

    monkeypatch.setattr(os, "scandir", listing)
    src = open_source(root)
    assert src.root_listing == frozenset({"com.x/a.txt"})
    assert src.skipped_entries == ("com.x/b.txt (unreadable entry)",)
    report = scan_evidence(root, fixed_clock="2020-01-01T00:00:00Z").report
    assert report.warnings == ("skipped container entry: com.x/b.txt (unreadable entry)",)
    assert report.findings == ()


def test_symlinks_are_treated_as_absent(tmp_path):
    root = tmp_path / "tree"
    (root / "app").mkdir(parents=True)
    (root / "app" / "real.txt").write_bytes(b"data")
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"secret")
    os.symlink(outside, root / "app" / "link.txt")
    os.symlink(tmp_path, root / "escape_dir")
    src = open_source(root)
    assert src.root_listing == frozenset({"app/real.txt"})
    assert any("link.txt" in e for e in src.skipped_entries)


def test_a_fifo_is_a_skipped_entry_and_the_scan_finishes(tmp_path):
    from phiscan.scanner import scan_evidence

    root = tmp_path / "tree"
    (root / "com.x").mkdir(parents=True)
    (root / "com.x" / "a.txt").write_bytes(b"data")
    os.mkfifo(root / "com.x" / "pipe")
    # the listing first: reading a listed FIFO would block the scan
    src = open_source(root)
    assert src.root_listing == frozenset({"com.x/a.txt"})
    assert src.skipped_entries == ("com.x/pipe (not a regular file)",)
    report = scan_evidence(root, fixed_clock="2020-01-01T00:00:00Z").report
    assert [w for w in report.warnings if w.startswith("skipped container entry:")] == [
        "skipped container entry: com.x/pipe (not a regular file)"]


def test_a_name_that_is_not_utf8_is_a_skipped_entry_and_every_report_renders(tmp_path):
    from phiscan.report import render_report

    root = tmp_path / "tree"
    (root / "com.x").mkdir(parents=True)
    (root / "com.x" / "a.txt").write_bytes(b"data")
    raw = os.fsencode(root / "com.x")
    with open(os.path.join(raw, b"note\xff.txt"), "wb") as f:
        f.write(b"ssn 078-05-1120")
    os.mkdir(os.path.join(raw, b"dir\xfe"))
    with open(os.path.join(raw, b"dir\xfe", b"inner.txt"), "wb") as f:
        f.write(b"never read")
    src = open_source(root)
    assert src.root_listing == frozenset({"com.x/a.txt"})
    assert src.skipped_entries == ("com.x/dir\\xfe (name is not UTF-8)",
                                   "com.x/note\\xff.txt (name is not UTF-8)")
    report = scan_evidence(root, fixed_clock="2020-01-01T00:00:00Z").report
    assert [d.relative_path for d in report.file_digests] == ["com.x/a.txt"]
    assert report.findings == ()
    assert [w for w in report.warnings if w.startswith("skipped container entry:")] == [
        f"skipped container entry: {entry}" for entry in src.skipped_entries]
    json_report, text_report = (render_report(report, fmt).decode("utf-8")
                                for fmt in ("json", "text"))
    assert "com.x/note\\\\xff.txt (name is not UTF-8)" in json_report  # JSON doubles the backslash
    assert "com.x/note\\xff.txt (name is not UTF-8)" in text_report


@pytest.mark.parametrize("container", ["directory", "zip"])
def test_evidence_whose_name_is_not_utf8_is_labelled_with_escapes(tmp_path, container):
    from phiscan.report import render_report

    raw = os.path.join(os.fsencode(tmp_path), b"ev\xff")
    os.makedirs(os.path.join(raw, b"com.x"))
    with open(os.path.join(raw, b"com.x", b"a.txt"), "wb") as f:
        f.write(b"data")
    evidence = os.fsdecode(raw)
    if container == "zip":
        evidence += ".zip"
        with zipfile.ZipFile(evidence, "w") as zf:
            zf.writestr("com.x/a.txt", b"data")
    assert evidence_label(open_source(evidence)) == "ev\\xff"
    report = scan_evidence(evidence, fixed_clock="2020-01-01T00:00:00Z").report
    assert report.evidence_origin == "ev\\xff"
    assert [d.relative_path for d in report.file_digests] == ["com.x/a.txt"]
    assert json.loads(render_report(report))["evidence_origin"] == "ev\\xff"
    assert "evidence: ev\\xff " in render_report(report, "text").decode("utf-8")


def _patched_zip(tmp_path, name: str, patch) -> pathlib.Path:
    """A one-member zip whose central directory entry is changed by patch(entry)."""
    path = tmp_path / "patched.zip"
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr(name, b"data")
    data = bytearray(path.read_bytes())
    entry = data.index(b"PK\x01\x02")
    patch(memoryview(data)[entry:])
    path.write_bytes(bytes(data))
    return path


def _needs_version_10_2(entry) -> None:
    entry[6:8] = (102).to_bytes(2, "little")  # version needed to extract


def _utf8_flag_on_a_latin1_name(entry) -> None:
    entry[8:10] = (int.from_bytes(entry[8:10], "little") | 0x800).to_bytes(2, "little")
    entry[46 + len("com.x/a")] = 0xE9  # the name's "b": flagged UTF-8, no longer decodes


@pytest.mark.parametrize("patch", [_needs_version_10_2, _utf8_flag_on_a_latin1_name])
def test_a_damaged_central_directory_is_a_corrupt_archive(tmp_path, capsys, patch):
    from phiscan.cli import main

    path = _patched_zip(tmp_path, "com.x/ab.txt", patch)
    with pytest.raises(CorruptArchiveError):
        open_source(path)
    assert main(["scan", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("phiscan: error: ") and "Traceback" not in err


def test_files_under_root(tmp_path):
    src = open_source(_tree_with_files(tmp_path, SAMPLE))
    assert files_under(src, "appA") == ["appA/data/one.bin", "appA/empty.txt"]


def test_evidence_label_strips_zip_suffix(tmp_path):
    d = _tree_with_files(tmp_path, SAMPLE)
    z = _zip_of(tmp_path, SAMPLE, name="tree.zip")
    assert evidence_label(open_source(d)) == evidence_label(open_source(z)) == "tree"
