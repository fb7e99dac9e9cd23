"""Evidence containers: opening, listing, reading, hashing, root discovery."""

from __future__ import annotations

import hashlib
import os
import warnings
import zipfile

import pytest
from hypothesis import given, strategies as st

from phiscan.errors import CorruptArchiveError, NotFoundError, UnsupportedContainerError
from phiscan.evidence import (
    enumerate_app_roots,
    evidence_label,
    files_under,
    hash_file,
    open_source,
    read_file,
)

from conftest import make_myvitals_db

SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_empty_directory_yields_empty_listing(tmp_path):
    source = open_source(tmp_path)
    assert source.root_listing == frozenset()
    assert enumerate_app_roots(source) == []


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
    digest = hash_file(src, "appA/empty.txt")
    assert digest.hex_digest == SHA256_EMPTY
    assert digest.algorithm == "sha-256"
    assert digest.byte_length == 0
    assert len(digest.hex_digest) == 64


def test_hash_is_deterministic_and_sensitive_to_content(tmp_path):
    src = open_source(_tree_with_files(tmp_path, SAMPLE))
    first = hash_file(src, "appA/data/one.bin")
    second = hash_file(src, "appA/data/one.bin")
    assert first == second
    assert first.hex_digest == hashlib.sha256(b"\x00\x01\x02").hexdigest()

    flipped = dict(SAMPLE)
    flipped["appA/data/one.bin"] = b"\x00\x01\x03"
    other = open_source(_tree_with_files(tmp_path / "alt", flipped))
    assert hash_file(other, "appA/data/one.bin").hex_digest != first.hex_digest
    assert hash_file(other, "appA/data/one.bin").hex_digest == \
        hashlib.sha256(b"\x00\x01\x03").hexdigest()


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

    roots = enumerate_app_roots(open_source(root))
    assert [r.package_name for r in roots] == [
        "com.android.settings", "com.withings.wiscale2", "iHealthMyVitals.V2"]
    by_name = {r.package_name: r.matched_parser for r in roots}
    assert by_name["iHealthMyVitals.V2"] == "myvitals"
    assert by_name["com.withings.wiscale2"] == "healthmate"
    assert by_name["com.android.settings"] is None


def test_both_ihealth_folders_bind_distinct_parsers(tmp_path):
    root = tmp_path / "tree"
    db_dir = root / "iHealthMyVitals.V2" / "Databases"
    db_dir.mkdir(parents=True)
    make_myvitals_db(db_dir / "androidNin.db")
    (root / "jiuana-androidBg.start").mkdir()
    (root / "jiuana-androidBg.start" / "enc.db").write_bytes(os.urandom(64))

    roots = enumerate_app_roots(open_source(root))
    matched = {r.package_name: r.matched_parser for r in roots}
    assert matched == {"iHealthMyVitals.V2": "myvitals",
                       "jiuana-androidBg.start": "glucosmart"}


def test_enumeration_is_idempotent(tmp_path):
    root = _tree_with_files(tmp_path, SAMPLE)
    first = open_source(root)
    second = open_source(root)
    assert first.root_listing == second.root_listing
    assert enumerate_app_roots(first) == enumerate_app_roots(second)
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


def test_read_records_the_digest_hash_file_returns(tmp_path):
    for path in (_tree_with_files(tmp_path, SAMPLE), _zip_of(tmp_path, SAMPLE)):
        with open_source(path) as src:
            assert src.digests == {}
            data = read_file(src, "appA/data/one.bin")
            recorded = src.digests["appA/data/one.bin"]
            assert recorded.hex_digest == hashlib.sha256(data).hexdigest()
            assert hash_file(src, "appA/data/one.bin") is recorded
            assert hash_file(src, "appA/empty.txt").hex_digest == SHA256_EMPTY
            assert set(src.digests) == {"appA/data/one.bin", "appA/empty.txt"}


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


def test_files_under_root(tmp_path):
    src = open_source(_tree_with_files(tmp_path, SAMPLE))
    roots = enumerate_app_roots(src)
    app_a = next(r for r in roots if r.package_name == "appA")
    assert files_under(src, app_a) == ["appA/data/one.bin", "appA/empty.txt"]


def test_evidence_label_strips_zip_suffix(tmp_path):
    d = _tree_with_files(tmp_path, SAMPLE)
    z = _zip_of(tmp_path, SAMPLE, name="tree.zip")
    assert evidence_label(open_source(d)) == evidence_label(open_source(z)) == "tree"
