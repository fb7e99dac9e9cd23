"""Command-line behavior: exit codes, stream discipline, golden determinism."""

from __future__ import annotations

import json
import os
import zipfile
from importlib import resources

import pytest

from phiscan.cli import main

CLOCK = "2020-01-01T00:00:00Z"


@pytest.fixture
def replica_spec_file(tmp_path):
    spec = tmp_path / "replica.json"
    spec.write_text((resources.files("phiscan") / "data/paper_replica.json").read_text())
    return spec


def _fixture_tree(tmp_path, replica_spec_file):
    out = tmp_path / "tree"
    assert main(["fixtures", str(replica_spec_file), "-o", str(out)]) == 0
    return out


def test_scan_replica_exits_with_violations(tmp_path, replica_spec_file, capsys):
    tree = _fixture_tree(tmp_path, replica_spec_file)
    code = main(["scan", str(tree), "--format", "json", "--fixed-clock", CLOCK])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert {row["app_name"] for row in report["matrix"]} == {
        "iHealth MyVitals", "Gluco-Smart", "Health Mate"}
    # diagnostics must not leak into stdout
    assert captured.out.lstrip().startswith("{")
    assert "scanned" in captured.err


def test_scan_empty_directory_exits_clean(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["scan", str(empty), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["matrix"] == []


def test_scan_missing_path_exits_one(tmp_path, capsys):
    code = main(["scan", str(tmp_path / "ghost")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_scan_fixed_clock_is_byte_deterministic(tmp_path, replica_spec_file, capsys):
    tree = _fixture_tree(tmp_path, replica_spec_file)
    main(["scan", str(tree), "--format", "json", "--fixed-clock", CLOCK])
    first = capsys.readouterr().out
    main(["scan", str(tree), "--format", "json", "--fixed-clock", CLOCK])
    second = capsys.readouterr().out
    assert first == second


def test_scan_output_file(tmp_path, replica_spec_file, capsys):
    tree = _fixture_tree(tmp_path, replica_spec_file)
    out_file = tmp_path / "report.json"
    code = main(["scan", str(tree), "--format", "json", "--fixed-clock", CLOCK,
                 "-o", str(out_file)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(out_file.read_bytes())["schema_version"] == "1"


@pytest.mark.parametrize("command", ["scan", "timeline"])
def test_output_inside_evidence_directory_exits_one(tmp_path, replica_spec_file, capsys,
                                                   command):
    tree = _fixture_tree(tmp_path, replica_spec_file)
    before = {p: p.read_bytes() for p in tree.rglob("*") if p.is_file()}
    code = main([command, str(tree), "--format", "json", "-o", str(tree / "report.json")])
    assert code == 1
    assert "inside the evidence" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in tree.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command", ["scan", "timeline"])
def test_output_equal_to_evidence_zip_exits_one(tmp_path, capsys, command):
    evidence = tmp_path / "ev.zip"
    with zipfile.ZipFile(evidence, "w") as zf:
        zf.writestr("com.example.notes/files/log.txt", b"ssn 123-45-6789 noted")
    before = evidence.read_bytes()
    code = main([command, str(evidence), "-o", str(evidence)])
    assert code == 1
    assert "inside the evidence" in capsys.readouterr().err
    assert evidence.read_bytes() == before


def test_names_that_are_not_utf8_are_shown_as_the_report_shows_them(tmp_path, capsys):
    raw = os.path.join(os.fsencode(tmp_path), b"ev\xff")
    os.makedirs(os.path.join(raw, b"com.x"))
    with open(os.path.join(raw, b"com.x", b"a.txt"), "wb") as f:
        f.write(b"data")
    evidence = os.fsdecode(raw)
    output = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"out\xff.json"))
    assert main(["scan", evidence, "--format", "json", "-o", output]) == 0
    err = capsys.readouterr().err
    assert f"scanned {tmp_path}/ev\\xff: 1 file(s)," in err
    assert f" bytes to {tmp_path}/out\\xff.json" in err
    assert main(["scan", evidence, "-o", os.path.join(evidence, "r.json")]) == 1
    assert (f"output {tmp_path}/ev\\xff/r.json is inside the evidence {tmp_path}/ev\\xff,"
            in capsys.readouterr().err)


def test_missing_evidence_whose_name_is_not_utf8_is_one_error_line(tmp_path, capsys):
    missing = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"ev\xff-missing"))
    assert main(["scan", missing]) == 1
    assert capsys.readouterr().err == (
        f"phiscan: error: evidence path does not exist: {tmp_path}/ev\\xff-missing\n")


def test_fixtures_output_whose_name_is_not_utf8_is_shown_escaped(tmp_path, replica_spec_file,
                                                                  capsys):
    output = os.fsdecode(os.path.join(os.fsencode(tmp_path), b"t\xff"))
    assert main(["fixtures", str(replica_spec_file), "-o", output]) == 0
    err = capsys.readouterr().err
    assert f"fixture at {tmp_path}/t\\xff (" in err
    assert err.endswith(f"; manifest: {tmp_path}/t\\xff.manifest.json\n")


def test_bad_fixed_clock_exits_one(tmp_path, capsys):
    empty = tmp_path / "e"
    empty.mkdir()
    assert main(["scan", str(empty), "--fixed-clock", "not-a-time"]) == 1
    assert "fixed-clock" in capsys.readouterr().err


def test_timeline_replica(tmp_path, replica_spec_file, capsys):
    tree = _fixture_tree(tmp_path, replica_spec_file)
    code = main(["timeline", str(tree), "--format", "json", "--fixed-clock", CLOCK])
    captured = capsys.readouterr()
    assert code == 0
    events = json.loads(captured.out)
    assert len(events) >= 7
    stamps = [e["at"]["utc"] for e in events]
    assert stamps == sorted(stamps)


def test_timeline_empty_evidence(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["timeline", str(empty), "--format", "json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out) == []


def test_fixtures_writes_tree_and_manifest(tmp_path, replica_spec_file, capsys):
    out = tmp_path / "gen"
    assert main(["fixtures", str(replica_spec_file), "-o", str(out)]) == 0
    capsys.readouterr()
    assert (out / "iHealthMyVitals.V2" / "Databases" / "androidNin.db").exists()
    manifest = json.loads((tmp_path / "gen.manifest.json").read_bytes())
    assert manifest["spec"]["seed"] == 2018
    assert len(manifest["planted"]) > 0


def test_fixtures_same_spec_twice_identical(tmp_path, replica_spec_file, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["fixtures", str(replica_spec_file), "-o", str(a)])
    main(["fixtures", str(replica_spec_file), "-o", str(b)])
    capsys.readouterr()
    da = (a / "iHealthMyVitals.V2" / "Databases" / "androidNin.db").read_bytes()
    db = (b / "iHealthMyVitals.V2" / "Databases" / "androidNin.db").read_bytes()
    assert da == db
    assert (tmp_path / "a.manifest.json").read_bytes() == \
        (tmp_path / "b.manifest.json").read_bytes()


def test_fixtures_malformed_spec_exits_one_with_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n "seed": 1,\r\n "apps": oops\n}')
    code = main(["fixtures", str(bad), "-o", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 1
    assert "line 3" in err


def test_code_map_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    empty = tmp_path / "e"
    empty.mkdir()
    code_map = tmp_path / "map\udcff.txt"
    code_map.write_bytes(b"\xff\xfe1\x00 \x00=\x00")
    assert main(["scan", str(empty), "--code-map", str(code_map)]) == 1
    assert capsys.readouterr().err == (f"phiscan: error: code map {tmp_path}/map\\xff.txt "
                                       "is not UTF-8: byte 0 cannot be decoded\n")


def test_fixture_spec_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_bytes(b'{"seed": 1, "apps": {"myvitals": {"bp_rows": 1}}, "note": "\xff"}')
    out = tmp_path / "tree"
    assert main(["fixtures", str(spec), "-o", str(out)]) == 1
    assert capsys.readouterr().err == (f"phiscan: error: fixture spec {spec} "
                                       "is not UTF-8: byte 59 cannot be decoded\n")
    assert not out.exists()


@pytest.mark.parametrize("apps", [{"myvitals": 5}, {"healthmate": []},
                                  {"myvitals": {"bp_row": 3}}],
                         ids=["a-number", "a-list", "an-unknown-key"])
def test_fixtures_bad_app_block_exits_one_and_writes_nothing(tmp_path, capsys, apps):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"seed": 1, "apps": apps}))
    out = tmp_path / "tree"
    code = main(["fixtures", str(spec), "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("phiscan: error: ")
    assert "Traceback" not in err
    assert not out.exists()
    assert not (tmp_path / "tree.manifest.json").exists()


def test_list_parsers_text(capsys):
    assert main(["list-parsers"]) == 0
    out = capsys.readouterr().out
    for token in ("iHealthMyVitals.V2", "jiuana-androidBg.start", "com.withings.wiscale2"):
        assert token in out


def test_list_parsers_json(capsys):
    assert main(["list-parsers", "--format", "json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert [p["id"] for p in listing] == ["myvitals", "glucosmart", "healthmate"]
    assert all({"id", "app", "folder", "signature"} <= set(p) for p in listing)
