"""Seeded phone-image packages: apps no structured parser knows.

A phone image holds many apps besides the three medical ones. phiscan
only sweeps their files with phi.scan_raw. This module writes such
packages (a log, a shared-preferences XML file, a small SQLite database
and a JSON-lines event file each) full of emails, MAC addresses, dates,
epoch values and token keys, and plants a few SSNs and Luhn-valid card
numbers. It also extends a fixture manifest with those files, with one
expected finding per planted value at its exact byte offset, and with a
compliance-matrix row for each package that holds one, so that
fixtures.verify_scan_against_manifest checks the sweep path too.

Outside the planted values, no run of digits joined by single spaces or
hyphens reaches the 15 digits of a card number or has the 3-2-4 shape of
an SSN, so those patterns can match only what was planted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import sqlite3
import tempfile
from datetime import datetime, timezone
from pathlib import Path

from phiscan.artifacts import CONTAINER_RAW, SourceLocator
from phiscan.fixtures import ExpectedFinding, FixtureManifest, PlantedRecord
from phiscan.phi import CAT_PAYMENT, CAT_SSN, CELL_NOT_RECOVERED, CELL_RECOVERED, PHI_CATEGORIES

_VENDORS = ("acme", "nimbus", "orbit", "lumen", "pixel", "vertex", "harbor", "quill")
_PRODUCTS = ("notes", "weather", "chat", "maps", "music", "photos", "fitness",
             "wallet", "reader", "mail", "camera", "keyboard")
_TAGS = ("SyncService", "AuthManager", "Uploader", "Scheduler", "PushReceiver", "Billing")
_FIRST = ("alex", "jordan", "sam", "taylor", "morgan", "casey", "riley", "jamie")
_LAST = ("reyes", "carter", "brooks", "nguyen", "okafor", "lindqvist", "moreau")
_DOMAINS = ("example.com", "example.org", "mail.example.net")
_LETTERS = "ABCDEFGHJKLMNPQRSTUVWXYZabcdefghjkmnpqrstuvwxyz"


def _email(rng: random.Random) -> str:
    return f"{rng.choice(_FIRST)}.{rng.choice(_LAST)}{rng.randrange(100)}@{rng.choice(_DOMAINS)}"


def _mac(rng: random.Random) -> str:
    return ":".join(f"{rng.randrange(256):02x}" for _ in range(6))


def _token(rng: random.Random) -> str:
    # letters at every other position: no digit run can form a card number
    return "".join(rng.choice(_LETTERS) + rng.choice(_LETTERS + "0123456789")
                   for _ in range(16))


def _epoch(rng: random.Random) -> int:
    return rng.randrange(1_500_000_000, 1_700_000_000)


def _iso(seconds: int) -> str:
    return datetime.fromtimestamp(seconds, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _ssn(rng: random.Random) -> str:
    return f"{rng.randrange(100, 900)}-{rng.randrange(10, 100)}-{rng.randrange(1000, 10000)}"


def _luhn_card(rng: random.Random) -> str:
    digits = [4] + [rng.randrange(10) for _ in range(14)]
    total = 0
    for i, d in enumerate(reversed(digits)):
        if i % 2 == 0:  # doubled: these sit at odd positions once the check digit is appended
            d = d * 2 - 9 if d * 2 > 9 else d * 2
        total += d
    return "".join(map(str, digits + [(10 - total % 10) % 10]))


def _log_line(rng: random.Random) -> str:
    ts = _epoch(rng)
    stamp = datetime.fromtimestamp(ts, timezone.utc)
    head = (f"{stamp:%Y-%m-%d %H:%M:%S}.{rng.randrange(1000):03d} "
            f"{rng.choice('DIWE')}/{rng.choice(_TAGS)}:")
    kind = rng.randrange(4)
    if kind == 0:
        body = f"sync ok account={_email(rng)} device={_mac(rng)} ts={ts}"
    elif kind == 1:
        body = f"refreshed auth_token for {_email(rng)} expires={_iso(_epoch(rng))}"
    elif kind == 2:
        body = f"paired device={_mac(rng)} battery={rng.randrange(5, 101)}%"
    else:
        body = f"push registered id={_token(rng)}"
    return f"{head} {body}"


def _log(rng: random.Random, lines: int, planted: str | None) -> bytes:
    out = [_log_line(rng) for _ in range(lines)]
    if planted is not None:
        out.insert(rng.randrange(len(out) + 1),
                   f"{_iso(_epoch(rng))} I/FormActivity: submitted ssn={planted} status=saved")
    return ("\n".join(out) + "\n").encode("ascii")


def _prefs(rng: random.Random, entries: int, planted: str | None) -> bytes:
    lines = [f'    <string name="account_email">{_email(rng)}</string>',
             f'    <string name="auth_token">{_token(rng)}</string>',
             f'    <string name="paired_mac">{_mac(rng)}</string>']
    for i in range(entries):
        suffix = chr(97 + i % 26)
        lines.append(f'    <long name="last_sync_{suffix}" value="{_epoch(rng) * 1000}" />')
        lines.append(f'    <string name="recent_login_{suffix}">'
                     f'{_email(rng)} at {_iso(_epoch(rng))}</string>')
    if planted is not None:
        lines.insert(rng.randrange(len(lines) + 1),
                     f'    <string name="saved_card">{planted}</string>')
    text = "\n".join(["<?xml version='1.0' encoding='utf-8' standalone='yes' ?>", "<map>",
                      *lines, "</map>", ""])
    return text.encode("ascii")


def _events(rng: random.Random, lines: int) -> bytes:
    rows = [json.dumps({"at": _iso(_epoch(rng)), "account": _email(rng),
                        "device": _mac(rng), "ts": _epoch(rng)}, separators=(",", ":"))
            for _ in range(lines)]
    return ("\n".join(rows) + "\n").encode("ascii")


def _database(rng: random.Random, rows: int) -> bytes:
    fd, path = tempfile.mkstemp(suffix=".db", prefix="perfbench-phone-")
    os.close(fd)
    try:
        conn = sqlite3.connect(path)
        try:
            # a text column starting with letters leads each row, so digits in
            # the record header never run into the date that follows
            conn.execute("CREATE TABLE events (level TEXT, at TEXT, account TEXT, detail TEXT)")
            conn.executemany("INSERT INTO events VALUES (?,?,?,?)", [
                (rng.choice(("INFO", "WARN", "DEBUG")), _iso(_epoch(rng)), _email(rng),
                 f"mac {_mac(rng)}") for _ in range(rows)])
            conn.commit()
        finally:
            conn.close()
        return Path(path).read_bytes()
    finally:
        os.unlink(path)


def _raw_planted(package: str, path: str, data: bytes, pattern: str, value: str,
                 category: str, rule_id: str) -> PlantedRecord:
    offset = data.index(value.encode("ascii"))
    return PlantedRecord(
        app=package, kind="raw-hit",
        locator=SourceLocator(package, path, CONTAINER_RAW, f"{pattern}@{offset}"),
        payload={"pattern": pattern, "value": value},
        expected_findings=(ExpectedFinding(category, rule_id, value),))


@dataclasses.dataclass(frozen=True)
class Packages:
    files: dict[str, bytes]
    planted: tuple[PlantedRecord, ...]
    expected_matrix: dict


def phone_packages(rng: random.Random, count: int, *, lines: int = 90,
                   ssn_rate: float = 0.12, card_rate: float = 0.06) -> Packages:
    """`count` unmatched packages; the given shares of them hold an SSN or a card.

    `lines` sets the size of each package: its log has that many lines, and
    its other files grow with it.
    """
    files: dict[str, bytes] = {}
    planted: list[PlantedRecord] = []
    matrix: dict[str, dict] = {}
    for k in range(count):
        package = f"com.{rng.choice(_VENDORS)}.{rng.choice(_PRODUCTS)}{k}"
        ssn = _ssn(rng) if rng.random() < ssn_rate else None
        card = _luhn_card(rng) if rng.random() < card_rate else None
        log_path = f"{package}/files/logs/app.log"
        prefs_path = f"{package}/shared_prefs/{package}_preferences.xml"
        files[log_path] = _log(rng, lines, ssn)
        files[prefs_path] = _prefs(rng, lines // 3, card)
        files[f"{package}/databases/events.db"] = _database(rng, lines * 2 // 3)
        files[f"{package}/files/events.jsonl"] = _events(rng, lines // 2)
        found = []
        if ssn is not None:
            planted.append(_raw_planted(package, log_path, files[log_path], "ssn", ssn,
                                        CAT_SSN, "ssn-pattern"))
            found.append(CAT_SSN)
        if card is not None:
            planted.append(_raw_planted(package, prefs_path, files[prefs_path],
                                        "payment-card", card, CAT_PAYMENT, "payment-pattern"))
            found.append(CAT_PAYMENT)
        if found:
            matrix[package] = {cat: CELL_RECOVERED if cat in found else CELL_NOT_RECOVERED
                               for cat in PHI_CATEGORIES}
    return Packages(files=files, planted=tuple(planted), expected_matrix=matrix)


def merge(tree: dict[str, bytes], manifest: FixtureManifest,
          packages: Packages) -> tuple[dict[str, bytes], FixtureManifest]:
    """The forge's tree and manifest with the packages added."""
    tree = {**tree, **packages.files}
    files = dict(manifest.files)
    for path, data in packages.files.items():
        files[path] = {"sha256": hashlib.sha256(data).hexdigest(), "byte_length": len(data)}
    return tree, dataclasses.replace(
        manifest, files=files, planted=manifest.planted + packages.planted,
        expected_matrix={**manifest.expected_matrix, **packages.expected_matrix})
