"""HIPAA PHI classification and Privacy/Security-Rule evaluation.

Seven PHI categories cover what the Privacy Rule protects: health
condition, provision of healthcare, payment, and the common identifiers
(name, address, SSN, date of birth). Recovered records map onto them
through a published rule table (data/phi_rules_v1.tsv); each finding
carries the id of the rule that fired so the classification is auditable.

This module knows no structured payload type. A typed rule's excerpt comes
from the payload itself: each structured payload's phi_excerpts() maps the
typed predicates it can fire to their excerpts, and an empty excerpt fires
none. The two pattern rules (SSN, Luhn-valid card number) read one text, a
payload's str fields joined by NUL. The raw sweep runs the same two patterns
over the printable runs of a file's bytes, so a swept run gives the matches
that the same text in a str field gives.

The Security-Rule evaluation asks two questions of each app: did health
data sit in plaintext containers at rest, and was an account password
recoverable in plaintext.
"""

from __future__ import annotations

import dataclasses
import functools
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from importlib import resources

from .artifacts import (
    ArtifactRecord,
    CONTAINER_RAW,
    CONTAINER_SQLITE,
    CONTAINER_XML,
    DatabaseStatus,
    KIND_CREDENTIAL,
    SourceLocator,
    STATUS_ENCRYPTED,
)

RULES_VERSION = "1"

CAT_HEALTH_CONDITION = "health-condition"
CAT_PROVISION = "provision-of-healthcare"
CAT_PAYMENT = "payment"
CAT_NAME = "name"
CAT_ADDRESS = "address"
CAT_SSN = "ssn"
CAT_DATE_OF_BIRTH = "date-of-birth"

# The seven PHI categories, in the order the compliance matrix reports them.
PHI_CATEGORIES = (
    CAT_HEALTH_CONDITION,
    CAT_PROVISION,
    CAT_PAYMENT,
    CAT_NAME,
    CAT_ADDRESS,
    CAT_SSN,
    CAT_DATE_OF_BIRTH,
)

CATEGORY_LABELS = {
    CAT_HEALTH_CONDITION:
        "Individual's past, present or future physical or mental health condition",
    CAT_PROVISION: "The provision of healthcare to an individual",
    CAT_PAYMENT:
        "Past, present, or future payment for the provision of healthcare to an individual",
    CAT_NAME: "Patient's name",
    CAT_ADDRESS: "Patient's address",
    CAT_SSN: "Patient's social security number",
    CAT_DATE_OF_BIRTH: "Patient's date of birth",
}

CELL_RECOVERED = "recovered"
CELL_NOT_RECOVERED = "not-recovered"

MATRIX_KEY_LINE = "Key: ✓ = Recovered from Application; X = Not Recovered from Application"

VIOLATION_PLAINTEXT_EPHI = "plaintext-ephi-at-rest"
VIOLATION_PLAINTEXT_CREDENTIAL = "plaintext-credential"
VIOLATION_WEAK_SAFEGUARD = "weak-safeguard-note"
INFORMATIONAL_VIOLATIONS = frozenset({VIOLATION_WEAK_SAFEGUARD})

_PLAINTEXT_CONTAINERS = frozenset({CONTAINER_SQLITE, CONTAINER_XML})
_IDENTITY_CATEGORIES = frozenset({CAT_NAME, CAT_DATE_OF_BIRTH, CAT_ADDRESS})

_SSN_RE = re.compile(r"\b\d{3}-\d{2}-\d{4}\b")
_CARD_RE = re.compile(r"\b(?:\d[ -]?){14,15}\d\b")
# Every match of _SSN_RE or _CARD_RE holds a match of this shape, whose \d is
# Unicode's too. Most texts hold none, and then no pattern rule can fire.
_PATTERN_SHAPE = re.compile(r"\d{3}-\d{2}-\d{4}|(?:\d[ -]?){14}\d")


@dataclass(frozen=True, slots=True)
class PhiFinding:
    category: str
    value_excerpt: str
    locator: SourceLocator
    rule_id: str


@dataclass(frozen=True, slots=True)
class SecurityViolation:
    kind: str
    evidence: tuple[SourceLocator, ...]
    description: str


@dataclass(frozen=True, slots=True)
class PhiMatrixRow:
    app_name: str
    cells: dict


@dataclass(frozen=True, slots=True)
class PhiRule:
    rule_id: str
    predicate: str
    category: str


def redact_value(value: str) -> str:
    """Mask all but the first and last two characters of an excerpt."""
    if len(value) <= 4:
        return "*" * len(value)
    return value[:2] + "*" * (len(value) - 4) + value[-2:]


def luhn_ok(digits: str) -> bool:
    numbers = [int(c) for c in digits if c.isdigit()]
    total = 0
    for i, n in enumerate(reversed(numbers)):
        if i % 2 == 1:
            n *= 2
            if n > 9:
                n -= 9
        total += n
    return total % 10 == 0 and len(set(numbers)) > 1


# -- rule predicates ---------------------------------------------------------

# The keys a payload's phi_excerpts() may use.
TYPED_PREDICATES = frozenset({"vital_reading", "device_usage", "profile_name",
                              "profile_birth_date", "timezone_address_proxy"})


# Each pattern predicate's pattern, the check that a match must also pass
# (None for none), and the name a raw-sweep finding's detail gives the match.
_PATTERN_PREDICATES = {
    "ssn_pattern": (_SSN_RE, None, "ssn"),
    "payment_pattern": (_CARD_RE, luhn_ok, "payment-card"),
}


def _load_rule_table() -> tuple[PhiRule, ...]:
    text = (resources.files("phiscan") / f"data/phi_rules_v{RULES_VERSION}.tsv").read_text()
    rules = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rule_id, predicate, category = line.split("\t")
        if predicate not in TYPED_PREDICATES and predicate not in _PATTERN_PREDICATES:
            raise ValueError(f"rule {rule_id}: unknown predicate {predicate}")
        if category not in PHI_CATEGORIES:
            raise ValueError(f"rule {rule_id}: unknown category {category}")
        rules.append(PhiRule(rule_id=rule_id, predicate=predicate, category=category))
    return tuple(rules)


RULE_TABLE = _load_rule_table()

# The rule table as classify_record walks it: (predicate, its pattern and
# check, or None and None for a typed predicate, category, rule id), in rule order.
_RULE_WALK = tuple((rule.predicate, *_PATTERN_PREDICATES.get(rule.predicate, (None,) * 3)[:2],
                    rule.category, rule.rule_id) for rule in RULE_TABLE)


def shown_locator(record: ArtifactRecord, redact: bool) -> SourceLocator:
    """`record`'s locator as a report shows it.

    With `redact`, redact_value masks the account that ends a credential's
    detail, and only there: the account may also occur inside "key prefix".
    """
    locator = record.locator
    if not redact or record.kind != KIND_CREDENTIAL:
        return locator
    account = record.payload.account
    return dataclasses.replace(
        locator, detail=locator.detail.removesuffix(account) + redact_value(account))


# How classify_record reads a payload type: its phi_excerpts function or
# None, and its field names.
@functools.cache
def _plan(payload_type: type) -> tuple[Callable | None, tuple[str, ...]]:
    return (getattr(payload_type, "phi_excerpts", None),
            tuple(f.name for f in dataclasses.fields(payload_type)))


def classify_record(record: ArtifactRecord, *, redact: bool) -> list[PhiFinding]:
    """Apply every published rule to one record, in rule order.

    The payload must be a dataclass instance, as every payload type is;
    any other payload raises TypeError.

    A typed rule fires the entry for its predicate in the payload's
    phi_excerpts(), if it has one and that entry is not empty. A pattern
    rule fires once per distinct match that passes its check, in sorted
    order, in one text: the payload's str fields joined by NUL. No SSN or
    card match holds or crosses a NUL, so each field's matches are the ones
    a search of that field alone finds; the pattern rules are not run
    unless the text holds an SSN or card shape. A raw hit (a Health Mate
    measure code no map decodes) has no typed excerpts, and its pattern name
    holds no digit, so only its value can fire a pattern rule. With
    `redact`, each excerpt is built redacted and the locator is
    shown_locator's.
    """
    payload = record.payload
    excerpts, names = _plan(type(payload))
    typed = excerpts(payload) if excerpts else {}
    text = "\0".join([v for name in names if isinstance(v := getattr(payload, name), str)])
    shaped = _PATTERN_SHAPE.search(text) is not None
    locator = shown_locator(record, redact)
    findings = []
    for predicate, rx, check, category, rule_id in _RULE_WALK:
        if rx is not None:
            if not shaped:
                continue
            found = sorted({m for m in rx.findall(text) if check is None or check(m)})
        elif excerpt := typed.get(predicate):
            found = (excerpt,)
        else:
            continue
        for excerpt in found:
            findings.append(PhiFinding(
                category, redact_value(excerpt) if redact else excerpt, locator, rule_id))
    return findings


# -- generic raw sweep -------------------------------------------------------

# A match must sit in a run of at least this many printable ASCII bytes.
_MIN_RUN = 6
# Printable ASCII bytes become b"p" and all others NUL, so the runs are found
# by a literal search over the mask, not by a class test at every byte.
_PRINTABLE_MASK = bytes(0x70 if 0x20 <= b <= 0x7e else 0 for b in range(256))
_MASKED_RUN = re.compile(b"p" * _MIN_RUN + b"p*")

# The pattern rules as the sweep runs them, in rule order: (detail name, bytes
# pattern, check, category, rule id). A match is only digits, spaces and hyphens,
# so it lies in one printable run; ASCII \b reads each byte next to a run (outside
# \x20-\x7e) as a non-word byte, as it reads a slice's end, so a slice is exact.
_SWEEP_RULES = tuple(
    (name, re.compile(rx.pattern.encode("ascii")), check, rule.category, rule.rule_id)
    for rule in RULE_TABLE if rule.predicate in _PATTERN_PREDICATES
    for rx, check, name in [_PATTERN_PREDICATES[rule.predicate]])


def _printable_runs(data: bytes) -> list[tuple[int, int]]:
    """The spans of the runs of 6 or more printable ASCII bytes in `data`."""
    return [m.span() for m in _MASKED_RUN.finditer(data.translate(_PRINTABLE_MASK))]


def _match_runs(data: bytes, runs: list[tuple[int, int]]) -> list[tuple[int, int, str]]:
    """Every pattern-rule match inside the given printable runs of `data`, sorted.

    Each match is (byte offset in `data`, its rule's index in _SWEEP_RULES,
    value) and passes its rule's check. Each run is matched as a slice of its
    own, so the cost follows the bytes of the runs, not the size of `data`.
    """
    matches = []
    for start, end in runs:
        run = data[start:end]
        for index, (_, rx, check, _, _) in enumerate(_SWEEP_RULES):
            for match in rx.finditer(run):
                value = match.group().decode("ascii")
                if check is None or check(value):
                    matches.append((start + match.start(), index, value))
    return sorted(matches)


# Digits become b"d", b" " and b"-" stay and every other byte becomes b"x". An
# SSN match is ddd-dd-dddd, a card match 15 or 16 digits with at most one space
# or hyphen between two of them: 15 digits in a row once spaces and hyphens are
# deleted. Bytes whose translation holds neither shape hold no match.
_DIGIT_SHAPES = bytes(0x64 if 0x30 <= b <= 0x39 else b if b in b" -" else 0x78
                      for b in range(256))
_SSN_SHAPE = b"ddd-dd-dddd"
_CARD_SHAPE = b"d" * 15


def scan_raw(data: bytes, package_name: str, relative_path: str, *,
             redact: bool) -> list[PhiFinding]:
    """The PHI findings of a sweep of arbitrary bytes for the pattern rules.

    Catches what the structured parsers do not cover. Each pattern rule's
    pattern is matched over the runs of 6 or more printable ASCII bytes in
    `data`, and each match that passes the rule's check (Luhn, for a card)
    is one finding. A finding's locator names the package and path, with
    detail "ssn@{offset}" or "payment-card@{offset}", the match's byte
    offset in `data`. Findings come in offset order, then in rule order;
    with `redact`, each excerpt is built redacted.

    A file with no SSN or card shape is not matched at all (most swept
    files); otherwise only the runs that hold a shape are matched, since a
    match lies inside one run and holds its rule's shape.
    """
    shapes = data.translate(_DIGIT_SHAPES)
    ssn = _SSN_SHAPE in shapes
    card = _CARD_SHAPE in shapes.translate(None, b" -")
    if not (ssn or card):
        return []
    # a run can hold only a shape its file holds, so only those are tested
    runs = [(start, end) for start, end in _printable_runs(data)
            if ssn and shapes.find(_SSN_SHAPE, start, end) >= 0
            or card and _CARD_SHAPE in shapes[start:end].translate(None, b" -")]
    findings = []
    for offset, index, value in _match_runs(data, runs):
        name, _, _, category, rule_id = _SWEEP_RULES[index]
        locator = SourceLocator(package_name, relative_path, CONTAINER_RAW, f"{name}@{offset}")
        findings.append(PhiFinding(
            category, redact_value(value) if redact else value, locator, rule_id))
    return findings


# -- rule evaluation ---------------------------------------------------------

def evaluate_privacy_rule(app: str, findings: list[PhiFinding]) -> PhiMatrixRow:
    """One Privacy-Rule matrix row: recovered iff >=1 finding per category."""
    present = {f.category for f in findings}
    cells = {cat: CELL_RECOVERED if cat in present else CELL_NOT_RECOVERED
             for cat in PHI_CATEGORIES}
    return PhiMatrixRow(app_name=app, cells=cells)


def _sorted_locators(findings: list[PhiFinding]) -> tuple[SourceLocator, ...]:
    unique = {(f.locator.relative_path, f.locator.detail): f.locator for f in findings}
    return tuple(unique[k] for k in sorted(unique))


def evaluate_security_rule(app: str, records: Iterable[ArtifactRecord],
                           findings: list[PhiFinding],
                           db_statuses: Iterable[DatabaseStatus], *,
                           redact: bool) -> list[SecurityViolation]:
    """Security-Rule outcomes for one app.

    `findings` are the app's records already classified (classify_record)
    and its raw-sweep findings (scan_raw); records are read only for their
    credentials.

    plaintext-ephi-at-rest: health-condition findings originating from a
    plaintext sqlite/xml container. plaintext-credential: a recovered
    credential set with the password present, its evidence shown_locator's;
    with `redact`, its account and password go through redact_value in the
    description. weak-safeguard-note (informational): identity data alone
    in plaintext containers.
    """
    plaintext = [f for f in findings if f.locator.container in _PLAINTEXT_CONTAINERS]
    violations: list[SecurityViolation] = []

    health = [f for f in plaintext if f.category == CAT_HEALTH_CONDITION]
    if health:
        violations.append(SecurityViolation(
            kind=VIOLATION_PLAINTEXT_EPHI,
            evidence=_sorted_locators(health),
            description=(f"{app}: {len(health)} health-condition value(s) stored "
                         "in plaintext at rest, without encryption of appropriate strength"),
        ))

    for record in records:
        if record.kind != KIND_CREDENTIAL:
            continue
        credential = record.payload
        if credential.password_plaintext is None:
            continue
        account, excerpt = credential.account, credential.password_plaintext
        if redact:
            account, excerpt = redact_value(account), redact_value(excerpt)
        violations.append(SecurityViolation(
            kind=VIOLATION_PLAINTEXT_CREDENTIAL,
            evidence=(shown_locator(record, redact),),
            description=f'{app}: plaintext password at rest for account {account}: "{excerpt}"',
        ))

    if not health:
        identity = [f for f in plaintext if f.category in _IDENTITY_CATEGORIES]
        if identity:
            encrypted = sum(1 for s in db_statuses if s.status == STATUS_ENCRYPTED)
            context = (f"; {encrypted} database(s) encrypted" if encrypted else "")
            violations.append(SecurityViolation(
                kind=VIOLATION_WEAK_SAFEGUARD,
                evidence=_sorted_locators(identity),
                description=(f"{app}: identifying data (name/birth date/address) stored "
                             f"in plaintext; no health readings exposed{context} "
                             "(informational)"),
            ))
    return violations
