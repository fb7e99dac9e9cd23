"""HIPAA PHI classification and Privacy/Security-Rule evaluation.

Seven PHI categories cover what the Privacy Rule protects: health
condition, provision of healthcare, payment, and the common identifiers
(name, address, SSN, date of birth). Recovered records map onto them
through a published rule table (data/phi_rules_v1.tsv); each finding
carries the id of the rule that fired so the classification is auditable.

This module knows no structured payload type. A typed rule's excerpt comes
from the payload itself: each structured payload's phi_excerpts() maps the
typed predicates it can fire to their excerpts, and an empty excerpt fires
none. The two pattern rules (SSN, Luhn-valid card number) read one text: a
payload's str fields joined by NUL, or the matched value of a raw-sweep hit.
One walk over the rule table gives the findings of both.

The Security-Rule evaluation asks two questions of each app: did health
data sit in plaintext containers at rest, and was an account password
recoverable in plaintext.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import itertools
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from importlib import resources

from .artifacts import (
    ArtifactRecord,
    CONTAINER_RAW,
    CONTAINER_SQLITE,
    CONTAINER_XML,
    DatabaseStatus,
    EMAIL_RE,
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


# Each pattern predicate's distinct matches in one text, sorted.
_PATTERN_PREDICATES = {
    "ssn_pattern": lambda text: sorted(set(_SSN_RE.findall(text))),
    "payment_pattern": lambda text: sorted({m for m in _CARD_RE.findall(text) if luhn_ok(m)}),
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

# The rule table as _findings walks it: (predicate, its pattern function or
# None for a typed predicate, category, rule id), in rule order.
_RULE_WALK = tuple((rule.predicate, _PATTERN_PREDICATES.get(rule.predicate), rule.category,
                    rule.rule_id) for rule in RULE_TABLE)


def _findings(typed: dict[str, str], text: str, locator: SourceLocator,
              redact: bool) -> list[PhiFinding]:
    """The findings the rule table fires, in rule order, each at `locator`.

    A typed rule fires its predicate's entry in `typed`, unless that is
    absent or empty; a pattern rule fires once per distinct match in
    `text`, in sorted order, and is not run unless `text` holds an SSN or
    card shape. With `redact`, each excerpt is built redacted.
    """
    shaped = _PATTERN_SHAPE.search(text) is not None
    findings = []
    for predicate, pattern, category, rule_id in _RULE_WALK:
        if pattern is not None:
            if not shaped:
                continue
            excerpts = pattern(text)
        elif excerpt := typed.get(predicate):
            excerpts = (excerpt,)
        else:
            continue
        for excerpt in excerpts:
            findings.append(PhiFinding(
                category, redact_value(excerpt) if redact else excerpt, locator, rule_id))
    return findings


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
    """Apply every published rule to one record.

    The payload must be a dataclass instance, as every payload type is;
    any other payload raises TypeError.

    Typed rules take the payload's phi_excerpts(), if it has one; the
    pattern rules read one text, the payload's str fields joined by NUL. No
    SSN or card match holds or crosses a NUL, so each field's matches are
    the ones a search of that field alone finds. A raw hit (a Health Mate
    measure code no map decodes) has no typed excerpts, and its pattern
    name holds no digit, so only its value can fire a pattern rule. With
    `redact`, each excerpt is built redacted and the locator is shown_locator's.
    """
    payload = record.payload
    excerpts, names = _plan(type(payload))
    text = "\0".join([v for name in names if isinstance(v := getattr(payload, name), str)])
    return _findings(excerpts(payload) if excerpts else {}, text,
                     shown_locator(record, redact), redact)


# -- generic raw sweep -------------------------------------------------------

# A hit must sit in a run of at least this many printable ASCII bytes.
_MIN_RUN = 6
# Printable ASCII bytes become b"p" and all others NUL, so the runs are found
# by a literal search over the mask, not by a class test at every byte.
_PRINTABLE_MASK = bytes(0x70 if 0x20 <= b <= 0x7e else 0 for b in range(256))
_MASKED_RUN = re.compile(b"p" * _MIN_RUN + b"p*")

RAW_PATTERNS: tuple[tuple[str, re.Pattern], ...] = (
    ("email", EMAIL_RE),
    ("credential-key", re.compile(r"(?i)\b[\w.@-]*(?:password|token)[\w.@-]*\b")),
    ("ssn", _SSN_RE),
    ("payment-card", _CARD_RE),
)

# The same patterns over bytes. None consumes a byte outside \x20-\x7e, and
# an ASCII \b treats every other byte as a non-word, so a match never
# crosses the NUL that _match_runs puts between two printable runs.
_RAW_BYTE_PATTERNS = tuple(
    (name, re.compile(rx.pattern.encode("ascii"), rx.flags & ~re.UNICODE))
    for name, rx in RAW_PATTERNS)

# A credential-key match holds "password" or "token" in any case and lies
# inside one run of [\w.@-] bytes, whose neighbours are non-word bytes. This
# table lowercases the run bytes and turns every other byte into NUL, so the
# runs that hold a keyword are found by a literal search.
_CREDENTIAL_KEYWORDS = (b"password", b"token")
_KEY_RUN_TABLE = bytes(c if re.fullmatch(rb"[\w.@-]", bytes([c])) else 0
                       for c in bytes(range(256)).lower())


def _keyword_runs(swept: bytes) -> list[tuple[int, int]]:
    r"""The spans of the [\w.@-] runs of `swept` that hold a credential keyword."""
    keyed = swept.translate(_KEY_RUN_TABLE)
    spans = set()
    for keyword in _CREDENTIAL_KEYWORDS:
        at = keyed.find(keyword)
        while at >= 0:
            end = keyed.find(b"\0", at)
            if end < 0:
                end = len(keyed)
            spans.add((keyed.rfind(b"\0", 0, at) + 1, end))
            at = keyed.find(keyword, end)
    return sorted(spans)


# The email pattern's local-part bytes map to themselves, every other byte to
# NUL, so the run that ends at an "@" starts after the last NUL before it.
_EMAIL_LOCAL_TABLE = bytes(c if re.fullmatch(rb"[A-Za-z0-9._%+-]", bytes([c])) else 0
                           for c in range(256))


def _email_matches(rx: re.Pattern, swept: bytes) -> Iterator[re.Match]:
    """The matches of rx.finditer(swept) for the email pattern, in linear time.

    A match's local part is the tail of the local-class run that ends at its
    "@", and whether the rest matches does not depend on where that part
    starts, so the leftmost start of each "@" is the only one to try: the
    run's start, or the previous match's end if that is later. The local
    runs of two "@"s do not overlap, nor do their domain runs.
    """
    at = swept.find(b"@")
    if at < 0:
        return
    local = swept.translate(_EMAIL_LOCAL_TABLE)
    end = 0
    while at >= 0:
        start = max(local.rfind(b"\0", 0, at) + 1, end)
        if start < at and (match := rx.match(swept, start)):
            yield match
            end = match.end()
        at = swept.find(b"@", at + 1)


def _printable_runs(data: bytes) -> list[tuple[int, int]]:
    """The spans of the runs of 6 or more printable ASCII bytes in `data`."""
    return [m.span() for m in _MASKED_RUN.finditer(data.translate(_PRINTABLE_MASK))]


def _match_runs(data: bytes, runs: list[tuple[int, int]]) -> list[tuple[int, str, str]]:
    """Every raw-pattern hit inside the given printable runs of `data`, sorted.

    The runs are cut out of `data` and joined by NUL bytes, and each pattern
    is matched once over the joined runs, so the cost follows the bytes of
    the runs, not the size of `data`. credential-key is matched only inside
    the runs of word, '.', '@' and '-' bytes that hold "password" or "token"
    in any case, email is tried once per "@" (_email_matches), and a
    payment-card match must pass the Luhn check.
    """
    swept = b"\0".join([data[start:end] for start, end in runs])
    # where each run starts in `swept`, to map a match back into `data`
    swept_starts = list(itertools.accumulate(
        (end - start + 1 for start, end in runs), initial=0))
    hits = []
    for pattern_name, rx in _RAW_BYTE_PATTERNS:
        if pattern_name == "credential-key":
            # a run's edges are non-word bytes, so a search cut to the run
            # finds what a search of the whole buffer finds in it
            found = itertools.chain.from_iterable(
                rx.finditer(swept, start, end) for start, end in _keyword_runs(swept))
        elif pattern_name == "email":
            found = _email_matches(rx, swept)
        else:
            found = rx.finditer(swept)
        for match in found:
            value = match.group().decode("ascii")
            if pattern_name == "payment-card" and not luhn_ok(value):
                continue
            run = bisect.bisect_right(swept_starts, match.start()) - 1
            hits.append((runs[run][0] + match.start() - swept_starts[run], pattern_name, value))
    return sorted(hits)


def match_raw(data: bytes) -> list[tuple[int, str, str]]:
    r"""Every raw-pattern hit in `data`, as (byte offset, pattern, value), sorted.

    A hit is a pattern match inside a run of 6 or more printable ASCII
    bytes (emails, password/token key names, SSNs and Luhn-valid card
    numbers). No pattern consumes a byte outside \x20-\x7e, so every hit
    lies inside one run, and _match_runs over all the runs finds them all.
    """
    return _match_runs(data, _printable_runs(data))


# Digits become b"d", b" " and b"-" stay and every other byte becomes b"x". A
# hit's value is bytes of the file, and the SSN rule needs ddd-dd-dddd in it,
# the card rule 15 or more digits with at most one space or hyphen between two
# of them: 15 digits in a row once spaces and hyphens are deleted. Bytes whose
# translation holds neither can fire no rule, whatever the patterns' edges.
_DIGIT_SHAPES = bytes(0x64 if 0x30 <= b <= 0x39 else b if b in b" -" else 0x78
                      for b in range(256))
_SSN_SHAPE = b"ddd-dd-dddd"
_CARD_SHAPE = b"d" * 15


def scan_raw(data: bytes, package_name: str, relative_path: str, *,
             redact: bool) -> list[PhiFinding]:
    """The PHI findings of a sweep of arbitrary bytes for raw patterns.

    Catches what the structured parsers do not cover. Each raw-pattern hit
    (see match_raw) goes through classify_record's rule walk, with its value
    as the text and no typed excerpts, so only the pattern rules can fire;
    most hits fire none and are dropped. A finding's locator names the
    package and path, with detail "{pattern}@{offset}", the hit's byte
    offset in `data`. Findings come in hit order, then in rule order; with
    `redact`, each excerpt is built redacted.

    A hit fires a rule only if its value holds an SSN or a card shape, and
    so only if the printable run it lies in holds one. A file with no such
    shape is not matched at all (most swept files); otherwise only the runs
    that hold one are matched, and they give the hits match_raw finds in
    them, since no match crosses the NUL that joins two runs.
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
    for offset, pattern, value in _match_runs(data, runs):
        locator = SourceLocator(package_name, relative_path, CONTAINER_RAW, f"{pattern}@{offset}")
        findings += _findings({}, value, locator, redact)
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
