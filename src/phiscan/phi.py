"""HIPAA PHI classification and Privacy/Security-Rule evaluation.

Seven PHI categories cover what the Privacy Rule protects: health
condition, provision of healthcare, payment, and the common identifiers
(name, address, SSN, date of birth). Recovered records map onto them
through a published rule table (data/phi_rules_v1.tsv); each finding
carries the id of the rule that fired so the classification is auditable.

This module knows no payload type. A typed rule's excerpt comes from the
payload itself: each structured payload's phi_excerpts() maps the typed
predicates it fires to their excerpts. The two pattern rules (SSN, Luhn-valid
card number) scan every string field of any payload, raw-sweep hits included.

The Security-Rule evaluation asks two questions of each app: did health
data sit in plaintext containers at rest, and was an account password
recoverable in plaintext.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from importlib import resources

from .artifacts import (
    ArtifactRecord,
    CONTAINER_RAW,
    CONTAINER_SQLITE,
    CONTAINER_XML,
    KIND_CREDENTIAL,
    RawHit,
    SourceLocator,
)
from .parsers.glucosmart import DatabaseStatus

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


@dataclass(frozen=True)
class PhiFinding:
    category: str
    value_excerpt: str
    locator: SourceLocator
    rule_id: str


@dataclass(frozen=True)
class SecurityViolation:
    kind: str
    evidence: tuple[SourceLocator, ...]
    description: str


@dataclass(frozen=True)
class PhiMatrixRow:
    app_name: str
    cells: dict


@dataclass(frozen=True)
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


def _ssn_hits(texts: list[str]) -> list[str]:
    return sorted({m for text in texts for m in _SSN_RE.findall(text)})


def _card_hits(texts: list[str]) -> list[str]:
    return sorted({m for text in texts for m in _CARD_RE.findall(text) if luhn_ok(m)})


_PATTERN_PREDICATES = {"ssn_pattern": _ssn_hits, "payment_pattern": _card_hits}


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


def _string_fields(payload: object) -> list[str]:
    if not dataclasses.is_dataclass(payload):
        return []
    return [v for f in dataclasses.fields(payload)
            if isinstance(v := getattr(payload, f.name), str)]


def classify_record(record: ArtifactRecord) -> list[PhiFinding]:
    """Apply every published rule to one record. Unrecognized records yield []."""
    payload = record.payload
    typed = payload.phi_excerpts() if hasattr(payload, "phi_excerpts") else {}
    texts = _string_fields(payload)
    findings = []
    for rule in RULE_TABLE:
        if rule.predicate in _PATTERN_PREDICATES:
            excerpts = _PATTERN_PREDICATES[rule.predicate](texts)
        elif rule.predicate in typed:
            excerpts = [typed[rule.predicate]]
        else:
            continue
        for excerpt in excerpts:
            findings.append(PhiFinding(
                category=rule.category,
                value_excerpt=excerpt,
                locator=record.locator,
                rule_id=rule.rule_id,
            ))
    return findings


# -- generic raw sweep -------------------------------------------------------

_PRINTABLE_RUN = re.compile(rb"[\x20-\x7e]{6,}")

RAW_PATTERNS: tuple[tuple[str, re.Pattern], ...] = (
    ("email", re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")),
    ("mac-address", re.compile(r"\b[0-9A-Fa-f]{2}(?::[0-9A-Fa-f]{2}){5}\b")),
    ("date-token", re.compile(r"\b\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}:\d{2}Z?)?\b")),
    ("epoch-token", re.compile(r"\b1\d{9}(?:\d{3})?\b")),
    ("credential-key", re.compile(r"(?i)\b[\w.@-]*(?:password|token)[\w.@-]*\b")),
    ("ssn", _SSN_RE),
    ("payment-card", _CARD_RE),
)


def scan_raw(data: bytes, locator: SourceLocator) -> list[ArtifactRecord]:
    """Sweep printable regions of arbitrary bytes for PHI-adjacent tokens.

    Catches what the structured parsers do not cover: emails, MAC
    addresses, date-like tokens, password/token key names, SSNs, card
    numbers. Each hit's locator detail records the pattern and byte
    offset.
    """
    hits: list[tuple[int, str, str]] = []
    for run in _PRINTABLE_RUN.finditer(data):
        text = run.group().decode("ascii")
        for pattern_name, rx in RAW_PATTERNS:
            for match in rx.finditer(text):
                value = match.group()
                if pattern_name == "payment-card" and not luhn_ok(value):
                    continue
                hits.append((run.start() + match.start(), pattern_name, value))
    hits.sort()
    return [
        ArtifactRecord(
            kind="raw-hit",
            payload=RawHit(pattern=pattern, value=value),
            locator=dataclasses.replace(
                locator, container=CONTAINER_RAW, detail=f"{pattern}@{offset}"),
        )
        for offset, pattern, value in hits
    ]


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


def evaluate_security_rule(app: str, records: list[ArtifactRecord],
                           findings: list[PhiFinding],
                           db_statuses: list[DatabaseStatus] | None = None, *,
                           redact: bool = True) -> list[SecurityViolation]:
    """Security-Rule outcomes for one app.

    `findings` are the app's records already classified (classify_record);
    records are read only for their credentials.

    plaintext-ephi-at-rest: health-condition findings originating from a
    plaintext sqlite/xml container. plaintext-credential: a recovered
    credential set with the password present. weak-safeguard-note
    (informational): identity data alone in plaintext containers.
    """
    db_statuses = db_statuses or []
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
        excerpt = credential.password_plaintext
        if redact:
            excerpt = redact_value(excerpt)
        violations.append(SecurityViolation(
            kind=VIOLATION_PLAINTEXT_CREDENTIAL,
            evidence=(record.locator,),
            description=(f'{app}: plaintext password at rest for account '
                         f'{credential.account}: "{excerpt}"'),
        ))

    if not health:
        identity = [f for f in plaintext if f.category in _IDENTITY_CATEGORIES]
        if identity:
            encrypted = sum(1 for s in db_statuses if s.status == "encrypted-or-opaque")
            context = (f"; {encrypted} database(s) encrypted" if encrypted else "")
            violations.append(SecurityViolation(
                kind=VIOLATION_WEAK_SAFEGUARD,
                evidence=_sorted_locators(identity),
                description=(f"{app}: identifying data (name/birth date/address) stored "
                             f"in plaintext; no health readings exposed{context} "
                             "(informational)"),
            ))
    return violations
