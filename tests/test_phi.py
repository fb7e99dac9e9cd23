"""PHI classification rules, raw sweep, and Privacy/Security-Rule evaluation."""

from __future__ import annotations

import dataclasses
import random
import re
import signal

import pytest
from hypothesis import example, given, strategies as st

from phiscan import phi
from phiscan.artifacts import (
    ArtifactRecord,
    CredentialSet,
    RawHit,
    SourceLocator,
    normalize_timestamp,
)
from phiscan.parsers.glucosmart import DatabaseStatus, GlucoProfile
from phiscan.parsers.healthmate import (
    DeviceRegistration,
    HealthMateMeasurement,
    HealthMateUser,
)
from phiscan.parsers.myvitals import (
    BloodPressureReading,
    EnvironmentReading,
    MyVitalsProfile,
    OximetryReading,
    WeightReading,
    parse_region_host_xml,
)
from phiscan.phi import (
    CATEGORY_LABELS,
    PHI_CATEGORIES,
    PhiFinding,
    RULE_TABLE,
    classify_record,
    evaluate_privacy_rule,
    evaluate_security_rule,
    luhn_ok,
    redact_value,
    scan_raw,
)
from phiscan.scanner import scan_evidence

SQLITE_LOC = SourceLocator("iHealthMyVitals.V2",
                           "iHealthMyVitals.V2/Databases/androidNin.db",
                           "sqlite-table", "TB_SPO2Result:1")
XML_LOC = SourceLocator("jiuana-androidBg.start",
                        "jiuana-androidBg.start/shared_prefs/user_info.xml",
                        "xml-file", "UserName/DeviceID")


def oximetry_record(loc=SQLITE_LOC) -> ArtifactRecord:
    ts = normalize_timestamp(1530829549)
    return ArtifactRecord(kind="oximetry", locator=loc, payload=OximetryReading(
        result_spo2=97, pulse_rate=89, perfusion_index=9.7, measured_at=ts,
        last_change_at=normalize_timestamp(1530829596), phone_created_at=ts,
        health_id="medicaldevices2018exper@gmail.com", machine_type="PO3M",
        machine_device_id="5CF821DED2ED", used_user_id=0, phone_data_id="5CF821DED2ED"))


def test_oximetry_yields_health_and_provision():
    cats = {f.category for f in classify_record(oximetry_record(), redact=False)}
    assert cats == {"health-condition", "provision-of-healthcare"}


def test_myvitals_profile_yields_three_identifier_categories():
    record = ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=MyVitalsProfile(
        name="Pat Example", date_of_birth="1985-06-15",
        timezone_location="America/Chicago", email="pat@example.com"))
    findings = classify_record(record, redact=False)
    assert {f.category for f in findings} == {"name", "date-of-birth", "address"}
    address = next(f for f in findings if f.category == "address")
    assert "proxy" in address.rule_id  # flagged as a proxy-location rule
    assert address.value_excerpt == "America/Chicago"


def test_gluco_profile_yields_name_only():
    record = ArtifactRecord(kind="user-profile", locator=XML_LOC, payload=GlucoProfile(
        username="medicaldevices2018exper@gmail.com", device_identifier="BG5-0012AB"))
    findings = classify_record(record, redact=False)
    assert [f.category for f in findings] == ["name"]


def test_healthmate_user_has_no_address():
    record = ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=HealthMateUser(
        name="Pat", gender="F", birthday="1985-06-15", email="pat@example.com"))
    cats = {f.category for f in classify_record(record, redact=False)}
    assert cats == {"name", "date-of-birth"}


def test_device_registration_is_provision_only():
    record = ArtifactRecord(kind="device-registration", locator=SQLITE_LOC,
                            payload=DeviceRegistration(
                                id=5595648,
                                association_date=normalize_timestamp(1541806236000),
                                last_use_date=normalize_timestamp(1542127729662),
                                modified_date=normalize_timestamp(1542127635000),
                                mac_address="00:24:e4:5a:ee:6c", firmware=431,
                                timezone=None, battery_pct=77, device_type=4,
                                device_model=43))
    findings = classify_record(record, redact=False)
    assert [f.category for f in findings] == ["provision-of-healthcare"]
    assert "00:24:e4:5a:ee:6c" in findings[0].value_excerpt


def test_measurement_kinds_classify_as_health():
    for kind in ("weight", "body-fat", "body-water", "pulse", "bone-mass",
                 "muscle-mass", "bmi", "systolic", "diastolic"):
        record_kind = ("blood-pressure" if kind in ("systolic", "diastolic", "pulse")
                       else "weight")
        record = ArtifactRecord(kind=record_kind, locator=SQLITE_LOC,
                                payload=HealthMateMeasurement(
                                    kind=kind, value=42.0,
                                    measured_at=normalize_timestamp(1541807000000),
                                    device_ref=None))
        cats = {f.category for f in classify_record(record, redact=False)}
        assert cats == {"health-condition", "provision-of-healthcare"}, kind


def test_credential_record_yields_no_phi_findings():
    record = ArtifactRecord(kind="credential", locator=XML_LOC, payload=CredentialSet(
        account="a@b.co", password_plaintext="hunter2"))
    assert classify_record(record, redact=False) == []


def test_ssn_pattern_in_string_field():
    record = ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=MyVitalsProfile(
        name="Pat 123-45-6789", date_of_birth="", timezone_location="",
        email="p@example.com"))
    cats = [f.category for f in classify_record(record, redact=False)]
    assert "ssn" in cats


def test_payload_excerpts_and_rule_table_agree(replica_tree):
    # Every payload type a parser emits: the declared tables' payloads
    # (MyVitals' five, Health Mate's devices and users), the Health Mate
    # measure table's HealthMateMeasurement and Gluco-Smart's GlucoProfile.
    emitted = {BloodPressureReading, OximetryReading, WeightReading, EnvironmentReading,
               MyVitalsProfile, DeviceRegistration, HealthMateUser,
               HealthMateMeasurement, GlucoProfile}
    for payload_type in emitted:
        assert callable(getattr(payload_type, "phi_excerpts", None)), payload_type
    tree, _ = replica_tree
    records = scan_evidence(tree).records
    assert {type(r.payload) for r in records} == emitted | {CredentialSet}
    typed = {key for r in records if type(r.payload) in emitted
             for key in r.payload.phi_excerpts()}
    assert typed | {"ssn_pattern", "payment_pattern"} == {r.predicate for r in RULE_TABLE}


def test_every_finding_references_published_rule():
    known = {r.rule_id for r in RULE_TABLE}
    for record in (oximetry_record(),):
        for finding in classify_record(record, redact=False):
            assert finding.rule_id in known
            assert finding.category in PHI_CATEGORIES
    assert len(PHI_CATEGORIES) == 7
    assert set(CATEGORY_LABELS) == set(PHI_CATEGORIES)


# -- raw sweep ----------------------------------------------------------------

RAW_AT = ("pkg", "pkg/blob.bin")  # package and path of the swept file


def _sweep(data, redact=False):
    return scan_raw(data, *RAW_AT, redact=redact)


def _found(data):
    return [(f.value_excerpt, f.locator.detail) for f in _sweep(data)]


def test_scan_raw_keeps_no_mac_date_or_epoch_token():
    # none can hold an SSN or card match
    for token in (b"00:24:e4:5a:ee:6c", b"2018-07-05", b"2018-07-05T22:25:49Z",
                  b"1541806236", b"1541806236000"):
        assert _sweep(b"junk " + token + b" junk") == []


def test_scan_raw_empty_input():
    assert _sweep(b"") == []


@pytest.mark.parametrize("data, expected", [
    (b"\n123-45-6789\n", [("123-45-6789", "ssn@1")]),
    (b"\x00123-45-6789\xff", [("123-45-6789", "ssn@1")]),
    (b"\x00\x00 123-45-6789", [("123-45-6789", "ssn@3")]),
    (b"ssn 123-45\x7f-6789", []),  # a byte outside the runs cuts the SSN
    (b"x@y.com\n123-45-6789!", [("123-45-6789", "ssn@8")]),
    # two SSNs in one email; an SSN glued to the email before it has no \b
    (b"123-45-6789.123-45-6780@x.io", [("123-45-6789", "ssn@0"), ("123-45-6780", "ssn@12")]),
    (b"a@b.co123-45-6789@x.io", []),
    # a match never joins two runs, though a space between them would
    (b"card 4111 1111\x001111 1111 x", []),
    (b"card 4111 1111 1111 1111 x", [("4111 1111 1111 1111", "payment-card@5")]),
])
def test_scan_raw_matches_sit_in_printable_runs(data, expected):
    assert _found(data) == expected


def test_both_ends_of_printable_ascii_are_in_a_run():
    # " " (0x20) and "~" (0x7e) are printable; 0x1f and 0x7f, just outside, are not
    data = b"\x1f" + b"~" * 6 + b"\x7f" + b" " * 6 + b"\x1f"
    assert phi._printable_runs(data) == [(1, 7), (8, 14)]


def test_scan_raw_offsets_point_at_match():
    data = b"\x00\x00AAAA 123-45-6789\x00"
    (finding,) = _sweep(data)
    offset = data.index(b"123-45-6789")
    assert finding.locator == SourceLocator(*RAW_AT, "raw-bytes", f"ssn@{offset}")


def test_scan_raw_card_requires_luhn():
    assert _found(b"card 4111111111111111 end") == [("4111111111111111", "payment-card@5")]
    assert _sweep(b"card 4111111111111112 end") == []
    # millisecond epochs are 13 digits and must not look like cards
    assert _sweep(b"ts 1541806236000 end") == []


_PRINTABLE_RUN = re.compile(rb"[\x20-\x7e]{6,}")
# The pattern rules as a reference writes them, in rule-table order: detail
# name, pattern, check, category and rule id.
_REFERENCE_RULES = (
    ("ssn", re.compile(r"\b\d{3}-\d{2}-\d{4}\b"), lambda match: True, "ssn", "ssn-pattern"),
    ("payment-card", re.compile(r"\b(?:\d[ -]?){14,15}\d\b"), luhn_ok, "payment",
     "payment-pattern"),
)


def run_by_run_findings(data, redact=False):
    """The sweep's reference: both pattern rules over each printable run of 6+ bytes."""
    found = []
    for run in _PRINTABLE_RUN.finditer(data):
        text = run.group().decode("ascii")
        for order, (_, rx, check, _, _) in enumerate(_REFERENCE_RULES):
            found += [(run.start() + m.start(), order, m.group())
                      for m in rx.finditer(text) if check(m.group())]
    findings = []
    for offset, order, value in sorted(found):
        name, _, _, category, rule_id = _REFERENCE_RULES[order]
        findings.append(PhiFinding(category, redact_value(value) if redact else value,
                                   SourceLocator(*RAW_AT, "raw-bytes", f"{name}@{offset}"),
                                   rule_id))
    return findings


def classified_runs(data, redact=False):
    """The distinct (category, rule, excerpt) of classify_record over each run as a str field."""
    return {(f.category, f.rule_id, f.value_excerpt)
            for run in _PRINTABLE_RUN.finditer(data)
            for f in classify_record(ArtifactRecord(
                kind="raw-hit", locator=SourceLocator(*RAW_AT, "raw-bytes", "run"),
                payload=RawHit(pattern="run", value=run.group().decode("ascii"))),
                redact=redact)}


_RULE_OF_DETAIL = {"ssn": "ssn-pattern", "payment-card": "payment-pattern"}


def check_sweep(data, redact):
    """scan_raw's findings equal both references, and each points at its excerpt."""
    findings = _sweep(data, redact)
    assert findings == run_by_run_findings(data, redact)
    assert ({(f.category, f.rule_id, f.value_excerpt) for f in findings}
            == classified_runs(data, redact))
    if redact:
        return
    for finding in findings:
        name, offset = finding.locator.detail.split("@")
        excerpt = finding.value_excerpt.encode("ascii")
        assert data[int(offset):int(offset) + len(excerpt)] == excerpt
        assert _RULE_OF_DETAIL[name] == finding.rule_id


_SWEEP_TOKENS = [b"token", b"TOKEN", b"password", b"x_user_Password", b"123-45-6789",
                 b"4111111111111111", b"4111 1111 1111 1111", b"4111111111111112",
                 b"1541806236", b"1541806236000", b"2018-07-05", b"2018-07-05T22:25:49Z",
                 b"00:24:e4:5a:ee:6c", b"pat@example.com", b"a@b.co", b"ab", b"7",
                 b".password", b"-TOKEN-", b"x@token.y", b"PassWord_1", b"tok en"]
_SWEEP_SEPARATORS = [b"\x00", b"\n", b"\x7f", b"\xff", b" ", b"-", b"@", b".", b"_"]
_SWEEP_DATA = st.lists(st.sampled_from(_SWEEP_TOKENS + _SWEEP_SEPARATORS)
                       | st.binary(max_size=8), max_size=30).map(b"".join)


@pytest.mark.equivalence
@given(_SWEEP_DATA, st.booleans())
@example(b"123-45-6789@x.io", False)  # an SSN inside an email
@example(b"pat.4111111111111111@x.io", False)  # a card inside an email
@example(b"a.123-45-6789.token", True)  # an SSN inside a key name
@example(b"card 123-45-6789-0123452", False)  # a card and an SSN at one offset
@example(b"123-45-6789.123-45-6780@x.io", False)  # two SSNs in one email
@example(b"a@b.co123-45-6789@x.io", False)  # an SSN glued to the email before it
@example(b"pat@example.com x_token 078-05-1120", True)  # an SSN beside an email and a key
@example(random.Random(0).randbytes(1 << 16) + b" pat@example.com 078-05-1120\x00", False)
def test_scan_raw_equals_the_run_by_run_sweep(data, redact):
    check_sweep(data, redact)


# digits dense enough that SSN and card shapes form, break and sit at the edges,
# so scan_raw's byte test for those shapes is exercised on both sides
_DIGIT_DENSE_DATA = st.lists(
    st.sampled_from(_SWEEP_TOKENS)
    | st.text(alphabet="0123456789 -x@._\n\0", max_size=24).map(str.encode),
    max_size=12).map(b"".join)


@pytest.mark.equivalence
@given(_DIGIT_DENSE_DATA, st.booleans())
@example(b"card 4111-1111-1111-1111 x", False)  # a card with '-' separators
@example(b"amex 378282246310005", False)  # a 15-digit Luhn card
@example(b"078-05-1120 pat", True)  # an SSN at the first byte
@example(b"pat 078-05-1120", False)  # an SSN at the last byte
@example(b"ssn 078-05\x00-1120 x", False)  # an SSN cut by a NUL
@example(b"ssn 078-05-\x7f1120 x", False)  # an SSN cut by a \x7f
@example(b"run 12345678901234 x", False)  # a 14-digit run
@example(b"card 4111  1111 1111 1111 x", False)  # card digits split by two spaces
# an SSN and a card each between bytes >= 0x80: a run's edge is a non-word byte
@example(b"\xe9078-05-1120\xe94111111111111111\x80", False)
@example(b"4111 1111 1111 1111", True)  # a card that is the whole file
def test_digit_dense_sweep_equals_the_run_by_run_sweep(data, redact):
    check_sweep(data, redact)


_SSN_RX, _CARD_RX = (rx for _, rx, *_ in _REFERENCE_RULES)
_PATTERN_RULES = {
    "ssn_pattern": lambda texts: sorted({m for t in texts for m in _SSN_RX.findall(t)}),
    "payment_pattern": lambda texts: sorted(
        {m for t in texts for m in _CARD_RX.findall(t) if luhn_ok(m)}),
}


def rule_table_walk(record, redact=False):
    """The earlier classify_record: every rule over every string field of the payload."""
    payload = record.payload
    typed = payload.phi_excerpts() if hasattr(payload, "phi_excerpts") else {}
    texts = [v for f in dataclasses.fields(payload)
             if isinstance(v := getattr(payload, f.name), str)]
    findings = []
    for rule in RULE_TABLE:
        if rule.predicate in _PATTERN_RULES:
            excerpts = _PATTERN_RULES[rule.predicate](texts)
        elif rule.predicate in typed:
            excerpts = [typed[rule.predicate]]
        else:
            continue
        findings += [PhiFinding(category=rule.category,
                                value_excerpt=redact_value(excerpt) if redact else excerpt,
                                locator=record.locator, rule_id=rule.rule_id)
                     for excerpt in excerpts]
    return findings


def _with_texts(record, **texts):
    return dataclasses.replace(record, payload=dataclasses.replace(record.payload, **texts))


_AT = normalize_timestamp(1530829549)
_PROFILE = ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=MyVitalsProfile(
    name="Pat", date_of_birth="1985-06-15", timezone_location="America/Chicago",
    email="pat@example.com"))
# One record of each payload type a replica scan yields, and a raw hit, with
# every field that may hold a str holding one.
_EACH_PAYLOAD_TYPE = [
    ArtifactRecord(kind="blood-pressure", locator=SQLITE_LOC, payload=BloodPressureReading(
        systolic=120, diastolic=80, pulse=70, measured_at=_AT, device_id="BP5",
        note="note", account="pat")),
    oximetry_record(),
    ArtifactRecord(kind="weight", locator=SQLITE_LOC, payload=WeightReading(
        weight=70.5, bmi=22.1, body_fat_pct=20.0, body_water_pct=55.0, muscle_mass=30.0,
        daily_calorie_intake=2000.0, bone_mass=3.0, measured_at=_AT, account="pat")),
    ArtifactRecord(kind="environment", locator=SQLITE_LOC, payload=EnvironmentReading(
        humidity=40.0, temperature=21.5, lighting_level=300.0, measured_at=_AT)),
    _PROFILE,
    ArtifactRecord(kind="device-registration", locator=SQLITE_LOC, payload=DeviceRegistration(
        mac_address="00:24:e4:5a:ee:6c", id=1, association_date=_AT, last_use_date=_AT,
        modified_date=_AT, firmware=431, timezone="Europe/Paris", battery_pct=77,
        device_type=4, device_model=43)),
    ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=HealthMateUser(
        name="Pat", gender="f", birthday="1985-06-15", email="pat@example.com")),
    ArtifactRecord(kind="weight", locator=SQLITE_LOC, payload=HealthMateMeasurement(
        kind="weight", value=70.5, measured_at=_AT, device_ref=None)),
    ArtifactRecord(kind="user-profile", locator=XML_LOC, payload=GlucoProfile(
        username="pat", device_identifier="BG5-1")),
    ArtifactRecord(kind="credential",
                   locator=dataclasses.replace(XML_LOC, detail="key prefix pat"),
                   payload=CredentialSet(account="pat", password_plaintext="hunter2")),
    ArtifactRecord(kind="raw-hit", locator=SQLITE_LOC, payload=RawHit(
        pattern="measure-type", value="77")),
]
# 078-05-1120 in Arabic-Indic and in fullwidth digits, both \d in a str pattern
_UNICODE_SSNS = ["\u0660\u0667\u0668-\u0660\u0665-\u0661\u0661\u0662\u0660",
                 "\uff10\uff17\uff18-\uff10\uff15-\uff11\uff11\uff12\uff10"]
# Non-empty, since the reference fires an empty typed excerpt that
# classify_record drops.
_FIELD_TEXT = st.lists(
    st.sampled_from(["078-05-1120", "078-05", "-1120", "4111 1111", "1111 1111 ",
                     "378282246310005", *_UNICODE_SSNS])
    | st.text(alphabet="0123456789- \0aZ@." + "".join(map(chr, range(0x660, 0x66a)))
              + "".join(map(chr, range(0xff10, 0xff1a))), max_size=12),
    min_size=1, max_size=4).map("".join).filter(bool)


@st.composite
def _records_with_drawn_text(draw):
    record = draw(st.sampled_from(_EACH_PAYLOAD_TYPE))
    return _with_texts(record, **{f.name: draw(_FIELD_TEXT)
                                  for f in dataclasses.fields(record.payload)
                                  if isinstance(getattr(record.payload, f.name), str)})


@pytest.mark.equivalence
@given(_records_with_drawn_text(), st.booleans())
@example(_with_texts(_PROFILE, name="Pat 078-05", date_of_birth="-1120 x"),
         False)  # an SSN split across two fields
@example(_with_texts(_PROFILE, name="card 4111 1111", date_of_birth="1111 1111 x"),
         False)  # a card whose digits end one field and start the next
@example(_with_texts(_PROFILE, name="Pat 078-05-1120", date_of_birth="1980-01-01"),
         True)  # an SSN that ends one field, then a field that starts with a digit
def test_classify_record_equals_the_per_field_walk(record, redact):
    # the pattern rules read the str fields joined by NUL; the reference
    # searches each field on its own
    expected = rule_table_walk(
        dataclasses.replace(record, locator=phi.shown_locator(record, redact)), redact)
    assert classify_record(record, redact=redact) == expected


@pytest.mark.parametrize("ssn", _UNICODE_SSNS)
def test_structured_text_matches_unicode_digits_and_the_raw_sweep_does_not(ssn):
    # _SSN_RE is a str pattern, whose \d is any Unicode digit, so a str field
    # fires the ssn rule; the sweep reads the UTF-8 bytes, where the shape
    # test finds no ASCII digit
    findings = classify_record(_with_texts(_PROFILE, name=f"Pat {ssn}"), redact=False)
    assert [f.value_excerpt for f in findings if f.category == "ssn"] == [ssn]
    data = f"Pat {ssn}".encode()
    assert b"d" not in data.translate(phi._DIGIT_SHAPES)
    assert _sweep(data) == []


def _fail_if_matched(data, runs):
    raise AssertionError("scan_raw matched bytes that hold no SSN or card shape")


@pytest.mark.parametrize("data", [
    random.Random(0).randbytes(1 << 16),
    b"<string name='pat@example.com_x_user_token'>abc</string>\n"
    b"<long name='login_at' value='1541806236000' />\n" * 200,
    b"run 12345678901234 x",
    b"123-45\x00-6789",
], ids=["random", "email-token-epoch", "14-digit-run", "ssn-cut-by-nul"])
def test_scan_raw_matches_nothing_without_an_ssn_or_card_shape(monkeypatch, data):
    monkeypatch.setattr(phi, "_match_runs", _fail_if_matched)
    assert _sweep(data) == []


def _record_matched_runs(monkeypatch):
    """The runs each call of scan_raw's matcher is given, as bytes, from now on."""
    match, matched = phi._match_runs, []

    def recorded(data, runs):
        matched.append([data[start:end] for start, end in runs])
        return match(data, runs)

    monkeypatch.setattr(phi, "_match_runs", recorded)
    return matched


def test_scan_raw_matches_bytes_that_hold_an_ssn_shape(monkeypatch):
    matched = _record_matched_runs(monkeypatch)
    data = b"pat@example.com x_user_token 078-05-1120\n"
    assert [f.value_excerpt for f in _sweep(data)] == ["078-05-1120"]
    assert matched == [[b"pat@example.com x_user_token 078-05-1120"]]


# A token log: one line holds an SSN at its first byte, one an SSN at its last
# byte, one a card; the rest hold emails, *_token keys, epochs and a card split
# by a newline, which no run holds whole.
_TOKEN_LOG = (
    b"2018-07-05 22:25:49 sync ok account=pat@example.com x_user_token=Ab1Cd2\n"
    b"078-05-1120 submitted by jo.doe@example.org\n"
    b"refreshed auth_token for sam@example.net expires=1541806236000\n"
    b"\x00\x01password reset for pat@example.com, ssn 123-45-6789\xff"
    b"card 4111 1111\n1111 1111 end\n"
    b"saved_card=4111-1111-1111-1111 by api_token\n"
    b"push registered id=Zq4Rt7Yu8 device=00:24:e4:5a:ee:6c\n")


def test_scan_raw_matches_only_the_runs_that_hold_an_ssn_or_card_shape(monkeypatch):
    matched = _record_matched_runs(monkeypatch)
    findings = _sweep(_TOKEN_LOG)
    assert matched == [[b"078-05-1120 submitted by jo.doe@example.org",
                        b"password reset for pat@example.com, ssn 123-45-6789",
                        b"saved_card=4111-1111-1111-1111 by api_token"]]
    assert [(f.value_excerpt, f.rule_id) for f in findings] == [
        ("078-05-1120", "ssn-pattern"), ("123-45-6789", "ssn-pattern"),
        ("4111-1111-1111-1111", "payment-pattern")]
    # the gated runs give what every run gives
    assert findings == run_by_run_findings(_TOKEN_LOG)


def test_scan_raw_finds_an_ssn_inside_an_email_once():
    data = b"login pat@example.com\nx_user_token 123-45-6789@x.io pat@example.com\n"
    assert _found(data) == [("123-45-6789", "ssn@35")]


def test_scan_raw_finds_no_card_split_by_a_newline():
    data = b"ssn 078-05-1120\ncard 4111 1111 1111\n1111 end\n"
    assert [f.value_excerpt for f in _sweep(data)] == ["078-05-1120"]


# Lines of sweep tokens and digit-dense text, each ended by a byte no run holds:
# dozens of runs per example, few of them holding an SSN or card shape, so
# scan_raw's run gate picks a few runs out of many.
_MANY_RUN_DATA = st.lists(
    st.tuples(st.lists(st.sampled_from(_SWEEP_TOKENS)
                       | st.text(alphabet="0123456789 -x@._", max_size=16).map(str.encode),
                       min_size=1, max_size=4).map(b" ".join),
              st.sampled_from([b"\n", b"\0", b"\xff"])),
    min_size=24, max_size=48).map(lambda lines: b"".join(line + end for line, end in lines))


@pytest.mark.equivalence
@given(_MANY_RUN_DATA, st.booleans())
def test_many_run_sweep_equals_the_run_by_run_sweep(data, redact):
    check_sweep(data, redact)


def _give_up(signum, frame):
    raise TimeoutError("sweep still running after 10 s")


# 1 MiB lines, each one printable run: lowercase hex with an SSN at its end;
# digit-dense units whose every digit starts a card try, though no match passes
# the Luhn check; near misses of an SSN that the shape gate turns away; and an
# SSN glued to an email in every unit
@pytest.mark.parametrize("unit, count", [
    (None, 1), (b"1-", 0), (b"1 ", 0), (b"1", 0), (b"078-05-112x ", 0),
    (b"078-05-1120@x.io ", (1 << 20) // 17),
], ids=["hex", "digit-hyphen", "digit-space", "one-digit", "ssn-near-miss", "ssn-in-email"])
def test_a_one_mib_line_is_swept_in_linear_time(unit, count):
    if unit is None:
        line = random.Random(0).randbytes(1 << 19).hex().encode() + b" ssn 078-05-1120"
    else:
        line = unit * ((1 << 20) // len(unit))
    previous = signal.signal(signal.SIGALRM, _give_up)
    signal.alarm(10)
    try:
        findings = _sweep(line)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(findings) == count
    assert findings == run_by_run_findings(line)


def _classify_within_ten_seconds(record):
    def give_up(signum, frame):
        raise TimeoutError("classify_record still running after 10 s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(10)
    try:
        return classify_record(record, redact=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# 1 MiB of digit-dense text in one str field: runs that pass the shape gate
# and give the card pattern a match every 16 digits, and near misses of an
# SSN that the gate turns away
@pytest.mark.parametrize("unit", ["1-", "1 ", "1", "078-05-112x "],
                         ids=["digit-hyphen", "digit-space", "one-digit", "ssn-near-miss"])
def test_a_one_mib_digit_dense_field_is_classified_in_linear_time(unit):
    record = _with_texts(_PROFILE, name=unit * ((1 << 20) // len(unit)))
    assert _classify_within_ten_seconds(record) == rule_table_walk(record)
    short = _with_texts(_PROFILE, name=record.payload.name[:64])
    assert classify_record(short, redact=False) == rule_table_walk(short)


@pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: _SSN_RE's \\b fails where "
                   "the next SQLite cell or an email follows the SSN directly")
@pytest.mark.parametrize("data", [
    b"\x00\x17Pat 078-05-11201980-01-01\x00",  # the next cell starts with a digit
    b"ssn 078-05-1120pat@example.com",  # an email follows without a space
], ids=["next-cell", "email"])
def test_scan_raw_finds_an_ssn_that_runs_into_the_next_value(data):
    assert [f.value_excerpt for f in _sweep(data)] == ["078-05-1120"]


def test_a_sweep_finding_is_named_for_its_rule():
    # a match inside an email or a key name is its own rule's match, and one
    # offset gives findings in rule order
    assert [_found(data) for data in (b"123-45-6789@x.io", b"pat.4111111111111111@x.io",
                                      b"a.123-45-6789.token", b"card 123-45-6789-0123452")
            ] == [[("123-45-6789", "ssn@0")], [("4111111111111111", "payment-card@4")],
                  [("123-45-6789", "ssn@2")],
                  [("123-45-6789", "ssn@5"), ("123-45-6789-0123452", "payment-card@5")]]


def test_luhn():
    assert luhn_ok("4111111111111111")
    assert not luhn_ok("4111111111111112")
    assert not luhn_ok("0000000000000000")  # degenerate all-same digits


def test_raw_ssn_hit_classifies_as_ssn():
    assert [(f.category, f.value_excerpt, f.locator.detail) for f in _sweep(b"ssn: 123-45-6789")
            ] == [("ssn", "123-45-6789", "ssn@5")]
    assert [f.value_excerpt for f in _sweep(b"ssn: 123-45-6789", redact=True)] == ["12*******89"]
    # A raw hit has no typed excerpts: only the pattern rules run on it.
    hit = ArtifactRecord(kind="raw-hit", locator=SourceLocator(*RAW_AT, "raw-bytes", "sweep"),
                         payload=RawHit(pattern="ssn", value="id 123-45-6789"))
    assert [f.rule_id for f in classify_record(hit, redact=False)] == ["ssn-pattern"]


def test_an_email_alone_gives_no_sweep_finding():
    # email is not one of the seven Table-style categories
    assert _sweep(b"mail me: someone@example.com") == []


# -- privacy rule -------------------------------------------------------------

def _finding(category, app_pkg="pkg"):
    return PhiFinding(category=category, value_excerpt="v",
                      locator=SourceLocator(app_pkg, f"{app_pkg}/f", "sqlite-table", "t:1"),
                      rule_id="vital-reading")


def test_privacy_row_has_all_seven_cells():
    row = evaluate_privacy_rule("App", [_finding("health-condition")])
    assert tuple(row.cells) == PHI_CATEGORIES
    assert row.cells["health-condition"] == "recovered"
    assert row.cells["payment"] == "not-recovered"


@given(st.lists(st.sampled_from(PHI_CATEGORIES), max_size=12), st.randoms())
def test_privacy_row_is_permutation_invariant(categories, rnd):
    findings = [_finding(c) for c in categories]
    row = evaluate_privacy_rule("App", findings)
    shuffled = list(findings)
    rnd.shuffle(shuffled)
    assert evaluate_privacy_rule("App", shuffled) == row


@given(st.lists(st.sampled_from(PHI_CATEGORIES), max_size=8),
       st.sampled_from(PHI_CATEGORIES))
def test_privacy_row_is_monotone(categories, extra):
    before = evaluate_privacy_rule("App", [_finding(c) for c in categories])
    after = evaluate_privacy_rule("App", [_finding(c) for c in categories + [extra]])
    for cat in PHI_CATEGORIES:
        if before.cells[cat] == "recovered":
            assert after.cells[cat] == "recovered"


# -- security rule ------------------------------------------------------------

def credential_record(password=None):
    return ArtifactRecord(kind="credential", locator=SourceLocator(
        "iHealthMyVitals.V2",
        "iHealthMyVitals.V2/shared_prefs/sp_user_region_host_info.xml",
        "xml-file", "key prefix a@b.co"),
        payload=CredentialSet(account="a@b.co", password_plaintext=password))


def _security(app, records, statuses=(), *, redact):
    findings = [f for r in records for f in classify_record(r, redact=redact)]
    return evaluate_security_rule(app, records, findings, list(statuses), redact=redact)


def test_security_health_in_sqlite_is_ephi_at_rest():
    violations = _security("App", [oximetry_record()], redact=True)
    assert [v.kind for v in violations] == ["plaintext-ephi-at-rest"]
    assert violations[0].evidence


def test_security_credential_with_password():
    violations = _security(
        "App", [oximetry_record(), credential_record("MedExp2018")], redact=False)
    kinds = [v.kind for v in violations]
    assert kinds == ["plaintext-ephi-at-rest", "plaintext-credential"]
    cred = violations[1]
    assert "a@b.co" in cred.description
    assert "MedExp2018" in cred.description
    assert "sp_user_region_host_info.xml" in cred.evidence[0].relative_path
    assert cred.evidence == (credential_record().locator,)


def test_security_credential_redacted_by_default():
    violations = _security("App", [credential_record("MedExp2018")], redact=True)
    assert "MedExp2018" not in violations[0].description
    assert "Me******18" in violations[0].description
    # the account is redacted too, in the description and in the key-prefix detail
    assert "a@b.co" not in violations[0].description
    assert "account a@**co" in violations[0].description
    assert violations[0].evidence == (dataclasses.replace(
        credential_record().locator, detail="key prefix a@**co"),)


def test_redacted_credential_detail_masks_only_the_account_it_ends_with():
    # the account "e" also occurs twice inside "key prefix"
    (record,), _ = parse_region_host_xml(b'<map><string name="e_user_password">pw</string></map>')
    assert record.locator.detail == "key prefix e"
    assert phi.shown_locator(record, True).detail == "key prefix *"


def test_security_identity_only_is_weak_note():
    gluco = ArtifactRecord(kind="user-profile", locator=XML_LOC, payload=GlucoProfile(
        username="u@example.com", device_identifier="BG5-1"))
    statuses = [DatabaseStatus("p/a.db", "encrypted-or-opaque", False, 7.9)]
    violations = _security("Gluco-Smart", [gluco], statuses, redact=True)
    assert [v.kind for v in violations] == ["weak-safeguard-note"]


def test_security_no_records_no_violations():
    assert evaluate_security_rule("App", [], [], [], redact=True) == []


@given(st.lists(st.one_of(
    st.booleans().map(lambda has_pw: credential_record("pw" if has_pw else None)),
    st.just(oximetry_record())), max_size=6))
def test_credential_violation_soundness(records):
    violations = _security("App", records, redact=True)
    expects = any(r.kind == "credential" and r.payload.password_plaintext is not None
                  for r in records)
    emitted = any(v.kind == "plaintext-credential" for v in violations)
    assert emitted == expects


def test_redact_masks_middle():
    assert redact_value("MedExp2018") == "Me******18"
    assert redact_value("abcd") == "****"
    assert redact_value("ab") == "**"
    assert redact_value("America/Chicago") == "Am***********go"
