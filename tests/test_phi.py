"""PHI classification rules, raw sweep, and Privacy/Security-Rule evaluation."""

from __future__ import annotations

from hypothesis import given, strategies as st

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
)
from phiscan.phi import (
    CATEGORY_LABELS,
    PHI_CATEGORIES,
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
    cats = {f.category for f in classify_record(oximetry_record())}
    assert cats == {"health-condition", "provision-of-healthcare"}


def test_myvitals_profile_yields_three_identifier_categories():
    record = ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=MyVitalsProfile(
        name="Pat Example", date_of_birth="1985-06-15",
        timezone_location="America/Chicago", email="pat@example.com"))
    findings = classify_record(record)
    assert {f.category for f in findings} == {"name", "date-of-birth", "address"}
    address = next(f for f in findings if f.category == "address")
    assert "proxy" in address.rule_id  # flagged as a proxy-location rule
    assert address.value_excerpt == "America/Chicago"


def test_gluco_profile_yields_name_only():
    record = ArtifactRecord(kind="user-profile", locator=XML_LOC, payload=GlucoProfile(
        username="medicaldevices2018exper@gmail.com", device_identifier="BG5-0012AB"))
    findings = classify_record(record)
    assert [f.category for f in findings] == ["name"]


def test_healthmate_user_has_no_address():
    record = ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=HealthMateUser(
        name="Pat", gender="F", birthday="1985-06-15", email="pat@example.com"))
    cats = {f.category for f in classify_record(record)}
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
    findings = classify_record(record)
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
        cats = {f.category for f in classify_record(record)}
        assert cats == {"health-condition", "provision-of-healthcare"}, kind


def test_credential_record_yields_no_phi_findings():
    record = ArtifactRecord(kind="credential", locator=XML_LOC, payload=CredentialSet(
        account="a@b.co", password_plaintext="hunter2"))
    assert classify_record(record) == []


def test_ssn_pattern_in_string_field():
    record = ArtifactRecord(kind="user-profile", locator=SQLITE_LOC, payload=MyVitalsProfile(
        name="Pat 123-45-6789", date_of_birth="", timezone_location="",
        email="p@example.com"))
    cats = [f.category for f in classify_record(record)]
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
    records = [r for rs in scan_evidence(tree).records_by_app.values() for r in rs]
    assert {type(r.payload) for r in records} == emitted | {CredentialSet}
    typed = {key for r in records if type(r.payload) in emitted
             for key in r.payload.phi_excerpts()}
    assert typed | {"ssn_pattern", "payment_pattern"} == {r.predicate for r in RULE_TABLE}


def test_every_finding_references_published_rule():
    known = {r.rule_id for r in RULE_TABLE}
    for record in (oximetry_record(),):
        for finding in classify_record(record):
            assert finding.rule_id in known
            assert finding.category in PHI_CATEGORIES
    assert len(PHI_CATEGORIES) == 7
    assert set(CATEGORY_LABELS) == set(PHI_CATEGORIES)


# -- raw sweep ----------------------------------------------------------------

RAW_LOC = SourceLocator("pkg", "pkg/blob.bin", "raw-bytes", "sweep")


def test_scan_raw_finds_email():
    hits = scan_raw(b"\x00\x01 medicaldevices2018exper@gmail.com rest\xff", RAW_LOC)
    emails = [h for h in hits if h.payload.pattern == "email"]
    assert len(emails) == 1
    assert emails[0].payload.value == "medicaldevices2018exper@gmail.com"
    assert emails[0].locator.detail.startswith("email@")


def test_scan_raw_finds_mac_address():
    hits = scan_raw(b"junk 00:24:e4:5a:ee:6c junk", RAW_LOC)
    assert any(h.payload.pattern == "mac-address" and
               h.payload.value == "00:24:e4:5a:ee:6c" for h in hits)


def test_scan_raw_empty_input():
    assert scan_raw(b"", RAW_LOC) == []


def test_scan_raw_offsets_point_at_match():
    data = b"\x00\x00AAAA 123-45-6789\x00"
    hits = [h for h in scan_raw(data, RAW_LOC) if h.payload.pattern == "ssn"]
    offset = int(hits[0].locator.detail.split("@")[1])
    assert data[offset:offset + 11] == b"123-45-6789"


def test_scan_raw_credential_key_names():
    hits = scan_raw(b"<string name='x_user_password'>s3cret</string>", RAW_LOC)
    assert any(h.payload.pattern == "credential-key" for h in hits)


def test_scan_raw_card_requires_luhn():
    ok = scan_raw(b"card 4111111111111111 end", RAW_LOC)
    assert any(h.payload.pattern == "payment-card" for h in ok)
    bad = scan_raw(b"card 4111111111111112 end", RAW_LOC)
    assert not any(h.payload.pattern == "payment-card" for h in bad)
    # millisecond epochs are 13 digits and must not look like cards
    epoch = scan_raw(b"ts 1541806236000 end", RAW_LOC)
    assert not any(h.payload.pattern == "payment-card" for h in epoch)
    assert any(h.payload.pattern == "epoch-token" for h in epoch)


def test_luhn():
    assert luhn_ok("4111111111111111")
    assert not luhn_ok("4111111111111112")
    assert not luhn_ok("0000000000000000")  # degenerate all-same digits


def test_raw_ssn_hit_classifies_as_ssn():
    hits = scan_raw(b"ssn: 123-45-6789", RAW_LOC)
    ssn_hits = [h for h in hits if h.payload.pattern == "ssn"]
    cats = {f.category for h in ssn_hits for f in classify_record(h)}
    assert cats == {"ssn"}
    # A raw hit has no typed excerpts: only the pattern rules run on it.
    hit = ArtifactRecord(kind="raw-hit", locator=RAW_LOC,
                         payload=RawHit(pattern="ssn", value="id 123-45-6789"))
    assert [f.rule_id for f in classify_record(hit)] == ["ssn-pattern"]


def test_raw_email_hit_is_not_a_phi_category():
    # email is not one of the seven Table-style categories
    hits = scan_raw(b"mail me: someone@example.com", RAW_LOC)
    email_hits = [h for h in hits if h.payload.pattern == "email"]
    assert email_hits and all(classify_record(h) == [] for h in email_hits)


# -- privacy rule -------------------------------------------------------------

def _finding(category, app_pkg="pkg"):
    from phiscan.phi import PhiFinding

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


def _security(app, records, statuses=(), **kwargs):
    findings = [f for r in records for f in classify_record(r)]
    return evaluate_security_rule(app, records, findings, list(statuses), **kwargs)


def test_security_health_in_sqlite_is_ephi_at_rest():
    violations = _security("App", [oximetry_record()])
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


def test_security_credential_redacted_by_default():
    violations = _security("App", [credential_record("MedExp2018")])
    assert "MedExp2018" not in violations[0].description
    assert "Me******18" in violations[0].description


def test_security_identity_only_is_weak_note():
    gluco = ArtifactRecord(kind="user-profile", locator=XML_LOC, payload=GlucoProfile(
        username="u@example.com", device_identifier="BG5-1"))
    statuses = [DatabaseStatus("p/a.db", "encrypted-or-opaque", False, 7.9)]
    violations = _security("Gluco-Smart", [gluco], statuses)
    assert [v.kind for v in violations] == ["weak-safeguard-note"]


def test_security_no_records_no_violations():
    assert evaluate_security_rule("App", [], [], []) == []


@given(st.lists(st.one_of(
    st.booleans().map(lambda has_pw: credential_record("pw" if has_pw else None)),
    st.just(oximetry_record())), max_size=6))
def test_credential_violation_soundness(records):
    violations = _security("App", records)
    expects = any(r.kind == "credential" and r.payload.password_plaintext is not None
                  for r in records)
    emitted = any(v.kind == "plaintext-credential" for v in violations)
    assert emitted == expects


def test_redact_masks_middle():
    assert redact_value("MedExp2018") == "Me******18"
    assert redact_value("abcd") == "****"
    assert redact_value("ab") == "**"
    assert redact_value("America/Chicago") == "Am***********go"
