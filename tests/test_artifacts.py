"""Timestamp normalization and UTC rendering."""

from __future__ import annotations

from datetime import date, datetime, timezone

import pytest
from hypothesis import given, strategies as st

from phiscan.artifacts import EpochInstant, normalize_timestamp, render_utc
from phiscan.errors import AmbiguousUnitError, NonPositiveTimestampError

# datetime is the independent oracle here: the implementation renders UTC
# with its own integer civil-date arithmetic.
def oracle_utc(epoch_seconds: int) -> str:
    return datetime.fromtimestamp(epoch_seconds, tz=timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def parse_utc(utc: str) -> int:
    """Epoch seconds of a render_utc string, the calendar taken from datetime.date.

    date stops at year 9999, so a later year is moved back by whole
    400-year Gregorian cycles of 146,097 days each and the days added back.
    """
    date_part, time_part = utc.removesuffix("Z").split("T")
    year, month, day = map(int, date_part.split("-"))
    hours, minutes, seconds = map(int, time_part.split(":"))
    cycles = max(0, (year - 2000) // 400)
    days = date(year - 400 * cycles, month, day).toordinal() + cycles * 146097 - _EPOCH_ORDINAL
    return days * 86400 + hours * 3600 + minutes * 60 + seconds


def test_seconds_scale_value_from_oximetry_table():
    instant = normalize_timestamp(1530829549)
    assert instant.unit == "seconds"
    assert instant.millis_remainder == 0
    assert instant.utc == oracle_utc(1530829549) == "2018-07-05T22:25:49Z"


def test_milliseconds_scale_value_from_device_table():
    instant = normalize_timestamp(1542127729662)
    assert instant.unit == "milliseconds"
    assert instant.millis_remainder == 662
    assert instant.utc == oracle_utc(1542127729662 // 1000)


def test_zero_raises_non_positive():
    with pytest.raises(NonPositiveTimestampError):
        normalize_timestamp(0)
    with pytest.raises(NonPositiveTimestampError):
        normalize_timestamp(-5)


def test_non_integer_rejected():
    with pytest.raises(NonPositiveTimestampError):
        normalize_timestamp("1530829549")
    with pytest.raises(NonPositiveTimestampError):
        normalize_timestamp(True)


@pytest.mark.parametrize("raw", [10**11, 10**11 + 1, 5 * 10**11, 10**12 - 1])
def test_ambiguous_band_always_errors(raw):
    with pytest.raises(AmbiguousUnitError):
        normalize_timestamp(raw)


@pytest.mark.parametrize("raw", [10**11 - 1, 1, 10**12, 10**12 + 999])
def test_band_edges(raw):
    instant = normalize_timestamp(raw)
    assert instant.unit == ("seconds" if raw < 10**11 else "milliseconds")


@given(st.integers(min_value=1, max_value=10**15))
def test_unit_inference_partitions_positive_integers(raw):
    outcomes = []
    try:
        outcomes.append(normalize_timestamp(raw).unit)
    except AmbiguousUnitError:
        outcomes.append("ambiguous")
    assert len(outcomes) == 1
    if raw < 10**11:
        assert outcomes == ["seconds"]
    elif raw < 10**12:
        assert outcomes == ["ambiguous"]
    else:
        assert outcomes == ["milliseconds"]


@given(st.integers(min_value=1, max_value=10**11 - 1))
def test_seconds_round_trip(raw):
    instant = normalize_timestamp(raw)
    assert parse_utc(instant.utc) == raw


@given(st.integers(min_value=10**12, max_value=10**15))
def test_milliseconds_round_trip_preserves_remainder(raw):
    instant = normalize_timestamp(raw)
    assert parse_utc(instant.utc) * 1000 + instant.millis_remainder == raw
    assert 0 <= instant.millis_remainder < 1000


@given(st.integers(min_value=1, max_value=2 * 10**10))
def test_render_matches_datetime_oracle(seconds):
    assert render_utc(seconds) == oracle_utc(seconds)


def test_epoch_seconds_helper():
    assert normalize_timestamp(1530829549).epoch_seconds() == 1530829549
    assert normalize_timestamp(1542127729662).epoch_seconds() == 1542127729
    assert EpochInstant(5, "seconds", render_utc(5)).epoch_seconds() == 5
