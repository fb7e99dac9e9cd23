"""Declared tables: what declare refuses; the app tests parse through it."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from phiscan.parsers.tables import column, declare, require_int, text


@dataclass(frozen=True)
class Reading:
    value: int = column("Value", require_int)
    note: str = column("Note", text)


def test_declare_refuses_a_payload_field_that_is_not_a_column():
    @dataclass(frozen=True)
    class Loose:
        value: int = column("Value", require_int)
        note: str = "none"

    with pytest.raises(ValueError, match=r"T: a Loose field is not a column"):
        declare("T", "kind", Loose)


def test_declare_refuses_required_columns_that_do_not_lead_the_fields():
    with pytest.raises(ValueError, match=r"T: required columns \('Note',\) do not lead"):
        declare("T", "kind", Reading, required=("Note",))
