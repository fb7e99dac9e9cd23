"""Android shared-preferences XML: a <map> of typed entries, each string kept verbatim."""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .errors import MalformedXmlError


class _NoDoctype(ET.TreeBuilder):
    """Refuses a DOCTYPE, which Android never writes: its entities are not stored values."""

    def doctype(self, name, pubid, system):
        raise MalformedXmlError("a DOCTYPE declaration, which shared preferences never hold")


# numeric entry tags: the value attribute's converter, and its name in an error
_NUMBERS = {"int": (int, "integer"), "long": (int, "integer"), "float": (float, "float")}


def parse_shared_prefs(xml: bytes) -> dict[str, object]:
    """Decode a shared-preferences document into {key: typed value}.

    Supported entry tags: string (element text, kept verbatim, as Android
    writes and reads it), boolean, int, long, float (value attribute).
    Unknown tags are ignored; a DOCTYPE and an entry without a name or
    repeating one are malformed. An error names an entry by its tag and
    1-based position, never by its name: a credential file's names start
    with the account email.
    """
    try:
        root = ET.fromstring(xml, parser=ET.XMLParser(target=_NoDoctype()))
    except ET.ParseError as exc:
        raise MalformedXmlError(f"not well-formed XML: {exc}") from exc
    except (LookupError, ValueError) as exc:  # a declared encoding expat cannot use
        raise MalformedXmlError(f"unreadable XML encoding: {exc}") from exc
    if root.tag != "map":
        raise MalformedXmlError(f"expected <map> root, found <{root.tag}>")
    entries: dict[str, object] = {}
    for position, child in enumerate(root, 1):
        name = child.get("name")
        if name is None:
            raise MalformedXmlError(f"<{child.tag}> entry without a name attribute")
        if name in entries:
            raise MalformedXmlError(f"<{child.tag}> entry {position} repeats an earlier name")
        if child.tag == "string":
            entries[name] = child.text or ""
        elif child.tag == "boolean":
            entries[name] = child.get("value") == "true"
        elif number := _NUMBERS.get(child.tag):
            convert, what = number
            try:
                entries[name] = convert(child.get("value", ""))
            except ValueError as exc:
                raise MalformedXmlError(
                    f"bad {what} value in <{child.tag}> entry {position}") from exc
        # other tags (set, etc.) carry nothing we recover
    return entries
