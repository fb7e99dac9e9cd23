"""The artifact parsers, by the app data folder each binds to.

A top-level folder of the evidence is bound to PARSERS[its name] when that
parser's detect accepts the container. The parser claims files under the
folder by path; the scanner reads each file once, hands the claimed ones
to the parser as bytes and sweeps the rest.
"""

from __future__ import annotations

from .base import AppParser, ParseResult
from .glucosmart import GlucoSmartParser
from .healthmate import HealthMateParser, load_code_map
from .myvitals import MyVitalsParser

__all__ = [
    "AppParser",
    "GlucoSmartParser",
    "HealthMateParser",
    "MyVitalsParser",
    "PARSERS",
    "ParseResult",
    "display_name_for",
    "load_code_map",
]

# folder name -> parser, in stable registration order
PARSERS: dict[str, AppParser] = {
    parser.folder: parser
    for parser in (MyVitalsParser(), GlucoSmartParser(), HealthMateParser())
}


def display_name_for(package_name: str) -> str:
    """Human-facing app name for a package folder (folder name if unknown)."""
    parser = PARSERS.get(package_name)
    return parser.display_name if parser else package_name
