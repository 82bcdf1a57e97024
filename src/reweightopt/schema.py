"""The checker of the JSON inputs: configs, sweep files and instance records.

A schema is a table, a pair of dicts: its section's required and its
optional keys, from key to kind.  A kind is a check of a present value
below, a nested table, a ``Choice`` of tables, or None for a value that
a ``Choice`` or the object built from it checks.  ``check_section``
walks a section against its table and raises a ``ConfigError`` naming
the key path of the first fault it finds.

This module holds the table language only.  Each table stays with the
module whose input it describes: a run's config in ``experiment``
(``_SCHEMA``), a sweep file in ``sweep`` (``_SPECS``) and an instance
record in ``dro`` (``_RECORD``).
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from typing import NamedTuple

__all__ = [
    "ConfigError",
    "config_errors",
    "number",
    "integer",
    "finite",
    "at_least",
    "seed",
    "positive",
    "fraction",
    "string",
    "one_of",
    "list_of",
    "Choice",
    "check_section",
]


class ConfigError(ValueError):
    """Malformed experiment config; message names the offending key path."""


@contextmanager
def config_errors(path: str):
    """Re-raise a KeyError/TypeError/ValueError from building the input
    section ``path`` into objects as a ConfigError naming that section."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigError(f"{path}: {detail}") from None


# the kinds of the schema's keys, each a check of a present value that
# names its key path ``where`` in the first fault it finds
def number(value, where: str, types=(int, float), what="a number"):
    """A JSON number of ``types``: not a bool or a string, and if an
    integer, within the float range that a run's arithmetic needs."""
    if type(value) not in types:
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    if type(value) is int and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{where}: expected a number within the float range, got a larger one")


def integer(value, where: str):
    number(value, where, (int,), "an integer")


def finite(value, where: str):
    number(value, where)
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")


def at_least(low, what: str, kind=integer):
    """The kind of a value of ``kind`` that is at least ``low`` (a nan is not)."""

    def check(value, where: str):
        kind(value, where)
        if not value >= low:
            raise ConfigError(f"{where}: expected {what}, got {value!r}")

    return check


seed = at_least(0, "a non-negative integer")  # the only seeds numpy's generators take
positive = at_least(1, "a positive integer")


def fraction(value, where: str, interval="[0, 1)"):
    number(value, where)
    if not (0.0 <= value < 1.0 or interval == "[0, 1]" and value == 1.0):
        raise ConfigError(f"{where}: expected a number in {interval}, got {value!r}")


def string(value, where: str):
    if type(value) is not str:
        raise ConfigError(f"{where}: expected a string, got {value!r}")


def one_of(value, where: str, names):
    """One of ``names``, a string (a list is never looked up)."""
    if type(value) is not str or value not in names:
        raise ConfigError(f"{where}: expected {'|'.join(names)}, got {value!r}")


def list_of(value, where: str, kind=number, what="a list of numbers", lengths=None):
    if type(value) is not list or lengths is not None and len(value) not in lengths:
        raise ConfigError(f"{where}: expected {what}, got {value!r}")
    # floats are numbers, so a list of them is checked whole: a record's losses may number 10^5
    if kind is not number or set(map(type, value)) - {float}:
        for item in value:
            kind(item, where)


class Choice(NamedTuple):
    """A section whose table is chosen by the value of its key ``key``."""

    key: str
    tables: dict


def check_section(section, path: str, schema):
    """Check a section (the whole config at path "config") against its
    schema, a table or a Choice: an object whose choosing key names one of
    the choice's tables, without unknown or missing keys, each value of its kind."""
    if not isinstance(section, dict):
        raise ConfigError(f"{path}: expected an object")
    prefix, chosen = ("" if path == "config" else path + "."), ""
    if type(schema) is Choice:
        key, tables = schema
        if key not in section:
            raise ConfigError(f"{path}: missing required key(s) {[key]}")
        one_of(section[key], prefix + key, tables)
        schema, chosen = tables[section[key]], f" for {key} {section[key]!r}"
    required, optional = schema
    unknown = section.keys() - required.keys() - optional.keys()
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}{chosen}")
    missing = required.keys() - section.keys()
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}{chosen}")
    for kinds in schema:
        for key, kind in kinds.items():
            if isinstance(kind, tuple) and key in section:
                check_section(section[key], prefix + key, kind)
            elif kind is not None and key in section:
                kind(section[key], prefix + key)
