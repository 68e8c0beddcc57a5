"""The one reader for JSON input: peer envelopes, scenario and policy files.

Each read takes one field of a JSON object and checks it has the exact
type ``to_wire`` writes: an integer is never a bool, and a list is never
a string, which would otherwise be split into its characters.  An input
that is not an object, an absent required field, or a field of another
type raises ``ParseError`` naming where it sits and the field, and so
does a field a reader with optional fields does not declare.  What a
well-typed value may hold (token grammar, non-empty sets) is the
caller's check.
"""

from __future__ import annotations

from enum import Enum
from typing import AbstractSet, Any, Optional

from .errors import ParseError

_MISSING = object()

_KIND_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object",
               bool: "a boolean"}

_STR, _INT = frozenset({str}), frozenset({int})


def is_str_list(value: Any) -> bool:
    """Whether ``value`` is a list of strings, by exact type."""
    return type(value) is list and _STR.issuperset(map(type, value))


def field(
    data: Any, key: str, where: str, kind: type = object,
    default: Any = _MISSING, least: Optional[int] = None,
) -> Any:
    """``data[key]``, where ``data`` must be an object, or ``default`` when
    it is absent.  A present value must be a ``kind`` (an integer is never
    a bool) of at least ``least``, or null where ``default`` is None."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: must be an object, got {data!r}")
    value = data.get(key, default)
    if value is _MISSING:
        raise ParseError(f"{where}: missing field {key!r}")
    if type(value) is kind and (least is None or value >= least):
        return value  # the common case, checked first: it is on every read's path
    if (value is None and default is None) or (kind is not int and isinstance(value, kind)):
        return value
    bound = "" if least is None else f" >= {least}"
    raise ParseError(f"{where}: {key!r} must be {_KIND_NAMES[kind]}{bound}, got {value!r}")


def no_other_fields(data: Any, allowed: AbstractSet[str], where: str) -> None:
    """Refuse an object holding a field outside ``allowed``, so that a
    misspelled optional field is not dropped for its default."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: must be an object, got {data!r}")
    if not data.keys() <= allowed:
        raise ParseError(f"{where}: unknown field(s) {sorted(data.keys() - allowed)}")


def objects(data: Any, key: str, where: str, default: Any = _MISSING) -> list:
    """``field`` for a list of objects."""
    items = field(data, key, where, list, default)
    for index, item in enumerate(items):
        if not isinstance(item, dict):
            raise ParseError(f"{where}: {key}[{index}] must be an object, got {item!r}")
    return items


def strings(data: Any, key: str, where: str, default: Any = _MISSING) -> Any:
    """``field`` for a list of strings."""
    values = field(data, key, where, list, default)
    if values is not None and not _STR.issuperset(map(type, values)):
        raise ParseError(f"{where}: {key!r} must list strings, got {values!r}")
    return values


def string_lists(data: Any, key: str, where: str, default: Any = _MISSING) -> Any:
    """``field`` for an object that maps names to lists of strings."""
    value = field(data, key, where, dict, default)
    if value is not None and not all(map(is_str_list, value.values())):
        raise ParseError(f"{where}: {key!r} must map names to lists of strings, got {value!r}")
    return value


def integers(data: Any, key: str, where: str, default: Any = _MISSING) -> Any:
    """``field`` for an object that maps names to integers."""
    value = field(data, key, where, dict, default)
    if not _INT.issuperset(map(type, value.values())):
        raise ParseError(f"{where}: {key!r} must map names to integers, got {value!r}")
    return value


def member(enum: type[Enum], data: Any, key: str, where: str) -> Any:
    """``field`` for a string that names a member of ``enum`` by value."""
    found = enum._value2member_map_.get(field(data, key, where, str))
    if found is None:
        raise ParseError(f"{where}: {key!r} must be one of "
                         f"{[m.value for m in enum]}, got {data[key]!r}")
    return found
