"""Shape and type checks for JSON documents read from files.

Each JSON object is read against a field table mapping every key it may hold
to a default or to :data:`REQUIRED`; any other key is refused.  A JSON number
is an int or a float (bool, a subclass of int, is not): the checks compare
exact types, a list as one set of item types, and refuse an int too large
for a float where ints occur.  Each check raises :class:`DomainError`.
"""

from __future__ import annotations

import json
import os
from collections import deque

from .errors import DomainError

NUMBER = frozenset((int, float))
OBJECT = frozenset((dict,))
_NOUN = {NUMBER: "numbers within the float range", OBJECT: "objects"}
REQUIRED = object()  # the default of a key that a field table requires


def json_object(value, fields: dict, what: str) -> dict:
    """The JSON object `value` (named `what` in errors) with the defaults of its
    field table `fields` filled in, its keys in the order of `fields`."""
    if type(value) is not dict:
        raise DomainError(f"{what} must be a JSON object")
    unknown = value.keys() - fields
    if unknown:
        raise DomainError(f"{what} has unknown key {min(unknown)!r}")
    data = {**fields, **value}
    missing = [key for key, v in data.items() if v is REQUIRED]
    if missing:
        raise DomainError(f"{what} lacks the required key {missing[0]!r}")
    return data


def read_object(source, fields: dict, what: str) -> dict:
    """:func:`json_object` of a document: a path (str or os.PathLike) or a parsed value."""
    if isinstance(source, (str, os.PathLike)):
        with open(source) as fh:
            source = json.load(fh)
    return json_object(source, fields, what)


def _overflows(values, kinds: set) -> bool:
    """Whether an int among `values` (of item types `kinds`) is too large for a float."""
    if int in kinds:
        try:
            deque(map(float, values), maxlen=0)
        except OverflowError:
            return True
    return False


def json_list(value, types: frozenset, what: str) -> list:
    """`value` if it is a list of items whose types lie in `types` (NUMBER or OBJECT)."""
    kinds = {*map(type, value)} if type(value) is list else None
    if kinds is None or not kinds <= types or _overflows(value, kinds):
        raise DomainError(f"{what} must be JSON {_NOUN[types]} in a list")
    return value


def json_numbers(fields: dict, what: str) -> dict:
    """`fields` if every value is a JSON number; the error names the first that is not."""
    kinds = {*map(type, fields.values())}
    if not kinds <= NUMBER or _overflows(fields.values(), kinds):
        name, value = next((k, v) for k, v in fields.items()
                           if type(v) not in NUMBER or _overflows((v,), {type(v)}))
        raise DomainError(f"{what} {name!r} must be a JSON number within the float range,"
                          f" got {value!r:.40}")
    return fields
