"""Shape and type checks for JSON documents read from files.

``json.load`` reads a JSON number as an int or a float and nothing else as
either; bool is a subclass of int, so the checks compare exact types, and
a list is checked as one set of item types rather than item by item.
Each check raises :class:`DomainError`.
"""

from __future__ import annotations

from .errors import DomainError

NUMBER = frozenset((int, float))
OBJECT = frozenset((dict,))
_NOUN = {NUMBER: "numbers", OBJECT: "objects"}


def json_object(value, what: str) -> dict:
    """`value` if it is a JSON object; `what` names it in the error."""
    if type(value) is not dict:
        raise DomainError(f"{what} must be a JSON object")
    return value


def json_list(value, types: frozenset, what: str) -> list:
    """`value` if it is a list of items whose types lie in `types` (NUMBER or OBJECT)."""
    if type(value) is not list or not {*map(type, value)} <= types:
        raise DomainError(f"{what} must be JSON {_NOUN[types]} in a list")
    return value


def json_numbers(fields: dict, what: str) -> dict:
    """`fields` if every value is a JSON number; the error names the first that is not."""
    if not {*map(type, fields.values())} <= NUMBER:
        name, value = next((k, v) for k, v in fields.items() if type(v) not in NUMBER)
        raise DomainError(f"{what} {name!r} must be a JSON number, got {value!r}")
    return fields
