"""Shape and type checks for JSON documents read from files.

``json.load`` reads a JSON number as an int or a float and nothing else as
either; bool is a subclass of int, so the checks compare exact types, and
a list is checked as one set of item types rather than item by item.  An
int too large for a float is refused too, checked only where ints occur.
Each check raises :class:`DomainError`.
"""

from __future__ import annotations

from collections import deque

from .errors import DomainError

NUMBER = frozenset((int, float))
OBJECT = frozenset((dict,))
_NOUN = {NUMBER: "numbers within the float range", OBJECT: "objects"}


def json_object(value, what: str) -> dict:
    """`value` if it is a JSON object; `what` names it in the error."""
    if type(value) is not dict:
        raise DomainError(f"{what} must be a JSON object")
    return value


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
