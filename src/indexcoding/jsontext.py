"""JSON text: ``loads``, and ``dumps`` byte-identical to ``json.dumps(value, indent=2)``.

Given an indent, ``json.dumps`` cannot use the C encoder and formats every
value in Python.  The bulk of the command outputs is lists of ints (id arrays
and transmissions) and ``{"origin", "want", "transmission"}`` entries, so
those are formatted here directly, a list of such entries from one ``%``
template.  Any other value goes through ``json.dumps`` and is re-indented to
its depth, which is exact because encoded JSON holds no raw newline.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .errors import ValidationError

_INT_ONLY = frozenset((int,))
_STR_ONLY = frozenset((str,))
_ENTRY_KEYS = ("origin", "want", "transmission")
_LITERALS = {None: "null", True: "true", False: "false"}


def loads(text: str):
    """``json.loads(text)``, raising ``ValidationError`` on malformed text."""
    # RecursionError: deep nesting; ValueError: JSONDecodeError, too-long integers
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc


def dumps(value) -> str:
    """``json.dumps(value, indent=2)`` for an acyclic value."""
    return _dump(value, "\n")


def _dump(value, nl: str) -> str:
    """``value`` as it is written at the depth whose line break is ``nl``."""
    t = type(value)
    if t is int:
        return int.__repr__(value)
    if t is str:
        return encode_basestring_ascii(value)
    if t is bool or value is None:
        return _LITERALS[value]
    inner = nl + "  "
    if t is list and value:
        if _INT_ONLY.issuperset(map(type, value)):
            # repr of an int list is its ids joined by ", ", built in C
            return f"[{inner}{repr(value)[1:-1].replace(', ', ',' + inner)}{nl}]"
        entries = _entry_ints(value)
        if entries is not None:
            return f"[{inner}{(',' + inner).join([_entry(inner)] * len(value)) % entries}{nl}]"
        return f"[{inner}{(',' + inner).join([_dump(v, inner) for v in value])}{nl}]"
    if t is dict and value and _STR_ONLY.issuperset(map(type, value)):
        items = [f"{encode_basestring_ascii(k)}: {_dump(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return json.dumps(value, indent=2).replace("\n", nl)


def _entry(nl: str) -> str:
    """The ``%`` template of one entry written at the depth of ``nl``: four
    ``%d`` for its origin pair, want and transmission."""
    inner = nl + "  "
    at = inner + "  "
    return (f'{{{inner}"origin": [{at}%d,{at}%d{inner}],'
            f'{inner}"want": %d,{inner}"transmission": %d{nl}}}')


def _entry_ints(value: list) -> tuple[int, ...] | None:
    """The origin pair, want and transmission of each item of ``value``, in
    order, when every item is an entry ``{"origin": [a, b], "want": w,
    "transmission": t}`` of exact ints with its keys in that order; else None."""
    flat = []
    for item in value:
        if type(item) is not dict or tuple(item) != _ENTRY_KEYS:
            return None
        origin, want, sent = item.values()
        if type(origin) is not list or len(origin) != 2:
            return None
        flat += origin
        flat.append(want)
        flat.append(sent)
    return tuple(flat) if _INT_ONLY.issuperset(map(type, flat)) else None
