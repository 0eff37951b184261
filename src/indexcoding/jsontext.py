"""JSON text with a 2-space indent, byte-identical to ``json.dumps(value, indent=2)``.

Given an indent, ``json.dumps`` cannot use the C encoder and formats every
value in Python.  The bulk of the command outputs is lists of ints (id arrays
and transmissions) and ``{"origin", "want", "transmission"}`` entries, so
those are formatted here directly.  Any other value goes through
``json.dumps`` and is re-indented to its depth, which is exact because encoded
JSON holds no raw newline.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

_INT_ONLY = frozenset((int,))
_STR_ONLY = frozenset((str,))
_ENTRY_KEYS = ("origin", "want", "transmission")
_LITERALS = {None: "null", True: "true", False: "false"}


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
        return f"[{inner}{(',' + inner).join([_dump(v, inner) for v in value])}{nl}]"
    if t is dict and value and _STR_ONLY.issuperset(map(type, value)):
        if tuple(value) == _ENTRY_KEYS:
            origin, want, sent = value.values()
            if (type(origin) is list and len(origin) == 2
                    and _INT_ONLY.issuperset(map(type, origin))
                    and type(want) is int and type(sent) is int):
                at = inner + "  "
                return (f'{{{inner}"origin": [{at}{origin[0]},{at}{origin[1]}{inner}],'
                        f'{inner}"want": {want},{inner}"transmission": {sent}{nl}}}')
        items = [f"{encode_basestring_ascii(k)}: {_dump(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return json.dumps(value, indent=2).replace("\n", nl)
