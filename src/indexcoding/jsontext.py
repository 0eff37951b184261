"""JSON text: ``loads``, and ``dumps`` byte-identical to ``json.dumps(value, indent=2)``.

Given an indent, ``json.dumps`` cannot use the C encoder and formats every
value in Python.  The bulk of the command outputs is lists of ints (id arrays
and transmissions) and lists of ``{"origin", "want", "transmission"}``
entries, so those are formatted here directly.  The entries come as
:class:`Entries`, the ``(origin, want, transmission)`` rows the caller already
holds, and are written from one ``%`` template filled with their ints.  An
empty list or dict is written here too: ``json.dumps`` would build a
pure-Python encoder, whose closures are a reference cycle, to write ``[]``.
Any other value goes through ``json.dumps`` and is re-indented to its depth,
which is exact because encoded JSON holds no raw newline.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple, Sequence

from .errors import ValidationError

_INT_ONLY = frozenset((int,))
_STR_ONLY = frozenset((str,))
_LITERALS = {None: "null", True: "true", False: "false"}


class Entries(NamedTuple):
    """The array ``[{"origin": [a, b], "want": w, "transmission": t}, ...]``
    held as its rows ``((a, b), w, t)``, each an exact int."""

    rows: Sequence[tuple[tuple[int, int], int, int]]


def loads(text: str):
    """``json.loads(text)``, raising ``ValidationError`` on malformed text."""
    # RecursionError: deep nesting; ValueError: JSONDecodeError, too-long integers
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc


def dumps(value) -> str:
    """``json.dumps(value, indent=2)`` for an acyclic value, in which
    :class:`Entries` stands for the list of entry objects it holds."""
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
    if t is Entries:
        rows = value.rows
        if not rows:
            return "[]"
        return f"[{inner}{(',' + inner).join([_entry(inner)] * len(rows)) % _row_ints(rows)}{nl}]"
    if t is list:
        if not value:
            return "[]"
        if _INT_ONLY.issuperset(map(type, value)):
            # repr of an int list is its ids joined by ", ", built in C
            return f"[{inner}{repr(value)[1:-1].replace(', ', ',' + inner)}{nl}]"
        return f"[{inner}{(',' + inner).join([_dump(v, inner) for v in value])}{nl}]"
    if t is dict and _STR_ONLY.issuperset(map(type, value)):
        if not value:
            return "{}"
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


def _row_ints(rows: Sequence) -> tuple[int, ...]:
    """The template's ints for ``rows``, four per row, interleaved by slice
    assignment from the rows' columns.  Raises ``TypeError`` unless every row
    is ``((a, b), w, t)`` of exact ints: ``%d`` would write a bool or a float
    as an int."""
    if {3}.issuperset(map(len, rows)):
        origins, wants, sent = zip(*rows)
        if {2}.issuperset(map(len, origins)):
            firsts, seconds = zip(*origins)
            flat = [0] * (4 * len(rows))
            flat[0::4], flat[1::4], flat[2::4], flat[3::4] = firsts, seconds, wants, sent
            if _INT_ONLY.issuperset(map(type, flat)):
                return tuple(flat)
    raise TypeError("entry rows must be ((int, int), int, int) of exact ints")
