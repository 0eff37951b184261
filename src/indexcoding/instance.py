"""Data model for index coding instances.

An :class:`Instance` is a broadcast problem: ``num_messages`` messages and a
list of receivers, each demanding a set of messages (``wants``) while already
holding another, disjoint set (``has``) as side information.  Message ids are
1-indexed everywhere, including on the JSON wire format.

``parse_instance`` reads the JSON wire format in one walk: each receiver
passes C-speed type and duplicate tests or is walked id by id for the first
structural defect, and one range, nonempty and overlap test over the whole
instance decides whether :func:`validate` must list the violations.

The groupcast-to-unicast reduction lives here as well: ``split_groupcast``
breaks every receiver into one virtual receiver per demanded message, and
``dedup`` drops virtual receivers that are exact duplicates of an earlier one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ValidationError
from .jsontext import dumps

# 1-indexed message identifier, valid range [1, Instance.num_messages].
MessageId = int


@dataclass(frozen=True)
class Receiver:
    """One receiver: the messages it wants and the messages it already has."""

    wants: frozenset[int]
    has: frozenset[int]

    @classmethod
    def of(cls, wants: Iterable[int], has: Iterable[int] = ()) -> "Receiver":
        return cls(frozenset(wants), frozenset(has))


@dataclass(frozen=True)
class Instance:
    """A (possibly groupcast) index coding problem."""

    num_messages: int
    receivers: tuple[Receiver, ...]

    # True on an object the parser built and found to keep every rule of
    # validate().  Its fields are an int and a tuple of frozen receivers, so
    # that cannot go stale; dataclasses.replace builds a new, unmarked object.
    _validated = False

    @classmethod
    def of(
        cls, num_messages: int, receivers: Iterable[tuple[Iterable[int], Iterable[int]]]
    ) -> "Instance":
        return cls(num_messages, tuple(Receiver.of(w, h) for w, h in receivers))


@dataclass(frozen=True)
class VirtualReceiver:
    """A single-demand receiver produced by splitting a groupcast receiver.

    ``origin`` is the pair (receiver index, demand ordinal), both 1-indexed;
    the ordinal counts the demanded messages of that receiver in ascending
    id order.
    """

    want: int
    has: frozenset[int]
    origin: tuple[int, int]


@dataclass(frozen=True)
class UnicastInstance:
    """The split form: every virtual receiver demands exactly one message.

    ``dedup_map`` is None until :func:`dedup` has run; afterwards it maps each
    removed position to the position of its retained duplicate, both 0-based
    positions in the pre-dedup virtual list.
    """

    num_messages: int
    virtuals: tuple[VirtualReceiver, ...]
    dedup_map: Mapping[int, int] | None = None


def validate(inst: Instance) -> list[str]:
    """Check every invariant; return one message per violation (empty = ok)."""
    out: list[str] = []
    n = inst.num_messages
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        out.append("num_messages must be a positive integer")
        return out
    for j, r in enumerate(inst.receivers, start=1):
        if not r.wants:
            out.append(f"receiver {j}: empty demand")
        for label, ids in (("wants", r.wants), ("has", r.has)):
            for i in sorted(ids):
                if not isinstance(i, int) or isinstance(i, bool):
                    out.append(f"receiver {j}: {label} contains non-integer id {i!r}")
                elif not 1 <= i <= n:
                    out.append(
                        f"receiver {j}: {label} id {i} out of range [1, {n}]"
                    )
        overlap = r.wants & r.has
        if overlap:
            out.append(f"receiver {j}: wants/has overlap on {sorted(overlap)}")
    return out


def _require_valid(inst: Instance) -> None:
    violations = validate(inst)
    if violations:
        raise ValidationError("invalid instance", violations)


def _check_id_array(value, where: str) -> list[int]:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be an array of message ids")
    seen = set()
    for x in value:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValidationError(f"{where} contains non-integer entry {x!r}")
        if x in seen:
            raise ValidationError(f"{where} contains duplicate id {x}")
        seen.add(x)
    return list(value)


_INSTANCE_KEYS = frozenset(("num_messages", "receivers"))
_RECEIVER_KEYS = frozenset(("wants", "has"))
_INT_ONLY = frozenset((int,))


def _receiver(entry, j: int) -> Receiver:
    """Receiver ``j``, raising on its first structural defect.

    A dict of known keys whose arrays are lists of exact ints with no
    duplicate passes at C speed.  Any other entry is walked key by key and
    id by id, so the error names the first defect in document order.
    """
    if type(entry) is dict and _RECEIVER_KEYS.issuperset(entry):
        wants = entry.get("wants")
        has = entry.get("has", [])
        # types before hashing: a list id is unhashable, and 1.0 and True equal 1
        if (type(wants) is list and type(has) is list
                and _INT_ONLY.issuperset(map(type, wants))
                and _INT_ONLY.issuperset(map(type, has))):
            w, h = frozenset(wants), frozenset(has)
            if len(w) == len(wants) and len(h) == len(has):
                return Receiver(w, h)
    if not isinstance(entry, dict):
        raise ValidationError(f"receiver {j}: must be a JSON object")
    unknown = set(entry) - _RECEIVER_KEYS
    if unknown:
        raise ValidationError(f"receiver {j}: unknown keys {sorted(unknown)}")
    if "wants" not in entry:
        raise ValidationError(f"receiver {j}: missing 'wants'")
    wants = _check_id_array(entry["wants"], f"receiver {j}: 'wants'")
    has = _check_id_array(entry.get("has", []), f"receiver {j}: 'has'")
    return Receiver.of(wants, has)


def instance_from_jsonable(data) -> Instance:
    """Build and validate an Instance from decoded JSON data.

    Raises on the first structural defect or, once the structure is sound,
    with every violation :func:`validate` finds.
    """
    if not isinstance(data, dict):
        raise ValidationError("instance must be a JSON object")
    unknown = set(data) - _INSTANCE_KEYS
    if unknown:
        raise ValidationError(f"unknown instance keys: {sorted(unknown)}")
    if "num_messages" not in data:
        raise ValidationError("missing required key 'num_messages'")
    n = data["num_messages"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError("'num_messages' must be an integer")
    raw_receivers = data.get("receivers", [])
    if not isinstance(raw_receivers, list):
        raise ValidationError("'receivers' must be an array")
    receivers = [_receiver(entry, j) for j, entry in enumerate(raw_receivers, start=1)]
    ids = set().union(*[r.wants for r in receivers], *[r.has for r in receivers])
    inst = Instance(n, tuple(receivers))
    # validate() finds a violation exactly when one of these tests fails
    if (n < 1 or not all(r.wants and r.wants.isdisjoint(r.has) for r in receivers)
            or ids and (min(ids) < 1 or max(ids) > n)):
        _require_valid(inst)
    object.__setattr__(inst, "_validated", True)
    return inst


def parse_instance(text: str) -> Instance:
    """Parse the canonical instance JSON; raise ValidationError on any defect."""
    # RecursionError: deep nesting; ValueError: JSONDecodeError, too-long integers
    try:
        data = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc
    return instance_from_jsonable(data)


def instance_to_jsonable(inst: Instance) -> dict:
    return {
        "num_messages": inst.num_messages,
        "receivers": [
            {"wants": sorted(r.wants), "has": sorted(r.has)} for r in inst.receivers
        ],
    }


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON form: id arrays sorted ascending, 2-space indent."""
    return dumps(instance_to_jsonable(inst))


def split_groupcast(inst: Instance) -> UnicastInstance:
    """Break each receiver into one virtual receiver per demanded message.

    Virtuals are ordered by (receiver index, want ascending), so the result
    has exactly sum(len(r.wants)) entries and downstream output is
    deterministic.  Duplicates are kept; apply :func:`dedup` to drop them.
    """
    if not inst._validated:
        _require_valid(inst)
    virtuals = []
    for j, r in enumerate(inst.receivers, start=1):
        for k, want in enumerate(sorted(r.wants), start=1):
            virtuals.append(VirtualReceiver(want=want, has=r.has, origin=(j, k)))
    return UnicastInstance(inst.num_messages, tuple(virtuals))


def dedup(u: UnicastInstance) -> UnicastInstance:
    """Drop virtual receivers whose (want, has) repeats an earlier one.

    Identical virtual receivers are satisfied by identical transmissions, so
    removing them never changes the achievable rate.  The returned instance
    always carries a dedup_map (possibly empty).
    """
    first_seen: dict[tuple[int, frozenset[int]], int] = {}
    retained = []
    removed: dict[int, int] = {}
    for idx, v in enumerate(u.virtuals):
        key = (v.want, v.has)
        if key in first_seen:
            removed[idx] = first_seen[key]
        else:
            first_seen[key] = idx
            retained.append(v)
    return UnicastInstance(u.num_messages, tuple(retained), dedup_map=removed)
