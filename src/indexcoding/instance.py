"""Data model for index coding instances.

An :class:`Instance` is a broadcast problem: ``num_messages`` messages and a
list of receivers, each demanding a set of messages (``wants``) while already
holding another, disjoint set (``has``) as side information.  Message ids are
1-indexed everywhere, including on the JSON wire format.

An ``Instance`` is valid by construction: its constructor tests every rule
at C speed and raises ``ValidationError`` listing every violation, so no
later stage checks it again.  ``parse_instance`` hands receivers that pass
C-speed shape and duplicate tests to that constructor, once; on a failure it
walks them id by id for the first structural defect, else re-raises.

The groupcast-to-unicast reduction lives here as well: a
:class:`UnicastInstance` is made only from an ``Instance``, so its split is
valid by construction too.  It breaks every receiver into one virtual
receiver per demanded message and, with ``dedup``, drops virtual receivers
that are exact duplicates of an earlier one.  Its side-information arcs,
which the MAIS bound reads, and the cross-neighbor graph's rows built from
them are views of the split, each built on first use, once: the split form
is the graph the covers take.

The per-request tuples are built from lists (``tuple([...])``), never from a
generator or ``map``.  An iterator has no known length, so CPython sizes the
tuple for 10 items and then shrinks it, and the tuple goes, when freed, onto
the free list of its final size; those lists grow to 2000 tuples per size
and only a full collection empties them, which ``cli.main``'s paused
collector makes rare.  A tuple of a list's known length takes its block from
the free list it returns to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import and_
from typing import Iterable, Iterator

from .errors import ValidationError
from .jsontext import dumps, loads


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
    """A (possibly groupcast) index coding problem, valid by construction:
    ``num_messages`` is at least 1, ``receivers`` is a tuple of ``Receiver``
    with frozenset fields, and every receiver wants a nonempty set of ids in
    ``[1, num_messages]`` disjoint from the ids it has."""

    num_messages: int
    receivers: tuple[Receiver, ...]

    def __post_init__(self):
        n, receivers = self.num_messages, self.receivers
        # a bulk test first; the walk runs only to list the violations.  Types come
        # before any set operation, ids one by one as the union merges True into 1.
        # No call takes wants and has as one 2m-item argument tuple: at m = 10,
        # CPython 3.11 frees that onto a 20-item free list it never takes from
        if type(receivers) is tuple and {Receiver}.issuperset(map(type, receivers)):
            wants, has = [r.wants for r in receivers], [r.has for r in receivers]
            if ({frozenset}.issuperset(map(type, chain(wants, has))) and type(n) is int
                    and n >= 1 and all(wants) and not any(map(and_, wants, has))
                    and {int}.issuperset(map(type, chain.from_iterable(chain(wants, has))))
                    and 1 <= min(ids := set().union(*wants).union(*has), default=1)
                    and max(ids, default=1) <= n):
                return
        raise ValidationError("invalid instance", _violations(n, receivers))

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
    """The split form of ``instance``: every virtual receiver demands exactly
    one message.

    ``demands`` holds one virtual per demand, ordered by (receiver index, want
    ascending), so it has exactly sum(len(r.wants)) entries and downstream
    output is deterministic.  Without ``dedup``, ``virtuals`` is ``demands``
    and ``dedup_map`` is None.  With it, ``virtuals`` drops each virtual whose
    (want, has) repeats an earlier one (identical virtuals are satisfied by
    identical transmissions, so the achievable rate never changes), and
    ``dedup_map`` maps each removed position to the position of its retained
    duplicate, both 0-based positions in ``demands``.

    The ``Instance`` is valid by construction, so nothing is checked again
    here beyond the types of the two arguments.
    """

    instance: Instance
    dedup: bool = False
    # derived from the two fields above, once, in __post_init__
    num_messages: int = field(init=False, compare=False)
    demands: tuple[VirtualReceiver, ...] = field(init=False, compare=False)
    virtuals: tuple[VirtualReceiver, ...] = field(init=False, compare=False)
    dedup_map: dict[int, int] | None = field(init=False, compare=False)

    def __post_init__(self):
        inst = self.instance
        if type(inst) is not Instance or type(self.dedup) is not bool:
            raise ValidationError(
                "a split form takes an Instance and a bool dedup flag, not "
                f"{type(inst).__name__} and {type(self.dedup).__name__}"
            )
        demands = tuple([
            VirtualReceiver(want, r.has, (j, k))
            for j, r in enumerate(inst.receivers, start=1)
            for k, want in enumerate(sorted(r.wants), start=1)
        ])
        virtuals, dedup_map = demands, None
        if self.dedup:
            first_seen: dict[tuple[int, frozenset[int]], int] = {}
            kept, dedup_map = [], {}
            for idx, v in enumerate(demands):
                rep = first_seen.setdefault((v.want, v.has), idx)
                if rep == idx:
                    kept.append(v)
                else:
                    dedup_map[idx] = rep
            virtuals = tuple(kept)
        for name, value in (("num_messages", inst.num_messages), ("demands", demands),
                            ("virtuals", virtuals), ("dedup_map", dedup_map)):
            object.__setattr__(self, name, value)

    @cached_property
    def arcs(self) -> tuple[dict[int, int], dict[int, int], tuple[int, ...]]:
        """``(W, H, out)``: the side-information digraph (arc p -> q when q's
        want is in p's ``has``) as bitmasks over ``virtuals``, message -> its
        wanters, message -> its holders (no entry when none), and each
        virtual's out-row.  Built on first use, once; shared, so read-only."""
        return _side_information_arcs(self.virtuals)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """The cross-neighbor graph over ``virtuals`` as bitmask rows: row p
        joins q when the two want the same message or each holds the other's
        want.  Both are symmetric, so the rows are symmetric and loop-free by
        construction.  Built on first use from :attr:`arcs`, once."""
        return _cross_neighbor_rows(self)

    @property
    def vertex_count(self) -> int:
        return len(self.virtuals)

    def edges(self) -> list[tuple[int, int]]:
        """Each edge once as (p, q) with p < q, in row order: row p walks only
        its bits above p."""
        return [
            (p, p + 1 + q) for p, row in enumerate(self.adjacency) for q in _bits(row >> (p + 1))
        ]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cross_neighbor_rows(u: UnicastInstance) -> tuple[int, ...]:
    """:attr:`UnicastInstance.adjacency`: virtual p's row is
    ``out[p] & H[want_p] | W[want_p]``, minus p."""
    wanted_by, held_by, out = u.arcs
    return tuple([
        (out[p] & held_by.get(v.want, 0) | wanted_by[v.want]) & ~(1 << p)
        for p, v in enumerate(u.virtuals)
    ])


def _side_information_arcs(virtuals: tuple[VirtualReceiver, ...]) -> tuple[dict, dict, tuple]:
    """:attr:`UnicastInstance.arcs`, built per message, not by pairs: the OR
    of ``W[i]`` over i in ``has`` is taken once per distinct ``has``."""
    wanted_by: dict[int, int] = {}
    group: dict[frozenset[int], int] = {}  # has -> virtuals sharing it
    for p, v in enumerate(virtuals):
        wanted_by[v.want] = wanted_by.get(v.want, 0) | 1 << p
        group[v.has] = group.get(v.has, 0) | 1 << p
    held_by: dict[int, int] = {}
    reach_of: dict[frozenset[int], int] = {}
    for has, members in group.items():
        reach = 0
        for i in has:
            held_by[i] = held_by.get(i, 0) | members
            reach |= wanted_by.get(i, 0)
        reach_of[has] = reach
    return wanted_by, held_by, tuple([reach_of[v.has] for v in virtuals])


def _violations(n, receivers) -> list[str]:
    """One message per broken rule of :class:`Instance`, in receiver order
    (empty = valid).  ``n`` and the ids must be of type ``int``, not bool;
    ``receivers`` a tuple of ``Receiver`` whose fields are frozensets."""
    if type(n) is not int or n < 1:
        return ["num_messages must be a positive integer"]
    if type(receivers) is not tuple:
        return [f"receivers must be a tuple, not {type(receivers).__name__}"]
    out: list[str] = []
    for j, r in enumerate(receivers, start=1):
        if type(r) is not Receiver:
            out.append(f"receiver {j}: must be a Receiver, not {type(r).__name__}")
            continue
        fields = (("wants", r.wants), ("has", r.has))
        odd = [f"receiver {j}: {label} must be a frozenset, not {type(ids).__name__}"
               for label, ids in fields if type(ids) is not frozenset]
        if odd:
            out += odd
            continue
        if not r.wants:
            out.append(f"receiver {j}: empty demand")
        for label, ids in fields:
            for i in sorted(ids, key=_listing_key):
                if type(i) is not int:
                    out.append(f"receiver {j}: {label} contains non-integer id {_id_text(i)}")
                elif not 1 <= i <= n:
                    out.append(f"receiver {j}: {label} id {_id_text(i)} out of range"
                               f" [1, {_id_text(n)}]")
        overlap = sorted(r.wants & r.has, key=_listing_key)
        if overlap:
            out.append(f"receiver {j}: wants/has overlap on [{', '.join(map(_id_text, overlap))}]")
    return out


def _listing_key(i) -> tuple:
    """Ints ascending, then other ids by type and repr: never compares across types."""
    return (0, i, "") if type(i) is int else (1, 0, f"{type(i).__name__} {_id_text(i)}")


def _id_text(i) -> str:
    """``repr(i)``, or the bit length of an int too long for Python to print."""
    try:
        return repr(i)
    except ValueError:
        return f"<{type(i).__name__} of {i.bit_length()} bits>"


def _check_id_array(value, where: str) -> None:
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be an array of message ids")
    seen = set()
    for x in value:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValidationError(f"{where} contains non-integer entry {x!r}")
        if x in seen:
            raise ValidationError(f"{where} contains duplicate id {_id_text(x)}")
        seen.add(x)


_INSTANCE_KEYS = frozenset(("num_messages", "receivers"))
_RECEIVER_KEYS = frozenset(("wants", "has"))


def _receiver(entry) -> Receiver:
    """The receiver ``entry`` when it passes C-speed tests: a dict of known
    keys whose arrays are lists of distinct hashable ids.  Raises TypeError
    when it does not; the ``Instance`` constructor tests the ids' types."""
    if type(entry) is dict and _RECEIVER_KEYS.issuperset(entry):
        wants = entry.get("wants")
        has = entry.get("has", [])
        if type(wants) is list and type(has) is list:
            w, h = frozenset(wants), frozenset(has)  # TypeError: an unhashable id
            # 1.0 and True equal 1, so a list holding one of them and 1 is longer
            if len(w) == len(wants) and len(h) == len(has):
                return Receiver(w, h)
    raise TypeError("receiver fails the C-speed tests")


def _walked_receiver(entry, j: int) -> None:
    """Walk receiver ``j`` key by key and id by id, raising on its first
    structural defect in document order."""
    if not isinstance(entry, dict):
        raise ValidationError(f"receiver {j}: must be a JSON object")
    unknown = set(entry) - _RECEIVER_KEYS
    if unknown:
        raise ValidationError(f"receiver {j}: unknown keys {sorted(unknown)}")
    if "wants" not in entry:
        raise ValidationError(f"receiver {j}: missing 'wants'")
    _check_id_array(entry["wants"], f"receiver {j}: 'wants'")
    _check_id_array(entry.get("has", []), f"receiver {j}: 'has'")


def instance_from_jsonable(data) -> Instance:
    """Build an Instance from decoded JSON data.

    Raises on the first structural defect or, once the structure is sound,
    with every violation the ``Instance`` constructor finds.
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
    try:
        return Instance(n, tuple([*map(_receiver, raw_receivers)]))
    except (TypeError, ValidationError) as exc:
        # a receiver failed its C-speed tests (on a defect the walk names), or the
        # instance a rule; the walk names any structural defect before a violation
        failure = exc
    for j, entry in enumerate(raw_receivers, start=1):
        _walked_receiver(entry, j)
    raise failure


def parse_instance(text: str) -> Instance:
    """Parse the canonical instance JSON; raise ValidationError on any defect."""
    return instance_from_jsonable(loads(text))


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON form: id arrays sorted ascending, 2-space indent."""
    return dumps({
        "num_messages": inst.num_messages,
        "receivers": [{"wants": sorted(r.wants), "has": sorted(r.has)} for r in inst.receivers],
    })


def split_groupcast(inst: Instance) -> UnicastInstance:
    """Break each receiver into one virtual receiver per demanded message,
    keeping duplicates; apply :func:`dedup` to drop them."""
    return UnicastInstance(inst)


def dedup(u: UnicastInstance) -> UnicastInstance:
    """The split of ``u``'s instance without virtuals whose (want, has)
    repeats an earlier one; it always carries a dedup_map (possibly empty)."""
    return UnicastInstance(u.instance, dedup=True)
