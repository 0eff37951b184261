"""The side-information digraph, its cross-neighbor graph, and DOT export.

One relation over virtual receivers underlies the cover and its converse: an
arc p -> q when q's want sits in p's side information.  The cross-neighbor
graph is its bidirected arcs (one XOR serves a clique of them) plus an edge
between virtuals that want the same message, dropped when ``strict``; the
MAIS bound (``oracle.mais_lower_bound``) is its largest acyclic set of
virtuals with distinct wants.

The arcs are bitmasks over virtual indices, built per message, not by pairs:
``W[i]`` and ``H[i]`` hold the virtuals that want and that hold message i,
and ``out[has]``, the OR of ``W[i]`` over i in ``has``, is taken once per
distinct side information.  Virtual p's cross-neighbor row is
``out[has_p] & H[want_p]``, OR-ed with ``W[want_p]`` unless strict, minus p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import ValidationError
from .instance import Instance, UnicastInstance, _id_text

# characters per strip of the symmetry test (one per adjacency bit)
_STRIP_CHARS = 1 << 22


@dataclass(frozen=True)
class DerivedGraph:
    """Undirected graph over virtual-receiver indices, dense bitmask rows."""

    vertex_count: int
    adjacency: tuple[int, ...]

    def __post_init__(self):
        k = self.vertex_count
        rows = self.adjacency
        if len(rows) != k:
            raise ValueError("adjacency length must equal vertex_count")
        # a bulk test first; the row walk runs only to name the first defect
        well_formed = not any(row >> k or (row >> p) & 1 for p, row in enumerate(rows))
        if not (well_formed and _symmetric(rows, k)):
            _raise_first_defect(rows, k)

    def edges(self) -> list[tuple[int, int]]:
        return [(p, q) for p in range(self.vertex_count) for q in _bits(self.adjacency[p]) if p < q]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _symmetric(rows: tuple[int, ...], k: int) -> bool:
    """Exact symmetry test in C, column strip by column strip: each strip of
    the bit matrix is one string, row p's bits low bit first, and its column
    slices must equal the matching rows.  A strip holds at most
    ``_STRIP_CHARS`` characters, so the test's memory does not grow as k^2."""
    width = max(1, min(k, _STRIP_CHARS // max(k, 1)))
    for c in range(0, k, width):
        w = min(width, k - c)
        low = (1 << w) - 1
        strip = "".join([format(row >> c & low, f"0{w}b")[::-1] for row in rows])
        for q in range(c, c + w):
            # with one strip, row q is a slice of it; otherwise it is formatted
            row_q = strip[q * k:(q + 1) * k] if w == k else format(rows[q], f"0{k}b")[::-1]
            if strip[q - c::w] != row_q:
                return False
    return True


def _raise_first_defect(rows: tuple[int, ...], k: int) -> None:
    for p, row in enumerate(rows):
        if row >> k:
            raise ValueError(f"vertex {p}: neighbor bit out of range")
        if (row >> p) & 1:
            raise ValueError(f"vertex {p}: self-loop")
        for q in _bits(row):
            if not (rows[q] >> p) & 1:
                raise ValueError(f"adjacency not symmetric on ({p}, {q})")


def side_information_arcs(u: UnicastInstance) -> tuple[dict, dict, dict]:
    """``(W, H, out)``: message -> virtuals wanting it, message -> virtuals
    holding it (no entry when none does), and side information -> the heads
    of the arcs leaving each virtual that has it.

    Raises ``ValidationError`` as :func:`_raise_bad_id` does when a want or
    side-information id is not an int in [1, n].  The test reads the keys of
    W and H, so an id equal to an int key (``True``, ``1.0``) is read as that
    int.
    """
    wanted_by: dict[int, int] = {}
    group: dict[frozenset[int], int] = {}  # has -> virtuals sharing it
    for p, v in enumerate(u.virtuals):
        wanted_by[v.want] = wanted_by.get(v.want, 0) | 1 << p
        group[v.has] = group.get(v.has, 0) | 1 << p
    held_by: dict[int, int] = {}
    out: dict[frozenset[int], int] = {}
    for has, members in group.items():
        reach = 0
        for i in has:
            held_by[i] = held_by.get(i, 0) | members
            reach |= wanted_by.get(i, 0)
        out[has] = reach
    ids = wanted_by.keys() | held_by.keys()
    if not ({int}.issuperset(map(type, ids))
            and 1 <= min(ids, default=1) and max(ids, default=1) <= u.num_messages):
        _raise_bad_id(u)
    return wanted_by, held_by, out


def _raise_bad_id(u: UnicastInstance) -> None:
    """Raise ``ValidationError`` naming the first virtual, in order, whose
    want or one of whose side-information ids is not an int in [1, n]; the
    want is tested first."""
    n = u.num_messages
    for v in u.virtuals:
        for label, ids in (("want", (v.want,)), ("has id", v.has)):
            for i in ids:
                if type(i) is not int or not 1 <= i <= n:
                    raise ValidationError(
                        f"virtual {v.origin}: {label} {_id_text(i)} out of range [1, {n}]"
                    )


def closure(rows: Sequence[int], frontier: int, within: int) -> int:
    """``frontier`` and every vertex of ``within`` it reaches along the
    bitmask ``rows`` without leaving ``within``."""
    reached = frontier
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= rows[v]
        frontier = reach & within & ~reached
        reached |= frontier
    return reached


def build_cross_neighbor_graph(u: UnicastInstance, strict: bool = False) -> DerivedGraph:
    """Edge {p, q} iff the pair can share one XOR transmission.

    Default rule: equal wants, or mutual containment (each want in the other's
    side info).  With ``strict=True`` only mutual containment counts, which
    makes two virtuals wanting the same message non-adjacent.
    """
    wanted_by, held_by, out = side_information_arcs(u)
    rows = []
    for p, v in enumerate(u.virtuals):
        row = out[v.has] & held_by.get(v.want, 0)
        if not strict:
            row |= wanted_by[v.want]
        rows.append(row & ~(1 << p))
    return DerivedGraph(len(u.virtuals), tuple(rows))


def connected_components(g: DerivedGraph) -> list[tuple[int, ...]]:
    """Components as ascending vertex tuples, ordered by smallest member:
    each is the closure of the lowest vertex no earlier component holds."""
    unseen = (1 << g.vertex_count) - 1
    components = []
    while unseen:
        comp = closure(g.adjacency, unseen & -unseen, unseen)
        unseen &= ~comp
        components.append(tuple(_bits(comp)))
    return components


# Fill palette for cover overlays, cycled when a cover has more parts.
_PART_COLORS = (
    "lightblue",
    "lightgreen",
    "lightsalmon",
    "gold",
    "plum",
    "lightgrey",
    "khaki",
    "lightpink",
)


def bipartite_dot(inst: Instance) -> str:
    """DOT text for the bipartite picture of an instance.

    Message nodes are named m<i>, receiver nodes r<j>.  Side-information
    edges are solid; demand edges are dashed (the diagram distinguishes the
    two roles explicitly).
    """
    lines = ["graph index_coding {", "  rankdir=LR;"]
    lines.append("  { rank=same;")
    for i in range(1, inst.num_messages + 1):
        lines.append(f'    m{i} [shape=box, label="w{i}"];')
    lines.append("  }")
    if inst.receivers:
        lines.append("  { rank=same;")
        for j in range(1, len(inst.receivers) + 1):
            lines.append(f'    r{j} [shape=ellipse, label="r{j}"];')
        lines.append("  }")
    for j, r in enumerate(inst.receivers, start=1):
        for i in sorted(r.has):
            lines.append(f"  r{j} -- m{i};")
        for i in sorted(r.wants):
            lines.append(f"  r{j} -- m{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def derived_dot(
    u: UnicastInstance,
    g: DerivedGraph,
    cover: Sequence[Sequence[int]] | None = None,
) -> str:
    """DOT text for the cross-neighbor graph.

    Nodes are named r<j>_<k> after each virtual's origin.  When a cover is
    supplied its parts are shown by fill color, one color per part.
    """
    if g.vertex_count != len(u.virtuals):
        raise ValueError("graph does not match the unicast instance")
    part_of = {}
    if cover is not None:
        for t, part in enumerate(cover):
            for v in part:
                part_of[v] = t
    lines = ["graph cross_neighbors {"]
    names = []
    for idx, v in enumerate(u.virtuals):
        j, k = v.origin
        name = f"r{j}_{k}"
        names.append(name)
        label = f"{name} wants w{v.want}"
        attrs = [f'label="{label}"']
        if idx in part_of:
            color = _PART_COLORS[part_of[idx] % len(_PART_COLORS)]
            attrs.append("style=filled")
            attrs.append(f"fillcolor={color}")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    for p, q in g.edges():
        lines.append(f"  {names[p]} -- {names[q]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
