"""The side-information digraph, its cross-neighbor graph, and DOT export.

One relation over virtual receivers underlies the cover and its converse: an
arc p -> q when q's want sits in p's side information.  The cross-neighbor
graph is its bidirected arcs (one XOR serves a clique of them) plus an edge
between virtuals that want the same message (one send of it serves both); the
MAIS bound (``oracle.mais_lower_bound``) is its largest acyclic set of
virtuals with distinct wants.

The arcs are the split form's ``UnicastInstance.arcs``, built once per split:
``W[i]`` and ``H[i]`` hold the virtuals that want and that hold message i,
``H`` for wanted messages only (no other makes an arc), and ``out[p]`` the
heads of virtual p's arcs.  Each distinct ``has`` is walked from its shorter
side, itself or the wanted messages it lacks, so the build costs
O(sum of min(|has|, |wanted|)).  Virtual p's cross-neighbor row
is ``out[p] & H[want_p] | W[want_p]``, minus p: the split form's cached
``UnicastInstance.adjacency``, so the graph that ``connected_components``,
the covers and ``derived_dot`` take is the split form itself.  Both
conditions are symmetric in p and q, so the rows are valid by construction
and no symmetry test runs on them.  ``derived_dot`` colours by
``CliqueCover.assignment``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import ValidationError
from .instance import Instance, UnicastInstance, _bits

if TYPE_CHECKING:  # cover imports this module
    from .cover import CliqueCover


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


def build_cross_neighbor_graph(u: UnicastInstance) -> UnicastInstance:
    """``u`` with its cross-neighbor rows built: edge {p, q} iff the pair can
    share one XOR transmission, that is equal wants, or mutual containment
    (each want in the other's side info)."""
    if type(u) is not UnicastInstance:
        raise ValidationError(
            f"a cross-neighbor graph takes a UnicastInstance, not {type(u).__name__}")
    u.adjacency  # the cached rows: built here on first use, once
    return u


def connected_components(g: UnicastInstance) -> list[tuple[int, ...]]:
    """Components as ascending vertex tuples, ordered by smallest member:
    each is the closure of the lowest vertex no earlier component holds."""
    unseen = (1 << g.vertex_count) - 1
    components = []
    while unseen:
        comp = closure(g.adjacency, unseen & -unseen, unseen)
        unseen &= ~comp
        components.append(tuple([*_bits(comp)]))
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


def bipartite_dot(inst: Instance) -> Iterator[str]:
    """DOT text for the bipartite picture of an instance, as chunks to join
    or write in turn: one per node line and one per receiver's edge lines.

    Message nodes are named m<i>, receiver nodes r<j>.  Side-information
    edges are solid; demand edges are dashed (the diagram distinguishes the
    two roles explicitly).
    """
    yield "graph index_coding {\n  rankdir=LR;\n  { rank=same;\n"
    for i in range(1, inst.num_messages + 1):
        yield f'    m{i} [shape=box, label="w{i}"];\n'
    yield "  }\n"
    if inst.receivers:
        yield "  { rank=same;\n"
        for j in range(1, len(inst.receivers) + 1):
            yield f'    r{j} [shape=ellipse, label="r{j}"];\n'
        yield "  }\n"
    for j, r in enumerate(inst.receivers, start=1):
        yield "".join([f"  r{j} -- m{i};\n" for i in sorted(r.has)]
                      + [f"  r{j} -- m{i} [style=dashed];\n" for i in sorted(r.wants)])
    yield "}\n"


def derived_dot(g: UnicastInstance, cover: CliqueCover | None = None) -> Iterator[str]:
    """DOT text for the cross-neighbor graph of the split form ``g``, as
    chunks to join or write in turn: one per node line and one per row's
    edge lines.

    Nodes are named r<j>_<k> after each virtual's origin.
    When a cover of ``g`` is supplied its parts are shown by fill color, one per part.
    """
    # the rows first, so that the graph cap raises before any line is written
    rows, part_of = g.adjacency, None if cover is None else cover.assignment(g.vertex_count)
    yield "graph cross_neighbors {\n"
    names = []
    for idx, v in enumerate(g.virtuals):
        j, k = v.origin
        name = f"r{j}_{k}"
        names.append(name)
        label = f"{name} wants w{v.want}"
        attrs = [f'label="{label}"']
        if part_of is not None:
            color = _PART_COLORS[part_of[idx] % len(_PART_COLORS)]
            attrs.append("style=filled")
            attrs.append(f"fillcolor={color}")
        yield f"  {name} [{', '.join(attrs)}];\n"
    # the edges in edges() order, walked from the rows with no tuple list
    for p, row in enumerate(rows):
        yield "".join([f"  {names[p]} -- {names[p + 1 + q]};\n" for q in _bits(row >> (p + 1))])
    yield "}\n"
