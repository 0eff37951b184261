"""The side-information digraph, its cross-neighbor graph, and DOT export.

One relation over virtual receivers underlies the cover and its converse: an
arc p -> q when q's want sits in p's side information.  The cross-neighbor
graph is its bidirected arcs (one XOR serves a clique of them) plus an edge
between virtuals that want the same message (one send of it serves both); the
MAIS bound (``oracle.mais_lower_bound``) is its largest acyclic set of
virtuals with distinct wants.

The arcs are the split form's ``UnicastInstance.arcs``, built once per split:
``W[i]`` and ``H[i]`` hold the virtuals that want and that hold message i,
and ``out[p]`` the heads of virtual p's arcs.  Virtual p's cross-neighbor row
is ``out[p] & H[want_p] | W[want_p]``, minus p.  Both conditions are
symmetric in p and q, so a ``DerivedGraph``, which is made only from a split
form and builds these rows itself, is valid by construction and no symmetry
test runs on it.  ``derived_dot`` colours by ``CliqueCover.assignment``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import ValidationError
from .instance import Instance, UnicastInstance

if TYPE_CHECKING:  # cover imports this module
    from .cover import CliqueCover


@dataclass(frozen=True)
class DerivedGraph:
    """The cross-neighbor graph of the split form ``unicast``: an undirected
    graph over its virtual indices, as dense bitmask rows.

    It is made only from a ``UnicastInstance`` and builds its rows once, so it
    is valid by construction: symmetric, with no self-loop and no bit at or
    above ``vertex_count``.  Nothing is checked here beyond the argument's type.
    """

    unicast: UnicastInstance
    # derived from the field above, once, in __post_init__
    vertex_count: int = field(init=False, compare=False)
    adjacency: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        u = self.unicast
        if type(u) is not UnicastInstance:
            raise ValidationError(
                f"a cross-neighbor graph takes a UnicastInstance, not {type(u).__name__}")
        wanted_by, held_by, out = u.arcs
        rows = [
            (out[p] & held_by.get(v.want, 0) | wanted_by[v.want]) & ~(1 << p)
            for p, v in enumerate(u.virtuals)
        ]
        object.__setattr__(self, "vertex_count", len(rows))
        object.__setattr__(self, "adjacency", tuple(rows))

    def edges(self) -> list[tuple[int, int]]:
        return [(p, q) for p in range(self.vertex_count) for q in _bits(self.adjacency[p]) if p < q]


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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


def build_cross_neighbor_graph(u: UnicastInstance) -> DerivedGraph:
    """Edge {p, q} iff the pair can share one XOR transmission: ``DerivedGraph(u)``.

    That is equal wants, or mutual containment (each want in the other's side
    info).
    """
    return DerivedGraph(u)


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


def derived_dot(g: DerivedGraph, cover: CliqueCover | None = None) -> str:
    """DOT text for the cross-neighbor graph.

    Nodes are named r<j>_<k> after each virtual's origin in ``g.unicast``.
    When a cover of ``g`` is supplied its parts are shown by fill color, one per part.
    """
    part_of = None if cover is None else cover.assignment(g.vertex_count)
    lines = ["graph cross_neighbors {"]
    names = []
    for idx, v in enumerate(g.unicast.virtuals):
        j, k = v.origin
        name = f"r{j}_{k}"
        names.append(name)
        label = f"{name} wants w{v.want}"
        attrs = [f'label="{label}"']
        if part_of is not None:
            color = _PART_COLORS[part_of[idx] % len(_PART_COLORS)]
            attrs.append("style=filled")
            attrs.append(f"fillcolor={color}")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    for p, q in g.edges():
        lines.append(f"  {names[p]} -- {names[q]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
