"""Cross-neighbor graph construction and DOT diagram export.

Two virtual receivers are cross neighbors when each one's wanted message sits
in the other's side information; a clique of this relation can be served by a
single XOR transmission.  The builder here additionally joins virtuals that
want the same message (one transmission of that message serves all of them);
pass ``strict=True`` to get the bare mutual-containment relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .instance import Instance, UnicastInstance


@dataclass(frozen=True)
class DerivedGraph:
    """Undirected graph over virtual-receiver indices, dense bitmask rows."""

    vertex_count: int
    adjacency: tuple[int, ...]

    def __post_init__(self):
        if len(self.adjacency) != self.vertex_count:
            raise ValueError("adjacency length must equal vertex_count")
        for p, row in enumerate(self.adjacency):
            if row >> self.vertex_count:
                raise ValueError(f"vertex {p}: neighbor bit out of range")
            if (row >> p) & 1:
                raise ValueError(f"vertex {p}: self-loop")
            for q in _bits(row):
                if not (self.adjacency[q] >> p) & 1:
                    raise ValueError(f"adjacency not symmetric on ({p}, {q})")

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "DerivedGraph":
        rows = [0] * vertex_count
        for p, q in edges:
            if p == q:
                raise ValueError(f"self-loop on vertex {p}")
            rows[p] |= 1 << q
            rows[q] |= 1 << p
        return cls(vertex_count, tuple(rows))

    def has_edge(self, p: int, q: int) -> bool:
        return bool((self.adjacency[p] >> q) & 1)

    def neighbors(self, p: int) -> Iterator[int]:
        return _bits(self.adjacency[p])

    def degree(self, p: int) -> int:
        return self.adjacency[p].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        return [(p, q) for p in range(self.vertex_count) for q in _bits(self.adjacency[p]) if p < q]

    def induced_subgraph(self, vertices: Sequence[int]) -> "DerivedGraph":
        """Subgraph on the given vertices, relabelled 0..k-1 in the given order."""
        index = {v: i for i, v in enumerate(vertices)}
        rows = []
        for v in vertices:
            row = 0
            for u in _bits(self.adjacency[v]):
                if u in index:
                    row |= 1 << index[u]
            rows.append(row)
        return DerivedGraph(len(vertices), tuple(rows))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_cross_neighbor_graph(u: UnicastInstance, strict: bool = False) -> DerivedGraph:
    """Edge {p, q} iff the pair can share one XOR transmission.

    Default rule: equal wants, or mutual containment (each want in the other's
    side info).  With ``strict=True`` only mutual containment counts, which
    makes two virtuals wanting the same message non-adjacent.
    """
    virtuals = u.virtuals
    k = len(virtuals)
    rows = [0] * k
    for p in range(k):
        vp = virtuals[p]
        for q in range(p + 1, k):
            vq = virtuals[q]
            if vp.want == vq.want:
                joined = not strict
            else:
                joined = vp.want in vq.has and vq.want in vp.has
            if joined:
                rows[p] |= 1 << q
                rows[q] |= 1 << p
    return DerivedGraph(k, tuple(rows))


def connected_components(g: DerivedGraph) -> list[tuple[int, ...]]:
    """Components as ascending vertex tuples, ordered by smallest member.

    Each frontier is the OR of the previous frontier's adjacency rows, minus
    the vertices the component already holds.
    """
    unseen = (1 << g.vertex_count) - 1
    components = []
    while unseen:
        comp = frontier = unseen & -unseen
        while frontier:
            reach = 0
            for v in _bits(frontier):
                reach |= g.adjacency[v]
            frontier = reach & ~comp
            comp |= frontier
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
