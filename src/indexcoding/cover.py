"""Minimum clique cover of the cross-neighbor graph.

A clique cover of g is a proper coloring of g's complement, so the exact
solver runs a DSATUR-ordered branch-and-bound coloring on the complement of
each connected component (cliques never span components).  Greedy first-fit
builds each part whole, as one ascending sequential clique: O(k) big-int
steps on k vertices.  Ties break on ascending vertex index and parts are sorted
by smallest member, so covers are deterministic and asserted exactly in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceeded
from .graph import DerivedGraph, _bits, connected_components

DEFAULT_EXACT_CAP = 40


@dataclass(frozen=True)
class CliqueCover:
    """A partition of graph vertices into cliques; len(parts) is the rate."""

    parts: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.parts)

    def assignment(self, vertex_count: int) -> list[int]:
        """Map each vertex to the index of its part."""
        out = [-1] * vertex_count
        for t, part in enumerate(self.parts):
            for v in part:
                out[v] = t
        return out


def greedy_cover(g: DerivedGraph) -> CliqueCover:
    """First-fit cover: scan vertices ascending, join the first part whose
    every member is adjacent, else open a new part.  That puts v in part i
    exactly when no earlier part took v and v is adjacent to every member of
    part i below v, so part i is built whole as the ascending sequential clique
    over the vertices left: O(k) big-int steps, with the parts already canonical."""
    adj, parts = g.adjacency, []
    left = (1 << g.vertex_count) - 1
    while left:
        part, cand = [], left
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            part.append(v)
            left ^= low
            cand &= adj[v]
        parts.append(tuple(part))
    return CliqueCover(tuple(parts))


def exact_min_cover(g: DerivedGraph, cap: int = DEFAULT_EXACT_CAP) -> CliqueCover:
    """Minimum clique cover via exact coloring of the complement graph.

    Cliques never span connected components, so each is solved on its own and
    ``cap`` bounds the largest one: a component over ``cap`` vertices raises
    CapExceeded before any is solved; use :func:`greedy_cover` then.
    """
    components = connected_components(g)
    largest = max(map(len, components), default=0)
    if largest > cap:
        raise CapExceeded(
            f"exact cover cap exceeded (component of {largest} vertices > {cap}); "
            "use greedy_cover"
        )
    adj, parts = g.adjacency, []
    for comp in components:
        # relabel the component 0..len(comp)-1 in ascending order; it is closed
        # under adjacency, so every neighbor has a label
        local = {v: i for i, v in enumerate(comp)}
        full = (1 << len(comp)) - 1
        complement = []
        for i, v in enumerate(comp):
            row = 0
            for u in _bits(adj[v]):
                row |= 1 << local[u]
            complement.append(full & ~row & ~(1 << i))
        # color classes fill in ascending vertex order, so each part is sorted
        classes: dict[int, list[int]] = {}
        for v, color in zip(comp, _exact_coloring(len(comp), complement)):
            classes.setdefault(color, []).append(v)
        parts.extend(map(tuple, classes.values()))
    return CliqueCover(tuple(sorted(parts, key=lambda p: p[0])))


def _pick(candidates: Sequence[int], colors: list[int], sat: list[int], degrees: list[int]) -> int:
    """DSATUR choice among the uncolored candidates: highest saturation, then
    highest degree, then lowest index."""
    return max(
        (u for u in candidates if colors[u] < 0),
        key=lambda u: (sat[u].bit_count(), degrees[u], -u),
    )


def _paint(v: int, c: int, adj: list[int], colors: list[int], sat: list[int]) -> None:
    """Color v with c and add c to its neighbors' saturation.

    Saturation rows are BBMC-style int bitsets (San Segundo et al.): bit c of
    sat[u] marks a neighbor colored c.  Only uncolored rows are ever read.
    """
    colors[v] = c
    for u in _bits(adj[v]):
        sat[u] |= 1 << c


def _dsatur_greedy(n: int, adj: list[int], degrees: list[int]) -> list[int]:
    colors = [-1] * n
    sat = [0] * n
    for _ in range(n):
        v = _pick(range(n), colors, sat, degrees)
        _paint(v, (~sat[v] & (sat[v] + 1)).bit_length() - 1, adj, colors, sat)
    return colors


def _greedy_clique(n: int, adj: list[int], degrees: list[int]) -> list[int]:
    start = max(range(n), key=lambda v: (degrees[v], -v))
    clique = [start]
    candidates = adj[start]
    while candidates:
        v = max(_bits(candidates), key=lambda u: ((candidates & adj[u]).bit_count(), -u))
        clique.append(v)
        candidates &= adj[v]
    return sorted(clique)


def _exact_coloring(n: int, adj: list[int]) -> list[int]:
    """Minimum proper coloring of the graph given as bitmask adjacency rows.

    DSATUR-ordered branch and bound: greedy DSATUR supplies the initial upper
    bound, a greedy maximal clique the lower bound, and the clique is
    pre-colored to break color symmetry.  Deterministic tie-breaks throughout
    (saturation, then degree, then ascending index).
    """
    if n == 0:
        return []
    degrees = [row.bit_count() for row in adj]
    greedy = _dsatur_greedy(n, adj, degrees)
    best_k = max(greedy) + 1
    best = list(greedy)
    clique = _greedy_clique(n, adj, degrees)
    lower = len(clique)
    if lower == best_k:
        return best

    colors = [-1] * n
    sat = [0] * n
    for c, v in enumerate(clique):
        _paint(v, c, adj, colors, sat)

    uncolored = [v for v in range(n) if colors[v] < 0]

    # Depth-first search on an explicit stack, one frame per colored vertex
    # (a component can be deeper than the interpreter's recursion limit).  A
    # frame is [v, c, limit, used, num_colored, saved]: v takes the colors
    # below limit in turn, c is the one it was last given (-1 before the
    # first), and saved is every saturation row before v was colored.
    stack: list[list] = []
    num_colored, used = n - len(uncolored), len(clique)
    while True:
        if used < best_k:  # enter the node (num_colored, used)
            if num_colored == n:
                best_k = used
                best = colors[:]
            else:
                v = _pick(uncolored, colors, sat, degrees)
                stack.append([v, -1, min(used + 1, best_k - 1), used, num_colored, sat[:]])
        while stack:  # give the deepest open vertex its next color
            frame = stack[-1]
            v, c, limit, used, num_colored, saved = frame
            if c >= 0:  # back from coloring v with c
                colors[v] = -1
                sat[:] = saved
                if best_k == lower:  # optimal: every open frame would return now
                    return best
            c += 1
            while c < limit and (saved[v] >> c) & 1:
                c += 1
            if c < limit:
                frame[1] = c
                _paint(v, c, adj, colors, sat)
                num_colored, used = num_colored + 1, max(used, c + 1)
                break
            stack.pop()
        else:
            return best
