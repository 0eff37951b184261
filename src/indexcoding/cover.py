"""Minimum clique cover of the cross-neighbor graph.

The graph g is a split form: ``g.vertex_count`` virtuals and the cached
bitmask rows ``g.adjacency``.  A clique cover of g is a proper coloring of
g's complement, so the exact solver colors the complement of each
connected component (cliques never span components) in two phases
(:class:`DsaturCover`): a greedy DSATUR coloring, whose summed color count
upper-bounds the minimum, then a DSATUR-ordered branch and bound from it.
A component already labelled 0..s-1 (a connected graph is one) is colored on
the complement of the graph's own rows; any other is relabelled 0..s-1 first.
Each uncolored vertex holds one int key, saturation then degree then reversed
index in fixed-width fields, so a DSATUR pick is one C-level ``max``;
saturation is kept as one bitset per color, the OR of the rows given that
color, in the bit-parallel style of San Segundo et al. (BBMC, Computers & OR
2012), so painting a vertex bumps only the keys of neighbors it newly
saturates and a color is free for v when v's bit is clear in its mask.  Greedy
first-fit builds each part whole, as one ascending sequential clique: O(k)
big-int steps on k vertices.  Ties break on ascending vertex index and parts
are sorted by smallest member, so covers are deterministic and asserted
exactly in tests.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CapExceeded
from .graph import connected_components
from .instance import UnicastInstance, _bits

DEFAULT_EXACT_CAP = 40


class CliqueCover(NamedTuple):
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


def greedy_cover(g: UnicastInstance) -> CliqueCover:
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


class DsaturCover:
    """The first phase of :func:`exact_min_cover`: g's connected components,
    the cap test, and the greedy DSATUR coloring of each component's
    complement.  ``size``, the colors it uses summed over the components, is
    the size of the DSATUR cover (each color class a part), an upper bound
    on the minimum.  :meth:`minimum` runs the second phase, the branch and
    bound, from each DSATUR coloring.  The branch and bound replaces its
    incumbent only on a strict improvement, so where a lower bound meets
    ``size`` every DSATUR coloring is optimal and ``minimum()`` is the DSATUR
    cover, parts and all (``pipeline.gap_report`` uses this).

    Cliques never span connected components, so each is colored on its own
    and ``cap`` bounds the largest one: a component over ``cap`` vertices
    raises CapExceeded before any is colored.  A component whose largest
    vertex is ``s - 1`` for its ``s`` vertices is exactly 0..s-1, so its
    complement is taken from ``g.adjacency`` as it stands; any other is
    relabelled bit by bit.
    """

    __slots__ = ("components", "size")

    def __init__(self, g: UnicastInstance, cap: int = DEFAULT_EXACT_CAP):
        components = connected_components(g)
        largest = max(map(len, components), default=0)
        if largest > cap:
            raise CapExceeded(
                f"exact cover cap exceeded (component of {largest} vertices > {cap}); "
                "use greedy_cover"
            )
        adj, size = g.adjacency, 0
        # per component: its vertices, its complement's rows, its DSATUR start
        colored: list[tuple[tuple[int, ...], list[int], tuple]] = []
        for comp in components:
            full = (1 << len(comp)) - 1
            if comp[-1] == len(comp) - 1:  # already labelled 0..len(comp)-1
                complement = [full & ~adj[v] & ~(1 << v) for v in comp]
            else:
                # relabel the component 0..len(comp)-1 in ascending order; it
                # is closed under adjacency, so every neighbor has a label
                local = {v: i for i, v in enumerate(comp)}
                complement = []
                for i, v in enumerate(comp):
                    row = 0
                    for u in _bits(adj[v]):
                        row |= 1 << local[u]
                    complement.append(full & ~row & ~(1 << i))
            start = _dsatur_start(complement)
            colored.append((comp, complement, start))
            size += start[3]
        self.components, self.size = colored, size

    def minimum(self) -> CliqueCover:
        """A minimum cover, the second phase: each component's coloring from
        the branch and bound that starts at its DSATUR coloring."""
        parts = []
        for comp, complement, start in self.components:
            # color classes fill in ascending vertex order, so each part is sorted
            classes: dict[int, list[int]] = {}
            for v, color in zip(comp, _exact_coloring(complement, start)):
                classes.setdefault(color, []).append(v)
            parts.extend(map(tuple, classes.values()))
        return CliqueCover(tuple(sorted(parts, key=lambda p: p[0])))


def exact_min_cover(g: UnicastInstance, cap: int = DEFAULT_EXACT_CAP) -> CliqueCover:
    """Minimum clique cover via exact coloring of the complement graph: both
    phases of :class:`DsaturCover` with no bound, so a component over ``cap``
    vertices raises CapExceeded before any is solved; use
    :func:`greedy_cover` then."""
    return DsaturCover(g, cap).minimum()


def _keys(adj: list[int]) -> tuple[list[int], int]:
    """Keys at saturation 0 and their field width b: the key of v is
    ``(saturation << 2b) | (degree << b) | (low - v)``, ``low = (1 << b) - 1``,
    and -1 once v is colored."""
    b = len(adj).bit_length()
    low = (1 << b) - 1
    return [(row.bit_count() << b) | (low - v) for v, row in enumerate(adj)], b


def _pick(keys: list[int], low: int) -> int:
    """The vertex of the largest key; over DSATUR keys, the uncolored vertex
    of highest saturation, then highest degree, then lowest index."""
    return low - (max(keys) & low)


def _paint(v: int, c: int, free: int, adj: list[int], colors: list[int],
           satc: list[int], keys: list[int], bump: int) -> None:
    """Color v with c; ``free`` masks the uncolored vertices.

    Saturation is kept per color as BBMC-style int bitsets (San Segundo et
    al.): satc[c] is the OR of the rows colored c, so bit u of it marks that u
    has a neighbor colored c.  Only v's uncolored neighbors outside satc[c]
    gain a color, and each of their keys gains ``bump`` (one saturation step).
    """
    colors[v] = c
    keys[v] = -1
    row = adj[v]
    gained = row & free & ~satc[c]
    while gained:
        bit = gained & -gained
        keys[bit.bit_length() - 1] += bump
        gained ^= bit
    satc[c] |= row


def _dsatur_greedy(adj: list[int], base: list[int], b: int) -> list[int]:
    n, low, bump = len(adj), (1 << b) - 1, 1 << 2 * b
    colors, keys, satc, free = [-1] * n, base[:], [0] * n, (1 << n) - 1
    for _ in range(n):
        v = _pick(keys, low)
        c = 0  # the lowest color no neighbor of v has
        while satc[c] >> v & 1:
            c += 1
        _paint(v, c, free, adj, colors, satc, keys, bump)
        free ^= 1 << v
    return colors


def _dsatur_start(adj: list[int]) -> tuple[list[int], int, list[int], int]:
    """The DSATUR keys of adj at saturation 0, their field width, the greedy
    DSATUR coloring and its color count: where the branch and bound starts."""
    base, b = _keys(adj)
    colors = _dsatur_greedy(adj, base, b)
    return base, b, colors, max(colors) + 1


def _greedy_clique(adj: list[int], base: list[int], b: int) -> list[int]:
    """Greedy maximal clique: the highest-degree vertex, then each time the
    candidate with the most candidate neighbors, ties to the lowest index."""
    low = (1 << b) - 1
    start = _pick(base, low)
    clique = [start]
    candidates = adj[start]
    while candidates:
        v = _pick([((candidates & adj[u]).bit_count() << b) | (low - u)
                   for u in _bits(candidates)], low)
        clique.append(v)
        candidates &= adj[v]
    return sorted(clique)


def _exact_coloring(adj: list[int], start: tuple) -> list[int]:
    """Minimum proper coloring of the graph given as bitmask adjacency rows,
    one or more (a connected component is never empty).

    DSATUR-ordered branch and bound: the greedy DSATUR coloring ``start``,
    from :func:`_dsatur_start`, supplies the initial upper bound, a greedy
    maximal clique the lower bound, and the clique is pre-colored to break
    color symmetry.  The incumbent is replaced only by a coloring with fewer
    colors, so an optimal DSATUR coloring is returned as it is.
    Deterministic tie-breaks throughout (saturation, then degree, then
    ascending index).
    """
    n, (base, b, best, best_k) = len(adj), start
    low, bump = (1 << b) - 1, 1 << 2 * b
    clique = _greedy_clique(adj, base, b)
    lower = len(clique)
    if lower == best_k:
        return best

    colors, keys, satc, free = [-1] * n, base[:], [0] * best_k, (1 << n) - 1
    for c, v in enumerate(clique):
        _paint(v, c, free, adj, colors, satc, keys, bump)
        free ^= 1 << v

    # Depth-first search on an explicit stack, one frame per colored vertex
    # (a component can be deeper than the interpreter's recursion limit).  A
    # frame is [v, c, limit, used, free, saved_satc, saved_keys]: v takes the
    # colors below limit in turn, c is the one it was last given (-1 before
    # the first), and free, saved_satc and saved_keys are the uncolored mask,
    # color masks and keys before v was colored.
    stack: list[list] = []
    used = lower
    while True:
        if used < best_k:  # enter the node (free, used)
            if not free:
                best_k = used
                best = colors[:]
            else:
                v = _pick(keys, low)
                stack.append([v, -1, min(used + 1, best_k - 1), used, free, satc[:], keys[:]])
        while stack:  # give the deepest open vertex its next color
            frame = stack[-1]
            v, c, limit, used, free, saved_satc, saved_keys = frame
            if c >= 0:  # back from coloring v with c
                colors[v] = -1
                satc[:] = saved_satc
                keys[:] = saved_keys
                if best_k == lower:  # optimal: every open frame would return now
                    return best
            c += 1
            while c < limit and saved_satc[c] >> v & 1:
                c += 1
            if c < limit:
                frame[1] = c
                _paint(v, c, free, adj, colors, satc, keys, bump)
                free, used = free ^ 1 << v, max(used, c + 1)
                break
            stack.pop()
        else:
            return best
