"""Builders and references the tests share: graphs by hand, at random or
induced on a vertex subset, a split instance from (want, has) pairs, the
graph-side clique-cover check that ``scheme_from_cover``'s own check is
tested against, the dict form of the entry writer that the code replaced, a
naive GF(2) rate, a MAIS bound by subset enumeration, the canonical scheme
JSON, and the DSATUR search with per-vertex saturation rows that the cover's
int keys and per-color masks replaced."""

import itertools
import random

from indexcoding import CliqueCover, CodingScheme, DerivedGraph, Instance, split_groupcast
from indexcoding.graph import _bits
from indexcoding.instance import UnicastInstance, VirtualReceiver
from indexcoding.jsontext import dumps
from indexcoding.oracle import can_decode


def graph_from_edges(vertex_count: int, edges) -> DerivedGraph:
    """The undirected graph with the given (p, q) edges."""
    rows = [0] * vertex_count
    for p, q in edges:
        rows[p] |= 1 << q
        rows[q] |= 1 << p
    return DerivedGraph(vertex_count, tuple(rows))


def induced_subgraph(g: DerivedGraph, vertices) -> DerivedGraph:
    """Subgraph on the given vertices, relabelled 0..k-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    rows = []
    for v in vertices:
        row = 0
        for u in range(g.vertex_count):
            if (g.adjacency[v] >> u) & 1 and u in index:
                row |= 1 << index[u]
        rows.append(row)
    return DerivedGraph(len(vertices), tuple(rows))


def random_graph(num_vertices: int, edge_density: float, seed: int = 0) -> DerivedGraph:
    """Erdos-Renyi style graph: each edge (p, q), p < q, drawn in ascending
    order, is present independently with probability ``edge_density``."""
    rng = random.Random(seed)
    edges = [
        (p, q)
        for p in range(num_vertices)
        for q in range(p + 1, num_vertices)
        if rng.random() < edge_density
    ]
    return graph_from_edges(num_vertices, edges)


def verify_cover(g: DerivedGraph, c: CliqueCover) -> str | None:
    """Return None when c is a partition of g's vertices into cliques, else a
    diagnostic."""
    seen: set[int] = set()
    for t, part in enumerate(c.parts):
        if not part:
            return f"part {t} is empty"
        for v in part:
            if not 0 <= v < g.vertex_count:
                return f"part {t}: vertex {v} does not exist"
            if v in seen:
                return f"not a partition: vertex {v} appears twice"
            seen.add(v)
        for i, p in enumerate(part):
            for q in part[i + 1 :]:
                if not (g.adjacency[p] >> q) & 1:
                    return f"part {t} is not a clique: missing edge ({p}, {q})"
    if len(seen) != g.vertex_count:
        missing = sorted(set(range(g.vertex_count)) - seen)
        return f"not a partition: vertices {missing} uncovered"
    return None


def entry_dicts(rows) -> list[dict]:
    """The entry objects that ``jsontext.Entries(rows)`` stands for, built as
    ``solve`` and ``verify`` built them before they passed the rows."""
    return [{"origin": list(origin), "want": want, "transmission": t} for origin, want, t in rows]


def unicast_of(num_messages, pairs) -> UnicastInstance:
    """The split of an instance with one receiver per (want, has) pair, so
    virtual j has origin (j, 1)."""
    return split_groupcast(Instance.of(num_messages, [({w}, h) for w, h in pairs]))


def naive_min_rate(n, pairs):
    """Independent oracle over (want, has mask) pairs: try every matrix of
    every height, smallest first."""
    if not pairs:
        return 0
    for beta in range(1, n + 1):
        for rows in itertools.product(range(1 << n), repeat=beta):
            if all(can_decode(rows, w, h) for w, h in pairs):
                return beta
    raise AssertionError("identity rows must have succeeded")


def mais_reference(u: UnicastInstance) -> int:
    """Independent MAIS bound: the largest set of virtuals with pairwise-distinct
    wants that is acyclic under p -> q when q's want is in p's side
    information.  Tries every choice of one virtual for each of ``size`` wants,
    largest size first, and tests it by peeling sinks."""
    groups: dict[int, list[VirtualReceiver]] = {}
    for v in u.virtuals:
        groups.setdefault(v.want, []).append(v)
    for size in range(len(groups), 0, -1):
        for wants in itertools.combinations(groups.values(), size):
            if any(_acyclic(chosen) for chosen in itertools.product(*wants)):
                return size
    return 0


def _acyclic(chosen) -> bool:
    """Remove the sinks (no remaining want in their side information) until
    nothing is left, or nothing more is a sink: then a cycle remains."""
    left = list(chosen)
    while left:
        wants = {v.want for v in left}
        rest = [v for v in left if v.has & wants]
        if len(rest) == len(left):
            return False
        left = rest
    return True


def serialize_scheme(s: CodingScheme) -> str:
    """Canonical scheme JSON: rate plus transmissions with ascending ids."""
    return dumps({"rate": s.rate, "transmissions": [list(t) for t in s.transmissions]})


def reference_pick(candidates, colors, sat, degrees) -> int:
    """DSATUR choice among the uncolored candidates: highest saturation, then
    highest degree, then lowest index."""
    return max(
        (u for u in candidates if colors[u] < 0),
        key=lambda u: (sat[u].bit_count(), degrees[u], -u),
    )


def reference_paint(v, c, adj, colors, sat) -> None:
    """Color v with c and add c to its neighbors' saturation rows: bit c of
    sat[u] marks a neighbor colored c."""
    colors[v] = c
    for u in _bits(adj[v]):
        sat[u] |= 1 << c


def reference_dsatur_greedy(n, adj, degrees) -> list[int]:
    colors = [-1] * n
    sat = [0] * n
    for _ in range(n):
        v = reference_pick(range(n), colors, sat, degrees)
        reference_paint(v, (~sat[v] & (sat[v] + 1)).bit_length() - 1, adj, colors, sat)
    return colors


def reference_greedy_clique(n, adj, degrees) -> list[int]:
    start = max(range(n), key=lambda v: (degrees[v], -v))
    clique = [start]
    candidates = adj[start]
    while candidates:
        v = max(_bits(candidates), key=lambda u: ((candidates & adj[u]).bit_count(), -u))
        clique.append(v)
        candidates &= adj[v]
    return sorted(clique)


def reference_exact_coloring(n, adj) -> list[int]:
    """The cover's DSATUR branch and bound as it was before the int keys: each
    node picks by a key function over the uncolored vertices and paints
    saturation rows neighbor by neighbor; a frame saves every row."""
    if n == 0:
        return []
    degrees = [row.bit_count() for row in adj]
    best = reference_dsatur_greedy(n, adj, degrees)
    best_k = max(best) + 1
    clique = reference_greedy_clique(n, adj, degrees)
    lower = len(clique)
    if lower == best_k:
        return best
    colors = [-1] * n
    sat = [0] * n
    for c, v in enumerate(clique):
        reference_paint(v, c, adj, colors, sat)
    uncolored = [v for v in range(n) if colors[v] < 0]
    # frame: [v, c, limit, used, num_colored, saturation rows before v]
    stack = []
    num_colored, used = n - len(uncolored), len(clique)
    while True:
        if used < best_k:
            if num_colored == n:
                best_k = used
                best = colors[:]
            else:
                v = reference_pick(uncolored, colors, sat, degrees)
                stack.append([v, -1, min(used + 1, best_k - 1), used, num_colored, sat[:]])
        while stack:
            frame = stack[-1]
            v, c, limit, used, num_colored, saved = frame
            if c >= 0:
                colors[v] = -1
                sat[:] = saved
                if best_k == lower:
                    return best
            c += 1
            while c < limit and (saved[v] >> c) & 1:
                c += 1
            if c < limit:
                frame[1] = c
                reference_paint(v, c, adj, colors, sat)
                num_colored, used = num_colored + 1, max(used, c + 1)
                break
            stack.pop()
        else:
            return best
