"""Builders and references the tests share: graphs, which are split forms,
built through an instance from rows, from edges, at random or induced on a vertex subset, the
cross-neighbor rows by one test per pair (also under the strict rule, whose
sparser graphs the cover tests use), a split instance from (want, has)
pairs, the exact cover that relabelled every component, the graph-side clique-cover check that ``scheme_from_cover``'s own
check is tested against, the dict form of the entry writer that the code
replaced, a naive GF(2) rate, the RREF oracle without move-to-front and the
has-minimal rule by its definition, which the oracle and MAIS are checked
against, a MAIS bound by subset enumeration, ``gap_report`` by the unbounded
searches, the
canonical scheme JSON, the DSATUR search with per-vertex saturation rows
that the cover's int keys and per-color masks replaced, and the environment
of a subprocess that runs the package under test."""

import itertools
import os
import random
from pathlib import Path

import indexcoding
from indexcoding import (
    CapExceeded, CliqueCover, CodingScheme, Instance, connected_components, exact_min_cover,
    greedy_cover, mais_lower_bound, min_linear_rate_gf2,
)
from indexcoding.cover import _dsatur_start, _exact_coloring
from indexcoding.instance import UnicastInstance, VirtualReceiver, _bits
from indexcoding.jsontext import dumps
from indexcoding.oracle import can_decode, iter_rref_rowspaces
from indexcoding.pipeline import RateReport, SolveConfig

# a subprocess imports the package the tests import, and buffers its stdout
# as a pipe or a file gets by default
PACKAGE_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    "PYTHONPATH": str(Path(indexcoding.__file__).parents[1]),
}


def graph_of_rows(rows) -> UnicastInstance:
    """The split form whose row p is ``rows[p]``, for symmetric rows without
    self-loops, built through an instance: receiver p wants {p + 1} and holds
    the ids of its neighbours plus one.  With distinct wants the edges are
    exactly the mutual-containment pairs, so vertex p stays p.  One int object
    stands for each id in every receiver that holds it."""
    k = len(rows)
    ids = list(range(1, k + 1))
    # the ids that row p's bits pick, low bit first: one C-level pass per row
    held = [itertools.compress(ids, map(int, format(row, f"0{k}b")[::-1])) for row in rows]
    inst = Instance.of(max(k, 1), [((ids[p],), has) for p, has in enumerate(held)])
    u = UnicastInstance(inst)
    assert u.adjacency == tuple(rows), "rows must be symmetric and loop-free"
    return u


def pairwise_cross_neighbor_rows(u, strict=False):
    """Reference rows: one want/side-information test per pair.  With
    ``strict`` two virtuals that want the same message are not joined, which
    gives the cover tests sparser, harder graphs than the package builds."""
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
    return tuple(rows)


def graph_from_edges(vertex_count: int, edges) -> UnicastInstance:
    """The undirected graph with the given (p, q) edges."""
    rows = [0] * vertex_count
    for p, q in edges:
        rows[p] |= 1 << q
        rows[q] |= 1 << p
    return graph_of_rows(rows)


def induced_subgraph(g: UnicastInstance, vertices) -> UnicastInstance:
    """Subgraph on the given vertices, relabelled 0..k-1 in the given order."""
    index = {v: i for i, v in enumerate(vertices)}
    rows = []
    for v in vertices:
        row = 0
        for u in range(g.vertex_count):
            if (g.adjacency[v] >> u) & 1 and u in index:
                row |= 1 << index[u]
        rows.append(row)
    return graph_of_rows(rows)


def random_graph(num_vertices: int, edge_density: float, seed: int = 0) -> UnicastInstance:
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


def reference_exact_min_cover(g: UnicastInstance) -> CliqueCover:
    """``exact_min_cover`` with no cap, as it was before a component labelled
    0..s-1 was colored on the graph's own rows: every component is relabelled
    bit by bit."""
    adj, parts = g.adjacency, []
    for comp in connected_components(g):
        local = {v: i for i, v in enumerate(comp)}
        full = (1 << len(comp)) - 1
        complement = []
        for i, v in enumerate(comp):
            row = 0
            for u in _bits(adj[v]):
                row |= 1 << local[u]
            complement.append(full & ~row & ~(1 << i))
        classes: dict[int, list[int]] = {}
        for v, color in zip(comp, _exact_coloring(complement, _dsatur_start(complement))):
            classes.setdefault(color, []).append(v)
        parts.extend(map(tuple, classes.values()))
    return CliqueCover(tuple(sorted(parts, key=lambda p: p[0])))


def verify_cover(g: UnicastInstance, c: CliqueCover) -> str | None:
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
    return UnicastInstance(Instance.of(num_messages, [({w}, h) for w, h in pairs]))


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


def reference_min_linear_rate_gf2(u: UnicastInstance, lower_bound: int):
    """``min_linear_rate_gf2(u, with_witness=True)`` without move-to-front:
    it tests every distinct (want, has) pair in virtual order, on each row
    space from ``lower_bound`` up, and returns (rate, rows)."""
    pairs = list(dict.fromkeys((v.want, _mask(v.has)) for v in u.virtuals))
    if not pairs:
        return 0, ()
    n = u.num_messages
    for beta in range(max(1, lower_bound), n + 1):
        for rows in iter_rref_rowspaces(n, beta):
            if all(can_decode(rows, want, has) for want, has in pairs):
                return beta, rows
    raise AssertionError("identity rows must have succeeded")


def has_minimal_reference(u: UnicastInstance) -> set[int]:
    """The indices of the virtuals that no other virtual dominates, by the
    definition: q dominates p when they want the same message and q's side
    information is a proper subset of p's, tested on bitmasks."""
    masks = [(v.want, _mask(v.has)) for v in u.virtuals]
    return {
        p
        for p, (want, has) in enumerate(masks)
        if not any(w == want and h & has == h != has for w, h in masks)
    }


def _mask(ids) -> int:
    return sum(1 << (i - 1) for i in ids)


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


def reference_gap_report(inst: Instance, config: SolveConfig = SolveConfig()) -> RateReport:
    """``gap_report`` with every field from its unbounded search, each None
    over its cap: the exact cover's branch and bound always runs, MAIS has
    no upper bound, and the oracle searches from rate 1 even where MAIS
    meets the exact cover."""
    u = UnicastInstance(inst, config.dedup)

    def capped(compute):
        try:
            return compute()
        except CapExceeded:
            return None

    exact = capped(lambda: exact_min_cover(u, cap=config.exact_cap).size)
    mais = capped(lambda: mais_lower_bound(u, cap=config.mais_cap))
    oracle = capped(lambda: min_linear_rate_gf2(u, n_cap=config.oracle_n_cap, lower_bound=0))
    return RateReport(
        mais_bound=mais,
        oracle_rate=oracle,
        cover_rate_exact=exact,
        cover_rate_greedy=greedy_cover(u).size,
        gap=exact - oracle if exact is not None and oracle is not None else None,
    )


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
