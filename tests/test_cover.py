import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from indexcoding import (
    CapExceeded,
    Instance,
    connected_components,
    exact_min_cover,
    greedy_cover,
)
from indexcoding import cover as cover_module
from indexcoding import instance as instance_module
from indexcoding.cover import (
    _dsatur_greedy, _dsatur_start, _exact_coloring, _greedy_clique, _keys,
)
from indexcoding.generate import random_instance
from indexcoding.instance import UnicastInstance

from helpers import (
    graph_from_edges,
    graph_of_rows,
    induced_subgraph,
    pairwise_cross_neighbor_rows,
    random_graph,
    reference_dsatur_greedy,
    reference_exact_coloring,
    reference_exact_min_cover,
    reference_greedy_clique,
    verify_cover,
)


def set_partitions(items):
    """All partitions of a list, plain recursive enumeration."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_min_cover_size(g: UnicastInstance) -> int:
    """Minimum clique cover by exhaustive set-partition enumeration."""
    best = 0 if g.vertex_count == 0 else g.vertex_count
    for part in set_partitions(list(range(g.vertex_count))):
        if all(
            (g.adjacency[p] >> q) & 1
            for block in part
            for p, q in itertools.combinations(block, 2)
        ):
            best = min(best, len(part))
    return best


def disjoint_union(graphs):
    """One graph holding each input graph as its own block of vertices."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(p + offset, q + offset) for p, q in g.edges()]
        offset += g.vertex_count
    return graph_from_edges(offset, edges)


def per_component_parts(g: UnicastInstance, cap: int):
    """Reference exact parts: each component covered as its own induced
    subgraph, mapped back to g's vertices and sorted by smallest member."""
    return tuple(sorted(
        (
            tuple(comp[v] for v in part)
            for comp in connected_components(g)
            for part in exact_min_cover(induced_subgraph(g, comp), cap=cap).parts
        ),
        key=lambda part: part[0],
    ))


def first_fit_scan_parts(g: UnicastInstance):
    """Reference greedy: the first-fit scan that tests each vertex against
    every open part, its parts sorted into canonical order."""
    parts: list[list[int]] = []
    masks: list[int] = []  # intersection of members' adjacency rows
    for v in range(g.vertex_count):
        for i, mask in enumerate(masks):
            if (mask >> v) & 1:
                parts[i].append(v)
                masks[i] = mask & g.adjacency[v]
                break
        else:
            parts.append([v])
            masks.append(g.adjacency[v])
    return tuple(sorted((tuple(sorted(p)) for p in parts), key=lambda p: p[0]))


@st.composite
def symmetric_graphs(draw):
    """Arbitrary graphs of 0-48 vertices, one drawn int per row above the diagonal."""
    n = draw(st.integers(0, 48))
    upper = [draw(st.integers(0, (1 << (n - p - 1)) - 1)) for p in range(n)]
    edges = [(p, p + 1 + i) for p in range(n) for i in range(n - p - 1) if (upper[p] >> i) & 1]
    return graph_from_edges(n, edges)


def component_complements(g: UnicastInstance):
    """The rows exact_min_cover colors: the complement of each component of g,
    relabelled in ascending order."""
    for comp in connected_components(g):
        sub = induced_subgraph(g, comp)
        full = (1 << len(comp)) - 1
        yield [full & ~row & ~(1 << v) for v, row in enumerate(sub.adjacency)]


def assert_search_matches_reference(rows):
    """Every helper of the keyed search returns the reference's list, not just
    a coloring of the same size."""
    n = len(rows)
    assert _exact_coloring(rows, _dsatur_start(rows)) == reference_exact_coloring(n, rows)
    degrees = [row.bit_count() for row in rows]
    base, b = _keys(rows)
    assert _dsatur_greedy(rows, base, b) == reference_dsatur_greedy(n, rows, degrees)
    assert _greedy_clique(rows, base, b) == reference_greedy_clique(n, rows, degrees)


def connected_graph(n: int, p: float, rng: random.Random):
    """A connected graph on n vertices: each vertex after 0 joins a random
    earlier one, and every other pair is an edge with probability p."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    edges |= {(u, v) for v in range(n) for u in range(v) if rng.random() < p}
    return graph_from_edges(n, edges)


def labelled_graph(kind: str, rng: random.Random):
    """A graph of the given kind, by where its components sit: one component;
    a component labelled 0..s-1 followed by others; no component labelled
    0..s-1 (vertex 0 shares a component with a vertex above the next
    component's); edgeless; no vertices."""
    if kind == "one component":
        return connected_graph(rng.randint(1, 30), rng.random(), rng)
    if kind == "edgeless":
        return graph_from_edges(rng.randint(1, 12), [])
    if kind == "no vertices":
        return graph_from_edges(0, [])
    rest = [connected_graph(rng.randint(1, 6), rng.random(), rng) for _ in range(rng.randint(0, 4))]
    first = connected_graph(rng.randint(2, 12), rng.random(), rng)
    if kind == "0..s-1 first":
        return disjoint_union([first] + rest)
    # "none labelled 0..s-1": the first graph's vertex 0 keeps label 0, the
    # second graph takes the labels after it, then the first graph's others
    second = connected_graph(rng.randint(1, 8), rng.random(), rng)
    a, b = first.vertex_count, second.vertex_count
    label = [0] + list(range(b + 1, a + b))
    g = disjoint_union([first, second] + rest)
    order = label + list(range(1, b + 1)) + list(range(a + b, g.vertex_count))
    relabelled = [(order[p], order[q]) for p, q in g.edges()]
    return graph_from_edges(g.vertex_count, relabelled)


@pytest.fixture
def worked_graph(example6):
    return UnicastInstance(example6)


class TestExact:
    def test_worked_example_cover(self, worked_graph):
        cover = exact_min_cover(worked_graph)
        assert cover.parts == ((0, 2, 3), (1, 4), (5,))
        assert cover.size == 3

    def test_edgeless_all_singletons(self):
        cover = exact_min_cover(graph_from_edges(5, []))
        assert cover.parts == ((0,), (1,), (2,), (3,), (4,))

    def test_five_cycle_needs_three(self):
        inst = Instance.of(
            5, [({i}, {(i - 2) % 5 + 1, i % 5 + 1}) for i in range(1, 6)]
        )
        g = UnicastInstance(inst)
        assert set(g.edges()) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        cover = exact_min_cover(g)
        assert verify_cover(g, cover) is None
        assert cover.size == 3 == brute_min_cover_size(g)

    def test_search_deeper_than_the_recursion_limit(self):
        # an odd cycle of 1201 vertices: DSATUR gives 3 colors, the clique
        # bound is 2, and refuting 2 colors takes a path through every vertex
        n = 1201
        cycle = [(1 << (v - 1) % n) | (1 << (v + 1) % n) for v in range(n)]
        colors = _exact_coloring(cycle, _dsatur_start(cycle))
        assert max(colors) == 2
        assert all(colors[v] != colors[(v + 1) % n] for v in range(n))
        full = (1 << n) - 1
        g = graph_of_rows([full & ~row & ~(1 << v) for v, row in enumerate(cycle)])
        cover = exact_min_cover(g, cap=2000)
        assert cover.size == 3 and verify_cover(g, cover) is None

    def test_cap_exceeded_points_at_greedy(self):
        g = random_graph(12, 0.5, seed=0)
        with pytest.raises(CapExceeded, match="greedy_cover"):
            exact_min_cover(g, cap=10)

    def test_cap_bounds_the_largest_component(self):
        for seed in range(20):
            g = disjoint_union(
                random_graph(1 + (seed + i) % 6, 0.6, seed=400 + 10 * seed + i)
                for i in range(10)
            )
            largest = max(map(len, connected_components(g)))
            assert g.vertex_count > largest
            assert exact_min_cover(g, cap=largest).parts == per_component_parts(g, largest)

    def test_component_over_cap_raises(self):
        g = disjoint_union([random_graph(2, 1.0), random_graph(5, 0.9, seed=1),
                            random_graph(3, 1.0)])
        assert max(map(len, connected_components(g))) == 5
        with pytest.raises(CapExceeded, match="component of 5 vertices > 4"):
            exact_min_cover(g, cap=4)

    def test_matches_brute_force_on_small_graphs(self):
        for seed in range(60):
            g = random_graph(1 + seed % 8, [0.2, 0.5, 0.8][seed % 3], seed=seed)
            cover = exact_min_cover(g)
            assert verify_cover(g, cover) is None
            assert cover.size == brute_min_cover_size(g)

    def test_component_additivity(self):
        for seed in range(20):
            g = random_graph(10, 0.3, seed=200 + seed)
            total = exact_min_cover(g).size
            by_component = sum(
                exact_min_cover(induced_subgraph(g, comp)).size
                for comp in connected_components(g)
            )
            assert total == by_component

    def test_builds_no_graph_per_component(self, monkeypatch):
        g = disjoint_union([random_graph(4, 0.3, seed=1), random_graph(5, 0.5, seed=2),
                            random_graph(3, 1.0)])
        assert len(connected_components(g)) > 1
        # no split form and no rows are made per component: g's own rows are read
        splits, rows = [], []
        check, build = UnicastInstance.__init__, instance_module._cross_neighbor_rows
        monkeypatch.setattr(UnicastInstance, "__init__",
                            lambda u, *fields: splits.append(u) or check(u, *fields))
        monkeypatch.setattr(instance_module, "_cross_neighbor_rows",
                            lambda u: rows.append(u) or build(u))
        cover = exact_min_cover(g)
        assert (splits, rows) == ([], [])
        assert verify_cover(g, cover) is None


class TestLabelledComponents:
    """A component labelled 0..s-1 is colored on the graph's own rows; the
    parts equal those of the cover that relabelled every component."""

    KINDS = ["one component", "0..s-1 first", "none labelled 0..s-1", "edgeless", "no vertices"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_parts_match_the_relabelling_reference(self, monkeypatch, kind):
        # wrong rows can hold a self-loop, on which the greedy clique never
        # ends, so each component's rows are checked before the branch and
        # bound (which runs the greedy clique) takes them
        expected = iter(())

        def checked_coloring(rows, start):
            assert rows == next(expected)
            return _exact_coloring(rows, start)

        monkeypatch.setattr(cover_module, "_exact_coloring", checked_coloring)
        rng = random.Random(f"labelled {kind}")
        for _ in range(60):
            g = labelled_graph(kind, rng)
            components = connected_components(g)
            in_place = [comp[-1] == len(comp) - 1 for comp in components]
            assert in_place == {
                "one component": [True],
                "0..s-1 first": [True] + [False] * (len(components) - 1),
                "none labelled 0..s-1": [False] * len(components),
                "edgeless": [True] + [False] * (g.vertex_count - 1),
                "no vertices": [],
            }[kind]
            expected = component_complements(g)
            cover = exact_min_cover(g, cap=64)
            assert next(expected, None) is None
            assert cover.parts == reference_exact_min_cover(g).parts
            assert verify_cover(g, cover) is None


class TestKeyedSearchMatchesReference:
    """The int-key pick and per-color saturation masks make every choice the
    per-vertex saturation rows made."""

    # a dense 48-vertex draw can take the reference search most of a second
    @settings(deadline=None)
    @given(symmetric_graphs())
    def test_arbitrary_graphs(self, g):
        if g.vertex_count:  # the search colors components, never empty
            assert_search_matches_reference(list(g.adjacency))

    @pytest.mark.parametrize(
        "params, first_seed",
        [((25, 30, 0.8, (1, 2)), 9000), ((7, 10, 0.4, (1, 2)), 9500)],
        ids=["solve-exact-shaped", "audit-gap-shaped"],
    )
    def test_component_complements(self, params, first_seed):
        searched = 0
        for seed in range(first_seed, first_seed + 300):
            g = UnicastInstance(random_instance(*params, seed=seed), True)
            for rows in component_complements(g):
                assert_search_matches_reference(rows)
                searched += 1
        assert searched >= 300


class TestGreedy:
    def test_worked_example_scan(self, worked_graph):
        # scan order: 0 opens P1, 1 opens P2, 2 and 3 join P1, 4 joins P2,
        # 5 opens P3
        assert greedy_cover(worked_graph).parts == ((0, 2, 3), (1, 4), (5,))

    def test_edgeless(self):
        assert greedy_cover(graph_from_edges(3, [])).parts == ((0,), (1,), (2,))

    def test_complete(self):
        g = graph_from_edges(4, list(itertools.combinations(range(4), 2)))
        assert greedy_cover(g).parts == ((0, 1, 2, 3),)

    def test_never_better_than_exact_never_worse_than_trivial(self):
        for seed in range(40):
            n = 1 + seed % 9
            g = random_graph(n, 0.4, seed=300 + seed)
            exact = exact_min_cover(g)
            greedy = greedy_cover(g)
            assert verify_cover(g, greedy) is None
            assert exact.size <= greedy.size <= n

    def test_matches_the_scan_on_random_graphs(self):
        for n in range(61):
            for step in range(21):
                g = random_graph(n, step / 20, seed=5000 + 21 * n + step)
                assert greedy_cover(g).parts == first_fit_scan_parts(g), (n, step)

    def test_matches_the_scan_on_cross_neighbor_graphs(self):
        sizes = set()
        for seed in range(200):
            inst = random_instance(
                4 + seed % 17, 2 + seed % 29, (0.0, 0.2, 0.5, 0.8, 1.0)[seed % 5],
                (1, 1 + seed % 3), seed=6000 + seed,
            )
            for u in (UnicastInstance(inst), UnicastInstance(inst, True)):
                strict = graph_of_rows(pairwise_cross_neighbor_rows(u, strict=True))
                for g in (u, strict):
                    sizes.add(g.vertex_count)
                    assert greedy_cover(g).parts == first_fit_scan_parts(g), (seed, g is strict)
        assert min(sizes) <= 2 and max(sizes) > 50

    @pytest.mark.parametrize(
        "params, min_vertices",
        [((100, 250, 0.5, (1, 3)), 400), ((300, 1100, 0.3, (1, 3)), 2000)],
        ids=["solve-bulk-sized", "2000-plus"],
    )
    def test_matches_the_scan_on_large_graphs(self, params, min_vertices):
        g = UnicastInstance(random_instance(*params, seed=7))
        assert g.vertex_count >= min_vertices
        assert greedy_cover(g).parts == first_fit_scan_parts(g)

    @given(symmetric_graphs())
    def test_matches_the_scan_on_arbitrary_graphs(self, g):
        cover = greedy_cover(g)
        assert cover.parts == first_fit_scan_parts(g)
        assert verify_cover(g, cover) is None


def cover_order_corpus():
    """Seeded graphs for the cover-order digest: random graphs of 0-25 and
    30-45 vertices, and the dedup graphs of random instances and the strict
    rule's graphs of their splits, which do not join equal wants."""
    graphs = [
        random_graph(n, p, seed=1000 + 4 * n + i)
        for n in range(26)
        for i, p in enumerate((0.1, 0.3, 0.5, 0.8))
    ]
    graphs += [
        random_graph(n, p, seed=2000 + 4 * n + i)
        for n in (30, 35, 40, 45)
        for i, p in enumerate((0.3, 0.5, 0.7))
    ]
    for seed in range(40):
        inst = random_instance(
            5 + seed % 6, 3 + seed % 9, (0.2, 0.5, 0.8)[seed % 3], (1, 3), seed=seed
        )
        u = UnicastInstance(inst)
        graphs.append(UnicastInstance(inst, True))
        graphs.append(graph_of_rows(pairwise_cross_neighbor_rows(u, strict=True)))
    return graphs


class TestCoverOrder:
    # SHA-256 of the exact and greedy parts, in order, over the corpus; a
    # speedup of either solver must leave every part and its position alone
    DIGEST = "3ad250137961c6bb116f6bf8287c33e35551c7eea4d5972b7109e0e99608af26"

    def test_parts_match_recorded_digest(self):
        parts = [
            [exact_min_cover(g, cap=64).parts, greedy_cover(g).parts]
            for g in cover_order_corpus()
        ]
        assert hashlib.sha256(json.dumps(parts).encode()).hexdigest() == self.DIGEST

    def test_exact_parts_match_per_component_reference(self):
        for g in cover_order_corpus():
            assert exact_min_cover(g, cap=64).parts == per_component_parts(g, 64)
