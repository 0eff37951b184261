import random

import pytest
from hypothesis import example, given, settings, strategies as st

from indexcoding import (
    CliqueCover,
    Instance,
    bipartite_dot,
    build_cross_neighbor_graph,
    connected_components,
    derived_dot,
    dedup,
    exact_min_cover,
    greedy_cover,
    mais_lower_bound,
    scheme_from_cover,
    split_groupcast,
    verify_scheme_random,
    verify_scheme_symbolic,
)
from indexcoding import instance as instance_module
from indexcoding.errors import ValidationError
from indexcoding.graph import closure
from indexcoding.generate import random_instance
from indexcoding.instance import UnicastInstance

from helpers import (
    graph_from_edges,
    induced_subgraph,
    pairwise_cross_neighbor_rows,
    random_graph,
    unicast_of,
)


def neighbour_walk_components(g):
    """Reference component finder: depth-first walk, one neighbour at a time."""
    seen = [False] * g.vertex_count
    components = []
    for start in range(g.vertex_count):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(g.vertex_count):
                if (g.adjacency[v] >> w) & 1 and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        components.append(tuple(sorted(comp)))
    return components


class TestBuild:
    def test_worked_example_edge_set(self, example6):
        g = build_cross_neighbor_graph(split_groupcast(example6))
        assert set(g.edges()) == {(0, 2), (0, 3), (2, 3), (1, 4)}
        assert g.adjacency[5] == 0

    def test_groupcast_split_edges(self, groupcast3):
        g = build_cross_neighbor_graph(split_groupcast(groupcast3))
        # v0 pairs with both split halves of receiver 2; 2 not in {1} blocks v1-v2
        assert set(g.edges()) == {(0, 1), (0, 2)}

    def test_no_side_info_no_edges(self):
        u = unicast_of(4, [(1, ()), (2, ()), (3, ()), (4, ())])
        assert build_cross_neighbor_graph(u).edges() == []

    def test_equal_want_edge(self):
        u = unicast_of(3, [(1, {2}), (1, {3})])
        assert build_cross_neighbor_graph(u).edges() == [(0, 1)]

    @pytest.mark.parametrize("make", [build_cross_neighbor_graph],
                             ids=["build_cross_neighbor_graph"])
    def test_one_rule_and_no_strict_argument(self, make):
        # the graph always joins equal wants; a second, strict argument is
        # an unknown one, positional or by name
        u = unicast_of(3, [(1, {2}), (1, {3})])
        assert make(u).edges() == [(0, 1)]
        for call in (lambda: make(u, True), lambda: make(u, strict=True)):
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize(
        "make, named",
        [
            (lambda u: build_cross_neighbor_graph((0b10, 0b01)), "tuple"),  # hand-made rows
            (lambda u: build_cross_neighbor_graph(u.instance), "Instance"),
            (lambda u: build_cross_neighbor_graph(u.virtuals), "tuple"),
        ],
        ids=["rows", "instance", "virtuals"],
    )
    def test_graph_is_made_only_from_a_split_form(self, make, named):
        u = unicast_of(2, [(1, {2}), (2, {1})])
        with pytest.raises(ValidationError) as exc:
            make(u)
        assert str(exc.value) == (
            f"a cross-neighbor graph takes a UnicastInstance, not {named}")
        # the graph is the split form itself, its rows built by the call
        assert "adjacency" not in vars(u)
        g = build_cross_neighbor_graph(u)
        assert g is u and "adjacency" in vars(u)
        assert (g.vertex_count, g.adjacency) == (2, (0b10, 0b01))

    def test_rows_are_a_cached_view_of_the_split(self, monkeypatch, example6):
        # built on first use and once; a split with rows still equals and
        # hashes as one without
        built = []
        real = instance_module._cross_neighbor_rows
        monkeypatch.setattr(instance_module, "_cross_neighbor_rows",
                            lambda u: built.append(u) or real(u))
        u, fresh = UnicastInstance(example6, True), UnicastInstance(example6, True)
        assert built == [] and u.vertex_count == 6
        edges = u.edges()
        assert built == [u] and "adjacency" in vars(u)
        assert build_cross_neighbor_graph(u) is u and u.edges() == edges
        assert connected_components(u) == [(0, 2, 3), (1, 4), (5,)]
        assert exact_min_cover(u) == greedy_cover(u)
        assert built == [u]
        assert u == fresh and hash(u) == hash(fresh) and "adjacency" not in vars(fresh)
        assert fresh.adjacency == u.adjacency and built == [u, fresh]

    # the rows are valid by construction: they equal the pairwise rows, which
    # are symmetric by construction
    @settings(max_examples=150)
    @example(n=3, m=0, density=0.5, hi=1, seed=0)  # 0 virtuals
    @given(st.integers(1, 12), st.integers(0, 14), st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)),
           st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_every_built_graph_is_symmetric_and_loop_free(self, n, m, density, hi, seed):
        inst = random_instance(n, m, density, (1, min(hi, n)), seed=seed)
        for flag in (False, True):
            u = UnicastInstance(inst, flag)
            rows, k = u.adjacency, u.vertex_count
            assert k == len(u.virtuals) == len(rows)
            assert not any(row >> k for row in rows)
            assert not any(row >> p & 1 for p, row in enumerate(rows))
            assert rows == pairwise_cross_neighbor_rows(u)

    def test_mask_rows_match_pairwise_reference(self):
        rng = random.Random(31)
        cases = [
            unicast_of(3, []),
            unicast_of(3, [(2, {1, 3})]),
            unicast_of(4, [(1, ()), (2, ()), (3, ()), (4, ())]),  # no side information
            unicast_of(5, [(3, {1}), (3, {2, 4}), (3, ()), (3, {1, 2, 4, 5})]),  # all want 3
        ]
        for seed in range(320):
            n = rng.randint(1, 12)
            density = (0.0, 0.2, 0.5, 0.8, 1.0)[seed % 5]
            hi = rng.randint(1, min(4, n))
            inst = random_instance(n, rng.randint(0, 12), density, (1, hi), seed=seed)
            full = split_groupcast(inst)
            cases += [full, dedup(full)]
        for u in cases:
            g = build_cross_neighbor_graph(u)
            assert g.adjacency == pairwise_cross_neighbor_rows(u), u
        sizes = {len(u.virtuals) for u in cases}
        assert {0, 1} <= sizes and max(sizes) > 30

    def test_monotone_in_side_information(self):
        for seed in range(30):
            inst = random_instance(5, 5, 0.3, (1, 2), seed=seed)
            before = set(
                build_cross_neighbor_graph(split_groupcast(inst)).edges()
            )
            grown = []
            for j, r in enumerate(inst.receivers):
                free = sorted(set(range(1, 6)) - r.wants - r.has)
                if free and j == seed % len(inst.receivers):
                    grown.append((r.wants, r.has | {free[0]}))
                else:
                    grown.append((r.wants, r.has))
            after = set(
                build_cross_neighbor_graph(
                    split_groupcast(Instance.of(5, grown))
                ).edges()
            )
            assert before <= after

    def test_every_edge_supports_a_pair_transmission(self, example6):
        u = split_groupcast(example6)
        g = build_cross_neighbor_graph(u)
        for p, q in g.edges():
            vp, vq = u.virtuals[p], u.virtuals[q]
            if vp.want == vq.want:
                continue
            pair = unicast_of(u.num_messages, [(vp.want, vp.has), (vq.want, vq.has)])
            cover = CliqueCover(((0, 1),))
            s = scheme_from_cover(pair, cover)
            assert verify_scheme_symbolic(pair, s) == []
            assert verify_scheme_random(pair, s, trials=20, seed=3) is None

    def test_cover_parts_are_set_level_decodable(self):
        # pairwise edges must imply the whole part's wants sit in each
        # member's side info (minus its own want)
        for seed in range(20):
            inst = random_instance(6, 6, 0.5, (1, 2), seed=100 + seed)
            u = dedup(split_groupcast(inst))
            g = build_cross_neighbor_graph(u)
            for cover in (exact_min_cover(g), greedy_cover(g)):
                for part in cover.parts:
                    wants = {u.virtuals[v].want for v in part}
                    for v in part:
                        rest = wants - {u.virtuals[v].want}
                        assert rest <= u.virtuals[v].has


class TestIdsInRange:
    def test_ids_at_the_bounds_pass(self):
        u = unicast_of(3, [(1, {3}), (3, {1}), (2, set())])
        assert build_cross_neighbor_graph(u).edges() == [(0, 1)]
        assert mais_lower_bound(u) == 2


class TestClosure:
    def test_includes_frontier_and_respects_within(self):
        # the directed path 0 -> 1 -> 2 -> 3, plus 3 -> 1
        rows = [0b0010, 0b0100, 0b1000, 0b0010]
        assert closure(rows, 0b0001, 0b1111) == 0b1111
        assert closure(rows, 0b1000, 0b1111) == 0b1110
        # a vertex without arcs out reaches only itself
        assert closure([0, 0], 0b10, 0b11) == 0b10
        # the walk never enters, nor passes through, a vertex outside within
        assert closure(rows, 0b0001, 0b1011) == 0b0011
        assert closure(rows, 0b0001, 0b0001) == 0b0001
        assert closure(rows, 0, 0b1111) == 0


class TestComponents:
    def test_worked_example_components(self, example6):
        g = build_cross_neighbor_graph(split_groupcast(example6))
        assert connected_components(g) == [(0, 2, 3), (1, 4), (5,)]

    def test_edgeless_singletons(self):
        g = graph_from_edges(4, [])
        assert connected_components(g) == [(0,), (1,), (2,), (3,)]

    def test_complete_one_component(self):
        g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert connected_components(g) == [(0, 1, 2)]

    def test_matches_neighbour_walk(self):
        graphs = [graph_from_edges(0, [])]
        for seed in range(150):
            n = seed % 50
            p = (0.0, 0.02, 0.05, 0.1, 0.3, 1.0)[seed % 6]
            graphs.append(random_graph(n, p, seed=seed))
        for g in graphs:
            assert connected_components(g) == neighbour_walk_components(g)

    def test_induced_subgraph_relabels(self):
        g = graph_from_edges(5, [(0, 2), (2, 4), (1, 3)])
        sub = induced_subgraph(g, (0, 2, 4))
        assert sub.vertex_count == 3
        assert set(sub.edges()) == {(0, 1), (1, 2)}


class TestDot:
    def test_bipartite_counts(self, groupcast3):
        dot = "".join(bipartite_dot(groupcast3))
        assert dot.count("[shape=box") == 3
        assert dot.count("[shape=ellipse") == 2
        solid = [l for l in dot.splitlines() if "--" in l and "dashed" not in l]
        dashed = [l for l in dot.splitlines() if "--" in l and "dashed" in l]
        # side info: r1-m2, r1-m3, r2-m1; demands: r1-m1, r2-m2, r2-m3
        assert len(solid) == 3
        assert len(dashed) == 3
        assert "  r1 -- m2;" in dot and "  r2 -- m1;" in dot
        assert "  r1 -- m1 [style=dashed];" in dot

    def test_derived_nodes_and_edges(self, example6):
        u = split_groupcast(example6)
        g = build_cross_neighbor_graph(u)
        dot = "".join(derived_dot(g))
        for j in range(1, 7):
            assert f"r{j}_1 [" in dot
        assert sum("--" in l for l in dot.splitlines()) == 4
        assert "r1_1 -- r3_1;" in dot
        # the edge lines are edges(), in its order, on a groupcast instance too
        for h in (g, split_groupcast(random_instance(12, 20, 0.5, (1, 3), seed=1))):
            names = [f"r{j}_{k}" for j, k in (v.origin for v in h.virtuals)]
            assert [l for l in "".join(derived_dot(h)).splitlines() if " -- " in l] == [
                f"  {names[p]} -- {names[q]};" for p, q in h.edges()
            ]

    def test_one_chunk_per_node_line_and_per_row_of_edges(self):
        inst = random_instance(12, 20, 0.5, (1, 3), seed=1)
        chunks = list(bipartite_dot(inst))
        m = len(inst.receivers)
        assert chunks[0].count("\n") == 3 and chunks[-1] == "}\n"
        assert all(c.count("\n") == 1 for c in chunks[1:-1 - m])
        for j, (r, c) in enumerate(zip(inst.receivers, chunks[-1 - m:-1]), start=1):
            assert c.count(f"  r{j} -- m") == c.count("\n") == len(r.wants) + len(r.has)
        g = split_groupcast(inst)
        k = g.vertex_count
        chunks = list(derived_dot(g, greedy_cover(g)))
        assert len(chunks) == 2 * k + 2 and chunks[-1] == "}\n"
        assert all(c.count("\n") == 1 for c in chunks[:k + 1])
        for p, (row, c) in enumerate(zip(g.adjacency, chunks[k + 1:-1])):
            assert c.count(" -- ") == c.count("\n") == (row >> (p + 1)).bit_count()

    def test_derived_empty_instance(self):
        inst = Instance.of(3, [])
        u = split_groupcast(inst)
        g = build_cross_neighbor_graph(u)
        dot = "".join(derived_dot(g))
        assert dot == "graph cross_neighbors {\n}\n"

    def test_cover_overlay_colors(self, example6):
        u = split_groupcast(example6)
        g = build_cross_neighbor_graph(u)
        cover = exact_min_cover(g)
        dot = "".join(derived_dot(g, cover))
        assert dot.count("style=filled") == 6
        # members of one part share a fill color
        fills = {
            line.split("fillcolor=")[1].rstrip("];")
            for line in dot.splitlines()
            if "r1_1 [" in line or "r3_1 [" in line or "r4_1 [" in line
        }
        assert len(fills) == 1

    def test_groupcast_node_names_use_ordinals(self, groupcast3):
        u = split_groupcast(groupcast3)
        g = build_cross_neighbor_graph(u)
        dot = "".join(derived_dot(g))
        assert "r2_1 [" in dot and "r2_2 [" in dot
