"""Export Graphviz diagrams: bipartite instance view and cross-neighbor view.

Writes .dot files into demos/out/; render them with e.g.

    dot -Tpng demos/out/example6_derived.dot -O
"""

from pathlib import Path

from indexcoding import (
    bipartite_dot,
    build_cross_neighbor_graph,
    dedup,
    derived_dot,
    exact_min_cover,
    parse_instance,
    split_groupcast,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

for name in ("example6", "groupcast3", "cycle3"):
    inst = parse_instance((HERE.parent / "instances" / f"{name}.json").read_text())

    # (1) Bipartite view: boxes are messages, ellipses receivers; solid
    #     edges are side information, dashed edges demands.
    (OUT / f"{name}_bipartite.dot").write_text(bipartite_dot(inst))

    # (2) Cross-neighbor view with the minimum cover colored in.
    u = dedup(split_groupcast(inst))
    g = build_cross_neighbor_graph(u)
    cover = exact_min_cover(g)
    (OUT / f"{name}_derived.dot").write_text(derived_dot(g, cover.parts))
    print(f"{name}: {g.vertex_count} vertices, {len(g.edges())} edges, "
          f"{cover.size} cover parts")

print(f"wrote DOT files to {OUT}")
