"""Export Graphviz diagrams: bipartite instance view and cross-neighbor view.

Writes .dot files into demos/out/; render them with e.g.

    dot -Tpng demos/out/example6_derived.dot -O
"""

from pathlib import Path

from indexcoding import (
    UnicastInstance,
    bipartite_dot,
    derived_dot,
    exact_min_cover,
    parse_instance,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OUT.mkdir(exist_ok=True)

for name in ("example6", "groupcast3", "cycle3"):
    inst = parse_instance((HERE.parent / "instances" / f"{name}.json").read_text())

    # (1) Bipartite view: boxes are messages, ellipses receivers; solid
    #     edges are side information, dashed edges demands.
    (OUT / f"{name}_bipartite.dot").write_text("".join(bipartite_dot(inst)))

    # (2) Cross-neighbor view of the split with the minimum cover colored in.
    u = UnicastInstance(inst, dedup=True)
    cover = exact_min_cover(u)
    (OUT / f"{name}_derived.dot").write_text("".join(derived_dot(u, cover)))
    print(f"{name}: {u.vertex_count} vertices, {len(u.edges())} edges, "
          f"{cover.size} cover parts")

print(f"wrote DOT files to {OUT}")
