"""Walk the solve pipeline stage by stage on the six-receiver example.

The instance lives in instances/example6.json; its cross-neighbor graph
splits into a triangle, an edge, and an isolated vertex, so three XOR
transmissions suffice.
"""

from pathlib import Path

from indexcoding import (
    UnicastInstance,
    connected_components,
    exact_min_cover,
    parse_instance,
    scheme_from_cover,
    verify_scheme,
)

HERE = Path(__file__).resolve().parent

# (1) Load and validate the instance.
inst = parse_instance((HERE.parent / "instances" / "example6.json").read_text())
print(f"{inst.num_messages} messages, {len(inst.receivers)} receivers")

# (2) Split into single-demand virtual receivers (already unicast here).
u = UnicastInstance(inst, dedup=True)
for v in u.virtuals:
    print(f"  r{v.origin[0]}_{v.origin[1]} wants w{v.want}, has {sorted(v.has)}")

# (3) The split is also the cross-neighbor graph: an edge means the pair
#     can share one XOR transmission.
print("edges:", [(p + 1, q + 1) for p, q in u.edges()])
print("components:", [tuple(v + 1 for v in c) for c in connected_components(u)])

# (4) Partition into a minimum number of cliques.
cover = exact_min_cover(u)
print("cover parts:", [tuple(v + 1 for v in part) for part in cover.parts])

# (5) One transmission per clique: the XOR of its distinct wants.
scheme = scheme_from_cover(u, cover)
print(f"rate {scheme.rate}:", [list(t) for t in scheme.transmissions])

# (6) Verify symbolically (every virtual is assigned a transmission it
#     decodes) and over random 64-bit words.
assigned, failure = verify_scheme(u, scheme, trials=100, seed=1)
assert None not in assigned and failure is None
print("verification: symbolic ok, 100 randomized trials ok")
