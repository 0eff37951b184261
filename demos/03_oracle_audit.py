"""Audit the clique-cover rate with independent oracles.

For each instance the report sandwiches the truth:

    MAIS lower bound <= optimal GF(2) linear rate <= exact cover <= greedy

A positive gap means the clique-cover program is NOT linearly optimal on
that instance; the directed 3-cycle below is the classic case (its
cross-neighbor graph is edgeless, yet two clever rows serve all three).
"""

from pathlib import Path

from indexcoding import UnicastInstance, gap_report, min_linear_rate_gf2, parse_instance
from indexcoding.generate import random_instance

HERE = Path(__file__).resolve().parent
INSTANCES = HERE.parent / "instances"


def show(name, inst):
    r = gap_report(inst)
    flag = "  <-- counterexample" if r.counterexample else ""
    print(
        f"{name:12s} mais={r.mais_bound} oracle={r.oracle_rate} "
        f"exact={r.cover_rate_exact} greedy={r.cover_rate_greedy} "
        f"gap={r.gap}{flag}"
    )


# (1) The three canonical instances.
for name in ("example6", "groupcast3", "cycle3"):
    show(name, parse_instance((INSTANCES / f"{name}.json").read_text()))

# (2) The 3-cycle's optimal encoder, explicitly.
cycle3 = parse_instance((INSTANCES / "cycle3.json").read_text())
u = UnicastInstance(cycle3, dedup=True)
rate, witness = min_linear_rate_gf2(u, with_witness=True)
print(f"\ncycle3 optimal rate {rate}, witness rows (bit i = message i+1):")
for row in witness:
    terms = [f"w{i + 1}" for i in range(u.num_messages) if (row >> i) & 1]
    print("  " + " + ".join(terms))

# (3) A random batch: gaps are rare but the sandwich always holds.
print("\nrandom batch (n=5, m=5, demand sizes 1..2):")
for seed in range(8):
    inst = random_instance(5, 5, 0.5, (1, 2), seed=seed)
    show(f"seed {seed}", inst)
