"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time
from contextlib import contextmanager

from indexcoding import (
    Instance,
    UnicastInstance,
    exact_min_cover,
    gap_report,
    greedy_cover,
    mais_lower_bound,
    min_linear_rate_gf2,
    scheme_from_cover,
    verify_scheme_random,
    verify_scheme_symbolic,
)
from indexcoding.cover import DsaturCover
from indexcoding.pipeline import SolveConfig, solve_instance
from indexcoding.generate import random_instance
from indexcoding.scheme import assign_transmissions

from helpers import (
    mais_reference, naive_min_rate, random_graph, reference_gap_report, unicast_of,
)
from test_cover import brute_min_cover_size


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[acceptance] {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"
    )
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s < {budget_seconds}s)")


def test_c1_worked_example_reproduction():
    with criterion("C1 worked-example reproduction", 1.0):
        from indexcoding import parse_instance
        from conftest import INSTANCE_DIR

        inst = parse_instance((INSTANCE_DIR / "example6.json").read_text())
        outcome = solve_instance(inst, SolveConfig(solver="exact"))
        assert outcome.scheme.rate == 3
        assert outcome.scheme.transmissions == ((1, 3, 4), (2, 5), (6,))


def test_c2_groupcast_split_rate_and_decoding(groupcast3):
    with criterion("C2 groupcast split achieves rate 2", 1.0):
        u = UnicastInstance(groupcast3)
        scheme = scheme_from_cover(u, exact_min_cover(u))
        assert scheme.rate == 2
        assert verify_scheme_symbolic(u, scheme) == []
        # both demands of receiver 2 are individually assigned and decoded
        assigned = assign_transmissions(u, scheme)
        origins = [v.origin for v in u.virtuals]
        assert (2, 1) in origins and (2, 2) in origins
        assert all(t is not None for t in assigned)
        assert verify_scheme_random(u, scheme, trials=100, seed=1, word_width=64) is None


def test_c3_optimality_sandwich_on_random_instances():
    with criterion("C3 bound sandwich on 200 random instances", 120.0):
        import random as _random

        densities = (0.2, 0.5, 0.8)
        pinned = 0  # reports whose oracle rate the bounds gave, with no search
        skipped = 0  # reports whose exact cover MAIS pinned, with no branch and bound
        for i in range(200):
            seed = 1000 + i
            rng = _random.Random(seed)
            n = rng.randint(2, 6)
            m = rng.randint(0, 6)
            p = densities[i % 3]
            inst = random_instance(n, m, p, (1, min(2, n)), seed=seed)

            report = gap_report(inst)
            assert report.mais_bound is not None
            assert report.oracle_rate is not None
            assert report.cover_rate_exact is not None
            assert (
                report.mais_bound
                <= report.oracle_rate
                <= report.cover_rate_exact
                <= report.cover_rate_greedy
            ), (i, report)
            # the unbounded searches, so no bound's shortcut hides a bug in another field
            assert report == reference_gap_report(inst), (i, report)
            u = UnicastInstance(inst, True)
            pinned += report.mais_bound == report.cover_rate_exact
            skipped += report.mais_bound == DsaturCover(u).size

            for cover in (exact_min_cover(u), greedy_cover(u)):
                scheme = scheme_from_cover(u, cover)
                assert verify_scheme_symbolic(u, scheme) == []
                assert (
                    verify_scheme_random(u, scheme, trials=50, seed=seed) is None
                )
        assert 0 < pinned < 200  # both the pinned reports and the searched ones
        assert 0 < skipped < 200


def test_c4_cover_vs_oracle_gap_harness(cycle3):
    with criterion("C4 directed 3-cycle exhibits the gap", 1.0):
        report = gap_report(cycle3)
        assert report.cover_rate_exact == 3
        assert report.oracle_rate == 2
        assert report.gap == 1
        assert report.counterexample is True


def test_c5_exact_cover_matches_partition_enumeration():
    with criterion("C5 exact cover vs set-partition enumeration (50 graphs)", 60.0):
        densities = (0.2, 0.5, 0.8)
        for i in range(50):
            seed = 500 + i
            size = 1 + i % 8
            g = random_graph(size, densities[i % 3], seed=seed)
            assert exact_min_cover(g).size == brute_min_cover_size(g), (i, seed)


def test_c6_oracle_matches_naive_matrix_enumeration():
    with criterion("C6 RREF oracle vs naive enumeration (n <= 3, exhaustive)", 60.0):
        checked = 0
        for n in (1, 2, 3):
            non_self = [
                [s for s in range(1 << n) if not (s >> i) & 1] for i in range(n)
            ]
            for sides in itertools.product(*non_self):
                receivers = []
                for i, smask in enumerate(sides):
                    has = {j + 1 for j in range(n) if (smask >> j) & 1}
                    receivers.append(({i + 1}, has))
                u = UnicastInstance(Instance.of(n, receivers))
                pairs = [
                    (v.want, sum(1 << (i - 1) for i in v.has)) for v in u.virtuals
                ]
                assert min_linear_rate_gf2(u) == naive_min_rate(n, pairs), sides
                checked += 1
        assert checked == 1 + 4 + 64


def test_c8_mais_matches_subset_enumeration():
    with criterion("C8 MAIS vs subset enumeration (n = 3 exhaustive, audit-gap sweep)", 60.0):
        # every (want, has) of 3 messages; MAIS never reads n, so 3 covers 1 and 2
        kinds = [
            (w, has)
            for w in (1, 2, 3)
            for r in range(3)
            for has in itertools.combinations([i for i in (1, 2, 3) if i != w], r)
        ]
        checked = 0
        for k in range(1, 5):
            for pairs in itertools.combinations_with_replacement(kinds, k):
                u = unicast_of(3, pairs)
                assert mais_lower_bound(u) == mais_reference(u), pairs
                checked += 1
        assert checked == 1819
        # the audit-gap shape: 7 messages, at most 20 virtuals, dedup on and off
        for seed in range(200):
            inst = random_instance(7, 10, 0.4, (1, 2), seed=seed)
            for u in (UnicastInstance(inst), UnicastInstance(inst, True)):
                assert mais_lower_bound(u) == mais_reference(u), seed


def test_c7_performance_budgets():
    with criterion("C7 exact cover at 25 vertices", 10.0):
        g = random_graph(25, 0.5, seed=20250810)
        cover = exact_min_cover(g)
        assert cover.size >= 1

    for seed in (900, 901, 902):
        with criterion(f"C7 oracle at n=6 (seed {seed})", 5.0):
            inst = random_instance(6, 6, 0.5, (1, 2), seed=seed)
            rate = min_linear_rate_gf2(UnicastInstance(inst, True))
            assert 1 <= rate <= 6
