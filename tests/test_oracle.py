import pytest

from indexcoding import (
    CapExceeded,
    ValidationError,
    build_cross_neighbor_graph,
    dedup,
    exact_min_cover,
    gap_report,
    mais_lower_bound,
    min_linear_rate_gf2,
    scheme_from_cover,
    split_groupcast,
)
from indexcoding import oracle as oracle_module
from indexcoding import pipeline as pipeline_module
from indexcoding.generate import random_instance
from indexcoding.oracle import can_decode, gf2_basis, iter_rref_rowspaces
from indexcoding.pipeline import SolveConfig

from helpers import naive_min_rate, unicast_of


def mask(ids):
    return sum(1 << (i - 1) for i in ids)


class TestGf2:
    def test_rank(self):
        assert len(gf2_basis([0b001, 0b010, 0b011])) == 2
        assert len(gf2_basis([0b111])) == 1
        assert len(gf2_basis([])) == 0
        assert len(gf2_basis([0, 0])) == 0

    def test_can_decode_direct_cases(self):
        # rows w1+w2, w2+w3 on three messages
        rows = (0b011, 0b110)
        assert can_decode(rows, 1, mask({2}))
        assert can_decode(rows, 2, mask({3}))
        assert can_decode(rows, 3, mask({1}))
        assert not can_decode(rows, 1, mask(set()))
        assert not can_decode(rows, 2, mask(set()))

    def test_rowspace_enumeration_counts(self):
        def gaussian_binomial(n, k):
            num = den = 1
            for i in range(k):
                num *= (1 << (n - i)) - 1
                den *= (1 << (i + 1)) - 1
            return num // den

        for n, k in [(3, 1), (3, 2), (4, 2), (5, 2), (6, 3)]:
            spaces = list(iter_rref_rowspaces(n, k))
            assert len(spaces) == gaussian_binomial(n, k)
            assert len(set(spaces)) == len(spaces)
            for rows in spaces:
                assert len(gf2_basis(rows)) == k

    def test_six_choose_three_is_1395(self):
        # the count that makes rowspace enumeration tractable at this size
        assert sum(1 for _ in iter_rref_rowspaces(6, 3)) == 1395


class TestMinLinearRate:
    def test_worked_example_rate(self, example6):
        u = dedup(split_groupcast(example6))
        assert min_linear_rate_gf2(u) == 3

    def test_directed_cycle_beats_cover(self, cycle3):
        u = dedup(split_groupcast(cycle3))
        assert min_linear_rate_gf2(u) == 2

    def test_single_receiver(self):
        u = unicast_of(1, [(1, ())])
        assert min_linear_rate_gf2(u) == 1

    def test_no_receivers(self):
        assert min_linear_rate_gf2(unicast_of(3, [])) == 0

    def test_cap_on_messages(self):
        u = unicast_of(11, [(1, ())])
        with pytest.raises(CapExceeded):
            min_linear_rate_gf2(u)
        assert min_linear_rate_gf2(u, n_cap=11) == 1

    def test_no_side_information_needs_every_message(self):
        u = unicast_of(3, [(1, ()), (2, ()), (3, ())])
        assert min_linear_rate_gf2(u) == 3

    def test_lower_bound_sets_the_start_not_the_answer(self, cycle3):
        u = dedup(split_groupcast(cycle3))
        assert [min_linear_rate_gf2(u, lower_bound=b) for b in (0, 1, 2)] == [2, 2, 2]

    def test_undecodable_input_raises(self, cycle3):
        # the n unit vectors decode every valid input, so no bound exceeds n
        with pytest.raises(ValidationError, match="lower bound 4 exceeds the 3 messages"):
            min_linear_rate_gf2(dedup(split_groupcast(cycle3)), lower_bound=4)
        assert min_linear_rate_gf2(dedup(split_groupcast(cycle3)), lower_bound=3) == 3

    def test_witness_decodes_every_virtual(self):
        for seed in range(20):
            inst = random_instance(5, 5, 0.5, (1, 2), seed=seed)
            u = dedup(split_groupcast(inst))
            rate, witness = min_linear_rate_gf2(u, with_witness=True)
            assert type(witness) is tuple and len(witness) == rate
            assert all(type(row) is int and 0 < row < 1 << u.num_messages for row in witness)
            for v in u.virtuals:
                assert can_decode(witness, v.want, mask(v.has))
        assert min_linear_rate_gf2(unicast_of(3, []), with_witness=True) == (0, ())

    def test_matches_naive_enumeration_spot_checks(self):
        for seed in range(15):
            inst = random_instance(4, 4, 0.5, (1, 2), seed=40 + seed)
            u = dedup(split_groupcast(inst))
            pairs = [(v.want, mask(v.has)) for v in u.virtuals]
            assert min_linear_rate_gf2(u) == naive_min_rate(4, pairs)

    def test_scheme_incidence_rows_always_decodable(self):
        # cross-validates the cover pipeline against the oracle's rank test
        for seed in range(20):
            inst = random_instance(6, 6, 0.5, (1, 2), seed=seed)
            u = dedup(split_groupcast(inst))
            g = build_cross_neighbor_graph(u)
            s = scheme_from_cover(u, exact_min_cover(g))
            rows = [mask(t) for t in s.transmissions]
            for v in u.virtuals:
                assert can_decode(rows, v.want, mask(v.has))


class TestMais:
    def test_worked_example(self, example6):
        assert mais_lower_bound(dedup(split_groupcast(example6))) == 3

    def test_directed_cycle(self, cycle3):
        assert mais_lower_bound(dedup(split_groupcast(cycle3))) == 2

    def test_complete_side_information(self):
        u = unicast_of(3, [(1, {2, 3}), (2, {1, 3}), (3, {1, 2})])
        assert mais_lower_bound(u) == 1

    def test_empty_side_information(self):
        u = unicast_of(4, [(1, ()), (2, ()), (3, ()), (4, ())])
        assert mais_lower_bound(u) == 4

    def test_duplicate_wants_never_count_twice(self):
        u = unicast_of(2, [(1, ()), (1, ()), (2, ())])
        assert mais_lower_bound(u) == 2

    def test_cap(self):
        u = unicast_of(3, [(1, ())] * 21)
        with pytest.raises(CapExceeded):
            mais_lower_bound(u)

    def test_search_deeper_than_the_recursion_limit(self):
        # one want-group per message, 1200 deep
        u = unicast_of(1200, [(i, ()) for i in range(1, 1201)])
        assert mais_lower_bound(u, cap=5000) == 1200


class TestGapReport:
    def test_worked_example(self, example6):
        r = gap_report(example6)
        assert r.to_jsonable() == {
            "mais": 3,
            "oracle": 3,
            "cover_exact": 3,
            "cover_greedy": 3,
            "gap": 0,
            "counterexample": False,
        }

    def test_directed_cycle_counterexample(self, cycle3):
        r = gap_report(cycle3)
        assert r.to_jsonable() == {
            "mais": 2,
            "oracle": 2,
            "cover_exact": 3,
            "cover_greedy": 3,
            "gap": 1,
            "counterexample": True,
        }

    def test_groupcast_pair(self, groupcast3):
        r = gap_report(groupcast3)
        assert r.to_jsonable() == {
            "mais": 2,
            "oracle": 2,
            "cover_exact": 2,
            "cover_greedy": 2,
            "gap": 0,
            "counterexample": False,
        }

    def test_fields_degrade_independently(self, example6):
        r = gap_report(example6, SolveConfig(oracle_n_cap=5))
        assert r.oracle_rate is None and r.gap is None
        assert r.cover_rate_exact == 3 and r.mais_bound == 3
        assert not r.counterexample
        r = gap_report(example6, SolveConfig(exact_cap=2))
        assert r.cover_rate_exact is None and r.gap is None
        assert r.cover_rate_greedy == 3

    def test_mais_runs_once_under_the_configured_cap(self, example6, monkeypatch):
        caps = []

        def counting_mais(u, cap=oracle_module.DEFAULT_MAIS_CAP):
            caps.append(cap)
            return mais_lower_bound(u, cap)

        monkeypatch.setattr(oracle_module, "mais_lower_bound", counting_mais)
        monkeypatch.setattr(pipeline_module, "mais_lower_bound", counting_mais)
        assert gap_report(example6, SolveConfig(mais_cap=7)).oracle_rate == 3
        assert caps == [7]
        r = gap_report(example6, SolveConfig(mais_cap=2))
        assert (r.mais_bound, r.oracle_rate) == (None, 3)
        assert caps == [7, 2]

    def test_sandwich_on_random_instances(self):
        for seed in range(40):
            inst = random_instance(
                2 + seed % 5, 1 + seed % 6, [0.2, 0.5, 0.8][seed % 3], (1, 2), seed=seed
            )
            r = gap_report(inst)
            assert r.mais_bound <= r.oracle_rate <= r.cover_rate_exact
            assert r.cover_rate_exact <= r.cover_rate_greedy
