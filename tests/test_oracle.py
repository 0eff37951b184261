import itertools
import random

import pytest

from indexcoding import (
    CapExceeded,
    ValidationError,
    build_cross_neighbor_graph,
    dedup,
    exact_min_cover,
    gap_report,
    greedy_cover,
    mais_lower_bound,
    min_linear_rate_gf2,
    scheme_from_cover,
    split_groupcast,
)
from indexcoding import cover as cover_module
from indexcoding import oracle as oracle_module
from indexcoding import pipeline as pipeline_module
from indexcoding.generate import random_instance
from indexcoding.cover import DsaturCover, _exact_coloring
from indexcoding.graph import _bits
from indexcoding.oracle import can_decode, gf2_basis, has_minimal, iter_rref_rowspaces
from indexcoding.pipeline import SolveConfig

from helpers import (
    has_minimal_reference, mais_reference, naive_min_rate, reference_gap_report,
    reference_min_linear_rate_gf2, unicast_of,
)


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


def three_message_tuples():
    """C8's 1819 splits: every multiset of one to four (want, has) pairs over
    three messages."""
    kinds = [
        (w, has)
        for w in (1, 2, 3)
        for r in range(3)
        for has in itertools.combinations([i for i in (1, 2, 3) if i != w], r)
    ]
    for k in range(1, 5):
        for pairs in itertools.combinations_with_replacement(kinds, k):
            yield unicast_of(3, pairs)


def audit_gap_splits(seeds):
    """The audit-gap shape, 7 messages and at most 20 virtuals, split with
    dedup off and on."""
    for seed in seeds:
        full = split_groupcast(random_instance(7, 10, 0.4, (1, 2), seed=seed))
        yield full
        yield dedup(full)


def c3_instances():
    """C3's 200 random instances, drawn as C3 draws them."""
    densities = (0.2, 0.5, 0.8)
    for i in range(200):
        seed = 1000 + i
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        m = rng.randint(0, 6)
        yield random_instance(n, m, densities[i % 3], (1, min(2, n)), seed=seed)


class TestHasMinimal:
    def test_strict_subsets_dominate_and_equal_duplicates_stay(self):
        # 0 = {2, 3} loses to 1 = {2} and 2 = {3}; 4 repeats 1; want 2 stands alone
        u = unicast_of(3, [(1, {2, 3}), (1, {2}), (1, {3}), (2, ()), (1, {2})])
        assert has_minimal(u) == 0b11110
        assert has_minimal(dedup(u)) == 0b1110

    def test_no_virtuals(self):
        assert has_minimal(unicast_of(3, [])) == 0

    @staticmethod
    def check(u):
        minimal = has_minimal(u)
        assert set(_bits(minimal)) == has_minimal_reference(u)
        # every want group keeps a member, so MAIS's bound term is unchanged
        assert {u.virtuals[p].want for p in _bits(minimal)} == {v.want for v in u.virtuals}
        return len(u.virtuals) - minimal.bit_count()

    def test_matches_the_definition_on_three_messages(self):
        dominated = [self.check(u) for u in three_message_tuples()]
        assert len(dominated) == 1819 and sum(dominated) > 0

    def test_matches_the_definition_on_the_audit_gap_sweep(self):
        dominated = [self.check(u) for u in audit_gap_splits(range(200))]
        assert len(dominated) == 400 and sum(dominated) > 0


class TestVirtualMasks:
    def test_every_distinct_pair_in_virtual_order(self):
        for full in three_message_tuples():
            for u in (full, dedup(full)):
                assert oracle_module._virtual_masks(u) == list(
                    dict.fromkeys((v.want, mask(v.has)) for v in u.virtuals)
                )

    def test_only_mais_reads_the_has_minimal_virtuals(self, monkeypatch):
        # the rate search tests every pair, dominated or not; MAIS still
        # branches on the has-minimal virtuals, once per bound
        calls = []

        def counting(u):
            calls.append(len(u.virtuals))
            return has_minimal(u)

        monkeypatch.setattr(oracle_module, "has_minimal", counting)
        for u in audit_gap_splits(range(10)):
            k = len(u.virtuals)
            calls.clear()
            min_linear_rate_gf2(u, lower_bound=0)
            assert calls == []
            mais_lower_bound(u)
            assert calls == [k]
            calls.clear()
            min_linear_rate_gf2(u)  # the default bound is MAIS's
            assert calls == [k]


class TestMoveToFront:
    def test_the_pair_that_rejected_the_last_row_space_is_tested_first(self, monkeypatch):
        calls = []

        def recording(rows, want, has_mask):
            decodes = can_decode(rows, want, has_mask)
            calls.append((rows, (want, has_mask), decodes))
            return decodes

        monkeypatch.setattr(oracle_module, "can_decode", recording)
        moved = 0
        for u in audit_gap_splits(range(20)):
            calls.clear()
            min_linear_rate_gf2(u)
            # each call starts from the pairs in virtual order
            first = expected = oracle_module._virtual_masks(u)[0]
            for _, tested in itertools.groupby(calls, key=lambda call: call[0]):
                tested = list(tested)
                assert tested[0][1] == expected
                moved += expected != first
                _, expected, decodes = tested[-1]  # the rejecting pair, if any
            assert decodes  # the last row space tested is the witness
        assert moved > 0


class TestPrunedOracleWitness:
    """The oracle moves each rejecting pair to the front; the first feasible
    basis in enumeration order, and so the witness, is the one every pair in
    virtual order gives."""

    @staticmethod
    def check(u):
        expected = reference_min_linear_rate_gf2(u, mais_reference(u))
        assert min_linear_rate_gf2(u, with_witness=True) == expected

    def test_c3_instances(self):
        for inst in c3_instances():
            self.check(dedup(split_groupcast(inst)))

    def test_audit_gap_seeds(self):
        audit_gap = (random_instance(7, 10, 0.4, (1, 2), seed=s) for s in range(2000, 2200))
        dense = (random_instance(7, 10, 0.8, (1, 3), seed=s) for s in range(2000, 2040))
        for inst in itertools.chain(audit_gap, dense):
            self.check(dedup(split_groupcast(inst)))


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

        def counting_mais(u, cap=oracle_module.DEFAULT_MAIS_CAP, upper=None):
            caps.append(cap)
            return mais_lower_bound(u, cap, upper)

        monkeypatch.setattr(oracle_module, "mais_lower_bound", counting_mais)
        monkeypatch.setattr(pipeline_module, "mais_lower_bound", counting_mais)
        assert gap_report(example6, SolveConfig(mais_cap=7)).oracle_rate == 3
        assert caps == [7]
        r = gap_report(example6, SolveConfig(mais_cap=2))
        assert (r.mais_bound, r.oracle_rate) == (None, 3)
        assert caps == [7, 2]

    def test_sandwich_on_random_instances(self):
        pinned = skipped = 0
        for seed in range(40):
            inst = random_instance(
                2 + seed % 5, 1 + seed % 6, [0.2, 0.5, 0.8][seed % 3], (1, 2), seed=seed
            )
            r = gap_report(inst)
            assert r.mais_bound <= r.oracle_rate <= r.cover_rate_exact
            assert r.cover_rate_exact <= r.cover_rate_greedy
            # the unbounded searches agree whichever bound pinned a field
            assert r == reference_gap_report(inst), seed
            pinned += r.mais_bound == r.cover_rate_exact
            skipped += r.mais_bound == DsaturCover(dedup(split_groupcast(inst))).size
        assert 0 < pinned < 40
        assert 0 < skipped < 40  # the branch and bound skipped, and run


def meets_dsatur(u):
    """Whether MAIS meets the DSATUR cover of u, so gap_report skips the
    branch and bound."""
    return mais_lower_bound(u, cap=64) == DsaturCover(u, cap=64).size


class TestBoundsPinCoverAndMais:
    """gap_report gives MAIS the smaller of the greedy and DSATUR covers as
    an upper bound, and skips the branch and bound where MAIS meets the
    DSATUR cover; neither bound changes an answer."""

    SHAPES = {
        "audit-gap": [random_instance(7, 10, 0.4, (1, 2), seed=s) for s in range(150)],
        # 12 messages and 8 single-demand receivers: several components each
        "multi-component": [random_instance(12, 8, 0.15, (1, 1), seed=s) for s in range(60)],
        # one component of 30-60 virtuals
        "solve-exact": [random_instance(25, 30, 0.8, (1, 2), seed=s) for s in range(10)],
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_upper_bound_changes_no_mais(self, shape):
        for inst in self.SHAPES[shape]:
            u = dedup(split_groupcast(inst))
            mais = mais_lower_bound(u, cap=64)
            dsatur = DsaturCover(u, cap=64)
            for upper in (greedy_cover(u).size, dsatur.size, dsatur.minimum().size):
                assert mais_lower_bound(u, cap=64, upper=upper) == mais, (shape, upper)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_an_optimal_dsatur_start_is_the_minimum(self, shape, monkeypatch):
        # where MAIS meets the DSATUR cover, that cover is optimal; the branch
        # and bound keeps an optimal start, so skipping it leaves the parts
        optimal = []
        for inst in self.SHAPES[shape]:
            u = dedup(split_groupcast(inst))
            cover = exact_min_cover(u, cap=64)
            if DsaturCover(u, cap=64).size == cover.size:
                optimal.append((u, cover))
        monkeypatch.setattr(cover_module, "_exact_coloring", lambda n, rows, start: start[2])
        for u, cover in optimal:
            assert DsaturCover(u, cap=64).minimum().parts == cover.parts
        assert optimal

    def test_no_branch_and_bound_where_the_bounds_meet(self, monkeypatch):
        # the reference's oracle searches from rate 1: about 0.1 s per audit-gap case
        cases = self.SHAPES["audit-gap"][:40] + self.SHAPES["multi-component"]
        expected = [reference_gap_report(inst) for inst in cases]
        calls = []

        def counting_coloring(n, rows, start=None):
            calls.append(n)
            return _exact_coloring(n, rows, start)

        monkeypatch.setattr(cover_module, "_exact_coloring", counting_coloring)
        met = 0
        for inst, report in zip(cases, expected):
            del calls[:]
            assert gap_report(inst) == report
            if meets_dsatur(dedup(split_groupcast(inst))):
                met += 1
                assert calls == []
            else:
                assert calls  # one per component
        assert 0 < met < len(cases)
