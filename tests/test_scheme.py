import itertools
import json
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from indexcoding import (
    CliqueCover,
    CodingScheme,
    Instance,
    ValidationError,
    build_cross_neighbor_graph,
    decode_receiver,
    dedup,
    encode,
    exact_min_cover,
    greedy_cover,
    parse_scheme,
    scheme_from_cover,
    split_groupcast,
    verify_scheme,
    verify_scheme_random,
    verify_scheme_symbolic,
)
from indexcoding import scheme as scheme_module
from indexcoding.scheme import TRIAL_BLOCK, assign_transmissions
from indexcoding.generate import random_instance

from helpers import (
    graph_of_rows,
    pairwise_cross_neighbor_rows,
    serialize_scheme,
    unicast_of,
    verify_cover,
)


def solve(inst, solver=exact_min_cover):
    u = dedup(split_groupcast(inst))
    g = build_cross_neighbor_graph(u)
    return u, scheme_from_cover(u, solver(g))


def groupcast_satisfied(inst: Instance, s: CodingScheme) -> bool:
    """Independent check on the original receivers: every demanded message
    must have a transmission decodable from that receiver's side info."""
    for r in inst.receivers:
        for d in r.wants:
            if not any(
                d in t and all(i in r.has for i in t if i != d)
                for t in s.transmissions
            ):
                return False
    return True


class TestSchemeFromCover:
    def test_worked_example(self, example6):
        u, s = solve(example6)
        assert s.transmissions == ((1, 3, 4), (2, 5), (6,))
        assert s.rate == 3

    def test_groupcast_pair(self, groupcast3):
        u, s = solve(groupcast3)
        assert s.transmissions == ((1, 2), (3,))

    def test_singleton_cover_is_identity(self):
        inst = Instance.of(3, [({1}, ()), ({2}, ()), ({3}, ())])
        u, s = solve(inst)
        assert s.transmissions == ((1,), (2,), (3,))

    def test_duplicate_wants_collapse(self):
        inst = Instance.of(2, [({1}, {2}), ({1}, ()), ({2}, {1})])
        u = split_groupcast(inst)  # no dedup: virtuals 0 and 1 both want 1
        g = build_cross_neighbor_graph(u)
        assert (g.adjacency[0] >> 1) & 1
        cover = exact_min_cover(g)
        s = scheme_from_cover(u, cover)
        for t in s.transmissions:
            assert len(t) == len(set(t))
        assert verify_scheme_symbolic(u, s) == []

    def test_rejects_invalid_cover(self, example6):
        u = split_groupcast(example6)
        with pytest.raises(ValidationError, match="invalid cover"):
            scheme_from_cover(u, CliqueCover(((0, 1), (2, 3), (4, 5))))

    def test_rate_equals_cover_size(self):
        for seed in range(30):
            inst = random_instance(6, 5, 0.5, (1, 2), seed=seed)
            u = dedup(split_groupcast(inst))
            g = build_cross_neighbor_graph(u)
            for cover in (exact_min_cover(g), greedy_cover(g)):
                assert scheme_from_cover(u, cover).rate == cover.size


def random_partition(rng: random.Random, k: int) -> CliqueCover:
    order = list(range(k))
    rng.shuffle(order)
    parts = []
    while order:
        cut = rng.randint(1, len(order))
        parts.append(tuple(order[:cut]))
        order = order[cut:]
    return CliqueCover(tuple(parts))


def defective_covers(valid: CliqueCover, k: int) -> list[CliqueCover]:
    """One broken variant per defect, each made from an otherwise valid cover."""
    parts = [list(p) for p in valid.parts]
    last = next(i for i, p in enumerate(parts) if k - 1 in p)

    def variant(edit) -> CliqueCover:
        copy = [list(p) for p in parts]
        edit(copy)
        return CliqueCover(tuple(tuple(p) for p in copy))

    def negative_index(c):
        # -1 would alias the last virtual if indices were used unchecked
        c[last][c[last].index(k - 1)] = -1

    return [
        variant(lambda c: c.append([])),  # empty part
        variant(lambda c: c[0].append(c[-1][0])),  # duplicate vertex
        variant(lambda c: c[last].remove(k - 1)),  # missing vertex
        variant(lambda c: c[last].append(k)),  # index past the end
        variant(negative_index),
    ]


class TestCoverCheckMatchesGraphCheck:
    """scheme_from_cover checks a cover against the instance directly; the
    reference is verify_cover on the rebuilt graph.  The covers of the strict
    rule's graph, which does not join equal wants, are valid covers of it."""

    def test_agrees_with_verify_cover(self):
        rng = random.Random(2024)
        outcomes = {True: 0, False: 0}
        for seed in range(300):
            n = rng.randint(2, 7)
            density = (0.2, 0.5, 0.8, 1.0)[seed % 4]
            inst = random_instance(n, rng.randint(1, 6), density, (1, min(3, n)), seed=seed)
            full = split_groupcast(inst)
            for u in (full, dedup(full)):
                k = len(u.virtuals)
                g = build_cross_neighbor_graph(u)
                strict = graph_of_rows(pairwise_cross_neighbor_rows(u, strict=True))
                covers = [
                    exact_min_cover(g),
                    greedy_cover(strict),
                    exact_min_cover(strict),
                    random_partition(rng, k),
                    random_partition(rng, k),
                ]
                covers += defective_covers(greedy_cover(g), k)
                for cover in covers:
                    expected_ok = verify_cover(g, cover) is None
                    try:
                        scheme_from_cover(u, cover)
                    except ValidationError as exc:
                        assert str(exc).startswith("invalid cover"), exc
                        assert not expected_ok, (seed, cover, exc)
                    else:
                        assert expected_ok, (seed, cover)
                    outcomes[expected_ok] += 1
        # both answers must be exercised often for the agreement to mean much
        assert min(outcomes.values()) > 500, outcomes


class TestEncodeDecode:
    def test_encode_xor_words(self):
        s = CodingScheme(3, ((1, 2), (3,)))
        out = encode(s, {1: 0x0A, 2: 0x0B, 3: 0x0C})
        assert out == (0x01, 0x0C)

    def test_identity_scheme_passthrough(self):
        s = CodingScheme(3, ((1,), (2,), (3,)))
        assert encode(s, {1: 7, 2: 99, 3: 3}) == (7, 99, 3)

    def test_worked_example_sums(self, example6):
        u, s = solve(example6)
        rng = random.Random(5)
        words = {i: rng.getrandbits(64) for i in range(1, 7)}
        out = encode(s, words)
        assert out[0] == words[1] ^ words[3] ^ words[4]
        assert out[1] == words[2] ^ words[5]
        assert out[2] == words[6]

    def test_encode_missing_word(self):
        s = CodingScheme(3, ((1, 2),))
        with pytest.raises(ValidationError, match="no word for message 2"):
            encode(s, {1: 1, 3: 3})

    def test_encode_rejects_words_outside_the_messages(self):
        s = CodingScheme(3, ((1,),))
        for key in (0, 4):
            with pytest.raises(ValidationError, match=f"message {key} outside"):
                encode(s, {1: 1, key: 2})

    def test_decode_cancels_side_words(self, groupcast3):
        u, s = solve(groupcast3)
        v = u.virtuals[1]  # wants 2, has {1}
        assert decode_receiver(s, v, (0x01, 0x0C), {1: 0x0A}, 0) == 0x0B

    def test_decode_singleton_passthrough(self, example6):
        u, s = solve(example6)
        v = u.virtuals[5]  # wants 6
        assert decode_receiver(s, v, (1, 2, 42), {4: 9}, 2) == 42

    def test_decode_requires_membership_and_side_info(self, example6):
        u, s = solve(example6)
        v = u.virtuals[1]  # wants 2; transmission 0 is (1, 3, 4)
        with pytest.raises(ValidationError, match="not decodable"):
            decode_receiver(s, v, (0, 0, 0), {5: 1}, 0)

    def test_decode_requires_the_want_in_the_transmission(self):
        # the virtual holds every summand of transmission 0, but it wants 1
        s = CodingScheme(2, ((2,), (1,)))
        v = split_groupcast(Instance.of(2, [({1}, {2})])).virtuals[0]
        with pytest.raises(ValidationError, match="not decodable"):
            decode_receiver(s, v, (5, 7), {2: 5}, 0)
        assert decode_receiver(s, v, (5, 7), {2: 5}, 1) == 7

    def test_decode_missing_side_word(self):
        s = CodingScheme(2, ((1, 2),))
        v = split_groupcast(Instance.of(2, [({1}, {2})])).virtuals[0]
        with pytest.raises(ValidationError, match="^no word for message 2$"):
            decode_receiver(s, v, (3,), {}, 0)
        assert decode_receiver(s, v, (3,), {2: 1}, 0) == 2

    def test_decode_rejects_a_short_received(self, example6):
        v = split_groupcast(Instance.of(2, [({1}, {2})])).virtuals[0]
        with pytest.raises(ValidationError, match=r"^received 0 words for 1 transmissions$"):
            decode_receiver(CodingScheme(2, ((1, 2),)), v, (), {2: 1}, 0)
        u, s = solve(example6)
        for t in (0, 2):  # 0 is within the two words received, 2 is not
            with pytest.raises(ValidationError, match="received 2 words for 3 transmissions"):
                decode_receiver(s, u.virtuals[5], (1, 2), {}, t)

    def test_decode_rejects_a_transmission_index_out_of_range(self, example6):
        u, s = solve(example6)
        v = u.virtuals[5]  # wants 6, sent alone as transmission 2
        received = encode(s, {i: i for i in range(1, 7)})
        assert decode_receiver(s, v, received, {}, 2) == 6
        for t in (-1, -3, 3, 10):  # -1 would alias transmission 2 if indexed unchecked
            with pytest.raises(ValidationError, match=rf"transmission {t} out of range \[0, 3\)"):
                decode_receiver(s, v, received, {}, t)

    def test_linearity(self):
        rng = random.Random(11)
        s = CodingScheme(4, ((1, 2, 4), (2, 3), (4,)))
        for _ in range(50):
            a = {i: rng.getrandbits(64) for i in range(1, 5)}
            b = {i: rng.getrandbits(64) for i in range(1, 5)}
            xored = {i: a[i] ^ b[i] for i in a}
            lhs = encode(s, xored)
            rhs = tuple(x ^ y for x, y in zip(encode(s, a), encode(s, b)))
            assert lhs == rhs

    def test_decode_inverse_exhaustive_one_bit(self):
        # every assignment at word width 1, instances up to 4 messages
        cases = [
            Instance.of(3, [({1}, {2, 3}), ({2, 3}, {1})]),
            Instance.of(4, [({1}, {2}), ({2}, {1}), ({3}, {4}), ({4}, {3})]),
            Instance.of(2, [({1}, ()), ({2}, {1})]),
        ]
        for inst in cases:
            u, s = solve(inst)
            assigned = assign_transmissions(u, s)
            n = inst.num_messages
            for bits in itertools.product((0, 1), repeat=n):
                words = dict(enumerate(bits, start=1))
                received = encode(s, words)
                for idx, v in enumerate(u.virtuals):
                    side_words = {i: words[i] for i in v.has}
                    got = decode_receiver(s, v, received, side_words, assigned[idx][0])
                    assert got == words[v.want]


class TestVerification:
    def test_worked_example_passes(self, example6):
        u, s = solve(example6)
        assert verify_scheme_symbolic(u, s) == []
        assert verify_scheme_random(u, s, trials=100, seed=1) is None

    def test_missing_transmission_detected(self, example6):
        u = split_groupcast(example6)
        s = CodingScheme(6, ((1, 3, 4), (2, 5)))
        assert verify_scheme_symbolic(u, s) == [5]

    def test_over_wide_transmission_detected(self, groupcast3):
        u = split_groupcast(groupcast3)
        s = CodingScheme(3, ((1, 2, 3),))
        # virtual 1 lacks 3 and virtual 2 lacks 2 in side info
        assert verify_scheme_symbolic(u, s) == [1, 2]

    def test_mutated_transmission_set(self, example6):
        # dropping 4 from the first transmission leaves the want-4 virtual
        # with no usable transmission; every other virtual keeps one
        u = split_groupcast(example6)
        s = CodingScheme(6, ((1, 3), (2, 5), (6,)))
        assert verify_scheme_symbolic(u, s) == [3]

    def test_random_requires_symbolic_pass(self, example6):
        u = split_groupcast(example6)
        s = CodingScheme(6, ((1, 3, 4), (2, 5)))
        with pytest.raises(ValidationError, match="symbolic"):
            verify_scheme_random(u, s)

    def test_random_needs_a_trial(self, example6):
        # checked first: a zero-trial pass would have checked nothing
        for s in (solve(example6)[1], CodingScheme(6, ((1, 3, 4), (2, 5)))):
            for trials in (0, -5):
                with pytest.raises(ValidationError) as info:
                    verify_scheme_random(split_groupcast(example6), s, trials=trials)
                assert str(info.value) == f"trials must be at least 1, got {trials}"

    def test_random_word_width_in_range(self, example6):
        u, s = solve(example6)
        for width in (0, 65):
            with pytest.raises(ValidationError) as info:
                verify_scheme_random(u, s, word_width=width)
            assert str(info.value) == f"word_width must be in [1, 64], got {width}"

    def test_random_identity_scheme(self):
        inst = Instance.of(3, [({1}, ()), ({2}, ()), ({3}, ())])
        u, s = solve(inst)
        assert verify_scheme_random(u, s, trials=10, seed=9) is None

    def test_random_deterministic_for_seed(self, example6):
        u, s = solve(example6)
        assert verify_scheme_random(u, s, trials=5, seed=7) is None
        assert verify_scheme_random(u, s, trials=5, seed=7) is None

    def test_random_reports_a_faulty_encode(self, example6, monkeypatch):
        real_encode = scheme_module.encode
        u, s = solve(example6)
        first = [t for t, _ in scheme_module.assign_transmissions(u, s)].index(0)
        # (trials, the one trial whose word is wrong, the bit flipped in it)
        for trials, bad_trial, bit in [(5, 0, 0), (5, 3, 17), (TRIAL_BLOCK + 5, TRIAL_BLOCK + 2, 63)]:
            calls = []

            def flip_one_bit_of_first(s, words, bad_trial=bad_trial, bit=bit, calls=calls):
                # each call encodes one block of bit-sliced trials
                out = real_encode(s, words)
                calls.append(None)
                if len(calls) - 1 != bad_trial // TRIAL_BLOCK:
                    return out
                return (out[0] ^ 1 << ((bad_trial % TRIAL_BLOCK) * 64 + bit),) + out[1:]

            monkeypatch.setattr(scheme_module, "encode", flip_one_bit_of_first)
            failure = verify_scheme_random(u, s, trials=trials, seed=3)
            assert (failure.trial, failure.virtual) == (bad_trial, first)
            assert failure.got == failure.expected ^ 1 << bit

    def test_random_reports_the_least_trial_then_the_least_virtual(self, example6, monkeypatch):
        # the failure a trial-by-trial loop would meet first, whatever the flips
        real_encode = scheme_module.encode
        u, s = solve(example6)
        assigned = [t for t, _ in scheme_module.assign_transmissions(u, s)]
        rng = random.Random(5)
        width = 8
        for _ in range(60):
            trials = rng.randint(1, 40)
            flips = {
                (rng.randrange(s.rate), rng.randrange(trials), rng.randrange(width))
                for _ in range(rng.randint(1, 4))
            }

            def faulty(s, words, flips=flips):
                out = list(real_encode(s, words))
                for t, trial, bit in flips:
                    out[t] ^= 1 << (trial * width + bit)
                return tuple(out)

            monkeypatch.setattr(scheme_module, "encode", faulty)
            failure = verify_scheme_random(u, s, trials=trials, seed=1, word_width=width)
            assert (failure.trial, failure.virtual) == min(
                (trial, idx) for t, trial, _ in flips for idx, a in enumerate(assigned) if a == t
            )
            flipped = sum(
                1 << bit for t, trial, bit in flips
                if (t, trial) == (assigned[failure.virtual], failure.trial)
            )
            assert failure.got == failure.expected ^ flipped
            assert max(failure.got, failure.expected) < 1 << width

    def test_random_draws_words_only_for_sent_messages(self, monkeypatch):
        # one bit-sliced word per sent message and block of trials, not one
        # per message of the 50
        draws = []

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                draws.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(scheme_module.random, "Random", CountingRandom)
        inst = Instance.of(50, [({1}, {2}), ({2}, {1}), ({3}, ())])
        u = split_groupcast(inst)
        s = CodingScheme(50, ((1, 2), (3,)))
        assert verify_scheme_random(u, s, trials=7, seed=1, word_width=8) is None
        assert draws == [7 * 8] * 3
        draws.clear()
        assert verify_scheme_random(u, s, trials=TRIAL_BLOCK + 1, seed=1, word_width=8) is None
        assert draws == [TRIAL_BLOCK * 8] * 3 + [8] * 3

    def test_long_transmission_costs_its_length_per_want(self):
        # one decode set per wanted summand: a 2000-summand transmission and two
        # virtuals once built 2000 sets of 1999 ids (about 130 MB)
        n = 2000
        s = CodingScheme(n, (tuple(range(1, n + 1)),))
        u = unicast_of(n, [(1, range(2, n + 1)), (2, ())])
        ok = unicast_of(n, [(1, range(2, n + 1))])
        tracemalloc.start()
        try:
            assert assign_transmissions(u, s) == [(0, frozenset(range(2, n + 1))), None]
            assert verify_scheme_random(ok, s, trials=3) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, peak

    def test_emitted_schemes_always_verify(self):
        for seed in range(40):
            inst = random_instance(6, 6, [0.2, 0.5, 0.8][seed % 3], (1, 2), seed=seed)
            for solver in (exact_min_cover, greedy_cover):
                u, s = solve(inst, solver)
                assert verify_scheme_symbolic(u, s) == []
                assert verify_scheme_random(u, s, trials=20, seed=seed) is None

    def test_split_equivalence(self):
        # symbolic pass on the split instance iff every original receiver
        # can decode every demanded message
        rng = random.Random(42)
        for seed in range(40):
            inst = random_instance(5, 4, 0.4, (1, 3), seed=seed)
            u = split_groupcast(inst)
            if rng.random() < 0.5:
                _, s = solve(inst)
            else:
                k = rng.randint(1, 5)
                s = CodingScheme(
                    5,
                    tuple(
                        tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 3))))
                        for _ in range(k)
                    ),
                )
            assert (verify_scheme_symbolic(u, s) == []) == groupcast_satisfied(inst, s)

    def test_dedup_soundness(self):
        rng = random.Random(7)
        for seed in range(40):
            inst = random_instance(5, 5, 0.4, (1, 3), seed=100 + seed)
            pre = split_groupcast(inst)
            post = dedup(pre)
            if rng.random() < 0.5:
                _, s = solve(inst)
            else:
                s = CodingScheme(
                    5,
                    tuple(
                        tuple(sorted(rng.sample(range(1, 6), rng.randint(1, 3))))
                        for _ in range(rng.randint(1, 4))
                    ),
                )
            assert (verify_scheme_symbolic(pre, s) == []) == (
                verify_scheme_symbolic(post, s) == []
            )


class TestSchemeJson:
    def test_round_trip(self, example6):
        _, s = solve(example6)
        assert parse_scheme(serialize_scheme(s), num_messages=6) == s

    def test_extra_keys_tolerated(self):
        s = parse_scheme('{"rate": 1, "transmissions": [[1, 2]], "solver": "exact"}', 2)
        assert s.transmissions == ((1, 2),)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="rate"):
            parse_scheme('{"rate": 2, "transmissions": [[1]]}', 1)

    def test_empty_transmission_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            parse_scheme('{"transmissions": [[]]}', 1)

    def test_id_out_of_instance_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            parse_scheme('{"transmissions": [[4]]}', num_messages=3)


def _cancels(v, t):
    """Reference decode rule: the summands ``v`` must cancel to decode ``t``,
    or None when it cannot (``t`` lacks the want, or ``v`` another summand)."""
    if v.want not in t:
        return None
    others = [i for i in t if i != v.want]
    return others if v.has.issuperset(others) else None


def reference_assign_transmissions(u, s):
    """``assign_transmissions`` as it was before the per-transmission sets:
    ``_cancels`` per candidate transmission, in order."""
    holding = {}
    for idx, t in enumerate(s.transmissions):
        for i in t:
            holding.setdefault(i, []).append((idx, t))
    return [next((idx for idx, t in holding.get(v.want, ()) if _cancels(v, t) is not None), None)
            for v in u.virtuals]


def assert_decode_matches_reference(u, s, rng):
    """decode_receiver decodes exactly where ``_cancels`` does, to the word
    the reference XOR gives."""
    words = {i: rng.getrandbits(16) for i in range(1, s.num_messages + 1)}
    received = encode(s, words)
    for v in u.virtuals:
        for t, summands in enumerate(s.transmissions):
            others = _cancels(v, summands)
            if others is None:
                with pytest.raises(ValidationError, match="not decodable"):
                    decode_receiver(s, v, received, words, t)
                continue
            expected = received[t]
            for i in others:
                expected ^= words[i]
            side_words = {i: words[i] for i in v.has}
            assert decode_receiver(s, v, received, side_words, t) == expected == words[v.want]


def valid_and_invalid_schemes():
    """``(seed, inst, u, s)`` over 200 random instances: per instance its
    greedy scheme ``s`` on the deduped split ``u``, that scheme less its last
    transmission, and four random schemes."""
    rng = random.Random(77)
    for seed in range(200):
        n = rng.randint(1, 8)
        inst = random_instance(n, rng.randint(1, 6), (0.2, 0.5, 0.8, 1.0)[seed % 4],
                               (1, min(3, n)), seed=seed)
        u, solved = solve(inst, greedy_cover)
        schemes = [solved, CodingScheme(n, solved.transmissions[:-1])]
        for _ in range(4):
            schemes.append(CodingScheme(n, tuple(
                tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
                for _ in range(rng.randint(0, 4))
            )))
        for s in schemes:
            yield seed, inst, u, s


class TestAssignMatchesReference:
    def test_random_valid_and_invalid_schemes(self):
        outcomes = {True: 0, False: 0}
        for seed, inst, u, s in valid_and_invalid_schemes():
            for v_set in (u, split_groupcast(inst)):
                got = assign_transmissions(v_set, s)
                assert [None if pair is None else pair[0] for pair in got] == \
                    reference_assign_transmissions(v_set, s), (seed, s)
                for v, pair in zip(v_set.virtuals, got):
                    if pair is not None:
                        t, others = pair
                        assert others == frozenset(s.transmissions[t]) - {v.want}
                        assert v.has.issuperset(others)
                outcomes[None not in got] += 1
            assert_decode_matches_reference(u, s, random.Random(seed))
        assert min(outcomes.values()) > 300, outcomes

    def test_verify_scheme_assigns_then_runs_trials_only_when_all_assigned(self, monkeypatch):
        real_encode = scheme_module.encode

        def no_trial(s, words):
            raise AssertionError("a trial ran with an unassigned virtual")

        for seed, inst, u, s in valid_and_invalid_schemes():
            for v_set in (u, split_groupcast(inst)):
                assigned = assign_transmissions(v_set, s)
                complete = None not in assigned
                monkeypatch.setattr(scheme_module, "encode", real_encode if complete else no_trial)
                got = verify_scheme(v_set, s, trials=3, seed=seed, word_width=8)
                # a correct encode decodes every assigned virtual on every trial
                assert got == (assigned, None), (seed, s)
                assert verify_scheme_symbolic(v_set, s) == \
                    [idx for idx, pair in enumerate(assigned) if pair is None]
                if complete:
                    assert verify_scheme_random(v_set, s, trials=3, seed=seed, word_width=8) is None
                else:
                    with pytest.raises(ValidationError, match="symbolic"):
                        verify_scheme_random(v_set, s, trials=3, seed=seed, word_width=8)

    def test_verify_scheme_reports_what_the_random_check_does(self, example6, monkeypatch):
        real_encode = scheme_module.encode
        u, s = solve(example6)
        monkeypatch.setattr(scheme_module, "encode",
                            lambda s, words: (real_encode(s, words)[0] ^ 1 << 70,)
                            + real_encode(s, words)[1:])
        assigned, failure = verify_scheme(u, s, trials=4, seed=2)
        assert assigned == assign_transmissions(u, s)
        assert failure == verify_scheme_random(u, s, trials=4, seed=2)
        assert (failure.trial, failure.got ^ failure.expected) == (1, 1 << 6)
        assert failure.virtual == [t for t, _ in assigned].index(0)
        # the parameters are checked before anything is assigned
        with pytest.raises(ValidationError, match="trials must be at least 1"):
            verify_scheme(u, CodingScheme(6, ()), trials=0)


def reference_parse_scheme(data, num_messages):
    """Reference parse of decoded scheme JSON: every check in document
    order, each transmission walked id by id."""
    if not isinstance(data, dict):
        raise ValidationError("scheme must be a JSON object")
    if "transmissions" not in data:
        raise ValidationError("missing required key 'transmissions'")
    raw = data["transmissions"]
    if not isinstance(raw, list):
        raise ValidationError("'transmissions' must be an array")
    transmissions = []
    max_id = 0
    for t_idx, entry in enumerate(raw):
        if not isinstance(entry, list) or not entry:
            raise ValidationError(f"transmission {t_idx} must be a nonempty array")
        ids = set()
        for x in entry:
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise ValidationError(f"transmission {t_idx}: bad message id {x!r}")
            if x in ids:
                raise ValidationError(f"transmission {t_idx}: duplicate id {x}")
            ids.add(x)
        max_id = max(max_id, max(ids))
        transmissions.append(tuple(sorted(ids)))
    if "rate" in data:
        if not isinstance(data["rate"], int) or isinstance(data["rate"], bool):
            raise ValidationError("'rate' must be an integer")
        if data["rate"] != len(transmissions):
            raise ValidationError(
                f"declared rate {data['rate']} does not match "
                f"{len(transmissions)} transmissions"
            )
    if max_id > num_messages:
        raise ValidationError(f"message id {max_id} out of range [1, {num_messages}]")
    return CodingScheme(num_messages, tuple(transmissions))


# every error parse_scheme words, with the text it must keep
SCHEME_ERRORS = [
    ("[]", None, "scheme must be a JSON object"),
    ('{"rate": 0}', 3, "missing required key 'transmissions'"),
    ('{"transmissions": {}}', 3, "'transmissions' must be an array"),
    ('{"transmissions": [[1], 2]}', 3, "transmission 1 must be a nonempty array"),
    ('{"transmissions": [[]]}', 3, "transmission 0 must be a nonempty array"),
    ('{"transmissions": [[1, true]]}', 3, "transmission 0: bad message id True"),
    ('{"transmissions": [[2.0]]}', 3, "transmission 0: bad message id 2.0"),
    ('{"transmissions": [["1"]]}', 3, "transmission 0: bad message id '1'"),
    ('{"transmissions": [[[1]]]}', 3, "transmission 0: bad message id [1]"),
    ('{"transmissions": [[3], [1, 0]]}', 3, "transmission 1: bad message id 0"),
    ('{"transmissions": [[-2]]}', 3, "transmission 0: bad message id -2"),
    ('{"transmissions": [[2, 1, 2]]}', 3, "transmission 0: duplicate id 2"),
    ('{"transmissions": [[2], [1, 3, 1]]}', 3, "transmission 1: duplicate id 1"),
    ('{"rate": 2, "transmissions": [[1]]}', 3,
     "declared rate 2 does not match 1 transmissions"),
    ('{"rate": "1", "transmissions": [[1]]}', 3, "'rate' must be an integer"),
    ('{"rate": true, "transmissions": [[1]]}', 3, "'rate' must be an integer"),
    ('{"rate": 1.0, "transmissions": [[1]]}', 3, "'rate' must be an integer"),
    ('{"transmissions": [[1], [4, 2]]}', 3, "message id 4 out of range [1, 3]"),
    ('{"transmissions": [[1]]}', 0, "message id 1 out of range [1, 0]"),
]


class TestParseSchemeMatchesReference:
    @pytest.mark.parametrize("text, n, message", SCHEME_ERRORS)
    def test_every_error_keeps_its_words(self, text, n, message):
        data = json.loads(text)
        for parse in (lambda: parse_scheme(text, num_messages=n),
                      lambda: reference_parse_scheme(data, n)):
            with pytest.raises(ValidationError) as info:
                parse()
            assert str(info.value) == message

    @given(
        st.lists(st.lists(st.integers(-1, 7) | st.sampled_from([True, 1.0, "2"]), max_size=4),
                 max_size=4),
        st.none() | st.integers(0, 5) | st.sampled_from([1.0, True, "2"]),
        st.integers(0, 8),
    )
    def test_agrees_with_the_reference_walk(self, transmissions, rate, n):
        data = {"transmissions": transmissions}
        if rate is not None:
            data["rate"] = rate
        outcomes = []
        for parse in (lambda: parse_scheme(json.dumps(data), num_messages=n),
                      lambda: reference_parse_scheme(data, n)):
            try:
                outcomes.append(("built", parse()))
            except ValidationError as exc:
                outcomes.append(("raised", str(exc)))
        assert outcomes[0] == outcomes[1]
