import gc
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from indexcoding import (
    Instance,
    Receiver,
    ValidationError,
    parse_instance,
    serialize_instance,
)
from indexcoding import instance as instance_module
from indexcoding.generate import random_instance
from indexcoding.graph import bipartite_dot
from indexcoding.instance import (
    UnicastInstance, VirtualReceiver, _violations, instance_from_jsonable,
)
from indexcoding import pipeline as pipeline_module
from indexcoding.pipeline import SolveConfig, gap_report, solve_instance
from indexcoding.scheme import verify_scheme

from helpers import PACKAGE_ENV


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=6))
    receivers = []
    for _ in range(m):
        wants = draw(
            st.frozensets(st.integers(1, n), min_size=1, max_size=n)
        )
        rest = sorted(set(range(1, n + 1)) - wants)
        has = draw(st.frozensets(st.sampled_from(rest))) if rest else frozenset()
        receivers.append(Receiver(wants, frozenset(has)))
    return Instance(n, tuple(receivers))


class TestParseValidate:
    def test_parse_worked_example(self):
        text = json.dumps(
            {
                "num_messages": 6,
                "receivers": [
                    {"wants": [1], "has": [2, 3, 4]},
                    {"wants": [2], "has": [5]},
                    {"wants": [3], "has": [1, 4]},
                    {"wants": [4], "has": [1, 3]},
                    {"wants": [5], "has": [2, 6]},
                    {"wants": [6], "has": [4]},
                ],
            }
        )
        inst = parse_instance(text)
        assert inst.num_messages == 6
        assert len(inst.receivers) == 6
        assert inst.receivers[0] == Receiver.of({1}, {2, 3, 4})

    def test_wants_has_overlap_rejected(self):
        text = '{"num_messages": 3, "receivers": [{"wants": [1], "has": [1]}]}'
        with pytest.raises(ValidationError, match="overlap"):
            parse_instance(text)

    def test_empty_receiver_list_is_valid(self):
        inst = parse_instance('{"num_messages": 3, "receivers": []}')
        assert inst.num_messages == 3
        assert inst.receivers == ()

    def test_malformed_json(self):
        with pytest.raises(ValidationError, match="malformed JSON"):
            parse_instance("{nope")

    def test_duplicate_ids_rejected(self):
        text = '{"num_messages": 3, "receivers": [{"wants": [1, 1], "has": []}]}'
        with pytest.raises(ValidationError, match="duplicate"):
            parse_instance(text)

    def test_huge_duplicate_id_rejected(self):
        data = {"num_messages": 3, "receivers": [{"wants": [10**5000, 10**5000]}]}
        with pytest.raises(ValidationError) as info:
            instance_from_jsonable(data)
        assert str(info.value) == "receiver 1: 'wants' contains duplicate id <int of 16610 bits>"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown"):
            parse_instance('{"num_messages": 2, "receivers": [], "extra": 1}')

    def test_non_integer_id_rejected(self):
        text = '{"num_messages": 3, "receivers": [{"wants": ["a"], "has": []}]}'
        with pytest.raises(ValidationError, match="non-integer"):
            parse_instance(text)

    def test_missing_wants_rejected(self):
        with pytest.raises(ValidationError, match="missing 'wants'"):
            parse_instance('{"num_messages": 2, "receivers": [{"has": [1]}]}')

    def test_validate_reports_every_violation(self):
        with pytest.raises(ValidationError) as info:
            Instance.of(6, [(set(), set()), ({7}, {1}), ({2}, {2, 9})])
        messages = info.value.violations
        assert any("receiver 1: empty demand" in v for v in messages)
        assert any("receiver 2" in v and "out of range" in v for v in messages)
        assert any("receiver 3" in v and "overlap" in v for v in messages)
        assert any("receiver 3" in v and "9 out of range" in v for v in messages)

    def test_zero_messages_rejected(self):
        with pytest.raises(ValidationError) as info:
            Instance(0, ())
        assert info.value.violations == ["num_messages must be a positive integer"]

    @given(instances())
    def test_round_trip(self, inst):
        assert parse_instance(serialize_instance(inst)) == inst

    def test_round_trip_on_seeded_generator(self):
        for seed in range(25):
            inst = random_instance(5, 4, 0.5, (1, 3), seed=seed)
            assert parse_instance(serialize_instance(inst)) == inst

    def test_serialized_arrays_sorted(self):
        inst = Instance.of(4, [({3, 1}, {4, 2})])
        data = json.loads(serialize_instance(inst))
        assert data["receivers"][0]["wants"] == [1, 3]
        assert data["receivers"][0]["has"] == [2, 4]


def _check_id_array(value, where):
    if not isinstance(value, list):
        raise ValidationError(f"{where} must be an array of message ids")
    seen = set()
    for x in value:
        if not isinstance(x, int) or isinstance(x, bool):
            raise ValidationError(f"{where} contains non-integer entry {x!r}")
        if x in seen:
            raise ValidationError(f"{where} contains duplicate id {_reference_id_text(x)}")
        seen.add(x)
    return list(value)


def _reference_id_text(x):
    """The id in decimal, or its bit length past the interpreter's int-to-str limit."""
    try:
        return str(x)
    except ValueError:
        return f"<{type(x).__name__} of {x.bit_length()} bits>"


def reference_instance_from_jsonable(data):
    """Reference parse: every structural check in order, then the violation walk."""
    if not isinstance(data, dict):
        raise ValidationError("instance must be a JSON object")
    unknown = set(data) - {"num_messages", "receivers"}
    if unknown:
        raise ValidationError(f"unknown instance keys: {sorted(unknown)}")
    if "num_messages" not in data:
        raise ValidationError("missing required key 'num_messages'")
    n = data["num_messages"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValidationError("'num_messages' must be an integer")
    raw_receivers = data.get("receivers", [])
    if not isinstance(raw_receivers, list):
        raise ValidationError("'receivers' must be an array")
    receivers = []
    for j, entry in enumerate(raw_receivers, start=1):
        if not isinstance(entry, dict):
            raise ValidationError(f"receiver {j}: must be a JSON object")
        unknown = set(entry) - {"wants", "has"}
        if unknown:
            raise ValidationError(f"receiver {j}: unknown keys {sorted(unknown)}")
        if "wants" not in entry:
            raise ValidationError(f"receiver {j}: missing 'wants'")
        wants = _check_id_array(entry["wants"], f"receiver {j}: 'wants'")
        has = _check_id_array(entry.get("has", []), f"receiver {j}: 'has'")
        receivers.append(Receiver.of(wants, has))
    violations = _violations(n, tuple(receivers))
    if violations:
        raise ValidationError("invalid instance", violations)
    return Instance(n, tuple(receivers))


HUGE = 10**4999  # 5000 digits: past the interpreter's int-to-str limit
ODD_IDS = [True, False, 1.0, 2.5, "1", None, [1], {"id": 1}, 0, -1, HUGE, -HUGE]
ODD_ARRAYS = [{"id": 1}, "1, 2", 3, None, (1, 2)]


@st.composite
def decoded_instances(draw):
    """Decoded instance JSON: a valid instance with up to three mutations."""
    inst = draw(instances())
    data = {"num_messages": inst.num_messages, "receivers": []}
    for r in inst.receivers:
        entry = {"wants": draw(st.permutations(sorted(r.wants)))}
        if r.has or draw(st.booleans()):
            entry["has"] = draw(st.permutations(sorted(r.has)))
        data["receivers"].append(entry)
    for _ in range(draw(st.integers(0, 3))):
        receivers = data.get("receivers")
        entry = (
            draw(st.sampled_from(receivers))
            if isinstance(receivers, list) and receivers else None
        )
        arrays = [] if not isinstance(entry, dict) else [
            entry[k] for k in ("wants", "has") if isinstance(entry.get(k), list)
        ]
        ids = draw(st.sampled_from(arrays)) if arrays else None
        kind = draw(st.sampled_from([
            "odd_id", "duplicate", "out_of_range", "overlap", "empty_wants",
            "unknown_key", "odd_array", "odd_receiver", "odd_receivers",
            "odd_num_messages", "missing_key",
        ]))
        if kind == "odd_id" and ids is not None:
            ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ODD_IDS)))
        elif kind == "duplicate" and ids:
            ids.append(draw(st.sampled_from(ids)))
        elif kind == "out_of_range" and ids is not None:
            n = data.get("num_messages")
            ids.append(n + 1 if type(n) is int else 0)
        elif kind == "overlap" and arrays and isinstance(entry.get("wants"), list):
            entry.setdefault("has", [])
            if isinstance(entry["has"], list) and entry["wants"]:
                entry["has"].append(draw(st.sampled_from(entry["wants"])))
        elif kind == "empty_wants" and entry is not None and isinstance(entry, dict):
            entry["wants"] = []
        elif kind == "unknown_key":
            (entry if isinstance(entry, dict) and draw(st.booleans()) else data)["extra"] = 1
        elif kind == "odd_array" and isinstance(entry, dict):
            entry[draw(st.sampled_from(["wants", "has"]))] = draw(st.sampled_from(ODD_ARRAYS))
        elif kind == "odd_receiver" and entry is not None:
            receivers[receivers.index(entry)] = draw(st.sampled_from([[1], 1, "r", None]))
        elif kind == "odd_receivers":
            data["receivers"] = draw(st.sampled_from(ODD_ARRAYS))
        elif kind == "odd_num_messages":
            data["num_messages"] = draw(st.sampled_from([0, -3, True, 2.0, "3", None, HUGE]))
        elif kind == "missing_key":
            target = entry if isinstance(entry, dict) and draw(st.booleans()) else data
            if target:
                del target[draw(st.sampled_from(sorted(target)))]
    return data


def _outcome(parse, data):
    try:
        return ("built", parse(data))
    except ValidationError as exc:
        return ("raised", type(exc), str(exc), getattr(exc, "violations", None))


def _defect(change):
    data = {"num_messages": 4, "receivers": [
        {"wants": [1, 2], "has": [3]}, {"wants": [4], "has": [1, 2]},
    ]}
    change(data)
    return data


ONE_DEFECT = [  # one per mutation kind of decoded_instances
    *[_defect(lambda d, x=x: d["receivers"][1]["has"].append(x)) for x in ODD_IDS],
    _defect(lambda d: d["receivers"][0]["wants"].append(2)),
    _defect(lambda d: d["receivers"][1]["has"].append(1)),
    _defect(lambda d: d["receivers"][0]["has"].append(5)),
    _defect(lambda d: d["receivers"][1]["has"].append(4)),
    _defect(lambda d: d["receivers"][1].update(wants=[])),
    _defect(lambda d: d.update(extra=1)),
    _defect(lambda d: d["receivers"][0].update(extra=1)),
    *[_defect(lambda d, x=x: d["receivers"][0].update(has=x)) for x in ODD_ARRAYS],
    *[_defect(lambda d, x=x: d["receivers"].__setitem__(1, x)) for x in ([1], 1, "r", None)],
    *[_defect(lambda d, x=x: d.update(receivers=x)) for x in ODD_ARRAYS],
    *[_defect(lambda d, x=x: d.update(num_messages=x)) for x in (0, -3, True, 2.0, "3", None)],
    _defect(lambda d: d.update(num_messages=HUGE)),  # valid
    _defect(lambda d: d.pop("num_messages")),
    _defect(lambda d: d.pop("receivers")),  # valid
    _defect(lambda d: d["receivers"][0].pop("wants")),
    _defect(lambda d: d["receivers"][0].pop("has")),  # valid
]
# odd ids that the C-speed tests of the parse let through to the constructor:
# True next to a 1 of another receiver, and odd ids followed by a defect of a
# later receiver, where the earlier receiver's structural defect is named first
ORDER_DEFECTS = [_defect(lambda d: d["receivers"][1].update(has=[2, True]))] + [
    _defect(lambda d, first=first, then=then: (first(d["receivers"][0]), then(d["receivers"][1])))
    for first, then in [
        (lambda r: r["has"].append(True), lambda r: r.update(x=1)),
        (lambda r: r["wants"].append(2.5), lambda r: r["has"].append([1])),
        (lambda r: r["has"].append("a"), lambda r: r["has"].append(1)),
        (lambda r: r["has"].append(HUGE), lambda r: r["has"].append(None)),
        (lambda r: r["has"].append(5), lambda r: r.pop("wants")),
    ]
]


class TestParseEquivalence:
    @settings(max_examples=300)
    @given(decoded_instances())
    def test_matches_reference_parse(self, data):
        want = _outcome(reference_instance_from_jsonable, data)
        assert _outcome(instance_from_jsonable, data) == want

    @pytest.mark.parametrize("data", ONE_DEFECT + ORDER_DEFECTS + [[], 3, None])
    def test_each_defect_matches_reference_parse(self, data):
        want = _outcome(reference_instance_from_jsonable, data)
        assert _outcome(instance_from_jsonable, data) == want
        if not isinstance(data, dict):
            assert want[2] == "instance must be a JSON object"

    def test_every_violation_in_order(self):
        data = {"num_messages": 3, "receivers": [
            {"wants": [], "has": [5, 0]},
            {"wants": [2, 4], "has": [2]},
        ]}
        with pytest.raises(ValidationError) as info:
            instance_from_jsonable(data)
        assert info.value.violations == [
            "receiver 1: empty demand",
            "receiver 1: has id 0 out of range [1, 3]",
            "receiver 1: has id 5 out of range [1, 3]",
            "receiver 2: wants id 4 out of range [1, 3]",
            "receiver 2: wants/has overlap on [2]",
        ]


class HugeInt(int):
    """An int subclass, so an id of this type is listed by its ``repr``."""


class TestValidateOnce:
    def test_parsed_instance_is_not_validated_again(self, monkeypatch):
        calls = []
        check = Instance.__new__
        monkeypatch.setattr(Instance, "__new__",
                            lambda cls, *fields: calls.append(fields) or check(cls, *fields))
        inst = parse_instance('{"num_messages": 2, "receivers": [{"wants": [1], "has": [2]}]}')
        assert calls == [tuple(inst)]
        UnicastInstance(inst)
        assert calls == [tuple(inst)]
        UnicastInstance(inst._replace())
        assert len(calls) == 2
        # a failing parse builds one Instance and lists its violations once
        walks = []
        monkeypatch.setattr(instance_module, "_violations",
                            lambda *fields: walks.append(fields) or _violations(*fields))
        calls.clear()
        with pytest.raises(ValidationError) as info:
            parse_instance('{"num_messages": 2, "receivers": [{"wants": [1], "has": [3]}]}')
        assert info.value.violations == ["receiver 1: has id 3 out of range [1, 2]"]
        assert (len(calls), len(walks)) == (1, 1)
        # a structural defect fails the C-speed tests: no Instance, no violations
        with pytest.raises(ValidationError, match=r"non-integer entry \[3\]"):
            parse_instance('{"num_messages": 2, "receivers": [{"wants": [1], "has": [[3], 2.5]}]}')
        assert (len(calls), len(walks)) == (1, 1)

    def test_replace_of_a_parsed_instance_is_validated_again(self):
        inst = parse_instance('{"num_messages": 3, "receivers": [{"wants": [1], "has": [2, 3]}]}')
        with pytest.raises(ValidationError) as info:
            inst._replace(num_messages=2)
        assert str(info.value) == "invalid instance: receiver 1: has id 3 out of range [1, 2]"
        assert info.value.violations == ["receiver 1: has id 3 out of range [1, 2]"]
        with pytest.raises(ValidationError) as info:
            inst._replace(receivers=(Receiver.of({1}, {1}),))
        assert info.value.violations == ["receiver 1: wants/has overlap on [1]"]

    @pytest.mark.parametrize("build, violations", [
        (lambda: Instance(0, ()), ["num_messages must be a positive integer"]),
        (lambda: Instance(True, (Receiver.of({1}),)), ["num_messages must be a positive integer"]),
        (lambda: Instance(2.0, ()), ["num_messages must be a positive integer"]),
        (lambda: Instance.of(3, [(set(), {1})]), ["receiver 1: empty demand"]),
        (lambda: Instance(3, (Receiver(frozenset({"a"}), frozenset()),)),
         ["receiver 1: wants contains non-integer id 'a'"]),
        (lambda: Instance(3, (Receiver(frozenset({2}), frozenset({True})),)),
         ["receiver 1: has contains non-integer id True"]),
        (lambda: Instance.of(3, [({1}, {2}), ({2}, {True})]),  # True equals the 1 of receiver 1
         ["receiver 2: has contains non-integer id True"]),
        (lambda: Instance.of(3, [({4}, {0})]), ["receiver 1: wants id 4 out of range [1, 3]",
                                                "receiver 1: has id 0 out of range [1, 3]"]),
        (lambda: Instance.of(3, [({1, 2}, {2, 3})]), ["receiver 1: wants/has overlap on [2]"]),
        # ids that do not compare: ints listed first, never sorted with the others
        (lambda: Instance.of(3, [({"a", 1}, ())]), ["receiver 1: wants contains non-integer id 'a'"]),
        (lambda: Instance.of(3, [({1, "a"}, {"a", 1})]), ["receiver 1: wants contains non-integer id 'a'",
         "receiver 1: has contains non-integer id 'a'", "receiver 1: wants/has overlap on [1, 'a']"]),
        # fields that are not frozensets could be mutated into an overlap later
        (lambda: Instance(3, (Receiver({1}, {2}),)), ["receiver 1: wants must be a frozenset, not set",
                                                      "receiver 1: has must be a frozenset, not set"]),
        (lambda: Instance(3, (Receiver([1], [2]),)), ["receiver 1: wants must be a frozenset, not list",
                                                      "receiver 1: has must be a frozenset, not list"]),
        (lambda: Instance(2, [Receiver.of({1}, {2})]), ["receivers must be a tuple, not list"]),
        (lambda: Instance(2, None), ["receivers must be a tuple, not NoneType"]),
        (lambda: Instance(2, (("a", "b"),)), ["receiver 1: must be a Receiver, not tuple"]),
        # ints with more digits than Python prints are named by their bit length
        (lambda: Instance.of(3, [({10**5000}, ())]),
         ["receiver 1: wants id <int of 16610 bits> out of range [1, 3]"]),
        (lambda: Instance.of(3, [({HugeInt(10**5000), "a"}, ())]),
         ["receiver 1: wants contains non-integer id <HugeInt of 16610 bits>",
          "receiver 1: wants contains non-integer id 'a'"]),
        (lambda: Instance.of(10**5000, [({0}, ())]),
         ["receiver 1: wants id 0 out of range [1, <int of 16610 bits>]"]),
        (lambda: Instance.of(3, [({10**5000}, {10**5000})]),
         ["receiver 1: wants id <int of 16610 bits> out of range [1, 3]",
          "receiver 1: has id <int of 16610 bits> out of range [1, 3]",
          "receiver 1: wants/has overlap on [<int of 16610 bits>]"]),
        # bad ids, also after a valid receiver: no split form can be made from them
        (lambda: Instance.of(3, [({1}, {0}), ({2}, {7})]), ["receiver 1: has id 0 out of range [1, 3]",
                                                          "receiver 2: has id 7 out of range [1, 3]"]),
        (lambda: Instance.of(3, [({1}, {2}), ({2}, {-2})]), ["receiver 2: has id -2 out of range [1, 3]"]),
        (lambda: Instance.of(3, [({1}, {2, 3}), ({2}, {4})]), ["receiver 2: has id 4 out of range [1, 3]"]),
        (lambda: Instance.of(3, [({1}, {2}), ({5}, {1})]), ["receiver 2: wants id 5 out of range [1, 3]"]),
        (lambda: Instance.of(3, [({0}, {2}), ({1}, ())]), ["receiver 1: wants id 0 out of range [1, 3]"]),
        (lambda: Instance.of(3, [({1}, {"a"})]), ["receiver 1: has contains non-integer id 'a'"]),
        (lambda: Instance.of(3, [({True}, ())]), ["receiver 1: wants contains non-integer id True"]),
        (lambda: Instance.of(3, [({None}, {2})]), ["receiver 1: wants contains non-integer id None"]),
        # a want above n held as its own side information: no rate decodes it
        (lambda: Instance.of(3, [({5}, {5})]), ["receiver 1: wants id 5 out of range [1, 3]",
                                                "receiver 1: has id 5 out of range [1, 3]",
                                                "receiver 1: wants/has overlap on [5]"]),
    ])
    def test_hand_built_instance_raises_every_violation(self, build, violations):
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == "invalid instance: " + "; ".join(violations)
        assert info.value.violations == violations

    def test_invalid_instance_reaches_no_output(self):
        # it used to serialize to JSON the parser rejects, and to draw edges
        # r1 -- m9 and r1 -- m5 to message nodes the diagram does not have
        with pytest.raises(ValidationError) as info:
            serialize_instance(Instance.of(2, [({5}, {9})]))
        assert info.value.violations == [
            "receiver 1: wants id 5 out of range [1, 2]",
            "receiver 1: has id 9 out of range [1, 2]",
        ]
        with pytest.raises(ValidationError):
            bipartite_dot(Instance.of(2, [({5}, {9})]))


ODD_NUM_MESSAGES = [0, -1, True, False, 2.0, "3", None]
# odd id sets, 0 and n + 1 among the ints, mixing ids that do not compare
ODD_IDS_SET = st.frozensets(
    st.integers(-1, 7) | st.sampled_from([True, False, 1.0, 2.5, "a", "b", None]), max_size=4
)


@st.composite
def hand_built(draw):
    """Fields for ``Instance``: each drawn valid or, often, not, down to its types."""
    n = draw(st.integers(1, 6) | st.sampled_from(ODD_NUM_MESSAGES))
    valid = type(n) is int and n >= 1
    ids = st.frozensets(st.integers(1, n), max_size=4) if valid else ODD_IDS_SET
    ids = ids | ODD_IDS_SET if draw(st.booleans()) else ids
    receiver, container = st.builds(Receiver, ids, ids), tuple
    if draw(st.booleans()):  # odd shapes: set or list fields, pairs, a list of receivers
        field = ids | ids.map(set) | ids.map(list)
        receiver = st.builds(Receiver, field, field) | st.tuples(field, field)
        container = draw(st.sampled_from([tuple, list]))
    return n, container(draw(st.lists(receiver, max_size=4)))


class TestConstructorMatchesWalk:
    @settings(max_examples=500)
    @given(hand_built())
    def test_raises_exactly_when_the_walk_lists_a_violation(self, fields):
        walk = _violations(*fields)
        if not walk:
            assert Instance(*fields).receivers == fields[1]
            return
        with pytest.raises(ValidationError) as info:
            Instance(*fields)
        assert str(info.value) == "invalid instance: " + "; ".join(walk)
        assert info.value.violations == walk


class TestSplit:
    def test_split_groupcast_pair(self, groupcast3):
        u = UnicastInstance(groupcast3)
        got = [(v.want, set(v.has), v.origin) for v in u.virtuals]
        assert got == [
            (1, {2, 3}, (1, 1)),
            (2, {1}, (2, 1)),
            (3, {1}, (2, 2)),
        ]

    def test_split_already_unicast_identity(self, example6):
        u = UnicastInstance(example6)
        assert len(u.virtuals) == 6
        for v, r in zip(u.virtuals, example6.receivers):
            assert {v.want} == set(r.wants)
            assert v.has == r.has

    def test_split_duplicate_demands(self):
        inst = Instance.of(3, [({1, 2}, {3}), ({1, 2}, {3})])
        u = UnicastInstance(inst)
        keys = [(v.want, v.has) for v in u.virtuals]
        assert len(u.virtuals) == 4
        assert keys[0] == keys[2] and keys[1] == keys[3]

    def test_split_rejects_invalid(self):
        with pytest.raises(ValidationError):
            UnicastInstance(Instance.of(2, [({1}, {1})]))

    @pytest.mark.parametrize("args, types", [
        # the old call, which took virtuals built by hand
        (lambda inst: (3, (VirtualReceiver(1, frozenset({2}), (1, 1)),)), "int and tuple"),
        (lambda inst: (UnicastInstance(inst),), "UnicastInstance and bool"),
        (lambda inst: (json.loads(serialize_instance(inst)),), "dict and bool"),
        (lambda inst: (inst, 1), "Instance and int"),
        (lambda inst: (inst, 0), "Instance and int"),
        (lambda inst: (inst, None), "Instance and NoneType"),
        (lambda inst: (inst, "yes"), "Instance and str"),
    ], ids=["old call", "split form", "json", "dedup 1", "dedup 0", "dedup None", "dedup str"])
    def test_split_form_is_made_only_from_an_instance(self, example6, args, types):
        with pytest.raises(ValidationError) as info:
            UnicastInstance(*args(example6))
        assert str(info.value) == f"a split form takes an Instance and a bool dedup flag, not {types}"

    @pytest.mark.parametrize("flag", [False, True], ids=["split", "dedup"])
    @given(inst=instances())
    def test_split_ids_are_in_range(self, flag, inst):
        # the graph and the oracle read these ids without checking them
        u = UnicastInstance(inst, flag)
        n = u.num_messages
        for v in u.virtuals:
            assert type(v.want) is int and 1 <= v.want <= n
            assert all(type(i) is int and 1 <= i <= n for i in v.has)
            assert v.want not in v.has

    @given(instances())
    def test_split_count_and_faithfulness(self, inst):
        u = UnicastInstance(inst)
        assert len(u.virtuals) == sum(len(r.wants) for r in inst.receivers)
        per_receiver: dict[int, list[int]] = {}
        for v in u.virtuals:
            j, _ = v.origin
            assert v.has == inst.receivers[j - 1].has
            assert v.want in inst.receivers[j - 1].wants
            per_receiver.setdefault(j, []).append(v.want)
        for j, r in enumerate(inst.receivers, start=1):
            assert sorted(per_receiver.get(j, [])) == sorted(r.wants)


class TestDedup:
    def test_dedup_duplicate_pairs(self):
        inst = Instance.of(3, [({1, 2}, {3}), ({1, 2}, {3})])
        u = UnicastInstance(inst, True)
        assert len(u.virtuals) == 2
        assert u.dedup_map == {2: 0, 3: 1}

    def test_dedup_all_distinct_is_noop(self, example6):
        u = UnicastInstance(example6, True)
        assert len(u.virtuals) == 6
        assert u.dedup_map == {}

    def test_dedup_three_identical(self):
        inst = Instance.of(2, [({1}, {2})] * 3)
        u = UnicastInstance(inst, True)
        assert len(u.virtuals) == 1
        assert u.dedup_map == {1: 0, 2: 0}

    @given(instances())
    def test_dedup_keeps_first_occurrences(self, inst):
        pre = UnicastInstance(inst)
        post = UnicastInstance(inst, True)
        assert len({(v.want, v.has) for v in post.virtuals}) == len(post.virtuals)
        for removed, rep in post.dedup_map.items():
            assert rep < removed
            assert (pre.virtuals[removed].want, pre.virtuals[removed].has) == (
                pre.virtuals[rep].want,
                pre.virtuals[rep].has,
            )
        assert len(post.virtuals) + len(post.dedup_map) == len(pre.virtuals)
        assert post.demands == pre.virtuals
        assert post.virtuals == tuple(
            v for i, v in enumerate(post.demands) if i not in post.dedup_map)


class TestOneSplit:
    @pytest.mark.parametrize("flag", [False, True], ids=["no dedup", "dedup"])
    def test_one_split_feeds_the_graph_and_the_assignments(self, flag, monkeypatch):
        inst = Instance.of(3, [({1, 2}, {3}), ({1, 2}, {3}), ({3}, {1})])
        made = []
        monkeypatch.setattr(pipeline_module, "UnicastInstance",
                            lambda *args: made.append(UnicastInstance(*args)) or made[-1])
        outcome = solve_instance(inst, SolveConfig(dedup=flag))
        # solve makes one split form, and the cover reads its rows
        [u] = made
        assert u == UnicastInstance(inst, flag) and u.dedup is flag
        assert "adjacency" in vars(u)
        assert u.demands == UnicastInstance(inst).virtuals
        assert len(u.virtuals) == (3 if flag else 5)
        assert u.vertex_count == len(u.virtuals) == len(u.adjacency)
        assert [(origin, want) for origin, want, _ in outcome.assignments] == [
            (v.origin, v.want) for v in u.demands]
        if flag:
            # a removed duplicate is sent by the transmission of the one it repeats
            parts = [part for _, _, part in outcome.assignments]
            assert parts[2:4] == parts[0:2]

    def test_no_strict_rule_to_pass(self):
        # equal wants are always joined: the duplicates kept by dedup=False
        # share one part, and neither the split form nor SolveConfig takes a
        # strict flag
        inst = Instance.of(2, [({1}, set()), ({1}, {2})])
        u = UnicastInstance(inst, dedup=False)
        assert u.edges() == [(0, 1)]
        assert solve_instance(inst, SolveConfig(dedup=False)).scheme.rate == 1
        with pytest.raises(TypeError):
            UnicastInstance(inst, False, True)
        with pytest.raises(TypeError):
            SolveConfig(strict_cross_neighbor=True)


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's free lists")
class TestTupleFreeLists:
    """A request leaves CPython's tuple free lists as it found them: each
    tuple it frees goes back onto the list of the size it was taken at, so
    the allocated blocks stay flat however many requests run with the
    collector off (``cli.main`` runs each command so)."""

    AUDIT_GAP = [random_instance(7, 10, 0.4, (1, 2), seed=s) for s in range(20)]
    # 12 messages and 8 receivers: 5 to 10 components each
    MULTI = [random_instance(12, 8, 0.15, (1, 2), seed=s) for s in range(20)]
    # every has set over 2/3 of the wanted ones: the arcs walk the wanted ids it lacks
    DENSE = [random_instance(12, 8, 0.9, (1, 2), seed=s) for s in range(20)]

    @staticmethod
    def growth(call, pool, calls=1000):
        """Allocated blocks gained over ``calls`` calls, after a warm-up."""
        gc.collect()
        gc.disable()
        try:
            for args in pool:
                call(*args)
            # fill the lists a request may still add to, up to their caps: the
            # dict and list free lists (80 each), and CPython 3.11's list of
            # 20-item tuples, which it frees onto but never takes from; no
            # tuple of another size is freed here
            parked = ([tuple([k] * 20) for k in range(2000)],
                      [{k: k} for k in range(100)], [[k] for k in range(100)])
            del parked
            before = sys.getallocatedblocks()
            for k in range(calls):
                call(*pool[k % len(pool)])
            return sys.getallocatedblocks() - before
        finally:
            gc.enable()

    @pytest.mark.parametrize("shape", ["AUDIT_GAP", "MULTI", "DENSE"])
    def test_gap_solve_verify_and_parse_hold_no_blocks(self, shape):
        pool = getattr(self, shape)
        texts = [(serialize_instance(inst),) for inst in pool]
        schemes = [(inst, solve_instance(inst).scheme) for inst in pool]

        def verify(inst, scheme):  # the CLI's verify: split, then one call
            return verify_scheme(UnicastInstance(inst, True), scheme, 20)

        for call, args in ((parse_instance, texts), (gap_report, [(i,) for i in pool]),
                           (solve_instance, [(i,) for i in pool]), (verify, schemes)):
            # a tuple built from an iterator gained about 4 blocks per gap_report
            assert self.growth(call, args) < 40, call


    def test_validation_frees_no_twenty_item_tuple(self):
        # at m = 10 a 2m-item argument tuple would go onto CPython 3.11's list
        # of 20-item tuples, which nothing takes from; this session has filled
        # that list already, so a fresh interpreter counts the blocks
        script = (
            "import gc, sys\n"
            "from indexcoding.generate import random_instance\n"
            "from indexcoding.instance import Instance\n"
            "pool = [random_instance(7, 10, 0.4, (1, 2), seed=s) for s in range(50)]\n"
            "gc.collect(); gc.disable()\n"
            "before = sys.getallocatedblocks()\n"
            "for k in range(1500):\n"
            "    Instance(pool[k % 50].num_messages, pool[k % 50].receivers)\n"
            "print(sys.getallocatedblocks() - before)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=PACKAGE_ENV, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # the argument tuples of chain(*wants, *has) and union(*wants, *has) left 2000
        assert int(proc.stdout) < 100


def pairwise_arcs(virtuals):
    """Reference side-information digraph: arc p -> q iff q's want is in p's
    ``has``, one test per ordered pair; W and H one pass per message, H only
    for the messages some virtual wants (no other makes an arc)."""
    wanted_by, held_by = {}, {}
    for i in {v.want for v in virtuals}:
        wanted_by[i] = sum(1 << p for p, v in enumerate(virtuals) if v.want == i)
        holding = sum(1 << p for p, v in enumerate(virtuals) if i in v.has)
        if holding:
            held_by[i] = holding
    out = tuple(sum(1 << q for q, vq in enumerate(virtuals) if vq.want in vp.has)
                for vp in virtuals)
    return wanted_by, held_by, out


def walks(u):
    """The sides the arcs build walks: True for a ``has`` over 2/3 the size of
    the wanted set (the wanted messages it lacks), False for ``has`` itself."""
    wanted = {v.want for v in u.virtuals}
    return {3 * len(v.has) > 2 * len(wanted) for v in u.virtuals}


def many_unwanted(step):
    """2000 messages, wants in 1..5: receiver j wants 1 + j % 5 and holds one
    other wanted id and every ``step``-th id of 6 + j..2000, all unwanted."""
    return Instance.of(2000, [
        ({1 + j % 5}, {1 + (j + 1 + j // 5 % 4) % 5, *range(6 + j, 2001, step)})
        for j in range(24)
    ])


class TestArcs:
    @settings(max_examples=150)
    @example(n=3, m=0, density=0.5, hi=1, seed=0)  # 0 virtuals
    @example(n=300, m=3, density=0.5, hi=2, seed=0)  # n far above the wanted count
    @given(st.integers(1, 12) | st.integers(13, 300), st.integers(0, 14),
           st.sampled_from((0.0, 0.2, 0.5, 0.8, 1.0)), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    def test_arcs_match_the_pairwise_reference(self, n, m, density, hi, seed):
        inst = random_instance(n, m, density, (1, min(hi, n)), seed=seed)
        for flag in (False, True):
            u = UnicastInstance(inst, flag)
            assert u.arcs == pairwise_arcs(u.virtuals)
            k = len(u.virtuals)
            assert u.edges() == [
                (p, q) for p in range(k) for q in range(p + 1, k) if u.adjacency[p] >> q & 1
            ]

    @pytest.mark.parametrize("build, sides", [
        (lambda s: random_instance(10, 12, 1.0, (1, 2), seed=s), {True}),
        (lambda s: random_instance(16, 20, 0.8, (1, 2), seed=2 * s), {True}),
        (lambda s: random_instance(20, 30, 0.2, (1, 2), seed=s), {False}),
        (lambda s: random_instance(30, 40, 0.65, (1, 2), seed=s), {False, True}),
        (lambda s: many_unwanted(1 + s), {True}),  # 986 to 1995 unwanted ids each
        (lambda s: many_unwanted(2000 + s), {False}),  # one unwanted id each
    ], ids=["dense-1.0", "dense-0.8", "sparse", "mixed", "unwanted-dense", "unwanted-sparse"])
    def test_each_walk_matches_the_pairwise_reference(self, build, sides):
        for seed in range(2):
            inst = build(seed)
            for flag in (False, True):
                u = UnicastInstance(inst, flag)
                assert walks(u) == sides
                assert u.arcs == pairwise_arcs(u.virtuals)
