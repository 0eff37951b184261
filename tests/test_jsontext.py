import json

import pytest
from hypothesis import given, strategies as st

from indexcoding.jsontext import Entries, dumps

from helpers import entry_dicts

KEYS = (
    "num_messages", "rate", "transmissions", "solver", "dedup", "assignments",
    "origin", "want", "transmission", "virtual", "unsatisfied", "virtuals",
    "mais", "oracle", "gap", "counterexample", "wants", "has", "receivers",
)
ids = st.sampled_from([0, 1, 2, 10**12]) | st.integers(-3, 10**12)
scalars = (
    st.none() | st.booleans() | ids
    | st.sampled_from(["exact", "greedy", "", 'quote " back \\ slash', "line\nbreak", "é☃"])
    | st.floats(allow_nan=True, allow_infinity=True)
)
# entries shaped like solve's assignments and verify's virtuals, some of them
# off the shape the writer formats directly
entries = st.fixed_dictionaries({
    "origin": st.lists(ids, min_size=2, max_size=2) | st.lists(scalars, max_size=3),
    "want": ids | scalars,
    "transmission": ids | st.none(),
})
values = st.recursive(
    scalars | entries,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(ids, max_size=6)
        | st.lists(ids, max_size=3).map(tuple)
        | st.dictionaries(st.sampled_from(KEYS), inner, max_size=5)
        | st.dictionaries(st.integers(0, 3), inner, max_size=2)
    ),
    max_leaves=40,
)


@given(values)
def test_matches_json_dumps_indent_2(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_empty_and_nested_containers():
    for value in ([], {}, [[]], [[], [1]], {"a": []}, {"a": {}}, [{"origin": [], "want": 1}]):
        assert dumps(value) == json.dumps(value, indent=2)


# (origin, want, transmission) rows as solve's assignments and verify's
# virtuals hold them
int_rows = st.lists(st.tuples(st.tuples(ids, ids), ids, ids), max_size=6)


@given(int_rows)
def test_entry_rows_match_the_dict_form(rows):
    dicts = entry_dicts(rows)
    for wrap in (lambda e: e, lambda e: {"assignments": e, "rate": 1}, lambda e: [[e]]):
        assert dumps(wrap(Entries(rows))) == json.dumps(wrap(dicts), indent=2)


ROW = ((1, 2), 3, 0)
# rows off the ((int, int), int, int) shape: %d would misprint them, so the
# writer raises rather than write them
OFF_SHAPE_ROWS = [
    [ROW, ((1, 2), True, 0)],
    [((1, 2), 3, False)],
    [((1, True), 3, 0)],
    [ROW, ((1, 2), 3.0, 0)],
    [((1.5, 2), 3, 0)],
    [((1, 2), 3, None)],
    [((1, 2), "3", 0)],
    [((1,), 3, 0)],
    [ROW, ((1, 2, 3), 3, 0)],
    [((1, 2, 3), 3, 0)],
    [ROW, ((1, 2), 3)],
    [ROW, ((1, 2), 3, 0, 4)],
    [((1, 2), 3, 0, 4)],
    [ROW, ("ab", 3, 0)],
]


def test_off_shape_rows_raise():
    for rows in OFF_SHAPE_ROWS:
        with pytest.raises(TypeError):
            dumps({"virtuals": Entries(rows)})


ENTRY = {"origin": [1, 2], "want": 3, "transmission": 0}
# entry-like dicts, some off the entry shape; each is written by the general
# path and must still give the bytes of json.dumps
ENTRY_DICTS = [
    [ENTRY, {**ENTRY, "want": True}],
    [{**ENTRY, "transmission": False}],
    [{**ENTRY, "origin": [1, True]}],
    [ENTRY, {**ENTRY, "want": 3.0}],
    [{**ENTRY, "origin": [1.5, 2]}],
    [{"want": 3, "origin": [1, 2], "transmission": 0}],
    [ENTRY, {"origin": [1, 2], "transmission": 0, "want": 3}],
    [{"origin": [1, 2], "want": 3}],
    [ENTRY, {"origin": [1, 2], "want": 3, "transmission": 0, "extra": 1}],
    [{**ENTRY, "origin": [1, 2, 3]}],
    [{**ENTRY, "origin": (1, 2)}],
    [{**ENTRY, "transmission": None}],
    [ENTRY, 1],
    [1, ENTRY],
    [ENTRY, [1, 2]],
    [ENTRY, {"virtual": 0, "origin": [1, 1], "want": 1}],
    [ENTRY, None],
]


def test_entry_dicts_take_the_general_path():
    for value in ENTRY_DICTS:
        assert dumps(value) == json.dumps(value, indent=2), value
        assert dumps({"virtuals": value}) == json.dumps({"virtuals": value}, indent=2)
