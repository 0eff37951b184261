import json

from hypothesis import given, strategies as st

from indexcoding.jsontext import _entry_ints, dumps

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


# exact-int entries as solve's assignments and verify's virtuals hold them
int_entries = st.lists(
    st.builds(lambda a, b, w, t: {"origin": [a, b], "want": w, "transmission": t},
              ids, ids, ids, ids),
    min_size=1, max_size=6,
)


@given(int_entries)
def test_entry_list_matches_json_dumps(value):
    assert _entry_ints(value) is not None
    for wrapped in (value, {"assignments": value}, [[value]]):
        assert dumps(wrapped) == json.dumps(wrapped, indent=2)


ENTRY = {"origin": [1, 2], "want": 3, "transmission": 0}
# lists one off the entry shape; each must take the general path and still
# give the bytes of json.dumps
OFF_SHAPE = [
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


def test_off_shape_lists_fall_back():
    for value in OFF_SHAPE:
        assert _entry_ints(value) is None, value
        assert dumps(value) == json.dumps(value, indent=2), value
        assert dumps({"virtuals": value}) == json.dumps({"virtuals": value}, indent=2)
