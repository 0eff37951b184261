import json

from hypothesis import given, strategies as st

from indexcoding.jsontext import dumps

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
