"""fileio.dumps writes what json.dumps(sort_keys=True, indent=2,
ensure_ascii=False) writes, plus a final newline, for every document json
can write: nested empties, any code point (control characters and lone
surrogates included), ints of any size, bools next to ints, floats, tuples
and named tuples, dict subclasses and keys in any order.  Keys that are no
strings, and values json cannot write, raise TypeError."""

import json
from collections import Counter, OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from posetcover import fileio  # noqa: E402

Pair = namedtuple("Pair", "left right")

# every code point, with surrogates and control characters drawn often
TEXT = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs", "Cc"]),
               max_size=6)
SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([2 ** 64, -10 ** 80])
           | st.floats() | TEXT)
DOCS = st.recursive(SCALARS, lambda children: (
    st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.builds(Pair, children, children)
    | st.dictionaries(TEXT, children, max_size=4)
    | st.dictionaries(TEXT, children, max_size=4).map(lambda d: OrderedDict(reversed(d.items())))
    | st.dictionaries(TEXT, st.integers(), max_size=4).map(Counter)), max_leaves=20)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(DOCS)
@example({"b": [], "a": {}, "c": [[], {}, [{}]]})
@example(["\x00\x1f\x7f\"\\/", "\ud800", "\udfff", "é ü  "])
@example([True, 1, False, 0, None, 1.0, -0.0, float("nan"), float("inf"), -float("inf")])
@example({"z": Pair(1, (2, Pair("x", None))), "y": Counter(q=2, p=1)})
def test_dumps_writes_what_json_writes(doc):
    assert fileio.dumps(doc) == json.dumps(doc, sort_keys=True, indent=2,
                                           ensure_ascii=False) + "\n"


@pytest.mark.parametrize("doc", [{1: "a"}, {None: 1}, {True: 1}, {"a": {(1, 2): 3}},
                                 [{b"x": 1}], {"a": 1, 2: "b"}])
def test_a_key_that_is_no_string_raises_type_error(doc):
    with pytest.raises(TypeError):
        fileio.dumps(doc)


@pytest.mark.parametrize("doc", [object(), {"a": {1, 2}}, [Fraction(1, 2)], b"x"])
def test_a_value_json_cannot_write_raises_type_error(doc):
    with pytest.raises(TypeError):
        json.dumps(doc)
    with pytest.raises(TypeError):
        fileio.dumps(doc)


class Fields(dict):
    pass


class Rows(list):
    pass


class Text(str):
    def __str__(self):
        return "not the text"


class Count(int):
    def __repr__(self):
        return "not the number"


class Ratio(float):
    def __repr__(self):
        return "not the float"


class Backwards(list):
    def __iter__(self):
        return reversed(list(super().__iter__()))


class Level(IntEnum):
    LOW = 1
    HIGH = 2


# subclasses of every container and scalar, alone and inside exact ones:
# the writer takes only exact dicts and lists out of json's type order
DISPATCH = [
    Fields(b=1, a=[2]),
    Fields(),
    Rows(),
    Rows([Text("x"), Count(3), Ratio(0.5)]),
    {"outer": Fields(inner=Rows([Fields(z=Text("y"))]))},
    [Rows([1]), Fields(k=Backwards([1, 2, 3]))],
    OrderedDict([("b", 1), ("a", OrderedDict(d=2, c=[]))]),
    [Level.LOW, {"level": Level.HIGH}, Level],
    (1, (2, ()), [(), {}], ("x",)),
    {"a": Count(7), "b": [Text("")], "c": Ratio(2.0)},
    [object()],
    {"a": Fields(b={1, 2})},
    Fields(a=Rows([b"x"])),
]


@pytest.mark.parametrize("doc", DISPATCH, ids=range(len(DISPATCH)))
def test_the_type_dispatch_writes_what_json_writes(doc):
    try:
        expected = json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    except TypeError as exc:
        with pytest.raises(TypeError) as caught:
            fileio.dumps(doc)
        assert caught.value.args == exc.args
    else:
        assert fileio.dumps(doc) == expected


@pytest.mark.parametrize("doc", [Fields({1: "a"}), {"a": Fields({(1,): 2})},
                                 [OrderedDict([("a", 1), (None, 2)])], Fields({Level.LOW: 1})])
def test_a_key_that_is_no_string_in_a_dict_subclass_raises_type_error(doc):
    with pytest.raises(TypeError):
        fileio.dumps(doc)
