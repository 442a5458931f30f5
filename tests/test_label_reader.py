"""Sets of element names are read one way: every routine that takes a set
of labels reads it through one reader, which accepts exactly the elements
and names the least label that is none, whatever order the set is walked
in.  Sequences (cover pairs, a morphism's map, a path) still name their
first bad entry in input order."""

from itertools import combinations

import pytest

from posetcover import extend
from posetcover.covers import IndexMap, local_degree
from posetcover.errors import NotUpSet, UnknownElement, ValueMissing
from posetcover.fixtures import fix_trop, fix_trop_m
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset

from generators import all_posets
from oracles import brute_up_sets, reachability

# no poset below has these elements; the least of them is mm
GHOSTS = ["zz", "qq", "mm"]

# one poset per isomorphism class on 1 .. 4 elements
SMALL = [p for n in range(1, 5) for p in all_posets(n)]


def subsets(p):
    return [frozenset(s) for r in range(len(p) + 1) for s in combinations(p.elements, r)]


def test_the_reader_matches_the_oracles_on_every_small_poset():
    for p in SMALL:
        up_sets = set(brute_up_sets(p.elements, p.covers))
        leq = reachability(p.elements, p.covers)
        for s in subsets(p):
            assert p.up_set(s) == {b for a, b in leq if a in s}
            assert p.down_set(s) == {a for a, b in leq if b in s}
            if s in up_sets:
                assert p.require_up_set(s) == s
            else:
                with pytest.raises(NotUpSet) as info:
                    p.require_up_set(s)
                member = min(a for a, b in p.covers if a in s and b not in s)
                missing = min(b for a, b in p.covers if a == member and b not in s)
                assert (info.value.member, info.value.missing) == (member, missing)


def test_unknown_names_report_the_least_on_every_small_poset():
    readers = ["up_set", "down_set", "require_up_set", "components", "is_connected", "induced"]
    for p in SMALL:
        for s in subsets(p):
            for names in (GHOSTS + sorted(s), sorted(s, reverse=True) + GHOSTS[::-1]):
                for reader in readers:
                    with pytest.raises(UnknownElement) as info:
                        getattr(p, reader)(names)
                    assert info.value.element == "mm", (reader, names)


def two_to_one():
    """Two points below a top, onto a two-chain; values on the top only."""
    p = Poset(["x2", "x1", "y"], [("x1", "y"), ("x2", "y")])
    phi = PosetMorphism(p, Poset(["X", "Y"], [("X", "Y")]), {"x1": "X", "x2": "X", "y": "Y"})
    return phi, IndexMap(p, {"y": 1})


# every set-valued argument outside Poset, each given the ghosts around
# one real element
SET_ARGUMENTS = {
    "index map keys": lambda phi, m: IndexMap(phi.source, dict.fromkeys(GHOSTS + ["A1"], 1)),
    "restricted": lambda phi, m: m.restricted(GHOSTS + ["A1"]),
    "local_degree subset": lambda phi, m: local_degree(phi, m, GHOSTS + ["A1"], "A"),
    "image": lambda phi, m: phi.image(GHOSTS + ["A1"]),
    "preimage": lambda phi, m: phi.preimage(GHOSTS + ["A"]),
    "restrict_corestrict": lambda phi, m: phi.restrict_corestrict(GHOSTS + ["A1"]),
    "extend_balanced up-set": lambda phi, m: extend.extend_balanced(phi, m, GHOSTS + ["A1"]),
    "a generator": lambda phi, m: phi.source.up_set(iter(GHOSTS + ["A1"])),
}


@pytest.mark.parametrize("case", list(SET_ARGUMENTS))
def test_set_arguments_report_the_least_unknown_label(case):
    with pytest.raises(UnknownElement) as info:
        SET_ARGUMENTS[case](fix_trop(), fix_trop_m())
    assert info.value.element == "mm"


def test_local_degree_reports_the_least_element_without_a_value():
    phi, m = two_to_one()
    with pytest.raises(ValueMissing) as info:
        local_degree(phi, m, ["x2", "x1", "y"], "X")
    assert info.value.element == "x1"
    assert local_degree(phi, m, ["y"], "Y") == 1


def test_image_and_preimage_refuse_unknown_labels():
    phi, _ = two_to_one()
    assert phi.image(["x2", "y"]) == {"X", "Y"}
    assert phi.preimage(["X"]) == {"x1", "x2"}
    with pytest.raises(UnknownElement):
        phi.image(["X"])
    with pytest.raises(UnknownElement):
        phi.preimage(["x1"])


@pytest.mark.parametrize("labels,least", [
    (["zz", 1, ("t",)], 1),
    ([2.5, "x1"], 2.5),
    ([None, "mm", 0], None),
], ids=["int", "float", "none-and-int"])
def test_a_label_that_is_no_string_is_an_unknown_element(labels, least):
    # labels of different types do not compare: the least type name wins
    phi, _ = two_to_one()
    for read in (phi.source.up_set, phi.source.require_up_set, phi.image, phi.target.up_set,
                 phi.preimage):
        with pytest.raises(UnknownElement) as info:
            read(labels)
        assert info.value.element == least


def test_sequences_report_their_first_bad_entry():
    with pytest.raises(UnknownElement) as info:
        Poset(["a"], [("a", "zz"), ("a", "mm")])
    assert info.value.element == "zz"
    phi, _ = two_to_one()
    with pytest.raises(UnknownElement) as info:
        PosetMorphism(phi.source, phi.target, {"x1": "X", "x2": "zz", "y": "mm"})
    assert info.value.element == "zz"
