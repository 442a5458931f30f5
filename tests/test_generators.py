"""The random-instance generators must produce what the differential
tests assume they produce."""

from random import Random

from posetcover.covers import is_balanced
from posetcover.posets import connectivity, rank_check

from generators import (
    all_posets,
    random_balanced_map,
    random_connected_graded_poset,
    random_graded_poset,
    random_sheaf_morphism,
    random_strongly_connected_poset,
)


def test_graded_posets_are_graded():
    rng = Random(71)
    for _ in range(30):
        p = random_graded_poset(rng)
        assert len(p.elements) <= 10
        rank_check(p)  # raises if not graded


def test_connected_filter():
    rng = Random(72)
    for _ in range(20):
        assert random_connected_graded_poset(rng).is_connected()


def test_strongly_connected_filter():
    rng = Random(73)
    for _ in range(10):
        p = random_strongly_connected_poset(rng)
        assert connectivity(p, "strong").connected


def test_sheaf_morphisms_are_combinatorial_open_onto():
    rng = Random(74)
    for _ in range(40):
        phi = random_sheaf_morphism(rng)
        assert phi.is_combinatorial()
        assert phi.is_open()
        assert phi.image(phi.source.elements) == frozenset(phi.target.elements)
        assert phi.target.is_connected()


def test_balanced_generator():
    rng = Random(75)
    produced = 0
    for _ in range(40):
        phi = random_sheaf_morphism(rng)
        m = random_balanced_map(rng, phi)
        if m is not None:
            produced += 1
            assert is_balanced(phi, m)
    assert produced >= 10


def test_all_posets_has_one_poset_per_isomorphism_class():
    # unlabelled posets on 1 .. 5 elements, OEIS A000112
    assert [sum(1 for _ in all_posets(n)) for n in range(1, 6)] == [1, 2, 5, 16, 63]
    assert all(len(p) == 4 for p in all_posets(4))
