"""Morphism validation, the combinatorial test, fibres, components,
openness, restriction."""

import pytest
from collections import Counter
from random import Random

from posetcover.covers import IndexMap, is_ibc, is_ibc_oracle
from posetcover.errors import NotMonotone, NotUpSet, UnknownElement
from posetcover.fixtures import (
    FIX_LIFT_UPSET,
    fix_ce1,
    fix_lift,
    fix_open,
    fix_trop,
    fix_trop_m,
)
from posetcover.metric import MetricGraphMorphism, graph_face_poset, morphism_face_poset
from posetcover.fixtures import fix_graph
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset, rank_check
from posetcover.subdivision import bcs_morphism, chain_poset

from generators import random_graded_poset, random_sheaf_morphism
from oracles import is_forest, reachability
from test_posets import random_graph


def least_failing_cover(source, target, mapping):
    """By brute force: the least cover pair of the source whose images are
    not ordered in the target, or None for a monotone map."""
    leq = reachability(target.elements, target.covers)
    return min(((a, b) for a, b in source.covers if (mapping[a], mapping[b]) not in leq),
               default=None)


class TestBuild:
    def test_fixture_morphism_valid(self):
        phi = fix_trop()
        assert phi("C2") == "C" and phi("t2") == "t"

    def test_identity(self):
        p = fix_trop().target
        ident = PosetMorphism.identity(p)
        assert all(ident(x) == x for x in p.elements)

    def test_not_monotone(self):
        chain = Poset(["A", "B"], [("A", "B")])
        antichain = Poset(["X", "Y"], [])
        with pytest.raises(NotMonotone) as err:
            PosetMorphism(chain, antichain, {"A": "X", "B": "Y"})
        assert err.value.pair == ("A", "B")

    def test_least_failing_cover_reported(self):
        # both covers reverse; the least pair is reported, not the first given
        source = Poset(["c", "d", "a", "b"], [("c", "d"), ("a", "b")])
        chain = Poset(["X", "Y"], [("X", "Y")])
        with pytest.raises(NotMonotone) as err:
            PosetMorphism(source, chain, {"a": "Y", "b": "X", "c": "Y", "d": "X"})
        assert err.value.pair == ("a", "b")

    def test_not_monotone_names_the_least_failing_cover_pair(self):
        # random label maps onto graded posets, chain posets and face posets
        # (the last two are built without their closure), half of them
        # monotone by construction, so that covers also land two or more
        # ranks apart; the target's closure is built exactly when a cover's
        # image is neither its lower end's image nor a cover of it
        rng = Random(3101)
        kinds = Counter()
        for trial in range(600):
            kind = ("graded", "chains", "faces")[trial % 3]
            if kind == "graded":
                target = random_graded_poset(rng, max_elements=7, max_rank=3)
            elif kind == "chains":
                target = chain_poset(random_graded_poset(rng, max_elements=6, max_rank=3)).poset
            else:
                target = graph_face_poset(random_graph(rng))
            leq = reachability(target.elements, target.covers)
            source = random_graded_poset(rng, max_elements=7, max_rank=3)
            targets = sorted(target.elements)
            mapping = {}
            # the labels r<rank>n<i> sort lower covers first
            for x in sorted(source.elements):
                bounds = [t for t in targets
                          if all((mapping[a], t) in leq for a, b in source.covers if b == x)]
                mapping[x] = rng.choice(bounds if bounds and trial % 2 else targets)
            pairs = {(mapping[a], mapping[b]) for a, b in source.covers}
            far = {(y, z) for y, z in pairs if y != z and (y, z) not in target.covers}
            closed = "_above" in vars(target)
            expected = least_failing_cover(source, target, mapping)
            if expected is None:
                PosetMorphism(source, target, mapping)
            else:
                with pytest.raises(NotMonotone) as err:
                    PosetMorphism(source, target, mapping)
                assert err.value.pair == expected
            assert ("_above" in vars(target)) == (closed or bool(far))
            kinds[kind, expected is None, bool(far)] += 1
        # a face poset has two ranks, so only a failing cover skips one
        assert kinds["graded", True, True] and kinds["chains", True, True]
        for kind in ("graded", "chains", "faces"):
            assert kinds[kind, False, True], kind
        assert kinds["chains", True, False] and kinds["faces", True, False]

    def test_partial_map_rejected(self):
        chain = Poset(["A", "B"], [("A", "B")])
        with pytest.raises(UnknownElement):
            PosetMorphism(chain, chain, {"A": "A"})

    def test_a_key_outside_the_source_is_named(self):
        chain = Poset(["A", "B"], [("A", "B")])
        with pytest.raises(UnknownElement) as err:
            PosetMorphism(chain, chain, {"A": "A", "B": "B", "C": "B"})
        assert err.value.element == "C"


class TestCombinatorial:
    def test_trop_is_combinatorial(self):
        assert fix_trop().is_combinatorial()

    def test_ce1_witness(self):
        check = fix_ce1().is_combinatorial()
        assert not check
        w = check.witnesses[0]
        assert w.alpha == "B1" and w.reason == "not injective"

    def test_identity(self):
        assert PosetMorphism.identity(fix_trop().source).is_combinatorial()

    def test_inverse_not_monotone(self):
        # bijective and monotone on the down-set, but the inverse reverses
        # the only strict relation
        source = Poset(["p", "q", "a"], [("p", "a"), ("q", "a")])
        target = Poset(["P", "Q", "A"], [("P", "Q"), ("Q", "A")])
        phi = PosetMorphism(source, target, {"p": "P", "q": "Q", "a": "A"})
        check = phi.is_combinatorial()
        assert not check
        assert any(w.reason == "inverse not monotone" for w in check.witnesses)

    def test_rank_preserved_by_combinatorial(self):
        rng = Random(21)
        for _ in range(20):
            phi = random_sheaf_morphism(rng)
            assert phi.is_combinatorial()
            source_rank = rank_check(phi.source).rank
            target_rank = rank_check(phi.target).rank
            for x in phi.source.elements:
                assert source_rank[x] == target_rank[phi(x)]


class TestFibres:
    def test_trop_fibre(self):
        assert fix_trop().fibre("C") == {"C1", "C2"}

    def test_graph_face_poset_fibre(self):
        pm = morphism_face_poset(fix_graph())
        assert pm.fibre("t") == {"e", "B", "f"}

    def test_empty_fibre(self):
        sub = Poset(["A"], [])
        target = Poset(["A", "B"], [("A", "B")])
        phi = PosetMorphism(sub, target, {"A": "A"})
        assert phi.fibre("B") == frozenset()


class TestPreimageComponents:
    def test_trop_over_C(self):
        phi = fix_trop()
        comps = phi.source.components(phi.preimage(phi.target.up_set(["C"])))
        assert comps == [frozenset({"C1", "t1"}), frozenset({"C2", "t2"})]

    def test_trop_over_B(self):
        phi = fix_trop()
        comps = phi.source.components(phi.preimage(phi.target.up_set(["B"])))
        assert comps == [frozenset({"B1", "s1", "s2", "t1", "t2"})]

    def test_identity(self):
        p = fix_trop().target
        phi = PosetMorphism.identity(p)
        for beta in p.elements:
            assert phi.source.components(phi.preimage(p.up_set([beta]))) == [p.up_set([beta])]

    def test_components_are_principal_for_combinatorial(self):
        rng = Random(22)
        for _ in range(25):
            phi = random_sheaf_morphism(rng)
            for beta in phi.target.elements:
                expected = sorted(
                    (phi.source.up_set([alpha]) for alpha in phi.fibre(beta)), key=min)
                assert phi.source.components(phi.preimage(phi.target.up_set([beta]))) == expected


class TestOpenness:
    def test_open_fixture_fails_at_B2(self):
        check = fix_open().is_open()
        assert not check
        w = next(w for w in check.witnesses if w.alpha == "B2")
        assert w.base == "B" and w.missing == "alpha"

    def test_trop_open(self):
        assert fix_trop().is_open()

    def test_identity_open(self):
        assert PosetMorphism.identity(fix_trop().source).is_open()


class TestRestrictCorestrict:
    def test_trop_principal(self):
        phi = fix_trop()
        psi = phi.restrict_corestrict(phi.source.up_set(["C1"]))
        assert sorted(psi.source.elements) == ["C1", "t1"]
        assert sorted(psi.target.elements) == ["C", "t"]
        assert psi.is_combinatorial()

    def test_lift_fixture_not_combinatorial(self):
        psi = fix_lift().restrict_corestrict(FIX_LIFT_UPSET)
        check = psi.is_combinatorial()
        assert not check
        w = check.witnesses[0]
        assert w.alpha == "beta1"
        assert "2" in w.detail and "3" in w.detail

    def test_whole_source(self):
        phi = fix_trop()
        psi = phi.restrict_corestrict(frozenset(phi.source.elements))
        assert psi.source == phi.source
        assert frozenset(psi.target.elements) == phi.image(phi.source.elements)

    def test_whole_source_of_an_onto_map_is_the_map(self):
        phi = fix_trop()
        assert phi.restrict_corestrict(phi.source.elements) is phi
        assert phi.restrict_corestrict(reversed(phi.source.elements)) is phi

    def test_whole_source_of_a_map_not_onto_is_corestricted(self):
        phi = fix_trop()
        target = Poset(list(phi.target.elements) + ["X", "u"],
                       phi.target.covers | {("C", "u"), ("X", "u")})
        wider = PosetMorphism(phi.source, target, phi.mapping)
        psi = wider.restrict_corestrict(phi.source.elements)
        assert psi is not wider
        assert psi.source == phi.source and psi.target == phi.target
        assert psi.mapping == phi.mapping

    def test_requires_up_set(self):
        phi = fix_trop()
        with pytest.raises(NotUpSet):
            phi.restrict_corestrict({"C1"})

    def test_component_unions_stay_combinatorial(self):
        rng = Random(23)
        for _ in range(25):
            phi = random_sheaf_morphism(rng)
            beta = rng.choice(sorted(phi.target.elements))
            comps = phi.source.components(phi.preimage(phi.target.up_set([beta])))
            chosen = [c for c in comps if rng.random() < 0.7] or comps[:1]
            union = frozenset().union(*chosen)
            assert phi.restrict_corestrict(union).is_combinatorial()


class TestForestProperty:
    def test_preimages_of_saturated_paths_are_forests(self):
        rng = Random(24)
        for _ in range(25):
            phi = random_sheaf_morphism(rng)
            target = phi.target
            start = rng.choice(sorted(target.elements))
            path = [start]
            while target.covers_of(path[-1]) and rng.random() < 0.9:
                path.append(rng.choice(sorted(target.covers_of(path[-1]))))
            preimage = phi.preimage(path)
            induced = phi.source.induced(preimage)
            assert is_forest(induced.elements, sorted(induced.covers))


def test_cached_values_belong_to_their_object():
    """A derived value is built once per object: a second read returns the
    same object, an equal object built separately builds its own, and the
    grid of a metric morphism takes over the constructor's per-edge
    integers."""
    m = fix_trop_m()
    twin = IndexMap(m.poset, m.values)
    assert m._by_index is m._by_index and m._by_index == list(map(m.values.get, m.poset._ids))
    assert twin._by_index == m._by_index and twin._by_index is not m._by_index
    for phi in (fix_trop(), fix_ce1(), fix_open()):
        twin = PosetMorphism(Poset(phi.source.elements, phi.source.covers),
                             Poset(phi.target.elements, phi.target.covers), phi.mapping)
        for p, q in ((phi.source, twin.source), (phi.target, twin.target)):
            assert p == q and p._height is p._height
            assert q._height == p._height and q._height is not p._height
        for name in ("_non_bijective", "_cover_groups", "_fibres"):
            assert getattr(phi, name) is getattr(phi, name)
            assert getattr(twin, name) == getattr(phi, name)
        assert twin._cover_groups is not phi._cover_groups
        assert twin._fibres is not phi._fibres
    graph = fix_graph()
    twin = MetricGraphMorphism(graph.source, graph.target, graph.vertex_images,
                               graph.edge_images)
    assert twin._units is not None
    grid = twin._grid
    assert twin._units is None and twin._grid is grid
    assert graph._grid == grid and graph._grid is not grid


def test_fibres_are_built_only_when_read():
    """The combinatorial and openness tests, the subdivided map, the
    face-poset morphism and the branched-cover decision on a balanced
    combinatorial map read no fibre, so none is built; the oracle reads
    them."""
    faces = morphism_face_poset(fix_graph())
    faces.is_combinatorial()
    faces.is_open()
    for phi in (faces, bcs_morphism(fix_trop())):
        assert "_fibres" not in vars(phi)
    # the fixture is cached, and other tests may have read its fibres
    trop = fix_trop()
    phi = PosetMorphism(trop.source, trop.target, trop.mapping)
    assert "_fibres" not in vars(phi)
    assert is_ibc(phi, fix_trop_m())
    assert "_fibres" not in vars(phi)
    assert is_ibc_oracle(phi, fix_trop_m())
    assert "_fibres" in vars(phi)
