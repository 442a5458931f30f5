"""Index maps, local degrees, balancing and the routines that share its
walk, branched-cover decisions, and the balanced-map search."""

import time

import pytest
from collections import Counter
from random import Random

from posetcover import covers
from posetcover.covers import (
    IndexMap,
    branch_locus_check,
    global_degree,
    is_balanced,
    is_ibc,
    is_ibc_oracle,
    local_degree,
    search_balanced,
)
from posetcover.errors import (
    InvalidIndexMap,
    NotBalancedInput,
    NotUpSet,
    OracleSizeExceeded,
    PartialIndexMap,
    ValueMissing,
)
from posetcover.extend import (
    check_connectivity_lifting,
    extend_balanced,
    lift_path,
    lift_upward_path,
)
from posetcover.fixtures import (
    fix_ce1,
    fix_ce1_m,
    fix_ce2,
    fix_ce2_m,
    fix_open,
    fix_trop,
    fix_trop_m,
)
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset, rank_check, up_set_walk

from generators import (
    random_balanced_map,
    random_graded_poset,
    random_index_map,
    random_sheaf_morphism,
    small_world,
)
from oracles import brute_degree_mismatches, brute_up_set_walk, staged_search_balanced


class TestIndexMap:
    def test_domain_must_be_up_set(self):
        phi = fix_trop()
        with pytest.raises(NotUpSet):
            IndexMap(phi.source, {"A1": 1})

    def test_values_must_be_positive(self):
        phi = fix_trop()
        with pytest.raises(InvalidIndexMap):
            IndexMap(phi.source, {"s1": 0})

    def test_balancing_needs_a_map_on_the_source(self):
        with pytest.raises(InvalidIndexMap) as err:
            is_balanced(fix_trop(), fix_ce1_m())
        assert str(err.value) == ("index map lives on a different poset than the "
                                  "morphism source")

    def test_total_guard(self):
        phi = fix_trop()
        with pytest.raises(PartialIndexMap):
            IndexMap.total(phi.source, {"s1": 1, "s2": 1, "t1": 1, "t2": 1})

    def test_restricted(self):
        m = fix_trop_m()
        sub = m.restricted(m.poset.up_set(["C1"]))
        assert sub.values == {"C1": 1, "t1": 1}


ON_ANOTHER_POSET = "index map lives on a different poset than the morphism source"


def glued_at_the_bottom():
    """{a < x, a < y} onto {b < t}: two sheets glued at a."""
    source = Poset(["a", "x", "y"], [("a", "x"), ("a", "y")])
    target = Poset(["b", "t"], [("b", "t")])
    return PosetMorphism(source, target, {"a": "b", "x": "t", "y": "t"})


class TestMapOnAnotherPoset:
    """Every routine of a morphism and an index map refuses a map that
    lives on another poset than the source, with the same error."""

    def refuses(self, call, m=None):
        phi = glued_at_the_bottom()
        with pytest.raises(InvalidIndexMap) as err:
            call(phi, m or IndexMap(Poset(["q"], []), {"q": 1}))
        assert str(err.value) == ON_ANOTHER_POSET

    def test_is_balanced(self):
        self.refuses(is_balanced)

    def test_is_ibc(self):
        self.refuses(is_ibc)

    def test_is_ibc_oracle(self):
        self.refuses(is_ibc_oracle)

    def test_local_degree(self):
        self.refuses(lambda phi, m: local_degree(phi, m, ["a"], "b"))

    def test_global_degree_of_a_same_labelled_map(self):
        # the labels match the source, but the map lives on an antichain
        antichain = Poset(["a", "x", "y"], [])
        self.refuses(global_degree, IndexMap.constant(antichain))

    def test_extend_balanced(self):
        self.refuses(lambda phi, m: extend_balanced(phi, m, phi.source.elements))

    def test_lift_path(self):
        self.refuses(lambda phi, m: lift_path(phi, m, "q", ["b"]))

    def test_lift_upward_path(self):
        self.refuses(lambda phi, m: lift_upward_path(phi, m, "q", ["b"]))

    def test_check_connectivity_lifting(self):
        self.refuses(lambda phi, m: check_connectivity_lifting(phi, m, "one-fibre"))


def trop_maps():
    """The balanced map of fix_trop and a copy with one top value raised."""
    m = fix_trop_m()
    return m, IndexMap(m.poset, {**m.values, "t2": 3})


class TestBalanceOnce:
    def test_kept_witnesses_belong_to_their_morphism(self):
        trop = fix_trop()
        identity = PosetMorphism.identity(trop.source)
        for m in trop_maps():
            for check, phi in [(is_balanced, trop), (is_ibc, identity), (is_balanced, trop),
                               (is_balanced, identity), (is_ibc, trop), (is_ibc, identity),
                               (is_balanced, identity), (is_balanced, trop)]:
                fresh = IndexMap(m.poset, m.values)
                assert check(phi, m) == check(phi, fresh)
                assert type(covers._balance_violations(phi, m)) is tuple
                assert type(check(phi, m).witnesses) is tuple

    def test_one_walk_per_morphism_and_map(self, monkeypatch):
        walks = Counter()
        walk = covers._walk_balance

        def counted(phi, values):
            walks[tuple(values)] += 1
            return walk(phi, values)

        monkeypatch.setattr(covers, "_walk_balance", counted)
        phi = fix_trop()
        balanced, perturbed = (IndexMap(m.poset, m.values) for m in trop_maps())
        assert is_balanced(phi, balanced) and is_ibc(phi, balanced)
        extend_balanced(phi, balanced, phi.source.elements)
        lift_path(phi, balanced, "s1", ["s", "B", "t"])
        check_connectivity_lifting(phi, balanced, "one-fibre")
        assert not is_balanced(phi, perturbed) and not is_ibc(phi, perturbed)
        for refused in (lambda: extend_balanced(phi, perturbed, phi.source.elements),
                        lambda: lift_path(phi, perturbed, "s1", ["s", "B", "t"]),
                        lambda: check_connectivity_lifting(phi, perturbed, "one-fibre")):
            with pytest.raises(NotBalancedInput):
                refused()
        assert sorted(walks.values()) == [1, 1]


class TestLocalDegree:
    def test_component_at_t(self):
        assert local_degree(fix_trop(), fix_trop_m(), {"C2", "t2"}, "t") == 2

    def test_empty_subset(self):
        assert local_degree(fix_trop(), fix_trop_m(), frozenset(), "s") == 0

    def test_whole_source_at_s(self):
        phi = fix_trop()
        assert local_degree(phi, fix_trop_m(), phi.source.elements, "s") == 3

    def test_value_missing(self):
        phi = fix_trop()
        m = IndexMap(phi.source, {"s1": 2, "s2": 1, "t1": 1, "t2": 2})
        with pytest.raises(ValueMissing):
            local_degree(phi, m, {"A1"}, "A")

    def test_inclusion_exclusion(self):
        rng = Random(31)
        phi, m = fix_trop(), fix_trop_m()
        elements = sorted(phi.source.elements)
        for _ in range(50):
            v1 = frozenset(rng.sample(elements, rng.randint(0, 8)))
            v2 = frozenset(rng.sample(elements, rng.randint(0, 8)))
            for y in phi.target.elements:
                lhs = local_degree(phi, m, v1, y) + local_degree(phi, m, v2, y)
                rhs = (local_degree(phi, m, v1 | v2, y)
                       + local_degree(phi, m, v1 & v2, y))
                assert lhs == rhs

    def test_transition(self):
        rng = Random(32)
        phi, m = fix_trop(), fix_trop_m()
        elements = sorted(phi.source.elements)
        for _ in range(50):
            v1 = frozenset(rng.sample(elements, rng.randint(0, 8)))
            v2 = frozenset(rng.sample(elements, rng.randint(0, 8)))
            for y in phi.target.elements:
                fibre = phi.fibre(y)
                if fibre & v1 == fibre & v2:
                    assert local_degree(phi, m, v1, y) == local_degree(phi, m, v2, y)

    def test_degree_identities_on_random_instances(self):
        rng = Random(36)
        for _ in range(15):
            phi = random_sheaf_morphism(rng)
            m = random_index_map(rng, phi.source)
            elements = sorted(phi.source.elements)
            for _ in range(10):
                v1 = frozenset(rng.sample(elements, rng.randint(0, len(elements))))
                v2 = frozenset(rng.sample(elements, rng.randint(0, len(elements))))
                for y in phi.target.elements:
                    lhs = local_degree(phi, m, v1, y) + local_degree(phi, m, v2, y)
                    rhs = (local_degree(phi, m, v1 | v2, y)
                           + local_degree(phi, m, v1 & v2, y))
                    assert lhs == rhs
                    fibre = phi.fibre(y)
                    if fibre & v1 == fibre & v2:
                        assert (local_degree(phi, m, v1, y)
                                == local_degree(phi, m, v2, y))


class TestBalanced:
    def test_trop(self):
        assert is_balanced(fix_trop(), fix_trop_m())

    def test_ce2_witness(self):
        check = is_balanced(fix_ce2(), fix_ce2_m())
        assert not check
        assert ("A1", "B", 2, 3) in check.witnesses

    def test_ce1_constant_one(self):
        assert is_balanced(fix_ce1(), fix_ce1_m())

    def test_restriction_stays_balanced(self):
        rng = Random(33)
        phi, m = fix_trop(), fix_trop_m()
        for alpha in phi.source.elements:
            assert is_balanced(phi, m.restricted(phi.source.up_set([alpha])))
        for _ in range(20):
            sheaf = random_sheaf_morphism(rng)
            m2 = random_balanced_map(rng, sheaf)
            if m2 is None:
                continue
            gens = rng.sample(sheaf.source.elements,
                              rng.randint(1, len(sheaf.source.elements)))
            assert is_balanced(sheaf, m2.restricted(sheaf.source.up_set(gens)))


class TestBranchLocus:
    def test_trop(self):
        report = branch_locus_check(fix_trop())
        assert report

    def test_ce1(self):
        assert branch_locus_check(fix_ce1())

    def test_identity_two_chain(self):
        p = Poset(["A", "B"], [("A", "B")])
        report = branch_locus_check(PosetMorphism.identity(p))
        assert report

    def test_violation(self):
        # B1 is not maximal but maps to the maximal target element
        source = Poset(["B1", "C1"], [("B1", "C1")])
        target = Poset(["B"], [])
        phi = PosetMorphism(source, target, {"B1": "B", "C1": "B"})
        report = branch_locus_check(phi)
        assert not report and report.witnesses[0] == ("B", "B1")


class TestIbc:
    def test_trop(self):
        assert is_ibc(fix_trop(), fix_trop_m())

    def test_ce1_witness(self):
        check = is_ibc(fix_ce1(), fix_ce1_m())
        assert not check
        w = check.witnesses[0]
        assert (w.beta, w.y1, w.y2, w.d1, w.d2) == (frozenset({"A", "B"}), "A", "B", 2, 1)
        assert w.component == {"A1", "A2", "B1"}

    def test_principal_up_sets_do_not_decide_a_non_combinatorial_map(self):
        # e3 over e2 is not above e1: the degree is constant over each
        # principal up-set's preimage, but not over that of the whole target
        source = Poset(["e0", "e1", "e2", "e3"], [("e0", "e2"), ("e1", "e2"), ("e0", "e3")])
        target = Poset(["e0", "e1", "e2"], [("e0", "e2"), ("e1", "e2")])
        phi = PosetMorphism(source, target, {"e0": "e0", "e1": "e1", "e2": "e2", "e3": "e2"})
        m = IndexMap.total(source, {"e0": 2, "e1": 1, "e2": 1, "e3": 1})
        check = is_ibc(phi, m)
        assert not check and check.witnesses == is_ibc_oracle(phi, m).witnesses
        assert check.witnesses == (covers.DegreeMismatch(
            frozenset(target.elements), frozenset(source.elements), "e0", "e1", 2, 1),)

    def test_non_combinatorial_maps_are_not_held_to_the_element_limit(self):
        # the bottom cover of a 41-element chain folded onto a 40-element
        # chain, whose 40 connected up-sets the walk visits at once
        chain = [f"c{i:02d}" for i in range(40)]
        folded = [f"x{i:02d}" for i in range(41)]
        phi = PosetMorphism(Poset(folded, list(zip(folded, folded[1:]))),
                            Poset(chain, list(zip(chain, chain[1:]))),
                            {x: chain[max(i - 1, 0)] for i, x in enumerate(folded)})
        m = IndexMap.total(phi.source, dict.fromkeys(folded, 1))
        with pytest.raises(OracleSizeExceeded, match="instance size 40 exceeds oracle limit 16"):
            is_ibc_oracle(phi, m)
        assert is_ibc(phi, m).witnesses == (covers.DegreeMismatch(
            frozenset(chain), frozenset(folded), "c00", "c01", 2, 1),)

    def test_non_combinatorial_maps_stop_at_the_up_set_walk_guard(self):
        # an 18-element antichain has 2**18 up-sets, one more than the walk
        # may visit
        antichain = [f"a{i:02d}" for i in range(18)]
        phi = PosetMorphism(Poset(["b", *antichain], [("b", "a00")]), Poset(antichain, []),
                            {"b": "a00", **{a: a for a in antichain}})
        m = IndexMap.total(phi.source, dict.fromkeys(phi.source.elements, 1))
        with pytest.raises(OracleSizeExceeded,
                           match="up-sets walked 131073 exceeds oracle limit 131072"):
            is_ibc(phi, m)

    def test_ce2(self):
        assert is_ibc(fix_ce2(), fix_ce2_m())

    def test_requires_total(self):
        phi = fix_trop()
        partial = IndexMap(phi.source, {"s1": 2, "s2": 1, "t1": 1, "t2": 2})
        with pytest.raises(PartialIndexMap):
            is_ibc(phi, partial)

    def test_oracle_fixtures(self):
        assert is_ibc_oracle(fix_trop(), fix_trop_m())
        assert not is_ibc_oracle(fix_ce1(), fix_ce1_m())
        assert is_ibc_oracle(fix_ce2(), fix_ce2_m())

    def test_oracle_size_guard(self):
        phi = fix_trop()
        with pytest.raises(OracleSizeExceeded):
            is_ibc_oracle(phi, fix_trop_m(), limit=3)

    def test_the_oracle_refuses_a_large_target_before_any_work(self, monkeypatch):
        chain = [f"c{i:02d}" for i in range(40)]
        phi = PosetMorphism.identity(Poset(chain, list(zip(chain, chain[1:]))))
        m = IndexMap.constant(phi.source)

        def no_work(*args):
            raise AssertionError("work done before the size refusal")

        monkeypatch.setattr(Poset, "_spread", no_work)
        monkeypatch.setattr(covers, "_degree_tables", no_work)
        monkeypatch.setattr(covers, "_fibre_totals", no_work)
        with pytest.raises(OracleSizeExceeded, match="instance size 40 exceeds oracle limit 16"):
            is_ibc_oracle(phi, m)

    def test_a_one_part_preimage_is_decided_by_fibre_totals(self, monkeypatch):
        # balanced gluings whose connected up-sets each have a connected
        # preimage: two points under one top, so the degree is 2 at b and 1
        # at t; and a 2-chain over b < t beside an empty fibre over c < t,
        # which the totals skip as the popcounts do
        target = Poset(["b", "c", "t"], [("b", "t"), ("c", "t")])
        glued = PosetMorphism(Poset(["a1", "a2", "x"], [("a1", "x"), ("a2", "x")]), target,
                              {"a1": "b", "a2": "b", "x": "t"})
        sheet = PosetMorphism(Poset(["a", "x"], [("a", "x")]), target, {"a": "b", "x": "t"})
        monkeypatch.setattr(covers, "_degree_mismatch", None)
        for phi, values in ((glued, {"a1": 1, "a2": 1, "x": 1}), (sheet, {"a": 2, "x": 2})):
            m = IndexMap.total(phi.source, values)
            assert is_balanced(phi, m)
            preimages = target._spread(phi._fibres, upward=True)
            for _, parts in up_set_walk(target, True, len(target),
                                        lambda j: phi.source._component_bits(preimages[j])):
                assert len(parts) <= 1
            walks = [(u, u) for u in brute_up_set_walk(target.elements, target.covers, True)]
            assert [tuple(w) for w in is_ibc_oracle(phi, m).witnesses] == brute_degree_mismatches(
                phi.source.elements, phi.source.covers, phi.mapping, m.values, walks)
        assert is_ibc_oracle(glued, IndexMap.constant(glued.source)).witnesses == tuple(
            covers.DegreeMismatch(frozenset(u), frozenset({"a1", "a2", "x"}), "b", "t", 2, 1)
            for u in ("bt", "bct"))
        assert is_ibc_oracle(sheet, IndexMap.total(sheet.source, {"a": 2, "x": 2}))

    def test_one_walk_serves_every_index_map(self, monkeypatch):
        # FIX-TROP is combinatorial; the 4-element map folds e3 onto e2
        folded = PosetMorphism(
            Poset(["e0", "e1", "e2", "e3"], [("e0", "e2"), ("e1", "e2"), ("e0", "e3")]),
            Poset(["e0", "e1", "e2"], [("e0", "e2"), ("e1", "e2")]),
            {"e0": "e0", "e1": "e1", "e2": "e2", "e3": "e2"})
        walks = []

        def counted_walk(p, *args):
            walks.append(p)
            return up_set_walk(p, *args)

        monkeypatch.setattr("posetcover.morphisms.up_set_walk", counted_walk)
        verdicts = set()
        trop = fix_trop()  # a copy, as the fixture is shared with other tests
        trop = PosetMorphism(trop.source, trop.target, trop.mapping)
        for phi, extra in ((trop, [fix_trop_m()]), (folded, [])):
            maps = [IndexMap.constant(phi.source),
                    IndexMap.total(phi.source, dict.fromkeys(phi.source.elements, 2)), *extra]
            walks.clear()
            checks = [is_ibc_oracle(phi, m) for m in maps] + [is_ibc(phi, maps[0])]
            assert walks == [phi.target]
            fresh = [PosetMorphism(phi.source, phi.target, phi.mapping) for _ in maps]
            assert [c.witnesses for c in checks] == [
                *(is_ibc_oracle(f, m).witnesses for f, m in zip(fresh, maps)),
                is_ibc(fresh[0], maps[0]).witnesses]
            verdicts.update(c.ok for c in checks)
        assert verdicts == {True, False}

    def test_extension_and_oracle_read_one_preimage_table(self, monkeypatch):
        trop, m = fix_trop(), fix_trop_m()
        phi = PosetMorphism(trop.source, trop.target, trop.mapping)
        spread = Poset._spread
        reads = []

        def counted(poset, seeds, upward):
            reads.append((poset, upward))
            return spread(poset, seeds, upward)

        monkeypatch.setattr(Poset, "_spread", counted)
        assert is_ibc_oracle(phi, m)
        top = m.restricted(phi.source.up_set(phi.source.max_elements()))
        assert extend_balanced(phi, top, phi.source.elements)
        assert reads.count((phi.target, True)) == 1
        assert phi._up_preimages is phi.__dict__["_up_preimages"]

    def test_fast_agrees_with_oracle_on_random_combinatorial(self):
        rng = Random(34)
        for _ in range(30):
            phi = random_sheaf_morphism(rng)
            m = random_index_map(rng, phi.source)
            assert is_ibc(phi, m).ok == is_ibc_oracle(phi, m).ok

    def test_balanced_iff_ibc_on_random_combinatorial(self):
        rng = Random(35)
        for _ in range(30):
            phi = random_sheaf_morphism(rng)
            for m in (random_index_map(rng, phi.source),
                      random_balanced_map(rng, phi)):
                if m is None:
                    continue
                assert is_balanced(phi, m).ok == is_ibc(phi, m).ok


class TestGlobalDegree:
    def test_trop(self):
        report = global_degree(fix_trop(), fix_trop_m())
        assert report.constant and report.degree == 3
        assert set(report.per_target_value.values()) == {3}

    def test_ce2(self):
        report = global_degree(fix_ce2(), fix_ce2_m())
        assert report.per_target_value == {"A": 4, "B": 4}
        assert report.degree == 4

    def test_ce1_not_constant(self):
        report = global_degree(fix_ce1(), fix_ce1_m())
        assert report.per_target_value == {"A": 2, "B": 1}
        assert not report.constant and report.degree is None
        assert report.per_component == ((frozenset("AB"), None),)

    def test_one_degree_per_component_of_the_target(self):
        # a 2-chain over x < y and two points over an isolated z: the
        # counts are 1 on the chain and 2 on z, each constant on its component
        target = Poset(["x", "y", "z"], [("x", "y")])
        source = Poset(["a", "b", "p", "q"], [("a", "b")])
        phi = PosetMorphism(source, target, {"a": "x", "b": "y", "p": "z", "q": "z"})
        m = IndexMap.constant(phi.source)
        assert is_balanced(phi, m) and is_ibc(phi, m)
        report = global_degree(phi, m)
        assert report.constant and report.degree is None
        assert report.per_component == ((frozenset("xy"), 1), (frozenset("z"), 2))
        # one value on every fibre: a single degree, components not needed
        equal = global_degree(phi, IndexMap(phi.source, {"a": 2, "b": 2, "p": 1, "q": 1}))
        assert equal == ({"x": 2, "y": 2, "z": 2}, True, 2, None)
        # a count that varies inside one component fails
        varies = global_degree(phi, IndexMap(phi.source, {"a": 1, "b": 2, "p": 1, "q": 1}))
        assert not varies.constant and varies.degree is None
        assert varies.per_component == ((frozenset("xy"), None), (frozenset("z"), 2))


class TestSearchBalanced:
    def test_open_fixture_has_no_balanced_map(self):
        assert search_balanced(fix_open(), bound=4) is None

    def test_trop_least_solution(self):
        phi = fix_trop()
        found = search_balanced(phi, bound=3)
        assert found is not None and is_balanced(phi, found)
        # least in lexicographic element order, verified by enumeration
        best = None
        order = sorted(phi.source.elements)
        for values in _all_assignments(order, 3):
            m = IndexMap.total(phi.source, values)
            if is_balanced(phi, m):
                key = tuple(values[x] for x in order)
                if best is None or key < best[0]:
                    best = (key, values)
        assert found.values == best[1]

    def test_identity_bound_one(self):
        phi = PosetMorphism.identity(fix_trop().target)
        found = search_balanced(phi, bound=1)
        assert found is not None
        assert set(found.values.values()) == {1}

    def test_state_guard(self, monkeypatch):
        monkeypatch.setattr(covers, "DEFAULT_SEARCH_STATES", 10)
        with pytest.raises(OracleSizeExceeded):
            search_balanced(fix_open(), bound=4)

    def test_fixture_values_are_balanced_but_not_least(self):
        found = search_balanced(fix_trop(), bound=3)
        assert found.values != fix_trop_m().values
        assert global_degree(fix_trop(), found).degree == 2


    def test_least_solution_against_enumeration(self):
        """On small morphisms the search returns the first balanced map of
        the lexicographic enumeration in element order, or None when the
        enumeration finds none."""
        # two least solutions of alpha = a + b = p1 + p2 + p3 at bound 3,
        # (a, b) = (1, 2) and (2, 1): the walk reaches b (height 2, above
        # u < v) before a, so the first solution it finds is not the least
        source = Poset(["alpha", "a", "b", "u", "v", "p1", "p2", "p3"],
                       [("alpha", "a"), ("alpha", "b"), ("u", "v"), ("v", "b"),
                        ("alpha", "p1"), ("alpha", "p2"), ("alpha", "p3")])
        swapped = PosetMorphism(source, Poset(["y", "z", "w"], [("y", "z"), ("y", "w")]),
                                {"alpha": "y", "a": "z", "b": "z", "u": "z", "v": "z",
                                 "p1": "w", "p2": "w", "p3": "w"})
        assert _least_by_enumeration(swapped, 3)["a"] == 1
        assert search_balanced(swapped, bound=3).values == _least_by_enumeration(swapped, 3)

        rng = Random(36)
        outcomes = {"found": 0, "none": 0}
        while sum(outcomes.values()) < 80:
            if rng.random() < 0.5:
                phi = random_sheaf_morphism(rng, random_graded_poset(rng, 6, max_rank=3))
            else:  # a graded poset onto a chain by its rank, often with no solution
                phi = _onto_chain_by_rank(random_graded_poset(rng, 10, max_rank=3))
            bound = rng.randint(2, 3)
            if bound ** len(phi.source) > 3 ** 8:
                continue
            least = _least_by_enumeration(phi, bound)
            found = search_balanced(phi, bound=bound)
            assert (found and found.values) == least
            outcomes["found" if least else "none"] += 1
        assert min(outcomes.values()) >= 10, outcomes

    def test_every_small_map_against_enumeration(self):
        found = Counter()
        for bound in (1, 2, 3):
            for phi in small_world():
                least = _least_by_enumeration(phi, bound)
                got = search_balanced(phi, bound=bound)
                assert (got and got.values) == least
                found[bound] += least is not None
        assert found == {1: 806, 2: 864, 3: 869}

    def test_thousands_of_free_elements(self):
        # a loop, not one recursion per free element
        source = Poset([f"a{i}" for i in range(3000)], [])
        phi = PosetMorphism(source, Poset(["y"], []), dict.fromkeys(source.elements, "y"))
        assert search_balanced(phi, bound=1).values == dict.fromkeys(source.elements, 1)

    def test_disjoint_chains_are_still_refused(self):
        # every assignment of the 7 tops balances, yet there are 8**7 of them
        elements = [f"{c}{i}" for i in range(7) for c in "ab"]
        source = Poset(elements, [(f"a{i}", f"b{i}") for i in range(7)])
        phi = PosetMorphism(source, Poset(["x", "y"], [("x", "y")]),
                            {e: "x" if e[0] == "a" else "y" for e in elements})
        with pytest.raises(OracleSizeExceeded) as raised:
            search_balanced(phi)
        assert str(raised.value) == "search states 8**7 exceeds oracle limit 1000000"

    def test_against_the_staged_search(self):
        """The solved search returns the staged search's map, or None, or
        its exception text, on seeded instances at bounds 1 to 4, most too
        large to enumerate: sheaf morphisms, graded posets onto a chain by
        rank, and antichains onto a point, which the state guard refuses
        from 10 free elements at bound 4."""
        rng = Random(37)
        outcomes = Counter()
        for _ in range(600):
            kind = rng.random()
            if kind < 0.4:
                target = random_graded_poset(rng, rng.randint(4, 12), max_rank=3)
                phi = random_sheaf_morphism(rng, target, max_sheets=4)
            elif kind < 0.85:
                phi = _onto_chain_by_rank(random_graded_poset(rng, rng.randint(4, 20), 4))
            else:
                points = [f"a{i:02d}" for i in range(rng.randint(8, 20))]
                phi = PosetMorphism(Poset(points, []), Poset(["y"], []),
                                    dict.fromkeys(points, "y"))
            bound = rng.randint(1, 4)
            got = _search_outcome(search_balanced, phi, bound)
            assert got == _search_outcome(staged_search_balanced, phi, bound)
            outcomes["refused" if isinstance(got, tuple) else got and "found"] += 1
        assert min(outcomes.values()) >= 30 and len(outcomes) == 3, outcomes
        assert _search_outcome(search_balanced, phi, 0) == _search_outcome(
            staged_search_balanced, phi, 0) == ("ValueError", "bound must be at least 1, got 0")

    def test_a_pivot_must_be_an_integer(self):
        # alpha = p + q = s1 + s2 and beta = q = u1 + u2, where s1 = s2 = w3
        # and u1 = u2 = w4: the pivots w3 and w4 are halves of p + q and q,
        # so p = 1, q = 2 gives alpha 3 but w3 1.5, and the least map has
        # alpha 4, which bound 3 excludes
        source = Poset(["alpha", "beta", "p", "q", "s1", "s2", "u1", "u2", "w3", "w4"],
                       [("alpha", "p"), ("alpha", "q"), ("alpha", "s1"), ("alpha", "s2"),
                        ("beta", "q"), ("beta", "u1"), ("beta", "u2"),
                        ("s1", "w3"), ("s2", "w3"), ("u1", "w4"), ("u2", "w4")])
        target = Poset(["y", "z1", "z2", "t"], [("y", "z1"), ("y", "z2"), ("z2", "t")])
        phi = PosetMorphism(source, target, {
            "alpha": "y", "beta": "y", "p": "z1", "q": "z1", "s1": "z2", "s2": "z2",
            "u1": "z2", "u2": "z2", "w3": "t", "w4": "t"})
        assert search_balanced(phi, bound=3) is None
        assert _search_outcome(search_balanced, phi, 4) == _search_outcome(
            staged_search_balanced, phi, 4) == [4, 2, 2, 2, 2, 2, 1, 1, 2, 1]

    @pytest.mark.parametrize("shared_bottom", [False, True])
    def test_disjoint_chains_are_solved_on_their_distinct_forms(self, shared_bottom):
        # 5 disjoint 100-chains over a 100-chain: every one of the 8**5
        # assignments of the tops balances, and each has 5 distinct forms
        # over 500 elements; a bottom b shared by two chains is their sum,
        # 2 at the least, so that least map is not all ones
        target = [f"t{i:03d}" for i in range(100)]
        elements = [f"c{c}_{i:03d}" for c in range(5) for i in range(100)]
        covers = [(f"c{c}_{i:03d}", f"c{c}_{i + 1:03d}") for c in range(5) for i in range(99)]
        mapping = {e: target[int(e[3:])] for e in elements}
        if shared_bottom:
            elements.append("b")
            covers += [("b", "c0_001"), ("b", "c1_001")]
            mapping["b"] = "t000"
        phi = PosetMorphism(Poset(elements, covers), Poset(target, list(zip(target, target[1:]))),
                            mapping)
        start = time.monotonic()
        found = search_balanced(phi, bound=8)
        elapsed = time.monotonic() - start
        assert found.values == {**dict.fromkeys(elements, 1), **({"b": 2} if shared_bottom else {})}
        assert elapsed < 1


def _onto_chain_by_rank(p):
    """The graded poset p onto the chain c0 < c1 < ... by its rank."""
    rank = rank_check(p).rank
    top = max(rank.values())
    chain = Poset([f"c{i}" for i in range(top + 1)],
                  [(f"c{i}", f"c{i + 1}") for i in range(top)])
    return PosetMorphism(p, chain, {e: f"c{r}" for e, r in rank.items()})


def _search_outcome(search, phi, bound):
    """The values of the map a search returns, by source index, or None,
    or the (exception name, text) it raises."""
    try:
        found = search(phi, bound)
    except (OracleSizeExceeded, ValueError) as error:
        return type(error).__name__, str(error)
    if found is None or isinstance(found, list):
        return found
    return list(map(found.values.__getitem__, phi.source._ids))


def _least_by_enumeration(phi, bound):
    """The first total map with values in 1..bound, in lexicographic
    element order, that meets every balancing condition, each read off the
    cover pairs: alpha's value against the sum over the covers of alpha in
    the fibre of a cover beta of its image.  None if there is none."""
    order = sorted(phi.source.elements)
    conditions = [(alpha, [g for g in phi.source.covers_of(alpha) if phi(g) == beta])
                  for alpha in order for beta in phi.target.covers_of(phi(alpha))]
    return next((values for values in _all_assignments(order, bound)
                 if all(values[a] == sum(values[g] for g in above) for a, above in conditions)),
                None)


def _all_assignments(order, bound):
    import itertools

    for combo in itertools.product(range(1, bound + 1), repeat=len(order)):
        yield dict(zip(order, combo))
