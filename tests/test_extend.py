"""Extension of balanced maps, path lifting, connectivity lifting."""

import pytest
from collections import Counter
from itertools import product
from random import Random

from posetcover.covers import IndexMap, global_degree, is_balanced, search_balanced
from posetcover.errors import (
    CorestrictionNotCombinatorial,
    MaxElementsUncovered,
    NotBalancedInput,
    NotCombinatorial,
    NotGraded,
    NoLiftExists,
    NotInDomain,
    PathNotFromImage,
    PathNotIncreasing,
    UnknownElement,
)
from posetcover.extend import (
    Path,
    check_connectivity_lifting,
    extend_balanced,
    lift_path,
    lift_upward_path,
)
from posetcover.fixtures import (
    fix_ce1,
    fix_ce1_m,
    fix_idread,
    fix_idread_m,
    fix_lift,
    fix_lift_m,
    fix_simple_ext,
    fix_simple_ext_m,
    fix_trop,
    fix_trop_m,
)
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset, connectivity, rank_check

from generators import random_sheaf_morphism, small_world


def trop_edge_values():
    phi = fix_trop()
    return IndexMap(phi.source, {"s1": 2, "s2": 1, "t1": 1, "t2": 2})


class TestExtendBalanced:
    def test_trop_from_edges(self):
        phi = fix_trop()
        report = extend_balanced(phi, trop_edge_values(), phi.source.elements)
        assert report.conflicts == [] and report.unconstrained == []
        assert report.mode == "opportunistic"  # the up-set above B is {s,t}, disconnected
        assert report.extended.values == fix_trop_m().values
        assert is_balanced(phi, report.extended)

    def test_the_source_map_keeps_its_values_by_index(self):
        phi, m = fix_trop(), trop_edge_values()
        before = m._by_index
        report = extend_balanced(phi, m, phi.source.elements)
        assert report.extended.values == fix_trop_m().values
        assert m._by_index is before
        assert m._by_index == IndexMap(m.poset, m.values)._by_index

    def test_idread(self):
        phi = fix_idread()
        report = extend_balanced(phi, fix_idread_m(), phi.source.elements)
        assert report.extended.values["O1"] == 3
        assert ("tO1", "B", "C", 2, 1) in report.conflicts
        assert ("tO2", "B", "C", 1, 2) in report.conflicts
        assert len(report.conflicts) == 2

    def test_simple_ext(self):
        phi = fix_simple_ext()
        report = extend_balanced(phi, fix_simple_ext_m(), phi.source.elements)
        assert report.conflicts == [("O", "A", "B", 2, 1)]

    def test_idempotent_on_same_upset(self):
        phi, m = fix_trop(), fix_trop_m()
        report = extend_balanced(phi, m, m.domain)
        assert report.extended.values == m.values and not report.conflicts

    def test_requires_combinatorial(self):
        with pytest.raises(NotCombinatorial):
            extend_balanced(fix_ce1(), fix_ce1_m(), fix_ce1().source.elements)

    def test_requires_balanced_input(self):
        phi = fix_trop()
        crooked = IndexMap(phi.source, {"A1": 7, **trop_edge_values().values})
        with pytest.raises(NotBalancedInput):
            extend_balanced(phi, crooked, phi.source.elements)

    def test_requires_max_elements_covered(self):
        phi = fix_trop()
        partial = IndexMap(phi.source, {"t1": 1, "t2": 2, "C1": 1, "C2": 2})
        with pytest.raises(MaxElementsUncovered):
            extend_balanced(phi, partial, phi.source.elements)

    def test_target_upset_must_contain_domain(self):
        phi, m = fix_trop(), fix_trop_m()
        with pytest.raises(ValueError):
            extend_balanced(phi, m, phi.source.up_set(["C1"]))

    def test_guaranteed_mode_never_conflicts(self):
        rng = Random(41)
        seen_guaranteed = 0
        for _ in range(60):
            outcome = _random_extension_instance(rng)
            if outcome is None:
                continue
            phi, m, report = outcome
            hypotheses_hold = _theorem_hypotheses_hold(phi, m)
            if report.mode == "guaranteed":
                seen_guaranteed += 1
                assert hypotheses_hold
                assert not report.conflicts
                assert is_balanced(phi, report.extended)
            if hypotheses_hold:
                assert report.mode == "guaranteed"
        assert seen_guaranteed >= 5

    def test_strongly_connected_target_extension(self):
        # balanced on codimension-1 extends all the way down when the
        # target is strongly connected
        rng = Random(42)
        tested = 0
        for _ in range(200):
            if tested >= 10:
                break
            target = _random_strongly_connected_dim2(rng)
            if target is None:
                continue
            phi = random_sheaf_morphism(rng, target=target)
            ranks = rank_check(phi.source)
            top = phi.source.up_set(ranks.level(ranks.dim))
            codim1 = phi.source.up_set(ranks.level(ranks.dim - 1))
            seed_values = {x: rng.randint(1, 3) for x in top}
            first = extend_balanced(phi, IndexMap(phi.source, seed_values), codim1)
            if first.conflicts:
                continue
            final = extend_balanced(phi, first.extended, phi.source.elements)
            assert not final.conflicts
            assert is_balanced(phi, final.extended)
            tested += 1
        assert tested >= 5

    def test_image_of_extension_is_up_set(self):
        phi = fix_trop()
        report = extend_balanced(phi, trop_edge_values(), phi.source.elements)
        image = phi.image(report.extended.domain)
        assert phi.target.up_set(image) == image


def _random_extension_instance(rng):
    phi = random_sheaf_morphism(rng)
    ranks = rank_check(phi.source)
    if ranks.dim < 1:
        return None
    k = rng.randint(0, ranks.dim - 1)
    domain = phi.source.up_set(ranks.level(k + 1))
    if not domain or domain == frozenset(phi.source.elements):
        return None
    if any(x not in domain for x in phi.source.max_elements()):
        return None
    values = {}
    for alpha in sorted(domain, key=lambda x: -ranks.rank[x]):
        covers = phi.target.covers_of(phi(alpha))
        if not covers:
            values[alpha] = rng.randint(1, 3)
            continue
        sums = {sum(values[g] for g in phi.source.covers_of(alpha) if phi(g) == b)
                for b in covers}
        if len(sums) != 1 or min(sums) < 1:
            return None
        values[alpha] = sums.pop()
    m = IndexMap(phi.source, values)
    report = extend_balanced(phi, m, phi.source.elements)
    return phi, m, report


def _theorem_hypotheses_hold(phi, m):
    """Independent check of the extension theorem's hypotheses, applied
    step by step: every processed element needs a connected punctured
    up-set over its image whose preimage lies in the domain built so far."""
    ranks = rank_check(phi.source).rank
    missing = sorted(frozenset(phi.source.elements) - m.domain,
                     key=lambda x: (-ranks[x], x))
    domain = set(m.domain)
    for alpha in missing:
        punctured = phi.target.up_set([phi(alpha)]) - {phi(alpha)}
        if not phi.target.is_connected(punctured):
            return False
        if not phi.preimage(punctured) <= domain:
            return False
        domain.add(alpha)
    return True


def _random_strongly_connected_dim2(rng):
    from generators import random_graded_poset

    p = random_graded_poset(rng, max_elements=8, max_rank=2)
    report = None
    try:
        report = rank_check(p)
    except Exception:
        return None
    if report.dim != 2:
        return None
    if not connectivity(p, "strong").connected:
        return None
    return p


class TestLiftUpwardPath:
    def test_forced_lift(self):
        lifted = lift_upward_path(fix_trop(), fix_trop_m(), "C1", ["C", "t"])
        assert lifted.steps == ("C1", "t1") and lifted.directions == ("up",)

    def test_tie_break(self):
        lifted = lift_upward_path(fix_trop(), fix_trop_m(), "A1", ["A", "s"])
        assert lifted.steps == ("A1", "s1")

    def test_length_zero(self):
        lifted = lift_upward_path(fix_trop(), fix_trop_m(), "B1", ["B"])
        assert lifted.steps == ("B1",) and lifted.directions == ()

    def test_long_jump_gets_refined(self):
        chain = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
        phi = PosetMorphism.identity(chain)
        m = IndexMap.constant(chain)
        lifted = lift_upward_path(phi, m, "a", ["a", "c"])
        assert lifted.steps == ("a", "b", "c")

    def test_errors(self):
        phi, m = fix_trop(), fix_trop_m()
        with pytest.raises(PathNotFromImage):
            lift_upward_path(phi, m, "C1", ["B", "t"])
        with pytest.raises(PathNotIncreasing):
            lift_upward_path(phi, m, "C1", ["C", "t", "B"])
        partial = trop_edge_values()
        with pytest.raises(NotInDomain):
            lift_upward_path(phi, partial, "C1", ["C", "t"])

    def test_stays_in_domain_on_random_instances(self):
        rng = Random(43)
        from generators import random_balanced_map

        for _ in range(20):
            phi = random_sheaf_morphism(rng)
            m = random_balanced_map(rng, phi)
            if m is None:
                continue
            alpha = rng.choice(sorted(m.domain))
            path = [phi(alpha)]
            while phi.target.covers_of(path[-1]) and rng.random() < 0.8:
                path.append(rng.choice(sorted(phi.target.covers_of(path[-1]))))
            lifted = lift_upward_path(phi, m, alpha, path)
            assert all(g in m.domain for g in lifted.steps)
            assert [phi(g) for g in lifted.steps] == path


class TestLiftPath:
    def test_down_then_up(self):
        lifted = lift_path(fix_trop(), fix_trop_m(), "s1", ["s", "B", "t"])
        assert lifted.steps == ("s1", "B1", "t1")
        assert lifted.directions == ("down", "up")

    def test_lift_fixture_refuses(self):
        with pytest.raises(CorestrictionNotCombinatorial) as err:
            lift_path(fix_lift(), fix_lift_m(), "beta1", ["beta", "B"])
        assert err.value.witness == "beta1"

    def test_length_zero(self):
        lifted = lift_path(fix_trop(), fix_trop_m(), "t2", ["t"])
        assert lifted.steps == ("t2",)

    def test_errors(self):
        phi, m = fix_trop(), fix_trop_m()
        with pytest.raises(PathNotFromImage) as err:
            lift_path(phi, m, "s1", ["B", "t"])
        assert str(err.value) == "path must start at 's', got 'B'"
        with pytest.raises(PathNotFromImage) as err:
            lift_path(phi, m, "s1", [])
        assert str(err.value) == "path must start at 's', got None"
        with pytest.raises(UnknownElement) as err:
            lift_path(phi, m, "s1", ["s", "Z"])
        assert err.value.element == "Z"
        # s and t are incomparable, so the path takes no step between them
        with pytest.raises(PathNotIncreasing) as err:
            lift_path(phi, m, "s1", ["s", "t"])
        assert err.value.pair == ("s", "t")

    def test_a_path_outside_the_image_of_the_domain_has_no_lift(self):
        # the edge values live on s1, s2, t1 and t2, whose image misses B
        with pytest.raises(NoLiftExists) as err:
            lift_path(fix_trop(), trop_edge_values(), "s1", ["s", "B", "t"])
        assert str(err.value) == ("no lift exists: path element 'B' lies outside the image "
                                  "of the domain")


class TestPathType:
    def test_direction_tags(self):
        delta = fix_trop().target
        path = Path.through(delta, ["A", "s", "B", "t"])
        assert path.directions == ("up", "down", "up")

    def test_incomparable_step_rejected(self):
        delta = fix_trop().target
        with pytest.raises(PathNotIncreasing):
            Path.through(delta, ["A", "B"])


class TestConnectivityLifting:
    def test_idread_codim_one(self):
        phi = fix_idread()
        m = search_balanced(phi, bound=4)
        assert m is not None
        report = check_connectivity_lifting(phi, m, "codim", k=1)
        assert report.hypotheses_hold and report.conclusion_holds
        assert report.witness_fibre == "A"

    def test_trop_one_fibre(self):
        report = check_connectivity_lifting(fix_trop(), fix_trop_m(), "one-fibre")
        assert report.hypotheses_hold and report.conclusion_holds
        assert report.witness_fibre == "A"

    def test_singleton(self):
        p = Poset(["x"], [])
        phi = PosetMorphism.identity(p)
        report = check_connectivity_lifting(phi, IndexMap.constant(p), "one-fibre")
        assert report.hypotheses_hold and report.conclusion_holds

    def test_random_instances_never_alarm(self):
        rng = Random(44)
        from generators import random_balanced_map

        for _ in range(20):
            phi = random_sheaf_morphism(rng)
            m = random_balanced_map(rng, phi)
            if m is None:
                continue
            check_connectivity_lifting(phi, m, "one-fibre")
            dim = rank_check(phi.target).dim
            for k in range(0, dim + 1):
                check_connectivity_lifting(phi, m, "codim", k=k)


def test_the_lifting_statements_on_every_small_map():
    """The paper's statements over the small world, in one pass.  On each
    combinatorial map with each balanced index map valued 1-2: extension
    from the maximal elements, where guaranteed, never conflicts and gives
    the map back; one-fibre connectivity lifting raises no
    TheoremViolation; and the count is constant on each component of the
    target.  On each graded poset: strongly connected implies pure and
    connected in codimension k for 1 <= k <= d.  Codimension 0, the top
    rank, is left out: with several maximal elements it is a disconnected
    antichain."""
    counts = Counter()
    posets = set()
    for phi in small_world():
        for p in {phi.source, phi.target} - posets:
            posets.add(p)
            try:
                rank = rank_check(p)
            except NotGraded:
                continue
            if connectivity(p, "strong").connected:
                counts["strongly connected"] += 1
                assert rank.pure
                assert all(connectivity(p, "codim", k).connected for k in range(1, rank.dim + 1))
                counts["top rank disconnected"] += not connectivity(p, "codim", 0).connected
        if not phi.is_combinatorial():
            continue
        counts["combinatorial"] += 1
        elements = phi.source.elements
        for values in product((1, 2), repeat=len(elements)):
            m = IndexMap(phi.source, dict(zip(elements, values)))
            if not is_balanced(phi, m):
                continue
            counts["balanced"] += 1
            top = IndexMap(phi.source, {x: m[x] for x in phi.source.max_elements()})
            report = extend_balanced(phi, top, elements)
            if report.mode == "guaranteed":
                counts["guaranteed"] += 1
                assert not report.conflicts and report.extended.values == m.values
            check_connectivity_lifting(phi, m, "one-fibre")
            assert global_degree(phi, m).constant
    assert len(posets) == 24
    assert counts == {"strongly connected": 13, "top rank disconnected": 5,
                      "combinatorial": 290, "balanced": 2001, "guaranteed": 1991}
