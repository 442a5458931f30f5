"""Differential tests of the bitset order kernel: topological order,
components, fibres and preimages, the local test of combinatoriality,
strong connectivity by merged covers, the one-pass local degrees, and the
full witness lists of combinatoriality, openness, balancing, both
branched-cover decisions (is_ibc on principal up-sets where the map is
combinatorial, and as the oracle elsewhere), up-set enumeration and
extension, each against an independent oracle.  The decisions and the
up-set walk are also checked on every map and poset of a small world,
with the paper's equivalence and a counterexample for each hypothesis."""

import pytest
from collections import Counter
from random import Random

from posetcover.covers import (
    BranchDefect,
    DegreeMismatch,
    IndexMap,
    is_balanced,
    is_ibc,
    is_ibc_oracle,
    local_degree,
)
from posetcover.errors import NotUpSet, RedundantCover
from posetcover.extend import extend_balanced
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset, enumerate_up_sets, rank_check, up_set_walk

from generators import (
    all_posets,
    random_balanced_map,
    random_graded_poset,
    random_sheaf_morphism,
    small_world,
)
import test_posets
from oracles import (
    brute_balance_violations,
    brute_branch_defects,
    brute_combinatorial_defects,
    brute_degree_mismatches,
    brute_extension,
    brute_openness_defects,
    brute_poset_components,
    brute_up_set_walk,
    reachability,
)


def defects(phi):
    return [tuple(w) for w in phi.is_combinatorial().witnesses]


def oracle_defects(phi):
    return brute_combinatorial_defects(phi.source.elements, phi.source.covers,
                                       phi.target.elements, phi.target.covers, phi.mapping)


def conflict_shapes(report):
    """The shape of every extension conflict: two cover groups with
    different sums, or the first group named twice with its sum, which is
    0 when the group is empty and otherwise None or a positive sum beside
    a group holding an element left unvalued by an earlier conflict.  On a
    combinatorial morphism every cover of an element lies in some group,
    so an empty group is named only beside such an unvalued one."""
    shapes = Counter()
    for c in report.conflicts:
        if c.sum1 != c.sum2:
            shapes["disagreeing sums"] += 1
        elif c.sum1 == 0:
            shapes["zero sum"] += 1
        else:
            shapes["unvalued cover"] += 1
    return shapes


def merge(poset, keep, drop):
    """The poset with ``drop`` identified with ``keep``.  Both must have the
    same rank in a graded poset, so covers still join consecutive ranks and
    stay a transitive reduction."""
    def name(e):
        return keep if e == drop else e
    return Poset([e for e in poset.elements if e != drop],
                 {(name(a), name(b)) for a, b in poset.covers})


def collapsed_sheets(rng):
    """A gluing with two source elements over one target element merged."""
    phi = random_sheaf_morphism(rng, max_sheets=4)
    fibres = [sorted(phi.fibre(b)) for b in sorted(phi.target.elements)]
    fibres = [f for f in fibres if len(f) > 1]
    if not fibres:
        return phi
    keep, drop = rng.sample(rng.choice(fibres), 2)
    mapping = {x: y for x, y in phi.mapping.items() if x != drop}
    return PosetMorphism(merge(phi.source, keep, drop), phi.target, mapping)


def merged_targets(rng):
    """A gluing followed by the quotient of its target that identifies two
    target elements of equal rank."""
    phi = random_sheaf_morphism(rng, max_sheets=3)
    rank = rank_check(phi.target).rank
    pairs = [(a, b) for a in sorted(rank) for b in sorted(rank) if a < b and rank[a] == rank[b]]
    if not pairs:
        return phi
    keep, drop = rng.choice(pairs)
    mapping = {x: keep if y == drop else y for x, y in phi.mapping.items()}
    return PosetMorphism(phi.source, merge(phi.target, keep, drop), mapping)


def onto_chain(rng):
    """A random graded poset onto a chain, by its rank function or by the
    positions of a random linear extension."""
    p = random_graded_poset(rng, max_elements=9, max_rank=3)
    if rng.random() < 0.5:
        rank = rank_check(p).rank
    else:
        order = sorted(p.elements, key=lambda e: (p._height[p._index[e]], rng.random()))
        rank = {e: i for i, e in enumerate(order)}
    top = max(rank.values())
    chain = Poset([f"c{i:02d}" for i in range(top + 1)],
                  [(f"c{i:02d}", f"c{i + 1:02d}") for i in range(top)])
    return PosetMorphism(p, chain, {e: f"c{rank[e]:02d}" for e in p.elements})


def truncated(rng):
    """A gluing with the up-set of one or two source elements removed, so
    that images of up-sets can miss several covers at once."""
    phi = random_sheaf_morphism(rng, max_sheets=3)
    elements = sorted(phi.source.elements)
    keep = set(elements) - phi.source.up_set(rng.sample(elements, min(2, len(elements))))
    if not keep:
        return phi
    return PosetMorphism(phi.source.induced(keep), phi.target,
                         {x: phi.mapping[x] for x in keep})


def extra_tops(rng):
    """A gluing whose target gains one or two maximal elements, each
    covering part of one rank: down-sets keep their images, so the map
    stays combinatorial, but the images of up-sets miss the new elements,
    so it is not open."""
    phi = random_sheaf_morphism(rng, max_sheets=3)
    rank = rank_check(phi.target).rank
    ranks = sorted(set(rank.values()))
    elements, covers = list(phi.target.elements), set(phi.target.covers)
    for k in range(rng.randint(1, 2)):
        r = rng.choice(ranks)
        level = sorted(e for e in rank if rank[e] == r)
        elements.append(f"new{k}")
        covers |= {(e, f"new{k}") for e in rng.sample(level, rng.randint(1, len(level)))}
    return PosetMorphism(phi.source, Poset(elements, covers), phi.mapping)


def dropped_cover(rng):
    """A gluing with one source cover a < b removed, b not maximal: b no
    longer maps its down-set onto that of its image, while an element above
    b that still lies above a stays bijective, with an inverse that is not
    monotone."""
    phi = random_sheaf_morphism(rng, max_sheets=3)
    source = phi.source
    inner = sorted((a, b) for a, b in source.covers if source.covers_of(b))
    if not inner:
        return phi
    covers = source.covers - {rng.choice(inner)}
    return PosetMorphism(Poset(source.elements, covers), phi.target, phi.mapping)


FAMILIES = [random_sheaf_morphism, collapsed_sheets, merged_targets, onto_chain]


class TestCombinatorialByCounting:
    def test_least_reversed_pair_onto_chain(self):
        source = Poset(["x", "y", "z", "a"], [("x", "a"), ("y", "a"), ("z", "a")])
        target = Poset(["X", "Y", "Z", "A"], [("X", "Y"), ("Y", "Z"), ("Z", "A")])
        phi = PosetMorphism(source, target, {"x": "X", "y": "Y", "z": "Z", "a": "A"})
        assert defects(phi) == [
            ("a", "inverse not monotone", "X <= Y but x !<= y"),
            ("y", "not surjective", "|down(y)|=1 != |down(Y)|=2"),
            ("z", "not surjective", "|down(z)|=1 != |down(Z)|=3"),
        ]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_against_pairwise_oracle(self, family):
        rng = Random(f"combinatorial/{family.__name__}")
        reasons = Counter()
        for _ in range(150):
            phi = family(rng)
            got = defects(phi)
            assert got == oracle_defects(phi)
            assert bool(phi.is_combinatorial()) == (not got)
            reasons.update(w[1] for w in got)
            reasons["passed"] += not got
        if family is random_sheaf_morphism:
            assert reasons == {"passed": 150}
        else:
            # every family breaks and keeps the property in many instances
            assert reasons["passed"] >= 10 and sum(reasons.values()) - reasons["passed"] >= 10
        if family is onto_chain:
            assert reasons["inverse not monotone"] >= 10


class TestComponentsAndFibres:
    def test_components_of_random_subsets(self):
        rng = Random(31)
        for _ in range(120):
            p = random_graded_poset(rng, max_elements=12, max_rank=3)
            subset = [e for e in p.elements if rng.random() < 0.6]
            assert p.components(subset) == brute_poset_components(p.elements, p.covers, subset)
            assert p.is_connected(subset) == (len(p.components(subset)) <= 1)

    def test_fibre_and_preimage_against_a_full_scan(self):
        rng = Random(32)
        for _ in range(60):
            phi = random_sheaf_morphism(rng, max_sheets=4)
            source, target = phi.source, phi.target
            for beta in target.elements:
                assert phi.fibre(beta) == {x for x in source.elements if phi(x) == beta}
            subset = {y for y in target.elements if rng.random() < 0.5}
            assert phi.preimage(subset) == {x for x in source.elements if phi(x) in subset}
            t_leq = reachability(target.elements, target.covers)
            for beta in target.elements:
                over = {x for x in source.elements if (beta, phi(x)) in t_leq}
                preimage = phi.preimage(phi.target.up_set([beta]))
                assert phi.source.components(preimage) == brute_poset_components(
                    source.elements, source.covers, over)


def wide_antichains():
    """Antichains of shuffled names, alone and with three tops over a few
    of their members."""
    rng = Random(33)
    for width in (1, 5, 40, 200):
        names = [f"w{rng.randrange(10 ** 6):06d}" for _ in range(width)]
        names = list(dict.fromkeys(names))
        rng.shuffle(names)
        tops = [f"t{i}" for i in range(3)]
        covers = [(a, t) for t in tops for a in rng.sample(names, min(3, len(names)))]
        yield Poset(names, [])
        yield Poset(names + tops, covers)


class TestOrderKernel:
    def test_order_on_wide_antichains(self):
        for p in wide_antichains():
            assert sorted(p._order_ix) == list(range(len(p)))
            position = {i: k for k, i in enumerate(p._order_ix)}
            assert all(position[i] < position[j] for i, ups in enumerate(p._up_ix) for j in ups)

    def test_spread_against_reachability(self):
        """Poset._spread, both ways, with random seeds: each element's seed
        joined with those of every element above it, or below it."""
        rng = Random(35)
        posets = [p for n in range(1, 5) for p in all_posets(n)]
        posets += wide_antichains()
        posets += [random_graded_poset(rng, max_elements=12, max_rank=4) for _ in range(40)]
        for p in posets:
            leq = reachability(p.elements, p.covers)
            seeds = [rng.getrandbits(8) for _ in p._ids]
            seed = dict(zip(p._ids, seeds))
            for upward in (True, False):
                expected = []
                for a in p._ids:
                    joined = 0
                    for b in p._ids:
                        if ((a, b) if upward else (b, a)) in leq:
                            joined |= seed[b]
                    expected.append(joined)
                assert p._spread(seeds, upward) == expected

    def test_order_queries_against_reachability(self):
        rng = Random(34)
        for _ in range(40):
            p = random_graded_poset(rng, max_elements=10, max_rank=3)
            leq = reachability(p.elements, p.covers)
            for a in p.elements:
                assert p.up_set([a]) == {b for b in p.elements if (a, b) in leq}
                assert p.down_set([a]) == {b for b in p.elements if (b, a) in leq}
                for b in p.elements:
                    assert p.leq(a, b) == ((a, b) in leq)
                    assert p.lt(a, b) == ((a, b) in leq and a != b)
            subset = [e for e in p.elements if rng.random() < 0.6]
            sub = p.induced(subset)
            lt = {(a, b) for a, b in leq if a != b and a in subset and b in subset}
            assert sub.covers == {(a, b) for a, b in lt
                                  if not any((a, c) in lt and (c, b) in lt for c in subset)}

    def test_least_redundant_cover(self):
        covers = [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]
        with pytest.raises(RedundantCover) as err:
            Poset(["a", "b", "c", "d", "e", "f"], covers)
        assert err.value.pair == ("a", "c")

    def test_least_up_set_defect(self):
        p = Poset(["a", "b", "c", "d"], [("a", "c"), ("b", "d"), ("b", "c")])
        with pytest.raises(NotUpSet) as err:
            p.require_up_set({"b", "a"})
        assert (err.value.member, err.value.missing) == ("a", "c")


def test_one_pass_degrees_match_local_degree():
    rng = Random(35)
    mismatches = 0
    for _ in range(60):
        phi = random_sheaf_morphism(rng, max_sheets=3)
        m = IndexMap.total(phi.source, {x: rng.randint(1, 3) for x in phi.source.elements})
        for w in is_ibc(phi, m).witnesses:
            if isinstance(w, DegreeMismatch):
                mismatches += 1
                assert local_degree(phi, m, w.component, w.y1) == w.d1
                assert local_degree(phi, m, w.component, w.y2) == w.d2 != w.d1
                assert w.y1 == min(phi.image(w.component))
    assert mismatches >= 10


def index_maps(rng, phi):
    """The pushed-down map (random values where pushing fails), the same
    with one value raised by one, and its restriction to a random up-set
    that holds the maximal elements."""
    source = phi.source
    elements = sorted(source.elements)
    pushed = random_balanced_map(rng, phi)
    values = dict(pushed.values) if pushed else {x: rng.randint(1, 3) for x in elements}
    perturbed = dict(values)
    perturbed[rng.choice(elements)] += 1
    upset = source.up_set([x for x in elements if rng.random() < 0.3]
                          + list(source.max_elements()))
    return [IndexMap.total(source, values), IndexMap.total(source, perturbed),
            IndexMap(source, {x: values[x] for x in elements if x in upset})]


def witness_kinds(rng, phi) -> Counter:
    """Check every witness list of one morphism and its index maps against
    the oracles; count the witnesses of each kind."""
    source, target, mapping = phi.source, phi.target, phi.mapping
    s_elements, s_covers = source.elements, source.covers
    t_elements, t_covers = target.elements, target.covers
    kinds = Counter()

    not_combinatorial = defects(phi)
    assert not_combinatorial == oracle_defects(phi)
    kinds.update(w[1] for w in not_combinatorial)
    opened = [tuple(w) for w in phi.is_open().witnesses]
    assert opened == brute_openness_defects(s_elements, s_covers, t_covers, mapping)
    kinds["not open"] += bool(opened)

    walks = {}
    for connected in (False, True):
        walks[connected] = brute_up_set_walk(t_elements, t_covers, connected)
        assert list(enumerate_up_sets(target, connected)) == walks[connected]
        if len(source) <= 12:
            assert list(enumerate_up_sets(source, connected)) == brute_up_set_walk(
                s_elements, s_covers, connected)
    t_leq = reachability(t_elements, t_covers)
    principal = [(b, {y for y in t_elements if (b, y) in t_leq}) for b in sorted(t_elements)]
    branch = brute_branch_defects(s_elements, s_covers, t_elements, t_covers, mapping)

    maps = index_maps(rng, phi)
    for m in maps:
        balance = [tuple(w) for w in is_balanced(phi, m).witnesses]
        assert balance == brute_balance_violations(s_covers, t_covers, mapping, m.values)
        kinds["balance violation"] += len(balance)
        if not m.is_total():
            continue
        oracle = [tuple(w) for w in is_ibc_oracle(phi, m).witnesses]
        assert oracle == branch + brute_degree_mismatches(s_elements, s_covers, mapping,
                                                          m.values, [(u, u) for u in walks[True]])
        kinds["oracle degree mismatch"] += len(oracle) - len(branch)
        got = [tuple(w) for w in is_ibc(phi, m).witnesses]
        if not_combinatorial:
            # principal up-sets do not decide these maps; is_ibc walks them
            assert got == oracle
            kinds["ibc walked"] += 1
            continue
        # on combinatorial maps is_ibc passes balanced maps at once and sums
        # only the up(alpha) components, over principal up-sets only
        assert got == branch + brute_degree_mismatches(s_elements, s_covers, mapping,
                                                       m.values, principal)
        assert bool(got) == bool(oracle)
        kinds["degree mismatch"] += len(got) - len(branch)
        if is_balanced(phi, m):
            kinds["ibc balanced"] += 1
        else:
            kinds["ibc by up-set components"] += 1

    if not_combinatorial:
        return kinds
    tops = {x: rng.randint(1, 3) for x in source.max_elements()}
    for m in (maps[2], IndexMap(source, tops)):
        if brute_balance_violations(s_covers, t_covers, mapping, m.values):
            continue  # extension needs a balanced map to start from
        report = extend_balanced(phi, m, s_elements)
        assert (report.extended.values, report.mode,
                [tuple(c) for c in report.conflicts], report.unconstrained) == brute_extension(
            s_elements, s_covers, t_elements, t_covers, mapping, m.values, s_elements)
        kinds[f"{report.mode} extension" + (" with conflicts" if report.conflicts else "")] += 1
        kinds += conflict_shapes(report)
    return kinds


def test_witness_lists_against_oracles():
    kinds = Counter()
    for family in FAMILIES + [truncated, extra_tops, dropped_cover]:
        rng = Random(f"witnesses/{family.__name__}")
        found = Counter()
        for _ in range(60):
            found += witness_kinds(rng, family(rng))
        if family is extra_tops:
            assert found["not open"] == 60 and not found["ibc walked"]
        if family is dropped_cover:
            assert found["inverse not monotone"] >= 10
        kinds += found
    print(dict(sorted(kinds.items())))
    for kind in ("not injective", "not surjective", "inverse not monotone",
                 "not open", "balance violation", "degree mismatch", "oracle degree mismatch",
                 "ibc walked", "ibc balanced", "ibc by up-set components",
                 "guaranteed extension", "opportunistic extension with conflicts",
                 "disagreeing sums", "unvalued cover", "zero sum"):
        assert kinds[kind], kind


def test_extension_into_a_proper_up_set_against_the_oracle():
    """Extension over an up-set that holds the domain but not the whole
    source: the walk skips the elements outside it."""
    kinds = Counter()
    for family in FAMILIES + [truncated, extra_tops]:
        rng = Random(f"proper extension/{family.__name__}")
        for _ in range(60):
            phi = family(rng)
            if defects(phi):
                continue
            source, target, mapping = phi.source, phi.target, phi.mapping
            elements = sorted(source.elements)
            pushed = random_balanced_map(rng, phi)
            values = pushed.values if pushed else {x: rng.randint(1, 3) for x in elements}
            domain = source.up_set(list(source.max_elements())
                                   + [x for x in elements if rng.random() < 0.2])
            m = IndexMap(source, {x: values[x] for x in domain})
            if brute_balance_violations(source.covers, target.covers, mapping, m.values):
                continue
            upset = domain | source.up_set([x for x in elements if rng.random() < 0.3])
            if len(upset) == len(source):
                continue
            report = extend_balanced(phi, m, upset)
            assert (report.extended.values, report.mode,
                    [tuple(c) for c in report.conflicts], report.unconstrained) == brute_extension(
                source.elements, source.covers, target.elements, target.covers, mapping,
                m.values, upset)
            assert report.extended.domain <= upset
            kinds[report.mode + (" with conflicts" if report.conflicts else "")] += 1
            kinds["grown"] += len(report.extended.domain) > len(domain)
            kinds += conflict_shapes(report)
    print(dict(sorted(kinds.items())))
    for kind in ("guaranteed", "opportunistic with conflicts", "grown"):
        assert kinds[kind] >= 5, kind
    for kind in ("disagreeing sums", "unvalued cover", "zero sum"):
        assert kinds[kind], kind


def test_strong_connectivity_by_merged_covers():
    """The punctured up-set test of strong connectivity and extension
    against components grown by breadth-first search."""
    for p in test_posets.TestOrderStructure().posets():
        for i in range(len(p)):
            assert p._punctured_connected(i) == (len(p._component_bits(p._above[i])) == 1)


SMALL_WORLD = small_world()


def small_world_index_maps(phi):
    """The constant map, and for each image element the map with value 2 at
    the least element of its fibre and 1 elsewhere: 7364 index maps over
    the small world (all values 1-2 would be 34 716, too slow to run)."""
    ones = dict.fromkeys(phi.source.elements, 1)
    yield IndexMap.total(phi.source, ones)
    for beta in sorted(set(phi.mapping.values())):
        yield IndexMap.total(phi.source, {**ones, min(phi.fibre(beta)): 2})


def test_both_decisions_on_every_small_map():
    """The oracle against the definition over every connected up-set, and
    is_ibc against the oracle, on every total map of the small world; in
    the same pass, the paper's equivalence and a counterexample for each
    of its hypotheses."""
    assert len(SMALL_WORLD) == 2436
    kinds = Counter()
    walks = {}
    tally = Counter()
    first = {}
    for phi in SMALL_WORLD:
        source, target, mapping = phi.source, phi.target, phi.mapping
        s_elements, s_covers = source.elements, source.covers
        branch = brute_branch_defects(s_elements, s_covers, target.elements, target.covers,
                                      mapping)
        if target not in walks:
            walks[target] = [(u, u) for u in brute_up_set_walk(target.elements, target.covers,
                                                                True)]
        connected = walks[target]
        combinatorial, opened = bool(phi.is_combinatorial()), bool(phi.is_open())
        for m in small_world_index_maps(phi):
            got = [tuple(w) for w in is_ibc_oracle(phi, m).witnesses]
            assert got == branch + brute_degree_mismatches(s_elements, s_covers, mapping,
                                                           m.values, connected)
            ibc = is_ibc(phi, m)
            assert bool(ibc) == (not got)
            if not combinatorial:
                assert [tuple(w) for w in ibc.witnesses] == got
            balanced = bool(is_balanced(phi, m))
            tally[combinatorial, opened, balanced, bool(ibc)] += 1
            if balanced != bool(ibc):
                first.setdefault("balanced" if balanced else "ibc", (
                    combinatorial, opened, sorted(s_elements), sorted(s_covers),
                    sorted(target.elements), sorted(target.covers), mapping, m.values,
                    ibc.witnesses))
            kinds["oracle fails"] += bool(got)
            kinds["is_ibc fails"] += not ibc
            kinds["oracle mismatches"] += len(got) - len(branch)
            kinds["index maps"] += 1
    assert kinds["index maps"] == 7364
    assert kinds["oracle fails"] and kinds["is_ibc fails"] and kinds["oracle mismatches"]
    # balanced <=> IBC on combinatorial open maps, and balanced => open on
    # combinatorial maps
    assert tally[True, True, True, True] == 504 and tally[True, True, False, False] == 76
    assert not tally[True, True, True, False] and not tally[True, True, False, True]
    assert not tally[True, False, True, True] and not tally[True, False, True, False]
    # without openness: one point onto the bottom of a 2-chain is IBC, but
    # the cover e0 < e1 of its image has nothing above the point
    assert first["ibc"] == (True, False, ["e0"], [], ["e0", "e1"], [("e0", "e1")],
                            {"e0": "e0"}, {"e0": 1}, ())
    # without combinatoriality: a 2-chain onto a point is balanced and open,
    # but its fibre holds a comparable pair, a branch defect
    assert first["balanced"] == (False, True, ["e0", "e1"], [("e0", "e1")], ["e0"], [],
                                 {"e0": "e0", "e1": "e0"}, {"e0": 1, "e1": 1},
                                 (BranchDefect("e0", "e0"),))


def test_the_shared_walk_on_every_small_poset():
    """up_set_walk, plain and connected, against the recursive walk on one
    poset per isomorphism class of at most 5 elements."""
    for n in range(1, 6):
        for p in all_posets(n):
            for connected in (False, True):
                got = [frozenset(p._labels(u)) for u, _ in up_set_walk(p, connected)]
                assert got == brute_up_set_walk(p.elements, p.covers, connected)
