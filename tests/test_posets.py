"""Poset construction, order queries, rank, connectivity, up-set
enumeration."""

import pytest
from random import Random

from posetcover.errors import (
    CycleDetected,
    DuplicateElement,
    FormatError,
    NotGraded,
    OracleSizeExceeded,
    RedundantCover,
    UnknownElement,
)
from posetcover.fileio import poset_from_doc
from posetcover.fixtures import fix_idread, fix_trop
from posetcover.metric import (
    MetricGraph,
    graph_face_poset,
    morphism_face_poset,
    refine_to_combinatorial,
)
from posetcover.posets import (
    DEFAULT_ORACLE_LIMIT,
    UP_SET_WALK_LIMIT,
    Poset,
    connectivity,
    enumerate_up_sets,
    rank_check,
    up_set_walk,
)
from posetcover.subdivision import bcs_morphism, chain_poset, simplicial_face_poset

from generators import (
    random_graded_poset,
    random_sheaf_morphism,
    random_strongly_connected_poset,
)
from oracles import (
    brute_antichain_count,
    brute_chains,
    brute_codim_one_pairs,
    brute_poset_components,
    brute_up_sets,
    longest_chains,
    reachability,
)
from test_metric import random_metric_morphism
from test_subdivision import random_complex


def two_chain():
    return Poset(["A", "B"], [("A", "B")])


def chain(n):
    return Poset([f"c{i}" for i in range(n)], [(f"c{i}", f"c{i + 1}") for i in range(n - 1)])


def complete_layered(width, ranks):
    """Every element of a rank covered by every element of the next."""
    levels = [[f"l{r}n{i}" for i in range(width)] for r in range(ranks)]
    covers = [(a, b) for lower, upper in zip(levels, levels[1:]) for a in lower for b in upper]
    return Poset([e for level in levels for e in level], covers)


def random_ungraded_poset(rng, n):
    """Random order on n elements: a random relation along a shuffled
    order, reduced to its covers by the brute-force closure."""
    names = [f"x{i}" for i in range(n)]
    rng.shuffle(names)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:] if rng.random() < 0.3]
    leq = reachability(names, pairs)
    lt = {(a, b) for a, b in leq if a != b}
    covers = [(a, b) for a, b in lt if not any((a, c) in lt and (c, b) in lt for c in names)]
    return Poset(sorted(names), covers)


class TestBuild:
    def test_two_chain(self):
        p = two_chain()
        assert p.leq("A", "B") and not p.leq("B", "A")

    def test_fixture_source_shape(self):
        gamma = fix_trop().source
        assert len(gamma.elements) == 8
        assert len(gamma.covers) == 8

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            Poset(["A", "A"], [])

    def test_unknown_cover_endpoint(self):
        with pytest.raises(UnknownElement):
            Poset(["A"], [("A", "Z")])

    def test_redundant_cover(self):
        with pytest.raises(RedundantCover) as err:
            Poset(["A", "B", "C"], [("A", "B"), ("B", "C"), ("A", "C")])
        assert err.value.pair == ("A", "C")

    def test_cycle(self):
        with pytest.raises(CycleDetected) as err:
            Poset(["A", "B", "C"], [("A", "B"), ("B", "C"), ("C", "A")])
        assert len(err.value.cycle) >= 3

    def test_equality(self):
        assert two_chain() == Poset(["B", "A"], [("A", "B")])

    def test_long_cycle(self):
        # longer than the default recursion limit
        names = [f"e{i}" for i in range(5000)]
        covers = list(zip(names, names[1:] + names[:1]))
        with pytest.raises(CycleDetected) as err:
            Poset(names, covers)
        assert err.value.cycle == tuple(names + names[:1])


ABC = ["a", "b", "c"]

# Constructor inputs, the exception each raises and its witness (the
# message of a built-in error): the first bad cover pair in input order,
# its lower end checked before its upper end, whether it is unknown,
# unhashable or not a pair at all
WITNESSES = [
    ("unknown-lower-first", ABC, [("a", "b"), ("x", "y")], UnknownElement, "x"),
    ("unknown-upper", ABC, [("a", "y"), ("x", "b")], UnknownElement, "y"),
    ("lower-before-upper", ABC, [("y", "x")], UnknownElement, "y"),
    ("short-before-unknown", ABC, [("a",), ("x", "b")], ValueError,
     "not enough values to unpack (expected 2, got 1)"),
    ("long-before-unknown", ABC, [("a", "b", "c"), ("x", "b")], ValueError,
     "too many values to unpack (expected 2)"),
    ("unknown-before-long", ABC, [("x", "b"), ("a", "b", "c")], UnknownElement, "x"),
    ("unknown-before-short", ABC, [("a", "b"), ("b", "x"), ("a",)], UnknownElement, "x"),
    ("not-a-pair", ABC, [("a", "b"), 1], TypeError, "cannot unpack non-iterable int object"),
    ("unhashable-lower", ABC, [(["a"], "b")], TypeError, "unhashable type: 'list'"),
    ("unhashable-upper", ABC, [("a", ["b"])], TypeError, "unhashable type: 'list'"),
    ("unknown-before-unhashable", ABC, [("x", ["b"])], UnknownElement, "x"),
    ("list-pairs", ABC, [["a", "b"], ["b", "x"]], UnknownElement, "x"),
    ("unknown-before-cycle", ABC, [("a", "b"), ("b", "a"), ("a", "z")], UnknownElement, "z"),
    ("duplicate", ["a", "b", "c", "b", "a"], [], DuplicateElement, "b"),
    ("cycle", ABC, [("a", "b"), ("b", "c"), ("c", "a")], CycleDetected, ("a", "b", "c", "a")),
    ("redundant", ABC, [("a", "b"), ("b", "c"), ("a", "c")], RedundantCover, ("a", "c")),
]


class CountedIterable:
    """An iterable that counts the passes made over it."""

    def __init__(self, items):
        self.items = items
        self.calls = 0

    def __iter__(self):
        self.calls += 1
        return iter(self.items)


class TestBuildWitnesses:
    @pytest.mark.parametrize("elements,covers,error,witness", [w[1:] for w in WITNESSES],
                             ids=[w[0] for w in WITNESSES])
    def test_first_bad_input_is_the_witness(self, elements, covers, error, witness):
        with pytest.raises(error) as err:
            Poset(elements, covers)
        assert type(err.value) is error
        assert err.value.args == error(witness).args

    @pytest.mark.parametrize("elements,covers,error,witness", [w[1:] for w in WITNESSES],
                             ids=[w[0] for w in WITNESSES])
    def test_one_shot_covers_give_the_same_witness(self, elements, covers, error, witness):
        with pytest.raises(error) as err:
            Poset(elements, (c for c in covers))
        assert err.value.args == error(witness).args

    @pytest.mark.parametrize("elements,covers,error", [
        (ABC, [("a", "b"), ("b", "c")], None), *(w[1:4] for w in WITNESSES)],
        ids=["good", *(w[0] for w in WITNESSES)])
    def test_the_covers_are_read_once(self, elements, covers, error):
        """The constructor reads its covers in one pass, whether it builds
        the poset or raises; a repeated element raises before they are read."""
        covers = CountedIterable(covers)
        if error is None:
            Poset(elements, covers)
        else:
            with pytest.raises(error):
                Poset(elements, covers)
        assert covers.calls == (0 if error is DuplicateElement else 1)

    def test_pairs_that_unpack_build_the_same_poset(self):
        expected = Poset(ABC, [("a", "b"), ("b", "c")])
        for covers in ([["a", "b"], ["b", "c"]], ["ab", "bc"], iter([("a", "b"), ("b", "c")]),
                       [("a", "b"), ("b", "c"), ("a", "b")], {("a", "b"), ("b", "c")}):
            p = Poset(ABC, covers)
            assert p == expected and p.covers == {("a", "b"), ("b", "c")}
            assert p._up_ix == [[1], [2], []] and p._down_ix == [[], [0], [1]]

    @pytest.mark.parametrize("covers,error,witness", [
        ([["a", "b"], ["b", "x"]], UnknownElement, "x"),
        ([["a", "b", "c"]], FormatError,
         "bad poset document: too many values to unpack (expected 2)"),
        ([["a"], ["x", "b"]], FormatError,
         "bad poset document: not enough values to unpack (expected 2, got 1)"),
        ([["a", "b"], ["b", "a"]], CycleDetected, ("a", "b", "a")),
        ([["a", "b"], ["b", "c"], ["a", "c"]], RedundantCover, ("a", "c")),
    ], ids=["unknown", "long", "short", "cycle", "redundant"])
    def test_documents_with_list_covers(self, covers, error, witness):
        with pytest.raises(error) as err:
            poset_from_doc({"elements": ABC, "covers": covers})
        assert type(err.value) is error and err.value.args == error(witness).args


def label_level(elements, covers):
    """The poset built through the constructor from sorted labels."""
    return Poset(sorted(elements), covers)


def assert_same_poset(built, rebuilt):
    for name in ("elements", "_ids", "_index", "_up_ix", "_down_ix", "_order_ix",
                 "_above", "_below", "covers"):
        assert getattr(built, name) == getattr(rebuilt, name), name
    assert built == rebuilt and hash(built) == hash(rebuilt)


def random_graph(rng):
    """A seeded multigraph with loops, parallel edges and isolated
    vertices, its vertices in shuffled input order."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    rng.shuffle(vertices)
    edges = [(f"e{k}", rng.choice(vertices), rng.choice(vertices), 1)
             for k in range(rng.randint(0, 9))]
    return MetricGraph(vertices, edges)


# the order structure a graded builder leaves to its first reader
LAZY = ("_order_ix", "_above", "_below")


class TestIndexLevelBuild:
    """Chain posets, face posets and induced subposets are built from index
    adjacency; they must equal the posets the constructor builds from their
    labels and covers, found here by brute force.  The graded builders
    leave the order and the closures to their first reader."""

    def test_chain_posets_match_the_label_level_build(self):
        rng = Random(2024)
        for _ in range(60):
            p = random_graded_poset(rng, max_elements=8, max_rank=3)
            leq = reachability(p.elements, p.covers)
            labels = {}
            for chain in brute_chains(p.elements, p.covers):
                members = sorted(chain, key=lambda x: sum((y, x) in leq for y in chain))
                labels[chain] = "<".join(members)
            covers = [(labels[c - {x}], labels[c]) for c in labels if len(c) > 1 for x in c]
            assert_same_poset(chain_poset(p).poset, label_level(labels.values(), covers))

    def test_graph_face_posets_match_the_label_level_build(self):
        rng = Random(2026)
        for _ in range(60):
            g = random_graph(rng)
            covers = {(x, eid) for eid, (a, b, _) in g.edges.items() for x in (a, b)}
            assert_same_poset(graph_face_poset(g),
                              Poset(list(g.vertices) + sorted(g.edges), covers))

    def test_simplicial_face_posets_match_the_label_level_build(self):
        rng = Random(2027)
        for _ in range(60):
            k = random_complex(rng)
            label = {f: ",".join(sorted(f)) for f in k.faces}
            covers = [(label[c], label[d]) for c, d in brute_codim_one_pairs(k.faces)]
            assert_same_poset(simplicial_face_poset(k), label_level(label.values(), covers))

    def test_graded_builds_leave_the_order_and_closures_to_their_first_reader(self):
        rng = Random(2028)
        for _ in range(20):
            for built in (chain_poset(random_graded_poset(rng, max_elements=8, max_rank=3)).poset,
                          graph_face_poset(random_graph(rng)),
                          simplicial_face_poset(random_complex(rng))):
                assert not set(LAZY) & vars(built).keys()

    def test_morphisms_onto_graded_builds_leave_them_lazy(self):
        # the chains of a combinatorial map go to equal chains or covers, and
        # a face-poset morphism sends each cover to its lower end's image or
        # to a cover of it, so neither constructor reads the target's closure
        rng = Random(2029)
        for _ in range(15):
            phi = random_metric_morphism(rng)
            for built in (bcs_morphism(random_sheaf_morphism(rng)),
                          morphism_face_poset(phi),
                          morphism_face_poset(refine_to_combinatorial(phi).morphism)):
                assert not set(LAZY) & vars(built.target).keys()

    @pytest.mark.parametrize("up,rank,pair", [
        ([[1], [2], []], [0, 1, 1], ("b", "c")),
        ([[1], [2], []], [0, 2, 3], ("a", "b")),
        ([[1], [0], []], [0, 1, 0], ("b", "a")),
        ([[1, 2], [2], []], [0, 1, 2], ("a", "c")),
    ], ids=["flat", "skip", "cycle", "redundant"])
    def test_a_wrong_rank_is_an_internal_fault(self, up, rank, pair):
        with pytest.raises(AssertionError) as err:
            Poset._from_index(ABC, up, rank)
        assert err.value.args == (f"cover {pair!r} does not raise the rank by one",)

    def test_induced_subposets_match_the_label_level_build(self):
        rng = Random(2025)
        for _ in range(60):
            p = random_graded_poset(rng, max_elements=10, max_rank=3)
            leq = reachability(p.elements, p.covers)
            lt = {(a, b) for a, b in leq if a != b}
            subsets = [rng.sample(p.elements, rng.randint(0, len(p))),
                       p.up_set(rng.sample(p.elements, rng.randint(0, min(3, len(p)))))]
            for subset in subsets:
                s = set(subset)
                covers = [(a, b) for a, b in lt if a in s and b in s
                          and not any((a, c) in lt and (c, b) in lt for c in s)]
                assert_same_poset(p.induced(s), label_level(s, covers))

    def test_duplicate_chain_label_names_the_least(self):
        # "c<d" and "a<b" are elements and also the labels of two chains
        p = Poset(["c<d", "d", "c", "a<b", "b", "a"], [("a", "b"), ("c", "d")])
        with pytest.raises(DuplicateElement) as err:
            chain_poset(p)
        assert err.value.args == ("duplicate element identifier 'a<b'",)


class TestOrderStructure:
    """The cached topological order and height against an independent
    longest-chain oracle."""

    def posets(self):
        rng = Random(15)
        yield from (random_graded_poset(rng) for _ in range(30))
        yield from (random_ungraded_poset(rng, rng.randint(1, 12)) for _ in range(30))
        yield from (chain(n) for n in (1, 2, 7, 40))
        yield from (complete_layered(w, r) for w, r in ((1, 1), (3, 2), (4, 6), (6, 8)))

    def test_height_matches_oracle(self):
        for p in self.posets():
            height, _ = longest_chains(p.elements, p.covers)
            assert dict(zip(p._ids, p._height)) == height

    def test_order_is_topological(self):
        for p in self.posets():
            order = [p._ids[i] for i in p._order_ix]
            assert sorted(order) == sorted(p.elements)
            position = {e: i for i, e in enumerate(order)}
            assert all(position[a] < position[b] for a, b in p.covers)


class TestOrderQueries:
    def test_up_set_of_B(self):
        delta = fix_trop().target
        assert delta.up_set(["B"]) == {"B", "s", "t"}

    def test_up_set_empty(self):
        assert fix_trop().target.up_set([]) == frozenset()

    def test_idread_punctured_up_set(self):
        delta = fix_idread().target
        assert delta.up_set(["tO"]) - {"tO"} == {"B", "C", "beta", "gamma"}

    def test_covers(self):
        delta = fix_trop().target
        assert delta.covers_of("B") == ("s", "t")

    def test_max_min(self):
        delta = fix_trop().target
        assert delta.max_elements() == ("s", "t")
        assert delta.min_elements() == ("A", "B", "C")

    def test_down_set(self):
        delta = fix_trop().target
        assert delta.down_set(["s"]) == {"A", "B", "s"}

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            two_chain().up_set(["Z"])

    def test_antisymmetry_on_random_posets(self):
        rng = Random(7)
        for _ in range(25):
            p = random_graded_poset(rng)
            for a in p.elements:
                for b in p.elements:
                    if p.leq(a, b) and p.leq(b, a):
                        assert a == b

    def test_up_set_is_least(self):
        rng = Random(8)
        for _ in range(10):
            p = random_graded_poset(rng, max_elements=7)
            ups = brute_up_sets(p.elements, p.covers)
            gens = rng.sample(p.elements, rng.randint(0, min(3, len(p.elements))))
            generated = p.up_set(gens)
            assert p.up_set(generated) == generated and set(gens) <= generated
            for u in ups:
                if set(gens) <= u:
                    assert generated <= u


class TestRank:
    def test_fixture_ranks(self):
        gamma = fix_trop().source
        report = rank_check(gamma)
        assert report.dim == 1 and report.pure
        assert report.rank["A1"] == 0 and report.rank["t2"] == 1

    def test_chain_ranks(self):
        p = Poset(["A", "B", "C"], [("A", "B"), ("B", "C")])
        assert rank_check(p).rank == {"A": 0, "B": 1, "C": 2}

    def test_not_graded_witness(self):
        p = Poset(["A", "B", "C", "D"], [("A", "B"), ("B", "D"), ("C", "D")])
        with pytest.raises(NotGraded) as err:
            rank_check(p)
        assert err.value.pair == ("C", "D")

    def test_impure(self):
        p = Poset(["A", "B", "C", "Z"], [("A", "B"), ("B", "C"), ("A", "Z")])
        report = rank_check(p)
        assert report.dim == 2 and not report.pure


class TestConnectivity:
    def test_trop_target_connected_and_strong(self):
        delta = fix_trop().target
        assert connectivity(delta, "connected").connected
        # dimension 1: the rank <= -1 condition is vacuous
        assert connectivity(delta, "strong").connected

    def test_idread_target_not_strong(self):
        report = connectivity(fix_idread().target, "strong")
        assert not report.connected
        assert report.witness == "tO"
        assert sorted(map(sorted, report.components)) == [["B", "beta"], ["C", "gamma"]]

    def test_singleton(self):
        p = Poset(["x"], [])
        assert connectivity(p, "connected").connected
        assert connectivity(p, "strong").connected
        assert connectivity(p, "codim", 0).connected

    def test_codim_range(self):
        delta = fix_trop().target
        assert connectivity(delta, "codim", 0).connected is False  # {s, t} antichain
        assert connectivity(delta, "codim", 1).connected
        with pytest.raises(ValueError):
            connectivity(delta, "codim", 5)

    def test_requires_rank(self):
        p = Poset(["A", "B", "C", "D"], [("A", "B"), ("B", "D"), ("C", "D")])
        with pytest.raises(NotGraded):
            connectivity(p, "strong")

    def test_components_match_oracle(self):
        rng = Random(11)
        for _ in range(20):
            p = random_graded_poset(rng)
            assert p.components() == brute_poset_components(p.elements, p.covers)

    def test_strong_implies_pure_and_codim_connected(self):
        rng = Random(12)
        for _ in range(25):
            p = random_strongly_connected_poset(rng)
            report = rank_check(p)
            assert report.pure
            for k in range(1, report.dim + 1):
                assert connectivity(p, "codim", k).connected


class TestEnumerateUpSets:
    def test_two_chain(self):
        ups = list(enumerate_up_sets(two_chain()))
        assert sorted(map(sorted, ups)) == [[], ["A", "B"], ["B"]]

    def test_antichain(self):
        p = Poset(["a", "b"], [])
        assert len(list(enumerate_up_sets(p))) == 4
        connected = list(enumerate_up_sets(p, connected_only=True))
        assert sorted(map(sorted, connected)) == [["a"], ["b"]]

    def test_trop_target_counts(self):
        delta = fix_trop().target
        ups = list(enumerate_up_sets(delta))
        non_empty = [u for u in ups if u]
        assert len(non_empty) == 12  # frozen from the subset-filter oracle
        assert len(non_empty) == len(brute_up_sets(delta.elements, delta.covers)) - 1
        connected = list(enumerate_up_sets(delta, connected_only=True))
        assert len(connected) == 8

    def test_count_equals_antichain_count(self):
        rng = Random(13)
        for _ in range(20):
            p = random_graded_poset(rng, max_elements=8)
            got = list(enumerate_up_sets(p))
            assert len(got) == brute_antichain_count(p.elements, p.covers)
            assert len(set(got)) == len(got)

    def test_matches_brute_force(self):
        rng = Random(14)
        for _ in range(10):
            p = random_graded_poset(rng, max_elements=7)
            assert sorted(enumerate_up_sets(p), key=sorted) == \
                sorted(brute_up_sets(p.elements, p.covers), key=sorted)

    def test_size_guard(self):
        p = Poset([f"x{i}" for i in range(17)], [])
        with pytest.raises(OracleSizeExceeded):
            list(enumerate_up_sets(p))
        small = Poset([f"x{i}" for i in range(12)], [])
        assert len(list(enumerate_up_sets(small, limit=12))) == 2 ** 12

    def test_walk_guard(self):
        # the most up-sets a poset within the default limit has
        widest = Poset([f"x{i:02d}" for i in range(DEFAULT_ORACLE_LIMIT)], [])
        assert sum(1 for _ in up_set_walk(widest)) == 2 ** DEFAULT_ORACLE_LIMIT < UP_SET_WALK_LIMIT
        at_guard = Poset([f"x{i:02d}" for i in range(17)], [])
        assert sum(1 for _ in up_set_walk(at_guard, limit=17)) == UP_SET_WALK_LIMIT
        over = Poset([f"x{i:02d}" for i in range(18)], [])
        for connected in (False, True):
            with pytest.raises(OracleSizeExceeded) as err:
                list(up_set_walk(over, connected_only=connected, limit=18))
            assert (err.value.size, err.value.limit) == (UP_SET_WALK_LIMIT + 1, UP_SET_WALK_LIMIT)
