"""Chain posets, induced barycentric morphisms, stellar subdivision."""

import pytest
from random import Random

from posetcover.errors import (
    DuplicateElement,
    FaceNotInComplex,
    NotCombinatorial,
    OracleSizeExceeded,
    VertexClash,
)
from posetcover import subdivision
from posetcover.fileio import complex_to_doc
from posetcover.fixtures import fix_ce1, fix_trop
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset, rank_check
from posetcover.subdivision import (
    SimplicialComplex,
    bcs_morphism,
    chain_poset,
    simplicial_face_poset,
    stellar_subdivide,
)

from generators import all_posets, random_graded_poset, random_sheaf_morphism, small_world
from oracles import (
    brute_chains,
    brute_closure_faces,
    brute_codim_one_pairs,
    brute_maximal_faces,
    brute_missing_faces,
    reachability,
)


def three_simplex():
    return SimplicialComplex.from_maximal("1234", ["1234"])


def random_complex(rng):
    vertices = [str(i) for i in range(rng.randint(3, 7))]
    maximal = [rng.sample(vertices, rng.randint(2, len(vertices)))
               for _ in range(rng.randint(1, 3))]
    return SimplicialComplex.from_maximal(vertices, maximal)


class TestChainPoset:
    def test_two_chain(self):
        p = Poset(["A", "B"], [("A", "B")])
        chains = chain_poset(p)
        assert sorted(chains.poset.elements) == ["A", "A<B", "B"]
        assert chains.poset.covers == {("A", "A<B"), ("B", "A<B")}
        assert chains.chain_of["A<B"] == ("A", "B")

    def test_antichain(self):
        p = Poset(["a", "b", "c"], [])
        chains = chain_poset(p)
        assert len(chains.poset.elements) == 3
        assert not chains.poset.covers

    def test_three_simplex_count(self):
        poset = simplicial_face_poset(three_simplex())
        chains = chain_poset(poset)
        assert len(chains.poset.elements) == 149
        assert len(chains.poset.elements) == len(brute_chains(poset.elements, poset.covers))

    def test_rank_is_chain_length(self):
        poset = simplicial_face_poset(three_simplex())
        chains = chain_poset(poset)
        report = rank_check(chains.poset)
        for label, content in chains.chain_of.items():
            assert report.rank[label] == len(content) - 1
        assert report.pure and report.dim == 3

    def test_size_guard(self, monkeypatch):
        poset = simplicial_face_poset(three_simplex())
        monkeypatch.setattr(subdivision, "DEFAULT_CHAIN_LIMIT", 10)
        with pytest.raises(OracleSizeExceeded):
            chain_poset(poset)

    def test_size_guard_boundary(self, monkeypatch):
        # three chains: A, B and A<B
        p = Poset(["A", "B"], [("A", "B")])
        monkeypatch.setattr(subdivision, "DEFAULT_CHAIN_LIMIT", 3)
        assert len(chain_poset(p).poset.elements) == 3
        monkeypatch.setattr(subdivision, "DEFAULT_CHAIN_LIMIT", 2)
        with pytest.raises(OracleSizeExceeded) as raised:
            chain_poset(p)
        assert str(raised.value) == "instance size 3 exceeds oracle limit 2"

    def test_least_repeated_label_is_the_duplicate(self):
        # the chains x<y and z<y are also elements of the poset
        p = Poset(["x", "y", "z", "z<y", "x<y"], [("x", "y"), ("z", "y"), ("z<y", "x<y")])
        with pytest.raises(DuplicateElement) as raised:
            chain_poset(p)
        assert raised.value.element == "x<y"

    def test_against_brute_chains_and_covers(self):
        rng = Random(54)
        for _ in range(40):
            _assert_chains_are_brute_chains(random_graded_poset(rng, max_elements=8))

    def test_every_small_poset_against_brute_chains(self):
        for n in range(1, 6):
            for p in all_posets(n):
                _assert_chains_are_brute_chains(p)

    def test_built_once_per_poset(self, monkeypatch):
        built = []

        def counted(p):
            built.append(p)
            return build(p)

        build = subdivision._build_chain_poset
        monkeypatch.setattr(subdivision, "_build_chain_poset", counted)
        phi = random_sheaf_morphism(Random(25))  # posets no other test has seen
        first = chain_poset(phi.target)
        bcs = bcs_morphism(phi)
        assert chain_poset(phi.target) is first
        assert bcs.target is first.poset
        assert [p is phi.target for p in built] == [True, False]

    def test_a_kept_chain_poset_meets_the_current_limit(self, monkeypatch):
        poset = simplicial_face_poset(three_simplex())
        kept = chain_poset(poset)
        for limit in (148, 10):
            monkeypatch.setattr(subdivision, "DEFAULT_CHAIN_LIMIT", limit)
            with pytest.raises(OracleSizeExceeded) as raised:
                chain_poset(poset)
            assert str(raised.value) == f"instance size {limit + 1} exceeds oracle limit {limit}"
        monkeypatch.setattr(subdivision, "DEFAULT_CHAIN_LIMIT", 149)
        assert chain_poset(poset) is kept


def _assert_chains_are_brute_chains(p):
    """The chain poset of p against every chain and every codimension-one
    pair found by filtering subsets."""
    leq = reachability(p.elements, p.covers)
    chains = chain_poset(p)
    brute = brute_chains(p.elements, p.covers)
    assert {frozenset(c) for c in chains.chain_of.values()} == set(brute)
    assert list(chains.poset.elements) == sorted(chains.chain_of)
    for label, c in chains.chain_of.items():
        assert label == "<".join(c)
        assert all((a, b) in leq for a, b in zip(c, c[1:]))
    content = {label: frozenset(c) for label, c in chains.chain_of.items()}
    assert {(content[a], content[b]) for a, b in chains.poset.covers} == (
        brute_codim_one_pairs(brute))


class TestBcsMorphism:
    def test_trop_chain_image(self):
        bcs = bcs_morphism(fix_trop())
        assert bcs("C1<t1") == "C<t"

    def test_identity(self):
        p = fix_trop().target
        bcs = bcs_morphism(PosetMorphism.identity(p))
        assert all(bcs(x) == x for x in bcs.source.elements)

    def test_output_is_combinatorial(self):
        assert bcs_morphism(fix_trop()).is_combinatorial()

    def test_requires_combinatorial(self):
        with pytest.raises(NotCombinatorial):
            bcs_morphism(fix_ce1())

    def test_random_instances(self):
        rng = Random(51)
        for _ in range(15):
            phi = random_sheaf_morphism(rng)
            assert bcs_morphism(phi).is_combinatorial()

    def test_every_small_combinatorial_map(self):
        combinatorial = [phi for phi in small_world() if phi.is_combinatorial()]
        assert len(combinatorial) == 290
        for phi in combinatorial:
            assert bcs_morphism(phi).is_combinatorial()


class TestStellar:
    def test_three_simplex_at_triangle(self):
        before = three_simplex()
        after = stellar_subdivide(before, {"1", "2", "3"}, "p")
        assert len(after) == 27
        added = after.faces - before.faces
        removed = before.faces - after.faces
        assert removed == {frozenset("123"), frozenset("1234")}
        by_dim = {}
        for f in added:
            by_dim[len(f) - 1] = by_dim.get(len(f) - 1, 0) + 1
        assert by_dim == {0: 1, 1: 4, 2: 6, 3: 3}

    def test_edge_bisection(self):
        edge = SimplicialComplex.from_maximal(["1", "2"], [["1", "2"]])
        after = stellar_subdivide(edge, {"1", "2"}, "p")
        assert after.faces == {
            frozenset("1"), frozenset("2"), frozenset("p"),
            frozenset(("1", "p")), frozenset(("2", "p")),
        }

    def test_vertex_subdivision_is_relabelling(self):
        k = SimplicialComplex.from_maximal(["1", "2", "3"], [["1", "2", "3"]])
        after = stellar_subdivide(k, {"1"}, "p")
        relabel = {frozenset("p" if v == "1" else v for v in f) for f in k.faces}
        assert after.faces == relabel

    def test_errors(self):
        k = three_simplex()
        with pytest.raises(FaceNotInComplex):
            stellar_subdivide(k, {"1", "9"}, "p")
        with pytest.raises(VertexClash):
            stellar_subdivide(k, {"1", "2"}, "4")

    def test_face_count_formula_against_closure_oracle(self):
        rng = Random(52)
        for _ in range(15):
            k = random_complex(rng)
            face = rng.choice(sorted(k.faces, key=sorted))
            after = stellar_subdivide(k, face, "new")
            star = k.star(face)
            cone_base = {t for t in k.faces
                         if not face <= t and any(t <= f for f in star)}
            assert len(after) == len(k) - len(star) + len(cone_base) + 1
            # independent reconstruction by closure of the expected maximal sets
            expected = (k.faces - star) | brute_closure_faces(
                [t | {"new"} for t in cone_base] + [["new"]])
            assert after.faces == expected


class TestFacePoset:
    def test_tiny(self):
        k = SimplicialComplex.from_maximal(["1", "2"], [["1", "2"]])
        p = simplicial_face_poset(k)
        assert p.covers == {("1", "1,2"), ("2", "1,2")}

    def test_three_simplex(self):
        p = simplicial_face_poset(three_simplex())
        assert len(p.elements) == 15
        report = rank_check(p)
        assert report.pure and report.dim == 3

    def test_subdivided_count(self):
        after = stellar_subdivide(three_simplex(), {"1", "2", "3"}, "p")
        assert len(simplicial_face_poset(after).elements) == 27

    def test_chain_poset_graded_when_base_is(self):
        rng = Random(53)
        for _ in range(10):
            base = random_graded_poset(rng, max_elements=6)
            base_report = rank_check(base)
            chains = chain_poset(base)
            report = rank_check(chains.poset)
            if base_report.pure:
                assert report.pure
                assert report.dim == base_report.dim

    def test_least_colliding_label_is_the_duplicate(self):
        # the vertices "b,c" and "a,b" are named like the edges {b, c} and {a, b}
        k = SimplicialComplex.from_maximal(["a", "b", "c", "b,c", "a,b"],
                                           [["b", "c"], ["a", "b"]])
        with pytest.raises(DuplicateElement) as raised:
            simplicial_face_poset(k)
        assert raised.value.element == "a,b"

    def test_face_covers_against_all_pairs(self):
        rng = Random(55)
        for _ in range(20):
            k = random_complex(rng)
            label = {f: ",".join(sorted(f)) for f in k.faces}
            expected = {(label[c], label[d]) for c, d in brute_codim_one_pairs(k.faces)}
            assert simplicial_face_poset(k).covers == expected


class TestComplex:
    def test_closure_witness_is_the_least_missing_face(self):
        rng = Random(56)
        closed = 0
        for _ in range(40):
            faces = set(random_complex(rng).faces)
            for f in rng.sample(sorted(faces, key=sorted), rng.randint(0, 3)):
                faces.discard(f)
            missing = brute_missing_faces(faces)
            if not missing:
                closed += 1
                assert SimplicialComplex(faces).faces == faces
                continue
            with pytest.raises(ValueError) as raised:
                SimplicialComplex(faces)
            least = min(map(sorted, missing))
            assert str(raised.value) == f"not closed under subsets: missing {least!r}"
        assert 0 < closed < 40

    def test_maximal_faces_against_all_pairs(self):
        rng = Random(57)
        for _ in range(20):
            k = random_complex(rng)
            after = stellar_subdivide(k, rng.choice(sorted(k.faces, key=sorted)), "new")
            for c in (k, after):
                assert complex_to_doc(c)["maximal_faces"] == sorted(
                    sorted(f) for f in brute_maximal_faces(c.faces))

    def test_face_guard(self):
        # a 17-vertex face has 2^17 - 1 non-empty subsets, above the limit
        with pytest.raises(OracleSizeExceeded) as raised:
            vertices = [f"v{i:02d}" for i in range(17)]
            SimplicialComplex.from_maximal(vertices, [vertices])
        assert str(raised.value) == (
            "subsets of maximal faces 131071 exceeds oracle limit 100000")
