"""Metric graphs, the combinatorial refinement, fibre sampling, and the
slope-to-multiplicity bridge."""

import json
import pytest
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from random import Random

from oracles import fraction_fibre_count, fraction_refinement
from posetcover import fileio
from posetcover.covers import IndexMap, is_balanced
from posetcover.errors import (
    DegenerateImage,
    DuplicateElement,
    EndpointMismatch,
    FormatError,
    NotCombinatorial,
    SlopeNotIntegral,
    UnknownElement,
)
from posetcover.extend import extend_balanced
from posetcover.fixtures import fix_graph, fix_trop, fix_trop_m
from posetcover.metric import (
    MetricGraph,
    MetricGraphMorphism,
    Point,
    graph_face_poset,
    morphism_face_poset,
    refine_to_combinatorial,
    sample_fibre,
)
from posetcover.posets import Poset, rank_check


def segment(length=2):
    return MetricGraph(["u", "v"], [("t", "u", "v", Fraction(length))])


def segment_identity():
    g = segment()
    return MetricGraphMorphism(
        g, g,
        {"u": Point.at_vertex("u"), "v": Point.at_vertex("v")},
        {"t": ("t", Fraction(0), Fraction(2), 1)},
    )


class TestBuild:
    def test_fixture_valid(self):
        phi = fix_graph()
        assert phi.source.total_length() == 5
        assert phi.target.total_length() == 3

    def test_identity_valid(self):
        segment_identity()

    def test_slope_mismatch(self):
        src = MetricGraph(["a", "b"], [("x", "a", "b", Fraction(2))])
        with pytest.raises(SlopeNotIntegral):
            MetricGraphMorphism(
                src, segment(3),
                {"a": Point.at_vertex("u"), "b": Point.at_vertex("v")},
                {"x": ("t", Fraction(0), Fraction(3), 1)},
            )

    def test_endpoint_mismatch(self):
        src = MetricGraph(["a", "b"], [("x", "a", "b", Fraction(2))])
        with pytest.raises(EndpointMismatch):
            MetricGraphMorphism(
                src, segment(2),
                {"a": Point.at_vertex("v"), "b": Point.at_vertex("u")},
                {"x": ("t", Fraction(0), Fraction(2), 1)},
            )

    def test_degenerate_image(self):
        src = MetricGraph(["a", "b"], [("x", "a", "b", Fraction(1))])
        with pytest.raises(DegenerateImage):
            MetricGraphMorphism(
                src, segment(2),
                {"a": Point.interior("t", 1), "b": Point.interior("t", 1)},
                {"x": ("t", Fraction(1), Fraction(1), 1)},
            )


class TestFacePoset:
    def test_fixture_incidences(self):
        p = graph_face_poset(fix_graph().source)
        assert p.covers == {("A", "e"), ("B", "e"), ("A", "f"), ("C", "f")}
        assert rank_check(p).dim == 1

    def test_single_edge(self):
        assert len(graph_face_poset(segment()).elements) == 3

    def test_morphism_face_poset(self):
        pm = morphism_face_poset(fix_graph())
        assert pm.mapping == {"A": "u", "B": "t", "C": "v", "e": "t", "f": "t"}
        assert not pm.is_combinatorial()


class TestRefine:
    def test_fixture_refinement(self):
        ref = refine_to_combinatorial(fix_graph())
        assert ref.new_target_vertices == {"t@2": ("t", Fraction(2))}
        assert ref.new_source_vertices == {"f@2": ("f", Fraction(2))}
        assert ref.target_pieces == {"t": ("t.1", "t.2")}
        assert ref.source_pieces == {"e": ("e",), "f": ("f.1", "f.2")}
        pm = ref.poset_morphism
        assert pm.is_combinatorial()
        assert pm("e") == "t.1" and pm("f.1") == "t.1" and pm("f.2") == "t.2"

    def test_new_names_taken_in_the_target_get_primes(self):
        phi = fix_graph()
        target = MetricGraph(["u", "v", "t@2"], [("t", "u", "v", Fraction(3)),
                                                 ("t.1", "v", "t@2", Fraction(1))])
        ref = refine_to_combinatorial(MetricGraphMorphism(
            phi.source, target, phi.vertex_images, phi.edge_images))
        assert ref.new_target_vertices == {"t@2'": ("t", Fraction(2))}
        assert ref.target_pieces == {"t": ("t.1'", "t.2"), "t.1": ("t.1",)}
        assert ref.source_pieces == {"e": ("e",), "f": ("f.1", "f.2")}
        assert ref.target.edges["t.1'"] == ("u", "t@2'", 2)
        assert ref.morphism.vertex_images["B"] == Point.at_vertex("t@2'")
        assert {e: img.edge for e, img in ref.morphism.edge_images.items()} == {
            "e": "t.1'", "f.1": "t.1'", "f.2": "t.2"}

    def test_lengths_preserved(self):
        phi = fix_graph()
        ref = refine_to_combinatorial(phi)
        assert ref.source.total_length() == phi.source.total_length()
        assert ref.target.total_length() == phi.target.total_length()

    def test_identity_fixed_point(self):
        ref = refine_to_combinatorial(segment_identity())
        assert not ref.new_target_vertices and not ref.new_source_vertices

    def test_slope_two_without_interior_images_unchanged(self):
        src = MetricGraph(["a", "b"], [("x", "a", "b", Fraction(1))])
        phi = MetricGraphMorphism(
            src, segment(2),
            {"a": Point.at_vertex("u"), "b": Point.at_vertex("v")},
            {"x": ("t", Fraction(0), Fraction(2), 2)},
        )
        ref = refine_to_combinatorial(phi)
        assert ref.source_pieces == {"x": ("x",)}
        assert not ref.new_source_vertices

    def test_random_instances(self):
        rng = Random(61)
        for _ in range(25):
            phi = random_metric_morphism(rng)
            ref = refine_to_combinatorial(phi)
            assert ref.poset_morphism.is_combinatorial()
            assert ref.source.total_length() == phi.source.total_length()
            assert ref.target.total_length() == phi.target.total_length()
            for y in random_points(rng, ref.target, 100):
                assert sample_fibre(ref.morphism, y).match


class TestSampleFibre:
    def test_mismatch_before_refinement(self):
        phi = fix_graph()
        assert sample_fibre(phi, Point.interior("t", 1)) == (2, 3, False)
        assert sample_fibre(phi, Point.interior("t", Fraction(5, 2))) == (1, 3, False)

    def test_match_after_refinement(self):
        ref = refine_to_combinatorial(fix_graph())
        assert sample_fibre(ref.morphism, Point.interior("t.1", 1)) == (2, 2, True)
        assert sorted(ref.poset_morphism.fibre("t.1")) == ["e", "f.1"]

    def test_vertex_sample(self):
        phi = fix_graph()
        assert sample_fibre(phi, Point.at_vertex("u")).geometric == 1

    def test_hundred_random_points_after_refinement(self):
        rng = Random(62)
        ref = refine_to_combinatorial(fix_graph())
        for y in random_points(rng, ref.target, 100):
            assert sample_fibre(ref.morphism, y).match


class TestSlopeBridge:
    def test_trop_geometry_reproduces_vertex_values(self):
        # metric model of the degree-3 fixture: edge slopes become rank-1
        # multiplicities, extension recovers the vertex values
        target = MetricGraph(
            ["A", "B", "C"],
            [("s", "A", "B", Fraction(2)), ("t", "B", "C", Fraction(2))],
        )
        source = MetricGraph(
            ["A1", "B1", "C1", "C2"],
            [("s1", "A1", "B1", Fraction(1)), ("s2", "A1", "B1", Fraction(2)),
             ("t1", "B1", "C1", Fraction(2)), ("t2", "B1", "C2", Fraction(1))],
        )
        phi = MetricGraphMorphism(
            source, target,
            {"A1": Point.at_vertex("A"), "B1": Point.at_vertex("B"),
             "C1": Point.at_vertex("C"), "C2": Point.at_vertex("C")},
            {"s1": ("s", Fraction(0), Fraction(2), 2),
             "s2": ("s", Fraction(0), Fraction(2), 1),
             "t1": ("t", Fraction(0), Fraction(2), 1),
             "t2": ("t", Fraction(0), Fraction(2), 2)},
        )
        ref = refine_to_combinatorial(phi)
        pm = ref.poset_morphism
        assert pm.source == fix_trop().source and pm.target == fix_trop().target
        assert pm.mapping == fix_trop().mapping
        slopes = {eid: img.slope for eid, img in ref.morphism.edge_images.items()}
        assert slopes == {"s1": 2, "s2": 1, "t1": 1, "t2": 2}
        seed = IndexMap(pm.source, slopes)
        report = extend_balanced(pm, seed, pm.source.elements)
        assert not report.conflicts
        assert report.extended.values == fix_trop_m().values
        assert is_balanced(pm, report.extended)


# ----- random instances ---------------------------------------------------


def random_metric_morphism(rng: Random) -> MetricGraphMorphism:
    """Random target path plus a source path walking over it: vertices land
    on random rational points, edges use slopes 1..3."""
    segments = rng.randint(1, 3)
    target_vertices = [f"u{i}" for i in range(segments + 1)]
    target_edges = [(f"T{i}", f"u{i}", f"u{i + 1}", Fraction(rng.randint(1, 4)))
                    for i in range(segments)]
    target = MetricGraph(target_vertices, target_edges)

    def random_position(eid):
        length = target.edges[eid].length
        den = rng.randint(1, 6)
        num = rng.randint(0, den)
        return Fraction(num, den) * length

    anchors = []
    eid = rng.choice(sorted(target.edges))
    for _ in range(rng.randint(2, 6)):
        anchors.append((eid, random_position(eid)))
    vertices = [f"w{i}" for i in range(len(anchors))]
    vertex_images = {}
    for v, (eid, pos) in zip(vertices, anchors):
        edge = target.edges[eid]
        if pos == 0:
            vertex_images[v] = Point.at_vertex(edge.a)
        elif pos == edge.length:
            vertex_images[v] = Point.at_vertex(edge.b)
        else:
            vertex_images[v] = Point.interior(eid, pos)
    edges = []
    edge_images = {}
    for i in range(len(anchors) - 1):
        (e1, p1), (e2, p2) = anchors[i], anchors[i + 1]
        if p1 == p2:
            continue
        slope = rng.randint(1, 3)
        edges.append((f"E{i}", f"w{i}", f"w{i + 1}", abs(p2 - p1) / slope))
        edge_images[f"E{i}"] = (e1, p1, p2, slope)
    used = {v for e in edges for v in (e[1], e[2])}
    if not edges:
        return random_metric_morphism(rng)
    source = MetricGraph([v for v in vertices if v in used], edges)
    images = {v: vertex_images[v] for v in source.vertices}
    return MetricGraphMorphism(source, target, images, edge_images)


def random_points(rng: Random, graph: MetricGraph, count: int):
    for _ in range(count):
        eid = rng.choice(sorted(graph.edges))
        length = graph.edges[eid].length
        den = rng.randint(2, 50)
        num = rng.randint(1, den - 1)
        yield Point.interior(eid, Fraction(num, den) * length)


def test_fibre_count_matches_the_face_poset_fibre():
    # sample_fibre counts the cells the cell map sends to the point's cell;
    # the fibre of the face-poset morphism is the reference
    rng = Random(73)
    originals = [fix_graph()] + [random_metric_morphism(rng) for _ in range(30)]
    morphisms = originals + [refine_to_combinatorial(phi).morphism for phi in originals]
    for phi in morphisms:
        face = morphism_face_poset(phi)
        points = [Point.at_vertex(v) for v in phi.target.vertices]
        points += random_points(rng, phi.target, 10)
        for y in points:
            cell = y.vertex if y.is_vertex else y.edge
            assert sample_fibre(phi, y).poset == len(face.fibre(cell))


def random_cycle_cover(rng: Random, n_edges: int, sheets: int, wind: bool):
    """A degree-``sheets`` cover of a metric cycle with rational edge
    lengths.  Every sheet covers each target edge in 1-3 pieces that meet at
    random rational cuts, each piece with a slope of 1-3 in a random
    orientation.  Winding sheets join into one source cycle; otherwise they
    stay disjoint.  Returns the morphism and, per (target edge, sheet), the
    sheet's own cuts on that edge."""
    lengths = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n_edges)]
    target = MetricGraph([f"t{k}" for k in range(n_edges)],
                         [(f"T{k}", f"t{k}", f"t{(k + 1) % n_edges}", lengths[k])
                          for k in range(n_edges)])
    vertices, edges, vertex_images, edge_images = [], [], {}, {}
    own = {}
    for s in range(sheets):
        for k in range(n_edges):
            vertices.append(f"v{k}_{s}")
            vertex_images[f"v{k}_{s}"] = Point.at_vertex(f"t{k}")
    for s in range(sheets):
        for k in range(n_edges):
            den = rng.randint(2, 7)
            cuts = set()
            for _ in range(rng.randint(0, 2)):
                cuts.add(lengths[k] * Fraction(rng.randint(1, den - 1), den))
            own[(f"T{k}", s)] = cuts
            last = f"v{(k + 1) % n_edges}_{(s + 1) % sheets if wind and k == n_edges - 1 else s}"
            names = [f"v{k}_{s}"]
            for j, c in enumerate(sorted(cuts)):
                names.append(f"c{k}_{j}_{s}")
                vertices.append(names[-1])
                vertex_images[names[-1]] = Point.interior(f"T{k}", c)
            names.append(last)
            stops = [Fraction(0), *sorted(cuts), lengths[k]]
            for j, (a, b, x0, x1) in enumerate(zip(names, names[1:], stops, stops[1:])):
                slope = rng.randint(1, 3)
                if rng.random() < 0.5:
                    a, b, x0, x1 = b, a, x1, x0
                eid = f"e{k}_{j}_{s}"
                edges.append((eid, a, b, abs(x1 - x0) / slope))
                edge_images[eid] = (f"T{k}", x0, x1, slope)
    source = MetricGraph(vertices, edges)
    return MetricGraphMorphism(source, target, vertex_images, edge_images), own


def plain(phi: MetricGraphMorphism):
    """A morphism as the oracles take it: graphs, images and edge images
    as tuples, vertex images as names or (edge, position) pairs."""
    def graph(g):
        return list(g.vertices), {eid: tuple(e) for eid, e in g.edges.items()}

    images = {v: p.vertex if p.is_vertex else (p.edge, p.position)
              for v, p in phi.vertex_images.items()}
    return (graph(phi.source), graph(phi.target), images,
            {eid: tuple(img) for eid, img in phi.edge_images.items()})


def differential_covers():
    rng = Random(91)
    covers = [random_metric_morphism(rng) for _ in range(110)]
    for i in range(110):
        covers.append(random_cycle_cover(rng, rng.randint(1, 6), 1 + i % 3, i % 2 == 0)[0])
    return rng, covers


def test_refinement_matches_the_fraction_oracle():
    rng, covers = differential_covers()
    assert len(covers) >= 200
    for phi in covers:
        source, target, images, edge_images = plain(phi)
        expected = fraction_refinement(source, target, images, edge_images)
        ref = refine_to_combinatorial(phi)
        refined = plain(ref.morphism)
        # same values, in the same order, with Fractions wherever a rational shows
        for got, want in zip(refined, [expected[k] for k in (
                "source", "target", "vertex_images", "edge_images")]):
            assert list(got) == list(want) if isinstance(got, tuple) else \
                list(got.items()) == list(want.items())
        for key in ("new_target_vertices", "new_source_vertices",
                    "target_pieces", "source_pieces"):
            assert list(getattr(ref, key).items()) == list(expected[key].items()), key
        rationals = ([e.length for g in (ref.source, ref.target) for e in g.edges.values()]
                     + [pos for _, pos in ref.new_target_vertices.values()]
                     + [pos for _, pos in ref.new_source_vertices.values()]
                     + [x for img in ref.morphism.edge_images.values() for x in img[1:3]]
                     + [p.position for p in ref.morphism.vertex_images.values()
                        if not p.is_vertex])
        assert all(type(x) is Fraction for x in rationals)
        # the face-poset morphism of the oracle's refinement
        (s_vertices, s_edges), (t_vertices, t_edges) = expected["source"], expected["target"]
        cells = {v: img if isinstance(img, str) else img[0]
                 for v, img in expected["vertex_images"].items()}
        cells.update((eid, img[0]) for eid, img in expected["edge_images"].items())
        pm = ref.poset_morphism
        assert pm.mapping == cells
        # the refinement's graph rule passed it, and so does the poset kernel
        assert pm.is_combinatorial()
        for poset, (vertices, edges) in ((pm.source, expected["source"]),
                                         (pm.target, expected["target"])):
            assert set(poset.elements) == set(vertices) | set(edges)
            assert poset.covers == {(x, eid) for eid, (a, b, _) in edges.items() for x in (a, b)}
        oracle = MetricGraphMorphism(
            MetricGraph(s_vertices, [(eid, *e) for eid, e in s_edges.items()]),
            MetricGraph(t_vertices, [(eid, *e) for eid, e in t_edges.items()]),
            {v: Point.at_vertex(img) if isinstance(img, str) else Point.interior(*img)
             for v, img in expected["vertex_images"].items()},
            expected["edge_images"])
        assert fileio.dumps(fileio.metric_morphism_to_doc(ref.morphism)) == \
            fileio.dumps(fileio.metric_morphism_to_doc(oracle))


def test_refined_covers_round_trip_through_the_document_writer():
    _, covers = differential_covers()
    for phi in covers:
        refined = refine_to_combinatorial(phi).morphism
        text = fileio.dumps(fileio.metric_morphism_to_doc(refined))
        loaded = fileio.metric_morphism_from_doc(json.loads(text))
        assert fileio.dumps(fileio.metric_morphism_to_doc(loaded)) == text
        assert loaded._grid == refined._grid


def test_face_posets_match_a_build_from_the_incidence_pairs():
    _, covers = differential_covers()
    loop = whole_edge_morphism([("t", "u", "u")], [("e", "A", "A", "t")], {"A": "u"})
    morphisms = [fix_graph(), refine_to_combinatorial(fix_graph()).morphism, loop, *covers]
    for g in (g for phi in morphisms for g in (phi.source, phi.target)):
        built = graph_face_poset(g)
        reference = Poset(list(g.vertices) + sorted(g.edges),
                          {(x, eid) for eid, (a, b, _) in g.edges.items() for x in (a, b)})
        assert built == reference
        assert built.elements == reference.elements and built.covers == reference.covers


# the rational slots of the FIX-GRAPH document, other spellings of the
# values in them, and bad values (a JSON true is also a 1)
RATIONAL_SLOTS = [("source", "edges", 0, "length"), ("source", "edges", 1, "length"),
                  ("target", "edges", 0, "length"), ("vertex_images", "B", "pos"),
                  ("edge_images", "e", "from"), ("edge_images", "e", "to"),
                  ("edge_images", "f", "from"), ("edge_images", "f", "to")]
RESPELLINGS = {"0": ["0", "0/5", 0], "2": ["2", "4/2", 2], "3": ["3", "6/2", 3]}
BAD_RATIONALS = [True, False, 1.5, "1/0", "x", "-1", 1, None, ["2"]]


def test_the_documents_rational_memo_changes_no_outcome(monkeypatch):
    """Loading through the memo gives the morphism, or the first error,
    that parsing every value on its own gives."""
    rng = Random(97)
    base = fileio.metric_morphism_to_doc(fix_graph())
    docs = [base]
    for _ in range(400):
        doc = json.loads(json.dumps(base))
        for *path, key in RATIONAL_SLOTS:
            slot = doc
            for step in path:
                slot = slot[step]
            slot[key] = rng.choice(RESPELLINGS[slot[key]] if rng.random() < 0.9
                                   else BAD_RATIONALS + ["0", "2", "3"])
        docs.append(doc)

    def outcomes():
        results = []
        for doc in docs:
            try:
                phi = fileio.metric_morphism_from_doc(doc)
            except Exception as exc:
                results.append((type(exc), str(exc)))
            else:
                rationals = [e.length for g in (phi.source, phi.target) for e in g.edges.values()]
                rationals += [x for img in phi.edge_images.values() for x in img[1:3]]
                rationals += [p.position for p in phi.vertex_images.values() if not p.is_vertex]
                assert all(type(x) is Fraction for x in rationals)
                results.append(fileio.dumps(fileio.metric_morphism_to_doc(phi)))
        return results

    memoized = outcomes()
    monkeypatch.setattr(fileio, "_rational_reader", lambda: fileio.parse_rational)
    assert memoized == outcomes()
    loaded = sum(isinstance(x, str) for x in memoized)
    assert 100 < loaded < len(docs) - 100


def counted_readers(monkeypatch) -> list:
    """Patches fileio's rational reader to record what each reader it
    makes parses; returns those records, one list per reader."""
    reads = []

    def reader():
        seen = []
        reads.append(seen)

        def read(text):
            seen.append(text)
            return fileio.parse_rational(text)
        return read

    monkeypatch.setattr(fileio, "_rational_reader", reader)
    return reads


def test_the_graph_reader_stops_at_the_first_bad_row(monkeypatch):
    """The rows are read once, in order: the first length is parsed, and
    the second row's id raises before its length is read."""
    reads = counted_readers(monkeypatch)
    doc = {"vertices": ["A", "B"], "edges": [{"id": "e", "a": "A", "b": "B", "length": "1"},
                                             {"id": 5, "a": "A", "b": "B", "length": "2"}]}
    with pytest.raises(FormatError, match="an edge id must be a string, got 5"):
        fileio.metric_graph_from_doc(doc)
    assert reads == [["1"]]


def test_the_morphism_reader_stops_at_the_first_bad_edge_image(monkeypatch):
    """The edge images are read once, in order: the second one's edge
    raises before its ends are parsed."""
    reads = counted_readers(monkeypatch)
    doc = fileio.metric_morphism_to_doc(fix_graph())
    doc["edge_images"]["f"]["edge"] = 5
    with pytest.raises(FormatError, match="an edge image edge must be a string, got 5"):
        fileio.metric_morphism_from_doc(doc)
    # the lengths of the two sides, then B's position and the ends of e
    assert reads == [["2", "3"], ["3"], ["2", "0", "2"]]


def whole_edge_morphism(target_edges, source_edges, vertex_map, cuts=()):
    """Unit-length edges; source edge (e, a, b, t) runs over all of target
    edge t, backwards when a maps to t's second end.  Each cut adds an
    isolated source vertex at the middle of a target edge."""
    ends = {t: (u, w) for t, u, w in target_edges}
    target = MetricGraph(sorted({v for u, w in ends.values() for v in (u, w)}),
                         [(t, u, w, 1) for t, (u, w) in ends.items()])
    images = {v: Point.at_vertex(x) for v, x in vertex_map.items()}
    images.update((f"cut{t}", Point.interior(t, Fraction(1, 2))) for t in cuts)
    source = MetricGraph(list(images), [(e, a, b, 1) for e, a, b, _ in source_edges])
    return MetricGraphMorphism(source, target, images, {
        e: (t, *((0, 1) if vertex_map[a] == ends[t][0] else (1, 0)), 1)
        for e, a, b, t in source_edges})


@pytest.mark.parametrize("target_edges,source_edges,vertex_map,cuts,witness", [
    ([("t", "u", "u")], [("e", "A", "B", "t")], {"A": "u", "B": "u"}, (), "e"),
    ([("t", "u", "u")], [("e", "A", "B", "t")], {"A": "u", "B": "u"}, ("t",), None),
    ([("t", "u", "u")], [("e", "A", "A", "t")], {"A": "u"}, (), None),
    ([("t", "u", "w")], [("e", "A", "B", "t"), ("f", "B", "A", "t")],
     {"A": "u", "B": "w"}, (), None),
    ([("s", "u", "w"), ("t", "u", "u")],
     [("a", "A", "C", "s"), ("m", "B", "A", "t"), ("k", "A", "B", "t")],
     {"A": "u", "B": "u", "C": "w"}, (), "k"),
], ids=["edge-onto-loop", "edge-onto-cut-loop", "loop-onto-loop", "parallel-edges",
        "two-failing-edges"])
def test_the_graph_rule_names_the_face_poset_witness(target_edges, source_edges,
                                                     vertex_map, cuts, witness):
    phi = whole_edge_morphism(target_edges, source_edges, vertex_map, cuts)
    try:
        refined = refine_to_combinatorial(phi).morphism
    except NotCombinatorial as exc:
        # no cut, so the refinement is the input itself
        assert not cuts and exc.witness == witness
        refined = phi
    else:
        assert witness is None
    check = morphism_face_poset(refined).is_combinatorial()
    assert (check.witnesses[0].alpha if check.witnesses else None) == witness


def test_fibre_counts_match_the_fraction_oracle():
    rng, covers = differential_covers()
    for phi in covers:
        for psi in (phi, refine_to_combinatorial(phi).morphism):
            source, _, images, edge_images = plain(psi)
            points = [Point.at_vertex(v) for v in psi.target.vertices]
            points += random_points(rng, psi.target, 6)
            # points that are exactly vertex images or image endpoints
            points += [p for p in psi.vertex_images.values() if not p.is_vertex][:4]
            for y in points:
                key = y.vertex if y.is_vertex else (y.edge, y.position)
                assert sample_fibre(psi, y).geometric == \
                    fraction_fibre_count(source, images, edge_images, key)


# ----- validation errors ----------------------------------------------------

# Every rational in the table below is spelled three ways: as an int (where
# it is whole), as an unreduced "p/q" string and as a Fraction.  The
# exception type and text must not depend on the spelling.
SPELLINGS = {
    "int": lambda q: int(q) if q.denominator == 1 else q,
    "string": lambda q: f"{2 * q.numerator}/{2 * q.denominator}",
    "fraction": lambda q: q,
}


def _graph(n, length):
    return MetricGraph(["u", "v"], [("t", "u", "v", n(length))])


def _morphism(n, *, length=2, start=0, end=2, slope=1, images=None, extra_images=None,
              edge_id="x", target_edge="t", extra_edge_images=None):
    """Edge x from a to b onto the segment t from u to v of length 2."""
    source = MetricGraph(["a", "b"], [("x", "a", "b", n(Fraction(length)))])
    vertex_images = images(n) if images else {"a": Point.at_vertex("u"),
                                              "b": Point.at_vertex("v")}
    vertex_images.update(extra_images or {})
    edge_images = {edge_id: (target_edge, n(Fraction(start)), n(Fraction(end)), slope)}
    edge_images.update(extra_edge_images or {})
    return MetricGraphMorphism(source, _graph(n, Fraction(2)), vertex_images, edge_images)


def _at(pos):
    return lambda n: {"a": Point.interior("t", n(Fraction(pos))), "b": Point.at_vertex("v")}


INVALID = [
    ("length-zero", lambda n: _graph(n, Fraction(0)),
     ValueError, "edge 't' must have positive length"),
    ("length-negative", lambda n: _graph(n, Fraction(-3, 2)),
     ValueError, "edge 't' must have positive length"),
    ("edge-unknown-vertex",
     lambda n: MetricGraph(["u"], [("t", "u", "w", n(Fraction(1)))]),
     UnknownElement, "unknown element 'w'"),
    ("edge-duplicate-id",
     lambda n: MetricGraph(["u", "v"], [("t", "u", "v", n(Fraction(1))),
                                        ("t", "v", "u", n(Fraction(1)))]),
     DuplicateElement, "duplicate element identifier 't'"),
    ("slope-zero", lambda n: _morphism(n, slope=0),
     SlopeNotIntegral, "edge 'x': slope must be a positive integer, got 0"),
    ("slope-bool", lambda n: _morphism(n, slope=True),
     SlopeNotIntegral, "edge 'x': slope must be a positive integer, got True"),
    ("slope-float", lambda n: _morphism(n, slope=1.0),
     SlopeNotIntegral, "edge 'x': slope must be a positive integer, got 1.0"),
    ("degenerate", lambda n: _morphism(n, length=1, start=1, end=1, images=lambda n: {
        "a": Point.interior("t", n(Fraction(1))), "b": Point.interior("t", n(Fraction(1)))}),
     DegenerateImage, "edge 'x' maps to a single point"),
    ("leaves-at-start", lambda n: _morphism(n, start=Fraction(-1, 2), end=Fraction(3, 2)),
     EndpointMismatch, "edge 'x': image [-1/2, 3/2] leaves edge 't' of length 2"),
    ("leaves-at-end", lambda n: _morphism(n, start=Fraction(1, 2), end=Fraction(5, 2)),
     EndpointMismatch, "edge 'x': image [1/2, 5/2] leaves edge 't' of length 2"),
    ("leaves-reversed", lambda n: _morphism(n, start=3, end=1),
     EndpointMismatch, "edge 'x': image [3, 1] leaves edge 't' of length 2"),
    ("slope-times-length", lambda n: _morphism(n, length=Fraction(3, 2)),
     SlopeNotIntegral, "edge 'x': |2 - 0| != slope 1 x length 3/2"),
    ("slope-two-times-length", lambda n: _morphism(n, slope=2),
     SlopeNotIntegral, "edge 'x': |2 - 0| != slope 2 x length 2"),
    ("endpoint-wrong-vertex", lambda n: _morphism(n, images=lambda n: {
        "a": Point.at_vertex("v"), "b": Point.at_vertex("u")}),
     EndpointMismatch,
     "edge 'x': endpoint 'a' maps to Point(v) but the edge image puts it at Point(u)"),
    ("endpoint-vertex-for-interior",
     lambda n: _morphism(n, length=Fraction(3, 2), start=Fraction(1, 2)),
     EndpointMismatch,
     "edge 'x': endpoint 'a' maps to Point(u) but the edge image puts it at Point(t @ 1/2)"),
    ("endpoint-interior-for-vertex", lambda n: _morphism(n, images=_at(Fraction(1, 2))),
     EndpointMismatch,
     "edge 'x': endpoint 'a' maps to Point(t @ 1/2) but the edge image puts it at Point(u)"),
    ("endpoint-wrong-position",
     lambda n: _morphism(n, length=1, start=1, images=_at(Fraction(3, 2))),
     EndpointMismatch,
     "edge 'x': endpoint 'a' maps to Point(t @ 3/2) but the edge image puts it at Point(t @ 1)"),
    ("endpoint-second", lambda n: _morphism(n, length=1, end=1, images=lambda n: {
        "a": Point.at_vertex("u"), "b": Point.at_vertex("v")}),
     EndpointMismatch,
     "edge 'x': endpoint 'b' maps to Point(v) but the edge image puts it at Point(t @ 1)"),
    ("endpoint-interior-for-second-vertex", lambda n: _morphism(n, images=lambda n: {
        "a": Point.at_vertex("u"), "b": Point.interior("t", n(Fraction(1)))}),
     EndpointMismatch,
     "edge 'x': endpoint 'b' maps to Point(t @ 1) but the edge image puts it at Point(v)"),
    ("image-not-interior", lambda n: _morphism(n, images=_at(Fraction(2))),
     ValueError, "position 2 not interior to edge 't'"),
    ("image-at-zero", lambda n: _morphism(n, images=_at(Fraction(0))),
     ValueError, "position 0 not interior to edge 't'"),
    ("image-unknown-vertex", lambda n: _morphism(n, images=lambda n: {
        "a": Point.at_vertex("w"), "b": Point.at_vertex("v")}),
     UnknownElement, "unknown element 'w'"),
    ("image-unknown-edge", lambda n: _morphism(n, images=lambda n: {
        "a": Point.interior("s", n(Fraction(1))), "b": Point.at_vertex("v")}),
     UnknownElement, "unknown element 's'"),
    ("missing-vertex-image", lambda n: _morphism(n, images=lambda n: {
        "a": Point.at_vertex("u")}),
     UnknownElement, "unknown element 'b'"),
    ("missing-edge-image", lambda n: _morphism(n, edge_id="y"),
     UnknownElement, "unknown element 'x'"),
    ("unknown-target-edge", lambda n: _morphism(n, target_edge="s"),
     UnknownElement, "unknown element 's'"),
    ("extra-vertex-image", lambda n: _morphism(n, extra_images={"c": Point.at_vertex("u")}),
     UnknownElement, "unknown element 'c'"),
    ("extra-edge-image", lambda n: _morphism(n, extra_edge_images={
        "y": ("t", n(Fraction(0)), n(Fraction(2)), 1)}),
     UnknownElement, "unknown element 'y'"),
]


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
@pytest.mark.parametrize("build,error,text", [case[1:] for case in INVALID],
                         ids=[case[0] for case in INVALID])
def test_invalid_metric_inputs_raise_the_same_error(build, error, text, spelling):
    with pytest.raises(error) as caught:
        build(SPELLINGS[spelling])
    assert type(caught.value) is error
    assert str(caught.value) == text


def _two_segments(vertex_images, edge_images, target_vertices=("u", "v")):
    """Edges e (A to B, length 2) and f (A to C, length 3) onto the segment
    t from u to v of length 3, as in FIX-GRAPH."""
    source = MetricGraph(["A", "B", "C"], [("e", "A", "B", 2), ("f", "A", "C", 3)])
    return MetricGraphMorphism(source, MetricGraph(target_vertices, [("t", "u", "v", 3)]),
                               vertex_images, edge_images)


GOOD_IMAGES = {"A": Point.at_vertex("u"), "B": Point.interior("t", 2), "C": Point.at_vertex("v")}
GOOD_EDGE_IMAGES = {"e": ("t", 0, 2, 1), "f": ("t", 0, 3, 1)}

# two defects each; the error is the one the checks meet first
TWO_DEFECTS = [
    ("duplicate-vertex-then-unknown-endpoint",
     lambda: MetricGraph(["u", "v", "u"], [("t", "u", "w", 1)]),
     DuplicateElement, ("duplicate element identifier 'u'",)),
    ("unknown-endpoint-then-duplicate-edge",
     lambda: MetricGraph(["u", "v"], [("t", "u", "w", 1), ("t", "u", "v", 1)]),
     UnknownElement, ("unknown element 'w'",)),
    ("both-endpoints-unknown", lambda: MetricGraph(["u"], [("t", "x", "y", 1)]),
     UnknownElement, ("unknown element 'x'",)),
    ("zero-length-then-edge-named-as-a-vertex",
     lambda: MetricGraph(["u", "v"], [("t", "u", "v", 0), ("u", "u", "v", 1)]),
     ValueError, ("edge 't' must have positive length",)),
    ("bad-length-text-then-duplicate-edge",
     lambda: MetricGraph(["u", "v"], [("t", "u", "v", "x"), ("t", "u", "v", 1)]),
     ValueError, ("Invalid literal for Fraction: 'x'",)),
    ("unknown-vertex-image-then-bool-slope",
     lambda: _two_segments({**GOOD_IMAGES, "C": Point.at_vertex("w")},
                           {**GOOD_EDGE_IMAGES, "f": ("t", 0, 3, True)}),
     UnknownElement, ("unknown element 'w'",)),
    ("missing-vertex-image-then-unknown-target-edge",
     lambda: _two_segments({"A": Point.at_vertex("u"), "C": Point.at_vertex("v")},
                           {**GOOD_EDGE_IMAGES, "e": ("zz", 0, 2, 1)}),
     UnknownElement, ("unknown element 'B'",)),
    ("image-at-an-end-then-unknown-edge-key",
     lambda: _two_segments({**GOOD_IMAGES, "B": Point.interior("t", 3)},
                           {**GOOD_EDGE_IMAGES, "g": ("t", 0, 1, 1)}),
     ValueError, ("position 3 not interior to edge 't'",)),
    ("endpoint-mismatch-then-degenerate-image",
     lambda: _two_segments({**GOOD_IMAGES, "B": Point.interior("t", 1)},
                           {**GOOD_EDGE_IMAGES, "f": ("t", 3, 3, 1)}),
     EndpointMismatch,
     ("edge 'e': endpoint 'B' maps to Point(t @ 1) but the edge image puts it at Point(t @ 2)",)),
    ("degenerate-image-then-slope-mismatch",
     lambda: _two_segments(GOOD_IMAGES, {"e": ("t", 2, 2, 1), "f": ("t", 0, 3, 2)}),
     DegenerateImage, ("edge 'e' maps to a single point",)),
    ("image-leaves-the-edge-then-slope-zero",
     lambda: _two_segments(GOOD_IMAGES, {"e": ("t", 0, 4, 2), "f": ("t", 0, 3, 0)}),
     EndpointMismatch, ("edge 'e': image [0, 4] leaves edge 't' of length 3",)),
    ("missing-edge-image-then-unknown-vertex-key",
     lambda: _two_segments({**GOOD_IMAGES, "Z": Point.at_vertex("u")},
                           {"f": GOOD_EDGE_IMAGES["f"]}),
     UnknownElement, ("unknown element 'e'",)),
    ("float-slope-then-degenerate-image",
     lambda: _two_segments(GOOD_IMAGES, {"e": ("t", 0, 2, 1.0), "f": ("t", 1, 1, 1)}),
     SlopeNotIntegral, ("edge 'e': slope must be a positive integer, got 1.0",)),
    ("slope-mismatch-then-endpoint-mismatch",
     lambda: _two_segments(GOOD_IMAGES, {"e": ("t", 0, 2, 2), "f": ("t", 3, 0, 1)}),
     SlopeNotIntegral, ("edge 'e': |2 - 0| != slope 2 x length 2",)),
    ("wrong-end-vertex-then-unknown-keys",
     lambda: _two_segments({**GOOD_IMAGES, "C": Point.at_vertex("u"), "Q": Point.at_vertex("u")},
                           {**GOOD_EDGE_IMAGES, "h": ("t", 0, 1, 1)}),
     EndpointMismatch,
     ("edge 'f': endpoint 'C' maps to Point(u) but the edge image puts it at Point(v)",)),
    # an image that is no Point is checked, not taken for a vertex
    ("plain-tuple-image-then-unknown-vertex",
     lambda: _two_segments({**GOOD_IMAGES, "A": ("u", None, None), "C": Point.at_vertex("w")},
                           GOOD_EDGE_IMAGES),
     AttributeError, ("'tuple' object has no attribute 'is_vertex'",)),
    # a point with no vertex is an interior point, even where None names a
    # target vertex
    ("position-past-the-end-with-a-vertex-named-none",
     lambda: _two_segments({**GOOD_IMAGES, "B": Point.interior("t", 7)},
                           {**GOOD_EDGE_IMAGES, "e": ("t", 0, 7, 1)}, [None, "u", "v"]),
     ValueError, ("position 7 not interior to edge 't'",)),
]


@pytest.mark.parametrize("build,error,args", [case[1:] for case in TWO_DEFECTS],
                         ids=[case[0] for case in TWO_DEFECTS])
def test_the_constructors_report_the_first_of_two_defects(build, error, args):
    with pytest.raises(error) as caught:
        build()
    assert type(caught.value) is error and caught.value.args == args


# ----- the metric readers against a field-by-field reference -------------------


def _need(doc, key, kind):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{kind} document needs field {key!r}")
    return doc[key]


def _text(value, what):
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a string, got {value!r}")
    return value


def _keys(value, what):
    if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
        raise FormatError(f"{what} must be an object keyed by strings, got {value!r}")
    return value


def reference_graph(doc):
    """Reads a metric graph document one field at a time."""
    vertices = _need(doc, "vertices", "metric graph")
    if not isinstance(vertices, (list, tuple)) or not all(isinstance(v, str) for v in vertices):
        raise FormatError(f"metric graph vertices must be a list of strings, got {vertices!r}")
    edges = _need(doc, "edges", "metric graph")
    if not isinstance(edges, (list, tuple)):
        raise FormatError(f"metric graph edges must be a list, got {edges!r}")
    return MetricGraph(vertices, [(_text(_need(e, "id", "edge"), "an edge id"),
                                   _text(_need(e, "a", "edge"), "an edge endpoint"),
                                   _text(_need(e, "b", "edge"), "an edge endpoint"),
                                   fileio.parse_rational(_need(e, "length", "edge")))
                                  for e in edges])


def _reference_point(value):
    if isinstance(value, str):
        return Point.at_vertex(value)
    if isinstance(value, dict):
        return Point.interior(_text(_need(value, "edge", "point"), "a point edge"),
                              fileio.parse_rational(_need(value, "pos", "point")))
    raise FormatError(f"bad point {value!r}")


def reference_morphism(doc):
    """Reads a metric morphism document one field at a time; a side that
    is no inline document goes to fileio.resolve."""
    sides = [_need(doc, side, "metric morphism") for side in ("source", "target")]
    source, target = (reference_graph(side) if isinstance(side, dict)
                      else fileio.resolve(side, "metric graph") for side in sides)
    images = _keys(_need(doc, "vertex_images", "metric morphism"), "vertex_images")
    vertex_images = {v: _reference_point(img) for v, img in images.items()}
    edge_images = {}
    for e, img in _keys(_need(doc, "edge_images", "metric morphism"), "edge_images").items():
        slope = _need(img, "slope", "edge image")
        edge_images[e] = (_text(_need(img, "edge", "edge image"), "an edge image edge"),
                          fileio.parse_rational(_need(img, "from", "edge image")),
                          fileio.parse_rational(_need(img, "to", "edge image")), slope)
    return MetricGraphMorphism(source, target, vertex_images, edge_images)


class Name(str):
    pass


class Fields(Mapping):
    """A mapping that is not a dict."""

    def __init__(self, fields):
        self._fields = fields

    def __getitem__(self, key):
        return self._fields[key]

    def __iter__(self):
        return iter(self._fields)

    def __len__(self):
        return len(self._fields)


class Lenient(dict):
    """A dict that makes up every missing field."""

    def __missing__(self, key):
        return "1"


REPLACEMENTS = [None, True, 1, 1.5, "x", [], {}, "1/0", "1e5000"]
DELETE = object()


def _slots(node, path=()):
    """The path of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _slots(value, path + (key,))


def _mutants(doc):
    """Each change: delete a value or replace it, wrap an object in a
    mapping that is no dict or in a dict subclass without the field, or
    put a str subclass in place of a string."""
    for path in _slots(doc):
        *parent, key = path
        replacements = list(REPLACEMENTS)
        value = _at_path(doc, path)
        if isinstance(value, dict):
            replacements += [Fields(value), Lenient({k: value[k] for k in list(value)[1:]})]
        if isinstance(value, str):
            replacements.append(Name(value))
        if isinstance(_at_path(doc, parent), dict):
            yield ((path, DELETE),)
        for replacement in replacements:
            yield ((path, replacement),)


def _at_path(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _apply(doc, changes):
    doc = json.loads(json.dumps(doc))
    for (*parent, key), replacement in changes:
        holder = _at_path(doc, parent)
        if replacement is DELETE:
            del holder[key]
        else:
            holder[key] = replacement
    return doc


def _outcome(read, doc):
    """What read makes of doc: its error and the error's args, or the
    graph or morphism's data."""
    try:
        obj = read(doc)
    except Exception as exc:
        return type(exc), exc.args
    if isinstance(obj, MetricGraph):
        return "read", obj.vertices, obj.edges
    return ("read", obj.source.vertices, obj.source.edges, obj.target.vertices,
            obj.target.edges, obj.vertex_images, obj.edge_images)


def test_the_metric_readers_match_a_field_by_field_reference():
    """Every mutation of FIX-GRAPH's document, and every pair of defects in
    different edges, reads to the reference's morphism or raises its
    error, with the same text."""
    doc = fileio.metric_morphism_to_doc(fix_graph())
    singles = list(_mutants(doc))
    per_edge = {edge: [c for c in singles if c[0][0][:3] == edge]
                for edge in [("source", "edges", 0), ("source", "edges", 1)]}
    images = {name: [c for c in singles if c[0][0][:2] == ("edge_images", name)]
              for name in ("e", "f")}
    pairs = ([a + b for a in per_edge[("source", "edges", 0)]
              for b in per_edge[("source", "edges", 1)]]
             + [a + b for a in images["e"] for b in images["f"]])
    outcomes = Counter()
    for changes in singles + pairs:
        mutant = _apply(doc, changes)
        expected = _outcome(reference_morphism, mutant)
        assert _outcome(fileio.metric_morphism_from_doc, mutant) == expected, changes
        for side in ("source", "target"):
            graph = mutant.get(side)
            assert (_outcome(fileio.metric_graph_from_doc, graph)
                    == _outcome(reference_graph, graph)), (changes, side)
        outcomes[expected[0] if expected[0] == "read" else expected[0].__name__] += 1
    assert outcomes == {"read": 61, "FormatError": 5873, "UnknownElement": 326,
                        "SlopeNotIntegral": 254, "DuplicateElement": 3, "EndpointMismatch": 1,
                        "ValueError": 1}
