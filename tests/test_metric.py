"""Metric graphs, the combinatorial refinement, fibre sampling, and the
slope-to-multiplicity bridge."""

import pytest
from fractions import Fraction
from random import Random

from posetcover.covers import IndexMap, is_balanced
from posetcover.errors import (
    DegenerateImage,
    EndpointMismatch,
    SlopeNotIntegral,
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
from posetcover.posets import rank_check


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

    def test_point_image(self):
        phi = fix_graph()
        assert phi.point_image(Point.interior("e", Fraction(1, 2))) == \
            Point.interior("t", Fraction(1, 2))
        assert phi.point_image(Point.at_vertex("C")) == Point.at_vertex("v")


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
            assert sample_fibre(phi, y).poset == len(face.fibre(phi.target.cell_of(y)))
