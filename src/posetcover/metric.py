"""Metric graphs with exact rational edge lengths and integer-slope
morphisms, the dimension-1 refinement that makes a morphism combinatorial,
and fibre sampling.

Every position and length is a `fractions.Fraction`; there is no floating
point anywhere, so subdivision points and fibre counts are exact.  Each
source edge must map affinely into the closure of a single target edge;
inputs whose edges cross several target edges should be pre-split.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DegenerateImage,
    DuplicateElement,
    EndpointMismatch,
    SlopeNotIntegral,
    UnknownElement,
)
from .morphisms import PosetMorphism
from .posets import Poset

Edge = namedtuple("Edge", "a b length")
EdgeImage = namedtuple("EdgeImage", "edge start end slope")
FibreSample = namedtuple("FibreSample", "geometric poset match")


@dataclass(frozen=True)
class Point:
    """A point of a metric graph: a vertex, or an interior point of an edge
    at a strictly positive distance from its first endpoint."""

    vertex: str | None = None
    edge: str | None = None
    position: Fraction | None = None

    @classmethod
    def at_vertex(cls, v: str) -> "Point":
        return cls(vertex=v)

    @classmethod
    def interior(cls, edge: str, position) -> "Point":
        return cls(edge=edge, position=Fraction(position))

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self):
        if self.is_vertex:
            return f"Point({self.vertex})"
        return f"Point({self.edge} @ {self.position})"


class MetricGraph:
    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise DuplicateElement(v)
            seen.add(v)
        self.edges = {}
        for eid, a, b, length in edges:
            if eid in self.edges or eid in seen:
                raise DuplicateElement(eid)
            if a not in seen:
                raise UnknownElement(a)
            if b not in seen:
                raise UnknownElement(b)
            length = Fraction(length)
            if length <= 0:
                raise ValueError(f"edge {eid!r} must have positive length")
            self.edges[eid] = Edge(a, b, length)

    def __repr__(self):
        return f"MetricGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges.values()), Fraction(0))

    def check_point(self, p: Point):
        if p.is_vertex:
            if p.vertex not in self.vertices:
                raise UnknownElement(p.vertex)
        else:
            if p.edge not in self.edges:
                raise UnknownElement(p.edge)
            if not 0 < p.position < self.edges[p.edge].length:
                raise ValueError(f"position {p.position} not interior to edge {p.edge!r}")

    def cell_of(self, p: Point) -> str:
        """The face-poset element a point lies in: the vertex itself or the
        carrying edge."""
        self.check_point(p)
        return p.vertex if p.is_vertex else p.edge


def graph_face_poset(graph: MetricGraph) -> Poset:
    """Vertices at rank 0, edges at rank 1, covers given by incidence."""
    covers = set()
    for eid, e in graph.edges.items():
        covers.add((e.a, eid))
        covers.add((e.b, eid))
    return Poset(list(graph.vertices) + sorted(graph.edges), sorted(covers))


class MetricGraphMorphism:
    """An affine, integer-slope cell map between two metric graphs."""

    def __init__(self, source: MetricGraph, target: MetricGraph, vertex_images, edge_images):
        self.source = source
        self.target = target
        self.vertex_images = dict(vertex_images)
        self.edge_images = {}
        for v in source.vertices:
            if v not in self.vertex_images:
                raise UnknownElement(v)
            target.check_point(self.vertex_images[v])
        for eid, edge in source.edges.items():
            if eid not in edge_images:
                raise UnknownElement(eid)
            t, start, end, slope = edge_images[eid]
            if t not in target.edges:
                raise UnknownElement(t)
            start, end = Fraction(start), Fraction(end)
            if not isinstance(slope, int) or isinstance(slope, bool) or slope < 1:
                raise SlopeNotIntegral(eid, f"slope must be a positive integer, got {slope!r}")
            if start == end:
                raise DegenerateImage(eid)
            tlen = target.edges[t].length
            if not (0 <= start <= tlen and 0 <= end <= tlen):
                raise EndpointMismatch(eid, f"image [{start}, {end}] leaves edge {t!r} of length {tlen}")
            if abs(end - start) != slope * edge.length:
                raise SlopeNotIntegral(
                    eid,
                    f"|{end} - {start}| != slope {slope} x length {edge.length}",
                )
            image = EdgeImage(t, start, end, slope)
            for endpoint, pos in ((edge.a, start), (edge.b, end)):
                expected = self._point_at(t, pos)
                if self.vertex_images[endpoint] != expected:
                    raise EndpointMismatch(
                        eid,
                        f"endpoint {endpoint!r} maps to {self.vertex_images[endpoint]!r} "
                        f"but the edge image puts it at {expected!r}",
                    )
            self.edge_images[eid] = image
        unknown = ((set(self.vertex_images) - set(source.vertices))
                   | (set(edge_images) - set(source.edges)))
        if unknown:
            raise UnknownElement(min(unknown))

    def _point_at(self, target_edge: str, pos: Fraction) -> Point:
        e = self.target.edges[target_edge]
        if pos == 0:
            return Point.at_vertex(e.a)
        if pos == e.length:
            return Point.at_vertex(e.b)
        return Point.interior(target_edge, pos)

    def __repr__(self):
        return f"MetricGraphMorphism({self.source!r} -> {self.target!r})"

    def point_image(self, p: Point) -> Point:
        self.source.check_point(p)
        if p.is_vertex:
            return self.vertex_images[p.vertex]
        img = self.edge_images[p.edge]
        direction = 1 if img.end > img.start else -1
        return self._point_at(img.edge, img.start + direction * img.slope * p.position)


def _cell_map(phi: MetricGraphMorphism):
    """(source cell, target cell) pairs of the induced cell map: a vertex
    goes to its image vertex or carrier edge, an edge to its carrier edge."""
    for v in phi.source.vertices:
        img = phi.vertex_images[v]
        yield v, (img.vertex if img.is_vertex else img.edge)
    for eid, img in phi.edge_images.items():
        yield eid, img.edge


def morphism_face_poset(phi: MetricGraphMorphism) -> PosetMorphism:
    """The induced order-preserving map on face posets."""
    return PosetMorphism(graph_face_poset(phi.source), graph_face_poset(phi.target),
                         dict(_cell_map(phi)))


# ----- refinement -----------------------------------------------------------


@dataclass
class Refinement:
    """Output of the combinatorial refinement: the refined morphism, its
    face-poset morphism, and bookkeeping for what was created.

    Naming scheme: a cut on edge X at position p creates vertex "X@p"; an
    edge split into n parts becomes "X.1" .. "X.n" in order from its first
    endpoint (unsplit edges keep their id).  Collisions get primes.
    """

    morphism: MetricGraphMorphism
    poset_morphism: PosetMorphism
    new_target_vertices: dict
    new_source_vertices: dict
    target_pieces: dict
    source_pieces: dict

    @property
    def source(self) -> MetricGraph:
        return self.morphism.source

    @property
    def target(self) -> MetricGraph:
        return self.morphism.target


def _fresh(name, taken):
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _split_graph(graph: MetricGraph, cuts: dict, taken: set):
    """Split the edges of a graph at the given interior positions.

    Returns the new graph, the piece table, and the cut-vertex names keyed
    by (edge, position).
    """
    vertices = list(graph.vertices)
    new_edges = []
    pieces = {}
    cut_names = {}
    for eid in sorted(graph.edges):
        edge = graph.edges[eid]
        positions = sorted(cuts.get(eid, ()))
        if not positions:
            new_edges.append((eid, edge.a, edge.b, edge.length))
            pieces[eid] = (eid,)
            continue
        stops = [Fraction(0)] + positions + [edge.length]
        names = [edge.a]
        for p in positions:
            v = _fresh(f"{eid}@{p}", taken)
            cut_names[(eid, p)] = v
            vertices.append(v)
            names.append(v)
        names.append(edge.b)
        ids = []
        for i in range(len(stops) - 1):
            pid = _fresh(f"{eid}.{i + 1}", taken)
            ids.append(pid)
            new_edges.append((pid, names[i], names[i + 1], stops[i + 1] - stops[i]))
        pieces[eid] = tuple(ids)
    return MetricGraph(vertices, new_edges), pieces, cut_names


def refine_to_combinatorial(phi: MetricGraphMorphism) -> Refinement:
    """Subdivide target edges at interior vertex images, pull the new
    vertices back to the source edges, and rebuild the morphism so every
    source edge maps onto a single target edge.

    One round suffices: every newly created source vertex maps to a newly
    created target vertex.  The face-poset morphism of the result is
    checked to be combinatorial before returning; inputs outside the
    one-round construction's scope (such as an edge wrapped onto a loop)
    raise NotCombinatorial with the offending element.
    """
    target_cuts = {}
    for v in sorted(phi.source.vertices):
        img = phi.vertex_images[v]
        if not img.is_vertex:
            target_cuts.setdefault(img.edge, set()).add(img.position)

    taken = set(phi.target.vertices) | set(phi.target.edges)
    new_target, target_pieces, target_cut_names = _split_graph(phi.target, target_cuts, taken)
    new_target_vertices = {name: key for key, name in target_cut_names.items()}

    source_cuts = {}
    for eid in sorted(phi.source.edges):
        img = phi.edge_images[eid]
        lo, hi = min(img.start, img.end), max(img.start, img.end)
        direction = 1 if img.end > img.start else -1
        for q in target_cuts.get(img.edge, ()):
            if lo < q < hi:
                x = (q - img.start) / (direction * img.slope)
                source_cuts.setdefault(eid, set()).add(x)

    taken_src = set(phi.source.vertices) | set(phi.source.edges)
    new_source, source_pieces, source_cut_names = _split_graph(phi.source, source_cuts, taken_src)
    new_source_vertices = {name: key for key, name in source_cut_names.items()}

    def refined_point(original: Point) -> Point:
        """A point given in original-target coordinates, in the refined
        target."""
        if original.is_vertex:
            return original
        eid, pos = original.edge, original.position
        cuts = sorted(target_cuts.get(eid, ()))
        if pos in cuts:
            return Point.at_vertex(target_cut_names[(eid, pos)])
        offset = Fraction(0)
        for i, piece in enumerate(target_pieces[eid]):
            stop = cuts[i] if i < len(cuts) else phi.target.edges[eid].length
            if pos < stop:
                return Point.interior(piece, pos - offset)
            offset = stop
        raise AssertionError("position beyond edge length")

    vertex_images = {}
    for v in phi.source.vertices:
        vertex_images[v] = refined_point(phi.vertex_images[v])
    for name, (eid, x) in new_source_vertices.items():
        img = phi.edge_images[eid]
        direction = 1 if img.end > img.start else -1
        vertex_images[name] = refined_point(
            Point.interior(img.edge, img.start + direction * img.slope * x))

    edge_images = {}
    for eid in sorted(phi.source.edges):
        img = phi.edge_images[eid]
        direction = 1 if img.end > img.start else -1
        cuts = sorted(source_cuts.get(eid, ()))
        stops = [Fraction(0)] + cuts + [phi.source.edges[eid].length]
        target_cut_list = sorted(target_cuts.get(img.edge, ()))
        target_stops = [Fraction(0)] + target_cut_list + [phi.target.edges[img.edge].length]
        for pid, x0, x1 in zip(source_pieces[eid], stops, stops[1:]):
            q0 = img.start + direction * img.slope * x0
            q1 = img.start + direction * img.slope * x1
            lo, hi = min(q0, q1), max(q0, q1)
            idx = next(
                i for i in range(len(target_stops) - 1)
                if target_stops[i] <= lo and hi <= target_stops[i + 1]
            )
            piece = target_pieces[img.edge][idx]
            base = target_stops[idx]
            edge_images[pid] = (piece, q0 - base, q1 - base, img.slope)

    refined = MetricGraphMorphism(new_source, new_target, vertex_images, edge_images)
    poset_morphism = morphism_face_poset(refined)
    poset_morphism.require_combinatorial()
    return Refinement(
        morphism=refined,
        poset_morphism=poset_morphism,
        new_target_vertices=new_target_vertices,
        new_source_vertices=new_source_vertices,
        target_pieces=target_pieces,
        source_pieces=source_pieces,
    )


# ----- fibre sampling --------------------------------------------------------


def sample_fibre(phi: MetricGraphMorphism, y: Point) -> FibreSample:
    """Count the geometric fibre over a target point exactly and compare it
    with the face-poset fibre over the cell of the point.  For a
    combinatorial morphism the counts agree at every point; mismatches are
    legitimate output for non-combinatorial input."""
    phi.target.check_point(y)
    geometric = 0
    for v in sorted(phi.source.vertices):
        if phi.vertex_images[v] == y:
            geometric += 1
    if not y.is_vertex:
        for eid in sorted(phi.source.edges):
            img = phi.edge_images[eid]
            if img.edge != y.edge:
                continue
            direction = 1 if img.end > img.start else -1
            x = (y.position - img.start) / (direction * img.slope)
            if 0 < x < phi.source.edges[eid].length:
                geometric += 1
    cell = phi.target.cell_of(y)
    poset = sum(1 for _, image in _cell_map(phi) if image == cell)
    return FibreSample(geometric, poset, geometric == poset)
