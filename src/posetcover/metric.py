"""Metric graphs with exact rational edge lengths and integer-slope
morphisms, the dimension-1 refinement that makes a morphism combinatorial,
and fibre sampling.

Arithmetic is exact and, inside, integer.  On each target edge t every
position is an integer over one denominator D_t: the least common multiple
of the denominators of t's length, of the interior vertex images on t and
of the endpoints of every edge image onto t.  A source edge of slope s onto
t then works in units of 1/(s*D_t), so pulling a cut back is a subtraction.
The constructor checks each edge image in integers over its own
denominator and keeps them; the grid only rescales them to D_t.
`fractions.Fraction` appears only at the boundary: edge lengths, edge image
endpoints, point positions, the keys of a refinement's new vertices,
cut-vertex names and error texts.  There is no floating point anywhere.
Each source edge must map affinely into the closure of a single target
edge; inputs whose edges cross several target edges should be pre-split.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache, cached_property
from itertools import count
from math import lcm

from .errors import (
    DegenerateImage,
    DuplicateElement,
    EndpointMismatch,
    NotCombinatorial,
    SlopeNotIntegral,
    UnknownElement,
)
from .morphisms import PosetMorphism
from .posets import Poset, _distinct

Edge = namedtuple("Edge", "a b length")
EdgeImage = namedtuple("EdgeImage", "edge start end slope")
FibreSample = namedtuple("FibreSample", "geometric poset match")
# builds an Edge or EdgeImage from a tuple, without the namedtuple's __new__
_new = tuple.__new__


def _fraction(value) -> Fraction:
    return value if type(value) is Fraction else Fraction(value)


def _scaled(q: Fraction, den: int) -> int:
    """q as an integer in units of 1/den; den is a multiple of q's
    denominator."""
    return q.numerator * (den // q.denominator)


class Point(namedtuple("Point", "vertex edge position", defaults=(None, None, None))):
    """A point of a metric graph: a vertex, or an interior point of an edge
    at a strictly positive distance from its first endpoint."""

    __slots__ = ()

    @classmethod
    def at_vertex(cls, v: str) -> "Point":
        return cls(vertex=v)

    @classmethod
    def interior(cls, edge: str, position) -> "Point":
        return cls(edge=edge, position=_fraction(position))

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
        self._vertex_set = seen = _distinct(self.vertices)
        self.edges = built = {}
        for eid, a, b, length in edges:
            if eid in built or eid in seen:
                raise DuplicateElement(eid)
            if a not in seen:
                raise UnknownElement(a)
            if b not in seen:
                raise UnknownElement(b)
            length = _fraction(length)
            if length.numerator <= 0:
                raise ValueError(f"edge {eid!r} must have positive length")
            built[eid] = _new(Edge, (a, b, length))

    def __repr__(self):
        return f"MetricGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"

    def total_length(self) -> Fraction:
        return sum((e.length for e in self.edges.values()), Fraction(0))

    def check_point(self, p: Point):
        if p.is_vertex:
            if p.vertex not in self._vertex_set:
                raise UnknownElement(p.vertex)
        else:
            if p.edge not in self.edges:
                raise UnknownElement(p.edge)
            pos, length = _fraction(p.position), self.edges[p.edge].length
            if not 0 < pos.numerator * length.denominator < length.numerator * pos.denominator:
                raise ValueError(f"position {p.position} not interior to edge {p.edge!r}")


def graph_face_poset(graph: MetricGraph) -> Poset:
    """Vertices at rank 0, edges at rank 1, covers given by incidence, once
    for a loop."""
    elements = list(graph.vertices) + sorted(graph.edges)
    index = dict(zip(sorted(elements), count()))
    up = [[] for _ in elements]
    rank = [0] * len(elements)
    # edges in label order, so each vertex's list comes out ascending
    for eid in elements[len(graph.vertices):]:
        a, b, _ = graph.edges[eid]
        i = index[eid]
        rank[i] = 1
        up[index[a]].append(i)
        if b != a:
            up[index[b]].append(i)
    return Poset._from_index(elements, up, rank)


# A morphism in integers, per target edge t in units of 1/D_t: ``scale``
# maps t to D_t; ``images`` maps a source edge to (t, start, end);
# ``places`` maps a source vertex to (None, vertex) or to (t, position);
# ``points`` counts the places, ``spans`` lists the (low, high) ends of the
# edge images onto each t, and ``cells`` counts the cell map's images.
_Grid = namedtuple("_Grid", "scale images places points spans cells")


def _lies_inside(image: Point, t: str, pos: int, den: int) -> bool:
    """Whether image is the point at pos/den strictly inside edge t."""
    if image.vertex is not None or image.edge != t:
        return False
    num, qden = _fraction(image.position).as_integer_ratio()
    return num * den == pos * qden


class MetricGraphMorphism:
    """An affine, integer-slope cell map between two metric graphs."""

    def __init__(self, source: MetricGraph, target: MetricGraph, vertex_images, edge_images):
        self.source = source
        self.target = target
        self.vertex_images = images = dict(vertex_images)
        self.edge_images = built = {}
        vertex_set, target_edges = target._vertex_set, target.edges
        for v in source.vertices:
            if v not in images:
                raise UnknownElement(v)
            # an image that names a target vertex passes as it is
            img = images[v]
            if type(img) is not Point or img.vertex is None or img.vertex not in vertex_set:
                target.check_point(img)
        # each edge image in integers over its own denominator, (t, start,
        # end, den): the checks run on them, and _grid rescales them to D_t
        self._units = units = {}
        for eid, (a, b, length) in source.edges.items():
            if eid not in edge_images:
                raise UnknownElement(eid)
            t, start, end, slope = edge_images[eid]
            if t not in target_edges:
                raise UnknownElement(t)
            start, end = _fraction(start), _fraction(end)
            if not isinstance(slope, int) or isinstance(slope, bool) or slope < 1:
                raise SlopeNotIntegral(eid, f"slope must be a positive integer, got {slope!r}")
            u, w, tlen = target_edges[t]
            (sn, sd), (en, ed), (tn, td) = (start.as_integer_ratio(), end.as_integer_ratio(),
                                            tlen.as_integer_ratio())
            den = lcm(td, sd, ed)
            s = sn * (den // sd)
            e = en * (den // ed)
            top = tn * (den // td)
            if s == e:
                raise DegenerateImage(eid)
            if not (0 <= s <= top and 0 <= e <= top):
                raise EndpointMismatch(eid, f"image [{start}, {end}] leaves edge {t!r} of length {tlen}")
            ln, ld = length.as_integer_ratio()
            if abs(e - s) * ld != slope * ln * den:
                raise SlopeNotIntegral(
                    eid,
                    f"|{end} - {start}| != slope {slope} x length {length}",
                )
            for endpoint, pos in ((a, s), (b, e)):
                image = images[endpoint]
                # an end of t is that vertex, anything else a point inside t
                if not (image == (u, None, None) if pos == 0 else
                        image == (w, None, None) if pos == top else
                        _lies_inside(image, t, pos, den)):
                    raise EndpointMismatch(
                        eid,
                        f"endpoint {endpoint!r} maps to {image!r} "
                        f"but the edge image puts it at {self._point_at(t, pos, den)!r}",
                    )
            built[eid] = _new(EdgeImage, (t, start, end, slope))
            units[eid] = (t, s, e, den)
        unknown = ((self.vertex_images.keys() - source._vertex_set)
                   | (set(edge_images) - source.edges.keys()))
        if unknown:
            raise UnknownElement(min(unknown))

    def _point_at(self, t: str, num: int, den: int) -> Point:
        """The point at num/den on target edge t."""
        e = self.target.edges[t]
        if num == 0:
            return Point.at_vertex(e.a)
        if num * e.length.denominator == e.length.numerator * den:
            return Point.at_vertex(e.b)
        return Point.interior(t, Fraction(num, den))

    @cached_property
    def _grid(self) -> _Grid:
        """The morphism in integers, built on first use from the
        constructor's per-edge integers, which it replaces."""
        units, self._units = self._units, None
        scale = {t: e.length.denominator for t, e in self.target.edges.items()}
        for img in self.vertex_images.values():
            if img.vertex is None:
                scale[img.edge] = lcm(scale[img.edge], _fraction(img.position).denominator)
        for t, _, _, den in units.values():
            scale[t] = lcm(scale[t], den)
        places = {}
        for v, img in self.vertex_images.items():
            places[v] = ((None, img.vertex) if img.vertex is not None else
                         (img.edge, _scaled(_fraction(img.position), scale[img.edge])))
        images = {}
        spans = {}
        for eid, (t, s, e, den) in units.items():
            k = scale[t] // den
            s, e = s * k, e * k
            images[eid] = (t, s, e)
            spans.setdefault(t, []).append((s, e) if s < e else (e, s))
        # the cell map's images, as _cell_map gives them
        cells = Counter(x if t is None else t for t, x in places.values())
        cells.update(t for t, _, _ in images.values())
        return _Grid(scale, images, places, Counter(places.values()), spans, cells)

    def __repr__(self):
        return f"MetricGraphMorphism({self.source!r} -> {self.target!r})"


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


class Refinement(namedtuple("Refinement", "morphism new_target_vertices new_source_vertices "
                                         "target_pieces source_pieces")):
    """Output of the combinatorial refinement: the refined morphism and
    bookkeeping for what was created.  Its face-poset morphism is built
    only when asked for.

    Naming scheme: a cut on edge X at position p creates vertex "X@p"; an
    edge split into n parts becomes "X.1" .. "X.n" in order from its first
    endpoint (unsplit edges keep their id).  Collisions get primes.
    """

    __slots__ = ()

    @property
    def source(self) -> MetricGraph:
        return self.morphism.source

    @property
    def target(self) -> MetricGraph:
        return self.morphism.target

    @property
    def poset_morphism(self) -> PosetMorphism:
        return morphism_face_poset(self.morphism)


def _fresh(name, taken):
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _split_graph(graph: MetricGraph, cuts: dict, units: dict, taken: set, rational):
    """Split the edges of a graph at interior positions.

    ``cuts`` maps an edge to its ascending cut positions and ``units`` to
    (den, length): the positions and the edge's length are integers in
    units of 1/den, and ``rational`` makes their Fractions.  Returns the
    new graph, the piece table, the cut-vertex names keyed by (edge,
    integer position), and the new vertices with their (edge, Fraction
    position).
    """
    vertices = list(graph.vertices)
    new_edges = []
    pieces = {}
    cut_names = {}
    new_vertices = {}
    for eid in sorted(graph.edges):
        edge = graph.edges[eid]
        positions = cuts.get(eid)
        if not positions:
            new_edges.append((eid, edge.a, edge.b, edge.length))
            pieces[eid] = (eid,)
            continue
        den, length = units[eid]
        names = [edge.a]
        for p in positions:
            at = rational(p, den)
            v = _fresh(f"{eid}@{at}", taken)
            cut_names[(eid, p)] = v
            new_vertices[v] = (eid, at)
            vertices.append(v)
            names.append(v)
        names.append(edge.b)
        stops = [0, *positions, length]
        ids = []
        for i in range(len(stops) - 1):
            pid = _fresh(f"{eid}.{i + 1}", taken)
            ids.append(pid)
            new_edges.append((pid, names[i], names[i + 1], rational(stops[i + 1] - stops[i], den)))
        pieces[eid] = tuple(ids)
    return MetricGraph(vertices, new_edges), pieces, cut_names, new_vertices


def refine_to_combinatorial(phi: MetricGraphMorphism) -> Refinement:
    """Subdivide target edges at interior vertex images, pull the new
    vertices back to the source edges, and rebuild the morphism so every
    source edge maps onto a single target edge.

    One round suffices: every newly created source vertex maps to a newly
    created target vertex.  Afterwards every source vertex maps to a target
    vertex and every source edge e = (a, b) onto one whole target edge
    t = (u, w), so the face-poset map sends down(e) = {e, a, b} onto
    down(t) = {t, u, w}.  It does so bijectively exactly when e is a loop
    iff t is one and a non-loop's ends map to distinct vertices; vertices
    always pass.  That rule is checked on the graphs, in time linear in the
    cells, and inputs outside the one-round construction's scope (such as
    an edge wrapped onto a loop) raise NotCombinatorial with the least
    failing edge, the first witness of the face-poset morphism.

    The refined morphism goes through the checking constructor.  Its
    rationals are shared: each end of an edge image is 0 or its target
    piece's own length, and each distinct length and cut position is one
    Fraction.
    """
    grid = phi._grid
    rational = cache(Fraction)
    target_cuts = {}
    for t, pos in grid.places.values():
        if t is not None:
            target_cuts.setdefault(t, set()).add(pos)
    target_cuts = {t: sorted(cuts) for t, cuts in target_cuts.items()}
    taken = set(phi.target.vertices) | set(phi.target.edges)
    units = {t: (grid.scale[t], _scaled(phi.target.edges[t].length, grid.scale[t]))
             for t in target_cuts}
    new_target, target_pieces, target_cut_names, new_target_vertices = _split_graph(
        phi.target, target_cuts, units, taken, rational)

    # a cut q inside the image of a source edge of slope s from S to E lies
    # at |q - S| in the edge's units of 1/(s*D_t)
    source_cuts = {}
    source_units = {}
    for eid, (t, s, e) in grid.images.items():
        cuts = target_cuts.get(t, ())
        lo, hi = min(s, e), max(s, e)
        inside = cuts[bisect_right(cuts, lo):bisect_left(cuts, hi)]
        if inside:
            source_cuts[eid] = [q - s for q in inside] if s < e else [s - q for q in inside[::-1]]
            source_units[eid] = (phi.edge_images[eid].slope * grid.scale[t], hi - lo)
    taken_src = set(phi.source.vertices) | set(phi.source.edges)
    new_source, source_pieces, source_cut_names, new_source_vertices = _split_graph(
        phi.source, source_cuts, source_units, taken_src, rational)

    # every interior image, old or new, is a target cut: a refined vertex
    at_cut = {key: Point(name) for key, name in target_cut_names.items()}
    vertex_images = {}
    for v in phi.source.vertices:
        t, pos = grid.places[v]
        vertex_images[v] = phi.vertex_images[v] if t is None else at_cut[(t, pos)]
    for (eid, x), name in source_cut_names.items():
        t, s, e = grid.images[eid]
        vertex_images[name] = at_cut[(t, s + x if s < e else s - x)]

    # a piece runs from one target cut (or end) to the next, so it covers
    # one whole target piece, from 0 to its length or back
    zero = Fraction(0)
    edge_images = {}
    for eid, (t, s, e) in grid.images.items():
        cuts = target_cuts.get(t, ())
        slope = phi.edge_images[eid].slope
        pieces = target_pieces[t]
        stops = [0, *source_cuts.get(eid, ()), abs(e - s)]
        for pid, x0, x1 in zip(source_pieces[eid], stops, stops[1:]):
            onto = pieces[bisect_right(cuts, s + x0 if s < e else s - x1)]
            length = new_target.edges[onto].length
            edge_images[pid] = ((onto, zero, length, slope) if s < e
                                else (onto, length, zero, slope))

    refined = MetricGraphMorphism(new_source, new_target, vertex_images, edge_images)
    # the rule of the docstring; vertices pass and edges are maximal, so
    # the least failing edge is the face-poset morphism's first witness
    failing = []
    for eid, (a, b, _) in new_source.edges.items():
        u, w, _ = new_target.edges[edge_images[eid][0]]
        if (a == b) != (u == w) or a != b and vertex_images[a] == vertex_images[b]:
            failing.append(eid)
    if failing:
        raise NotCombinatorial(min(failing))
    return Refinement(
        morphism=refined,
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
    grid = phi._grid
    if y.is_vertex:
        geometric = grid.points[(None, y.vertex)]
        cell = y.vertex
    else:
        # y sits at num/den in units of 1/D_t of edge t: count the vertices
        # placed there and the edge images that hold it strictly inside
        t, cell, q = y.edge, y.edge, _fraction(y.position)
        num, den = q.numerator * grid.scale[t], q.denominator
        geometric = grid.points[(t, num // den)] if num % den == 0 else 0
        geometric += sum(1 for lo, hi in grid.spans.get(t, ()) if lo * den < num < hi * den)
    poset = grid.cells[cell]
    return FibreSample(geometric, poset, geometric == poset)
