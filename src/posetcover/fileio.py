"""Reading and writing the JSON documents the CLI consumes and emits.

All files are UTF-8 JSON.  Rationals travel as "p/q" or plain integer
strings.  Wherever a document embeds a poset or metric graph, a string may
stand in for it: either a bundled fixture name or a path resolved relative
to the referencing file.  Identifiers must be JSON strings inside the
expected lists and objects; anything else raises FormatError.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path

from . import fixtures
from .covers import IndexMap
from .errors import FormatError, ToolError
from .metric import MetricGraph, MetricGraphMorphism, Point, graph_face_poset
from .morphisms import PosetMorphism
from .posets import Poset, rank_check
from .subdivision import SimplicialComplex


def parse_rational(text) -> Fraction:
    # bool is an int, but a JSON true or false is no rational
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        num, slash, den = text.partition("/")
        try:
            # format_rational's form is read without Fraction's regular expression
            if text.isascii() and num.removeprefix("-").isdigit() and (
                    not slash or den.isdigit() and den.strip("0")):
                return Fraction(int(num), int(den or 1))
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {text!r}: {exc}") from None
    raise FormatError(f"rationals must be strings like '3' or '5/2', got {text!r}")


def format_rational(value: Fraction) -> str:
    return str(value)


def _require(doc, key, kind):
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{kind} document needs field {key!r}")
    return doc[key]


def _string(value, what):
    if not isinstance(value, str):
        raise FormatError(f"{what} must be a string, got {value!r}")
    return value


def _strings(value, what):
    if not isinstance(value, (list, tuple)) or not all(isinstance(x, str) for x in value):
        raise FormatError(f"{what} must be a list of strings, got {value!r}")
    return value


def _list(value, what):
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {value!r}")
    return value


def _keyed(value, what):
    if not isinstance(value, dict) or not all(isinstance(k, str) for k in value):
        raise FormatError(f"{what} must be an object keyed by strings, got {value!r}")
    return value


# ----- posets ---------------------------------------------------------------


def poset_from_doc(doc) -> Poset:
    elements = _strings(_require(doc, "elements", "poset"), "poset elements")
    covers = _list(_require(doc, "covers", "poset"), "poset covers")
    try:
        p = Poset(elements, [tuple(_strings(c, "a cover pair")) for c in covers])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad poset document: {exc}") from None
    if "rank" in doc and doc["rank"] is not None:
        computed = rank_check(p).rank
        if _keyed(doc["rank"], "rank") != computed:
            raise FormatError("supplied rank disagrees with the computed rank function")
    return p


def poset_to_doc(p: Poset, with_rank: bool = False) -> dict:
    doc = {
        "elements": sorted(p.elements),
        "covers": [[a, b] for a, b in p._cover_pairs()],
    }
    if with_rank:
        try:
            doc["rank"] = dict(sorted(rank_check(p).rank.items()))
        except ToolError:
            pass
    return doc


def morphism_from_doc(doc, base: Path | None = None) -> PosetMorphism:
    source = _resolve_poset(_require(doc, "source", "morphism"), base)
    target = _resolve_poset(_require(doc, "target", "morphism"), base)
    mapping = _keyed(_require(doc, "map", "morphism"), "morphism map")
    for value in mapping.values():
        _string(value, "a morphism map value")
    return PosetMorphism(source, target, dict(mapping))


def morphism_to_doc(phi: PosetMorphism) -> dict:
    return {
        "source": poset_to_doc(phi.source),
        "target": poset_to_doc(phi.target),
        "map": dict(sorted(phi.mapping.items())),
    }


def index_map_from_doc(doc, poset: Poset) -> IndexMap:
    generators = doc.get("domain_upset_generators")
    values = dict(_keyed(_require(doc, "values", "index map"), "index map values"))
    if generators is not None:
        domain = poset.up_set(_strings(generators, "domain_upset_generators"))
        if set(values) != set(domain):
            raise FormatError("index values must cover exactly the generated up-set")
    return IndexMap(poset, values)


def index_map_to_doc(m: IndexMap) -> dict:
    generators = sorted(
        x for x in m.domain if not any(m.poset.lt(y, x) for y in m.domain)
    )
    return {
        "domain_upset_generators": generators,
        "values": dict(sorted(m.values.items())),
    }


# ----- simplicial complexes --------------------------------------------------


def complex_from_doc(doc) -> SimplicialComplex:
    vertices = _strings(_require(doc, "vertices", "simplicial complex"), "complex vertices")
    maximal = _list(_require(doc, "maximal_faces", "simplicial complex"), "maximal faces")
    maximal = [tuple(_strings(f, "a maximal face")) for f in maximal]
    undeclared = {v for f in maximal for v in f} - set(vertices)
    if undeclared:
        raise FormatError(f"maximal faces use undeclared vertex {min(undeclared)!r}")
    return SimplicialComplex.from_maximal(vertices, maximal)


def complex_to_doc(k: SimplicialComplex) -> dict:
    # a face is maximal when no face drops one member to reach it
    maximal = k.faces - {f - {v} for f in k.faces for v in f}
    return {
        "vertices": sorted(k.vertices),
        "maximal_faces": sorted(sorted(f) for f in maximal),
    }


# ----- metric graphs ----------------------------------------------------------


def metric_graph_from_doc(doc) -> MetricGraph:
    vertices = _strings(_require(doc, "vertices", "metric graph"), "metric graph vertices")
    edges = []
    for e in _list(_require(doc, "edges", "metric graph"), "metric graph edges"):
        edges.append((
            _string(_require(e, "id", "edge"), "an edge id"),
            _string(_require(e, "a", "edge"), "an edge endpoint"),
            _string(_require(e, "b", "edge"), "an edge endpoint"),
            parse_rational(_require(e, "length", "edge")),
        ))
    return MetricGraph(vertices, edges)


def metric_graph_to_doc(g: MetricGraph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": eid, "a": e.a, "b": e.b, "length": format_rational(e.length)}
            for eid, e in sorted(g.edges.items())
        ],
    }


def _point_from_doc(value) -> Point:
    if isinstance(value, str):
        return Point.at_vertex(value)
    if isinstance(value, dict):
        return Point.interior(
            _string(_require(value, "edge", "point"), "a point edge"),
            parse_rational(_require(value, "pos", "point")),
        )
    raise FormatError(f"bad point {value!r}")


def _point_to_doc(p: Point):
    if p.is_vertex:
        return p.vertex
    return {"edge": p.edge, "pos": format_rational(p.position)}


def metric_morphism_from_doc(doc, base: Path | None = None) -> MetricGraphMorphism:
    source = _resolve_metric_graph(_require(doc, "source", "metric morphism"), base)
    target = _resolve_metric_graph(_require(doc, "target", "metric morphism"), base)
    vertex_images = {
        v: _point_from_doc(img)
        for v, img in _keyed(_require(doc, "vertex_images", "metric morphism"),
                             "vertex_images").items()
    }
    edge_images = {}
    for e, img in _keyed(_require(doc, "edge_images", "metric morphism"), "edge_images").items():
        slope = _require(img, "slope", "edge image")
        edge_images[e] = (
            _string(_require(img, "edge", "edge image"), "an edge image edge"),
            parse_rational(_require(img, "from", "edge image")),
            parse_rational(_require(img, "to", "edge image")),
            slope,
        )
    return MetricGraphMorphism(source, target, vertex_images, edge_images)


def metric_morphism_to_doc(phi: MetricGraphMorphism) -> dict:
    return {
        "source": metric_graph_to_doc(phi.source),
        "target": metric_graph_to_doc(phi.target),
        "vertex_images": {
            v: _point_to_doc(p) for v, p in sorted(phi.vertex_images.items())
        },
        "edge_images": {
            e: {
                "edge": img.edge,
                "from": format_rational(img.start),
                "to": format_rational(img.end),
                "slope": img.slope,
            }
            for e, img in sorted(phi.edge_images.items())
        },
    }


# ----- reference resolution ---------------------------------------------------


def _load_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path} nests deeper than the JSON parser allows") from None


def _resolve_poset(value, base: Path | None) -> Poset:
    if isinstance(value, dict):
        return poset_from_doc(value)
    if isinstance(value, str):
        obj = load_named(value, base)
        got = as_poset(obj, value)
        if got is not None:
            return got
    raise FormatError(f"cannot interpret {value!r} as a poset")


def _resolve_metric_graph(value, base: Path | None) -> MetricGraph:
    if isinstance(value, dict):
        return metric_graph_from_doc(value)
    if isinstance(value, str):
        obj = load_named(value, base)
        if isinstance(obj, MetricGraph):
            return obj
        if isinstance(obj, MetricGraphMorphism):
            raise FormatError(f"{value!r} is a morphism, expected a metric graph")
    raise FormatError(f"cannot interpret {value!r} as a metric graph")


def as_poset(obj, label: str):
    """Coerce a loaded object to a poset when the intent is unambiguous."""
    if isinstance(obj, Poset):
        return obj
    if isinstance(obj, MetricGraph):
        return graph_face_poset(obj)
    if isinstance(obj, (PosetMorphism, MetricGraphMorphism)):
        raise FormatError(
            f"{label!r} is a morphism; use {label}/source or {label}/target"
        )
    return None


def load_named(name: str, base: Path | None = None):
    """Load a fixture by name or a document by path.

    Morphism fixtures accept /source and /target suffixes that select the
    corresponding poset (face poset for the metric fixture).
    """
    side = None
    stem = name
    if name.endswith("/source") or name.endswith("/target"):
        stem, side = name.rsplit("/", 1)
    if stem in fixtures.FIXTURES:
        obj = fixtures.load_fixture(stem)
        if side is None:
            return obj
        if isinstance(obj, PosetMorphism):
            return getattr(obj, side)
        if isinstance(obj, MetricGraphMorphism):
            return graph_face_poset(getattr(obj, side))
        raise FormatError(f"fixture {stem!r} has no {side} side")
    path = Path(name)
    if base is not None and not path.is_absolute():
        path = base / path
    doc = _load_json(path)
    return document_from_doc(doc, path.parent)


def document_from_doc(doc, base: Path | None = None):
    """Detect the document kind from its fields."""
    if not isinstance(doc, dict):
        raise FormatError("top-level document must be a JSON object")
    if "map" in doc:
        return morphism_from_doc(doc, base)
    if "vertex_images" in doc:
        return metric_morphism_from_doc(doc, base)
    if "maximal_faces" in doc:
        return complex_from_doc(doc)
    if "edges" in doc:
        return metric_graph_from_doc(doc)
    if "values" in doc:
        return doc  # index maps need their carrier; handled by the caller
    if "elements" in doc:
        return poset_from_doc(doc)
    raise FormatError("unrecognized document; no known field combination")


def dumps(doc) -> str:
    """Canonical JSON rendering: sorted keys, two-space indent, newline at
    the end.  Identical inputs give byte-identical output.

    The text is that of ``json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False)``, whose indented form runs on json's pure-Python
    encoder; this writer keeps json's type order and its C string encoder.
    Keys must be strings, and any other type raises TypeError."""
    return _render(doc, "\n") + "\n"


def _render(value, pad: str) -> str:
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return json.dumps(value)
    # most members are plain strings, so they skip the call
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([
            encode_basestring(x) if type(x) is str else _render(x, inner)
            for x in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # encode_basestring raises TypeError on a key that is no string
        return "{" + inner + ("," + inner).join([
            encode_basestring(k) + ": "
            + (encode_basestring(x) if type(x) is str else _render(x, inner))
            for k, x in sorted(value.items())]) + pad + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
