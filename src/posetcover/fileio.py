"""Reading and writing the JSON documents the CLI consumes and emits.

All files are UTF-8 JSON.  Rationals travel as "p/q" or plain integer
strings, and a value the writer could not write, one whose numerator or
denominator has more than MAX_DIGITS digits, is refused when read.
Identifiers must be JSON strings inside the expected lists and objects;
anything else raises FormatError.

Every object the tool reads, whether a CLI argument or the source or
target of a morphism document, is a reference that ``resolve`` reads
through the one table ``KINDS``.  A reference is a bundled fixture name
or a path, relative to the referencing file (on the command line, to the
working directory); an embedded poset or metric graph may also be an
inline document, parsed as ``INLINE`` says.  A ``/source`` or ``/target``
suffix on a morphism fixture or document names that side itself.  A
document that names itself, directly or through other documents, is
refused, and so is a chain of references more than REFERENCE_DEPTH_LIMIT
files deep; one load reads each file once, however often it is named.
Each kind of slot accepts the loaded types of its row, each with its
conversion: a metric graph becomes its face poset, and a metric graph
morphism its face-poset morphism.  A morphism in a slot that accepts its
sides is refused with the hint to name a side.  Index maps need the
poset they live on, and ``resolve_index`` reads them.
"""

from __future__ import annotations

import json
import os
import re
from functools import cache
from itertools import repeat
from json.encoder import encode_basestring
from pathlib import Path

from .errors import DuplicateElement, FormatError
from .morphisms import PosetMorphism
from .posets import Poset, rank_check


# Python's limit on the digits of an int read from or written as text.
# Reading a longer numerator already fails.  A decimal exponent above it in
# magnitude is refused before Fraction expands it, and a value whose
# numerator or denominator has more digits, which could not be written, after
MAX_DIGITS = 4300
# Fraction's decimal spelling with an exponent, the exponent captured: the
# one spelling whose value can outgrow its text.  Compiled on first use (by
# re's cache), so a CLI process that reads no such spelling never pays for it
_EXPONENT_FORM = (r"(?i)\s*[-+]?(?=\d|\.\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
                  r"e([-+]?\d+(?:_\d+)*)\s*")


def _too_long(n: int) -> bool:
    """Whether n has more than MAX_DIGITS decimal digits; 10**MAX_DIGITS
    exceeds 2**(3 * MAX_DIGITS), so the bit length screens out the rest."""
    return n.bit_length() > 3 * MAX_DIGITS and abs(n) >= 10 ** MAX_DIGITS


@cache
def _rational_parser():
    """parse_rational, built on first use: fractions loads only in a
    process that reads a rational, and no import runs per value."""
    from fractions import Fraction

    def parse(text) -> Fraction:
        # bool is an int, but a JSON true or false is no rational
        if isinstance(text, int) and not isinstance(text, bool):
            return Fraction(text)
        if isinstance(text, str):
            num, slash, den = text.partition("/")
            try:
                # format_rational's form is read without Fraction's regular
                # expression; int() bounds its digits, and reducing only shrinks them
                if text.isascii() and num.removeprefix("-").isdigit() and (
                        not slash or den.isdigit() and den.strip("0")):
                    return Fraction(int(num), int(den or 1))
                form = re.fullmatch(_EXPONENT_FORM, text)
                if form and abs(int(form[1])) > MAX_DIGITS:
                    raise FormatError(f"bad rational {text!r}: exponent above {MAX_DIGITS} "
                                      "in magnitude")
                value = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad rational {text!r}: {exc}") from None
            if _too_long(value.numerator) or _too_long(value.denominator):
                raise FormatError(f"bad rational {text!r}: more than {MAX_DIGITS} digits "
                                  "in its numerator or denominator")
            return value
        raise FormatError(f"rationals must be strings like '3' or '5/2', got {text!r}")
    return parse


def parse_rational(text):
    return _rational_parser()(text)


def format_rational(value) -> str:
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
    if not isinstance(value, (list, tuple)) or not all(map(isinstance, value, repeat(str))):
        raise FormatError(f"{what} must be a list of strings, got {value!r}")
    return value


def _list(value, what):
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"{what} must be a list, got {value!r}")
    return value


def _keyed(value, what):
    if not isinstance(value, dict) or not all(map(isinstance, value, repeat(str))):
        raise FormatError(f"{what} must be an object keyed by strings, got {value!r}")
    return value


# ----- posets ---------------------------------------------------------------


def poset_from_doc(doc) -> Poset:
    elements = _strings(_require(doc, "elements", "poset"), "poset elements")
    covers = _list(_require(doc, "covers", "poset"), "poset covers")
    try:
        p = Poset(elements, [_strings(c, "a cover pair") for c in covers])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad poset document: {exc}") from None
    if "rank" in doc and doc["rank"] is not None:
        supplied = _keyed(doc["rank"], "rank")
        # JSON true, false and 1.0 compare equal to ints, so the type is read
        bad = [k for k, r in supplied.items() if type(r) is not int]
        if bad:
            key = min(bad)
            raise FormatError(f"rank values must be integers, got {supplied[key]!r} at {key!r}")
        computed = rank_check(p).rank
        if supplied != computed:
            # the least element whose rank is missing, extra or different
            key = min(k for k in supplied.keys() | computed.keys()
                      if k not in supplied or k not in computed or supplied[k] != computed[k])
            shown = [repr(r[key]) if key in r else "no value" for r in (supplied, computed)]
            raise FormatError("supplied rank disagrees with the computed rank function at "
                              f"{key!r}: supplied {shown[0]}, computed {shown[1]}")
    return p


def poset_to_doc(p: Poset, with_rank: bool = False) -> dict:
    doc = {
        "elements": list(p._ids),
        "covers": [[a, b] for a, b in p._cover_pairs()],
    }
    if with_rank:
        doc["rank"] = rank_check(p).rank
    return doc


def morphism_from_doc(doc, loads: _Loads | None = None) -> PosetMorphism:
    source = resolve(_require(doc, "source", "morphism"), "poset", loads)
    target = resolve(_require(doc, "target", "morphism"), "poset", loads)
    mapping = _keyed(_require(doc, "map", "morphism"), "morphism map")
    for value in mapping.values():
        _string(value, "a morphism map value")
    return PosetMorphism(source, target, dict(mapping))


def morphism_to_doc(phi: PosetMorphism) -> dict:
    return {
        "source": poset_to_doc(phi.source),
        "target": poset_to_doc(phi.target),
        "map": dict(phi.mapping),
    }


def index_map_from_doc(doc, poset: Poset):
    from .covers import IndexMap

    generators = doc.get("domain_upset_generators")
    values = dict(_keyed(_require(doc, "values", "index map"), "index map values"))
    if generators is not None:
        domain = poset.up_set(_strings(generators, "domain_upset_generators"))
        if set(values) != set(domain):
            raise FormatError("index values must cover exactly the generated up-set")
    return IndexMap(poset, values)


# ----- simplicial complexes --------------------------------------------------


def complex_from_doc(doc):
    from .subdivision import SimplicialComplex

    vertices = _strings(_require(doc, "vertices", "simplicial complex"), "complex vertices")
    seen = set()
    for v in vertices:
        if v in seen:
            raise DuplicateElement(v)
        seen.add(v)
    maximal = _list(_require(doc, "maximal_faces", "simplicial complex"), "maximal faces")
    maximal = [tuple(_strings(f, "a maximal face")) for f in maximal]
    if not all(maximal):
        raise FormatError("a maximal face must have at least one vertex")
    undeclared = {v for f in maximal for v in f} - seen
    if undeclared:
        raise FormatError(f"maximal faces use undeclared vertex {min(undeclared)!r}")
    return SimplicialComplex.from_maximal(vertices, maximal)


def complex_to_doc(k) -> dict:
    # a face is maximal when no face drops one member to reach it
    maximal = k.faces - {f - {v} for f in k.faces for v in f}
    return {
        "vertices": sorted(k.vertices),
        "maximal_faces": sorted(sorted(f) for f in maximal),
    }


# ----- metric graphs ----------------------------------------------------------


def _rational_reader():
    """parse_rational with a cache of the strings it has read: a document
    repeats few distinct rationals.  Other values are parsed directly, as
    true, 1 and 1.0 would be one cache key.  A cache keeps no error, so an
    error, and which value raises first, is that of parsing every value."""
    parse = _rational_parser()
    strings = cache(parse)
    return lambda text: strings(text) if type(text) is str else parse(text)


def metric_graph_from_doc(doc):
    from .metric import MetricGraph

    vertices = _strings(_require(doc, "vertices", "metric graph"), "metric graph vertices")
    rational = _rational_reader()
    edges = []
    for e in _list(_require(doc, "edges", "metric graph"), "metric graph edges"):
        # a plain row, an exact dict with exact strings, is read directly;
        # any other field by field, so either way the row's first bad field
        # raises, in document order
        if (type(e) is dict and "length" in e and type(e.get("id")) is str
                and type(e.get("a")) is str and type(e.get("b")) is str):
            edges.append((e["id"], e["a"], e["b"], rational(e["length"])))
        else:
            edges.append((
                _string(_require(e, "id", "edge"), "an edge id"),
                _string(_require(e, "a", "edge"), "an edge endpoint"),
                _string(_require(e, "b", "edge"), "an edge endpoint"),
                rational(_require(e, "length", "edge")),
            ))
    return MetricGraph(vertices, edges)


def metric_graph_to_doc(g) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [
            {"id": eid, "a": e.a, "b": e.b, "length": format_rational(e.length)}
            for eid, e in sorted(g.edges.items())
        ],
    }


def _point_from_doc(value, rational, Point):
    if isinstance(value, str):
        return Point.at_vertex(value)
    if isinstance(value, dict):
        return Point.interior(
            _string(_require(value, "edge", "point"), "a point edge"),
            rational(_require(value, "pos", "point")),
        )
    raise FormatError(f"bad point {value!r}")


def _point_to_doc(p):
    if p.vertex is not None:
        return p.vertex
    return {"edge": p.edge, "pos": format_rational(p.position)}


def metric_morphism_from_doc(doc, loads: _Loads | None = None):
    from .metric import MetricGraphMorphism, Point

    source = resolve(_require(doc, "source", "metric morphism"), "metric graph", loads)
    target = resolve(_require(doc, "target", "metric morphism"), "metric graph", loads)
    rational = _rational_reader()
    vertex_images = {
        v: Point(img) if type(img) is str else _point_from_doc(img, rational, Point)
        for v, img in _keyed(_require(doc, "vertex_images", "metric morphism"),
                             "vertex_images").items()
    }
    edge_images = {}
    for e, img in _keyed(_require(doc, "edge_images", "metric morphism"),
                         "edge_images").items():
        # a plain row is read directly and any other field by field, slope
        # first, as the edges of a graph are
        if (type(img) is dict and "slope" in img and type(img.get("edge")) is str
                and "from" in img and "to" in img):
            edge_images[e] = (img["edge"], rational(img["from"]), rational(img["to"]),
                              img["slope"])
        else:
            slope = _require(img, "slope", "edge image")
            edge_images[e] = (
                _string(_require(img, "edge", "edge image"), "an edge image edge"),
                rational(_require(img, "from", "edge image")),
                rational(_require(img, "to", "edge image")),
                slope,
            )
    return MetricGraphMorphism(source, target, vertex_images, edge_images)


def metric_morphism_to_doc(phi) -> dict:
    return {
        "source": metric_graph_to_doc(phi.source),
        "target": metric_graph_to_doc(phi.target),
        "vertex_images": {v: _point_to_doc(p) for v, p in phi.vertex_images.items()},
        "edge_images": {
            e: {
                "edge": img.edge,
                "from": format_rational(img.start),
                "to": format_rational(img.end),
                "slope": img.slope,
            }
            for e, img in phi.edge_images.items()
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
    except ValueError as exc:
        # bytes that are no UTF-8, or an integer longer than int() reads
        raise FormatError(f"cannot read {path}: {exc}") from None
    except RecursionError:
        raise FormatError(f"{path} nests deeper than the JSON parser allows") from None


def _itself(obj):
    return obj


def _face_poset(obj):
    """The face poset of a metric graph, or the face-poset morphism of a
    metric graph morphism; metric has loaded, since obj is one of its
    objects."""
    from . import metric

    if isinstance(obj, metric.MetricGraph):
        return metric.graph_face_poset(obj)
    return metric.morphism_face_poset(obj)


# kind: {name of a loaded type the kind accepts: its conversion}.  Types go
# by name, so that the table loads no module: no object of a type exists
# before the type's module has loaded.
KINDS = {
    "poset": {"Poset": _itself, "MetricGraph": _face_poset},
    "morphism": {"PosetMorphism": _itself, "MetricGraphMorphism": _face_poset},
    "metric graph": {"MetricGraph": _itself},
    "metric graph morphism": {"MetricGraphMorphism": _itself},
    "simplicial complex": {"SimplicialComplex": _itself},
}

# the kinds a morphism document embeds, with the parser of an inline one
INLINE = {"poset": poset_from_doc, "metric graph": metric_graph_from_doc}


def resolve(value, kind: str, loads: _Loads | None = None):
    """The object of the given kind that value stands for: an inline
    document, or a name for load_named, converted as KINDS says."""
    if isinstance(value, dict):
        return INLINE[kind](value)
    accepts = KINDS[kind]
    obj = load_named(value, loads) if isinstance(value, str) else None
    convert = accepts.get(type(obj).__name__)
    if convert is not None:
        return convert(obj)
    # the morphism kind accepts exactly the types with a source and a target
    if type(obj).__name__ in KINDS["morphism"] and type(obj.source).__name__ in accepts:
        raise FormatError(f"{value!r} is a morphism; use {value}/source or {value}/target")
    raise FormatError(f"{value!r} does not describe a {kind}")


def resolve_index(name: str, carrier: Poset):
    """The index map on carrier that name stands for: an index map
    fixture on that poset, or a document of values."""
    obj = load_named(name)
    if type(obj).__name__ == "IndexMap":
        if obj.poset != carrier:
            raise FormatError(f"index map {name!r} lives on a different poset")
        return obj
    if isinstance(obj, dict):
        return index_map_from_doc(obj, carrier)
    raise FormatError(f"{name!r} does not describe an index map")


# every bundled fixture name starts with it
FIXTURE_PREFIX = "FIX-"


def _is_fixture(name: str) -> bool:
    """Whether name is a bundled fixture; any name without FIXTURE_PREFIX is
    told apart without loading the fixtures, and with them the metric
    graph code."""
    if not name.startswith(FIXTURE_PREFIX):
        return False
    from . import fixtures

    return name in fixtures.FIXTURES


# the most files a chain of references may hold, each named by the one
# before it; each file takes a few stack frames, so the deepest chain
# stays far inside Python's recursion limit
REFERENCE_DEPTH_LIMIT = 64


class _Loads:
    """The files of one load.  chain holds those being loaded, each named
    by the one before it, with their real paths; done holds those loaded,
    by their real path and that of the folder their references are read
    from, so that a file named again is not read again."""

    def __init__(self):
        self.chain = []
        self.done = {}


def load_named(name: str, loads: _Loads | None = None):
    """Load a fixture by name or a document by path.  A path is relative
    to the folder of the file that names it (on the command line, to the
    working directory).  A file that names itself, directly or through
    others, is refused, since loading it would never end, and so is a file
    more than REFERENCE_DEPTH_LIMIT files down a chain of references.  A
    fixture wins over a file of the same name.

    A /source or /target suffix on a morphism fixture, or on a morphism
    document where the name without it is a file, selects that side.
    """
    if _is_fixture(name):
        from .fixtures import load_fixture

        return load_fixture(name)
    if loads is None:
        loads = _Loads()
    chain = loads.chain
    path = (chain[-1][0].parent if chain else Path.cwd()) / name
    stem, _, side = name.rpartition("/")
    # a file has no children, so a path whose parent is a file cannot exist
    if side in ("source", "target") and (_is_fixture(stem) or path.parent.is_file()):
        obj = load_named(stem, loads)
        if type(obj).__name__ not in KINDS["morphism"]:
            what = "fixture" if _is_fixture(stem) else "document"
            raise FormatError(f"{what} {stem!r} has no {side} side")
        return getattr(obj, side)
    real = os.path.realpath(path)
    key = (real, os.path.realpath(path.parent))
    if key in loads.done:
        return loads.done[key]
    if any(real == r for _, r in chain):
        raise FormatError("reference cycle: " + " -> ".join(
            [str(p) for p, _ in chain] + [str(path)]))
    if len(chain) == REFERENCE_DEPTH_LIMIT:
        raise FormatError(f"reference depth {len(chain) + 1} exceeds the limit "
                          f"{REFERENCE_DEPTH_LIMIT} at {path}")
    # an error ends the whole load, so the chain is only unwound on success
    chain.append((path, real))
    obj = loads.done[key] = document_from_doc(_load_json(path), loads)
    chain.pop()
    return obj


def document_from_doc(doc, loads: _Loads | None = None):
    """Detect the document kind from its fields."""
    if not isinstance(doc, dict):
        raise FormatError("top-level document must be a JSON object")
    if "map" in doc:
        return morphism_from_doc(doc, loads)
    if "vertex_images" in doc:
        return metric_morphism_from_doc(doc, loads)
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
    encoder; this writer keeps json's C string encoder and type order, and
    takes exact dicts and lists, most of a document, before any type test.
    Keys must be strings, and any other type raises TypeError."""
    return _render(doc, "\n") + "\n"


def _render(value, pad: str) -> str:
    kind = type(value)
    if kind is not dict and kind is not list:
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
        if isinstance(value, (list, tuple)):
            kind = list
        elif isinstance(value, dict):
            kind = dict
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return "[]" if kind is list else "{}"
    # most members are plain strings, so they skip the call
    inner = pad + "  "
    if kind is list:
        return "[" + inner + ("," + inner).join([
            encode_basestring(x) if type(x) is str else _render(x, inner)
            for x in value]) + pad + "]"
    # encode_basestring raises TypeError on a key that is no string
    return "{" + inner + ("," + inner).join([
        f"{encode_basestring(k)}: {encode_basestring(x) if type(x) is str else _render(x, inner)}"
        for k, x in sorted(value.items())]) + pad + "}"
