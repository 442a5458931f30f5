"""What a reference may stand for: every kind of slot of ``fileio.KINDS``
against every type a reference can load, as a CLI argument and, for the
kinds that a morphism document embeds, as the document's ``source``.
Each case is accepted as it is, converted, or refused with its text.
Sides of morphism documents are read like sides of fixtures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from posetcover import cli, fileio, fixtures
from posetcover.errors import FormatError
from posetcover.fixtures import fix_trop
from posetcover.metric import (
    MetricGraph,
    MetricGraphMorphism,
    graph_face_poset,
    morphism_face_poset,
)
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset
from posetcover.subdivision import SimplicialComplex

# one reference of each type that a reference can load; the complex and
# the index document have no fixture and are written to files
LOADED = {
    "Poset": "FIX-TROP/target",
    "PosetMorphism": "FIX-TROP",
    "MetricGraph": "FIX-GRAPH/source",
    "MetricGraphMorphism": "FIX-GRAPH",
    "IndexMap": "FIX-TROP-M",
    "SimplicialComplex": "complex.json",
    "index document": "index.json",
}


def _itself(obj):
    return obj


# the accepted (kind, loaded type) pairs and their conversions
ACCEPTED = {
    ("poset", "Poset"): _itself,
    ("poset", "MetricGraph"): graph_face_poset,
    ("morphism", "PosetMorphism"): _itself,
    ("morphism", "MetricGraphMorphism"): morphism_face_poset,
    ("metric graph", "MetricGraph"): _itself,
    ("metric graph morphism", "MetricGraphMorphism"): _itself,
    ("simplicial complex", "SimplicialComplex"): _itself,
}

# the refused pairs whose sides the slot accepts, refused with the hint
HINTED = {("poset", "PosetMorphism"), ("poset", "MetricGraphMorphism"),
          ("metric graph", "MetricGraphMorphism")}

# one command per kind that reads its argument into a slot of that kind
COMMAND = {
    "poset": lambda ref: ["poset", "stats", ref],
    "morphism": lambda ref: ["morphism", "check", "--morphism", ref],
    "metric graph": lambda ref: ["graph", "poset", "--graph", ref],
    "metric graph morphism": lambda ref: ["graph", "refine", "--morphism", ref],
    "simplicial complex": lambda ref: ["subdivide", "stellar", "--complex", ref,
                                       "--face", "1", "--vertex", "p"],
}


TO_DOC = {Poset: fileio.poset_to_doc, PosetMorphism: fileio.morphism_to_doc,
          MetricGraph: fileio.metric_graph_to_doc,
          MetricGraphMorphism: fileio.metric_morphism_to_doc,
          SimplicialComplex: fileio.complex_to_doc}


def _doc(obj):
    """A loaded object as its document, so that objects without an
    equality compare by value."""
    return TO_DOC[type(obj)](obj)


def _identity_doc(kind, obj):
    """The fields besides source and target of a morphism document from
    obj to itself; empty where obj is None."""
    if kind == "poset":
        return {"map": {x: x for x in (obj.elements if obj else ())}}
    edges = obj.edges.items() if obj else ()
    return {"vertex_images": {v: v for v in (obj.vertices if obj else ())},
            "edge_images": {eid: {"edge": eid, "from": "0", "to": str(e.length), "slope": 1}
                            for eid, e in edges}}


def _run(argv, capsys):
    code = cli.main(["--format", "machine", *argv])
    return code, capsys.readouterr().out


@pytest.fixture
def references(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "complex.json").write_text(fileio.dumps(
        {"vertices": ["1", "2", "3"], "maximal_faces": [["1", "2", "3"]]}))
    (tmp_path / "index.json").write_text(fileio.dumps({"values": {"A1": 3}}))
    return tmp_path


CASES = [(kind, loaded) for kind in fileio.KINDS for loaded in LOADED]


def test_the_cases_cover_the_table():
    assert set(COMMAND) == set(fileio.KINDS)
    assert {kind for kind, _ in ACCEPTED} == set(fileio.KINDS)


@pytest.mark.parametrize("kind,loaded", CASES, ids=[f"{k}-{t}" for k, t in CASES])
def test_a_slot_accepts_converts_or_refuses(kind, loaded, references, capsys):
    ref = LOADED[loaded]
    convert = ACCEPTED.get((kind, loaded))
    if (kind, loaded) in HINTED:
        detail = f"{ref!r} is a morphism; use {ref}/source or {ref}/target"
    else:
        detail = f"{ref!r} does not describe a {kind}"

    # as a CLI argument
    code, out = _run(COMMAND[kind](ref), capsys)
    if convert is not None:
        expected = convert(fileio.load_named(ref))
        assert _doc(fileio.resolve(ref, kind)) == _doc(expected)
        assert code in (0, 1), out
    else:
        with pytest.raises(FormatError) as refused:
            fileio.resolve(ref, kind)
        assert str(refused.value) == detail
        assert code == 2
        assert json.loads(out)["witnesses"] == [{"error": "FormatError", "detail": detail}]

    # as the source of a morphism document, for the kinds a document embeds
    if kind not in ("poset", "metric graph"):
        return
    source = convert(fileio.load_named(ref)) if convert is not None else None
    doc = {"source": ref, "target": ref, **_identity_doc(kind, source)}
    (references / "phi.json").write_text(fileio.dumps(doc))
    command = {"poset": "morphism", "metric graph": "metric graph morphism"}[kind]
    code, out = _run(COMMAND[command]("phi.json"), capsys)
    if convert is not None:
        assert _doc(fileio.load_named("phi.json").source) == _doc(source)
        assert code == 0, out
    else:
        assert code == 2
        assert json.loads(out)["witnesses"] == [{"error": "FormatError", "detail": detail}]


@pytest.mark.parametrize("fixture,to_doc", [("FIX-TROP", fileio.morphism_to_doc),
                                            ("FIX-GRAPH", fileio.metric_morphism_to_doc)])
def test_the_sides_of_a_morphism_document_load_as_the_hint_says(fixture, to_doc, references,
                                                                capsys):
    (references / "m.json").write_text(fileio.dumps(to_doc(fixtures.load_fixture(fixture))))
    code, out = _run(["poset", "stats", "m.json"], capsys)
    assert code == 2
    hint = "'m.json' is a morphism; use m.json/source or m.json/target"
    assert json.loads(out)["witnesses"] == [{"error": "FormatError", "detail": hint}]
    for side in ("source", "target"):
        code, out = _run(["poset", "stats", f"m.json/{side}"], capsys)
        assert code == 0
        assert out == _run(["poset", "stats", f"{fixture}/{side}"], capsys)[1]


def test_a_path_that_exists_wins_over_a_side(references, capsys):
    (references / "d.json").mkdir()
    (references / "d.json" / "source").write_text(fileio.dumps(
        {"elements": ["x"], "covers": []}))
    code, out = _run(["poset", "stats", "d.json/source"], capsys)
    assert code == 0 and json.loads(out)["data"]["elements"] == ["x"]


def test_a_fixture_side_wins_over_a_path(references, capsys):
    (references / "FIX-TROP").mkdir()
    (references / "FIX-TROP" / "target").write_text(fileio.dumps(
        {"elements": ["x"], "covers": []}))
    code, out = _run(["poset", "stats", "FIX-TROP/target"], capsys)
    assert code == 0
    assert json.loads(out)["data"]["elements"] == sorted(fix_trop().target.elements)


def test_a_document_that_is_no_morphism_has_no_sides(references, capsys):
    (references / "p.json").write_text(fileio.dumps(fileio.poset_to_doc(fix_trop().target)))
    code, out = _run(["poset", "stats", "p.json/source"], capsys)
    assert code == 2
    assert json.loads(out)["witnesses"] == [
        {"error": "FormatError", "detail": "document 'p.json' has no source side"}]


# documents that name themselves, directly or through another: {file:
# document}, the file a command names, and the files of the chain that
# closes the cycle
POINT = {"elements": ["x"], "covers": []}
CYCLES = {
    "a-side-of-itself": ({"m.json": {"source": "m.json/source", "target": POINT,
                                     "map": {"x": "x"}}},
                         "m.json", ["m.json", "m.json"]),
    "itself-as-a-whole": ({"m.json": {"source": "m.json", "target": POINT, "map": {}}},
                          "m.json", ["m.json", "m.json"]),
    "each-other": ({"a.json": {"source": "b.json/source", "target": POINT, "map": {"x": "x"}},
                    "b.json": {"source": "a.json/source", "target": POINT, "map": {"x": "x"}}},
                   "a.json", ["a.json", "b.json", "a.json"]),
    "metric-sides": ({"g.json": {"source": "g.json/source", "target": "g.json/target",
                                 "vertex_images": {}, "edge_images": {}}},
                     "g.json", ["g.json", "g.json"]),
}


@pytest.mark.parametrize("shape", CYCLES)
def test_a_reference_cycle_is_a_usage_error_naming_the_chain(shape, references, capsys):
    documents, ref, chain = CYCLES[shape]
    for name, doc in documents.items():
        (references / name).write_text(fileio.dumps(doc))
    detail = "reference cycle: " + " -> ".join(str(Path.cwd() / name) for name in chain)
    commands = [["morphism", "check", "--morphism", ref], ["poset", "stats", f"{ref}/source"]]
    if "vertex_images" in documents[ref]:
        commands.append(["graph", "refine", "--morphism", ref])
    for argv in commands:
        code, out = _run(argv, capsys)
        assert code == 2, (argv, out)
        assert json.loads(out)["witnesses"] == [{"error": "FormatError", "detail": detail}]


def test_a_file_named_twice_without_a_cycle_loads(references, capsys):
    (references / "p.json").write_text(fileio.dumps(POINT))
    (references / "m.json").write_text(fileio.dumps(
        {"source": "p.json", "target": "p.json", "map": {"x": "x"}}))
    (references / "n.json").write_text(fileio.dumps(
        {"source": "m.json/source", "target": "m.json/target", "map": {"x": "x"}}))
    for ref in ("m.json", "n.json"):
        code, out = _run(["morphism", "check", "--morphism", ref], capsys)
        assert code == 0, out


# a child loads the chain that f0.json starts and prints its exit code, the
# number of files it read and its witnesses: each run gets a stack of its
# own, and a load that rereads files ends at the timeout
CHAIN_CHILD = """
import io, json, sys
from contextlib import redirect_stdout
from posetcover import cli, fileio
read = []
load = fileio._load_json
fileio._load_json = lambda path: read.append(path) or load(path)
out = io.StringIO()
with redirect_stdout(out):
    code = cli.main(["--format", "machine", "morphism", "check", "--morphism", "f0.json"])
print(json.dumps([code, len(read), json.loads(out.getvalue())["witnesses"]]))
"""
SRC = Path(__file__).resolve().parent.parent / "src"


def load_chain(folder: Path, count: int, both_sides: bool):
    """Write f0.json ... f{count - 1}.json, each naming the source, and
    with both_sides also the target, of the next, the last one a map of
    POINT; return what CHAIN_CHILD prints for them."""
    for i in range(count):
        doc = {"source": POINT, "target": POINT, "map": {"x": "x"}}
        if i + 1 < count:
            doc["source"] = f"f{i + 1}.json/source"
            if both_sides:
                doc["target"] = f"f{i + 1}.json/target"
        (folder / f"f{i}.json").write_text(fileio.dumps(doc))
    done = subprocess.run([sys.executable, "-c", CHAIN_CHILD], cwd=folder,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_a_file_named_on_both_sides_is_read_once(references):
    # each file names the next twice, which read as named would read the
    # last file 2**39 times
    assert load_chain(references, 40, both_sides=True) == [0, 40, []]


def test_a_chain_of_references_is_read_to_the_depth_limit(references):
    limit = fileio.REFERENCE_DEPTH_LIMIT
    assert load_chain(references, limit, both_sides=False) == [0, limit, []]
    code, read, witnesses = load_chain(references, 1000, both_sides=False)
    detail = (f"reference depth {limit + 1} exceeds the limit {limit} "
              f"at {Path.cwd() / f'f{limit}.json'}")
    assert (code, read) == (2, limit)
    assert witnesses == [{"error": "FormatError", "detail": detail}]
