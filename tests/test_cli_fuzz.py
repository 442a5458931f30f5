"""Generated documents through every CLI subcommand, in process.

Posets, poset morphisms, index maps, metric graph morphisms and simplicial
complexes come from the seeded generators or from hypothesis directly,
and one value inside a document may be replaced by a value of the wrong
kind.  Every run must end with exit code 0, 1 or 2, print a machine
report that parses (DOT text for a passing ``export``), and print the
same bytes when run again.
"""

import io
import json
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from random import Random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from posetcover import cli, fileio  # noqa: E402
from posetcover.generators import (  # noqa: E402
    random_balanced_map,
    random_graded_poset,
    random_sheaf_morphism,
)

from test_metric import random_metric_morphism  # noqa: E402

JUNK = [None, True, 0, -1, 2, "", "x", "1/0", "-3/2", [], {}, ["x"], {"x": 1}]


@st.composite
def poset_docs(draw):
    """A graded poset from the generator, or a few named elements with
    arbitrary cover pairs (which may be cyclic or redundant)."""
    if draw(st.booleans()):
        rng = Random(draw(st.integers(0, 10 ** 6)))
        return fileio.poset_to_doc(random_graded_poset(rng, max_elements=7, max_rank=3))
    n = draw(st.integers(1, 6))
    elements = [f"e{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    if draw(st.integers(0, 3)):
        pairs = [(i, j) for i, j in pairs if i < j]
    return {"elements": elements, "covers": [[elements[i], elements[j]] for i, j in pairs]}


@st.composite
def morphism_docs(draw):
    """A gluing from the generator, its balanced or a random index map, and
    optionally one source element sent elsewhere."""
    rng = Random(draw(st.integers(0, 10 ** 6)))
    phi = random_sheaf_morphism(rng, max_sheets=3)
    doc = fileio.morphism_to_doc(phi)
    if not draw(st.integers(0, 3)):
        x = draw(st.sampled_from(sorted(phi.source.elements)))
        doc["map"][x] = draw(st.sampled_from(sorted(phi.target.elements)))
    pushed = random_balanced_map(rng, phi)
    if pushed is not None and draw(st.booleans()):
        values = dict(pushed.values)
    else:
        values = {x: draw(st.integers(1, 3)) for x in sorted(phi.source.elements)}
    index = {"values": values}
    if not draw(st.integers(0, 3)):
        index["domain_upset_generators"] = sorted(phi.source.max_elements())
        index["values"] = {x: values[x] for x in index["domain_upset_generators"]}
    return doc, index


@st.composite
def complex_docs(draw):
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    faces = draw(st.lists(st.lists(st.sampled_from(vertices), min_size=1, max_size=3,
                                   unique=True), min_size=1, max_size=3))
    return {"vertices": vertices, "maximal_faces": faces}


def paths(doc, prefix=()):
    """The path of every value inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


@st.composite
def corrupted(draw, docs):
    """The document, or with one value inside it replaced by junk."""
    doc = draw(docs)
    places = list(paths(doc))
    if not places or draw(st.integers(0, 4)):
        return doc
    *head, last = draw(st.sampled_from(places))
    holder = doc
    for key in head:
        holder = holder[key]
    holder[last] = draw(st.sampled_from(JUNK))
    return doc


def names(doc):
    """Identifiers that occur in a document, for command arguments."""
    found = set()
    for place in paths(doc):
        found.update(k for k in place if isinstance(k, str))
    stack = [doc]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            found.add(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return sorted(found) or ["x"]


def arguments(draw, pool):
    """The arguments after the action word of every (command, action) of
    cli.COMMANDS, over the placeholder file names P (poset), M (morphism),
    I (index map), G (metric morphism) and C (complex)."""
    word = st.sampled_from(pool)
    csv = st.lists(word, max_size=3).map(",".join)
    small = st.integers(-1, 3).map(str)
    faces = st.lists(st.sampled_from(["v0", "v1", "v2"]), min_size=1, max_size=2,
                     unique=True).map(",".join)

    def pick(*choices):
        return draw(st.sampled_from(choices))

    # each option draws its own arguments only when it is the one picked
    return {
        **{("poset", action): lambda: ["P", *pick([], ["--connected"], ["--oracle-limit", "4"])]
           for action in ("validate", "stats", "upsets")},
        ("morphism", "check"): lambda: ["--morphism", "M"],
        **{("cover", action): lambda: ["--morphism", "M", "--index", "I"]
           for action in ("balanced", "ibc", "ibc-oracle", "degree")},
        ("cover", "search"): lambda: ["--morphism", "M", "--bound", draw(small)],
        ("extend", None): lambda: ["--morphism", "M", "--index", "I",
                                   *pick([], ["--upset", draw(csv)])],
        **{("lift", action): lambda: ["--morphism", "M", "--index", "I",
                                      "--start", draw(word), "--path", draw(csv)]
           for action in ("up", "path")},
        ("connect", "codimk"): lambda: ["--poset", "P", "--k", draw(small)],
        ("connect", "strong"): lambda: ["--poset", "P"],
        ("connect", "lifting"): lambda: ["--morphism", "M", "--index", "I",
                                         "--mode", pick("one-fibre", "codim"), "--k", draw(small)],
        ("subdivide", "bcs"): lambda: pick(["--poset", "P"], ["--morphism", "M"],
                                           ["--poset", "M"]),
        ("subdivide", "stellar"): lambda: ["--complex", "C", "--face", draw(faces),
                                           "--vertex", pick("w", "v0")],
        ("graph", "refine"): lambda: ["--morphism", "G"],
        ("graph", "sample"): lambda: ["--morphism", "G", *pick(
            ["--random", draw(small), "--seed", "1"], ["--point", draw(word)],
            ["--point", draw(word) + ":1/2"])],
        ("graph", "poset"): lambda: [pick("--morphism", "--graph"), "G"],
        ("export", "dot"): lambda: [*pick(["--poset", "P"], ["--morphism", "M"],
                                          ["--morphism", "P"]),
                                    "--kind", pick("hasse", "covering", "comparability")],
        **{("fixtures", action): lambda: [] for action in ("list", "run")},
    }


def test_the_generators_match_the_command_table():
    assert set(arguments(None, ["x"])) == {
        (command, action) for command, spec in cli.COMMANDS.items() for action in spec.actions}


@st.composite
def commands(draw, pool):
    """One argv: a (command, action) of the table and its drawn arguments."""
    options = arguments(draw, pool)
    command, action = draw(st.sampled_from(list(options)))
    return [command, *([action] if action else []), *options[command, action]()]


def run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--format", "machine", *argv])
    return code, out.getvalue()


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_subcommand_exits_cleanly(data):
    morphism, index = data.draw(morphism_docs())
    metric = fileio.metric_morphism_to_doc(
        random_metric_morphism(Random(data.draw(st.integers(0, 10 ** 6)))))
    docs = {
        "P": data.draw(corrupted(poset_docs())),
        "M": data.draw(corrupted(st.just(morphism))),
        "I": data.draw(corrupted(st.just(index))),
        "G": data.draw(corrupted(st.just(metric))),
        "C": data.draw(corrupted(complex_docs())),
    }
    pool = sorted({name for doc in docs.values() for name in names(doc)})
    argv = data.draw(commands(pool))
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for key, doc in docs.items():
            files[key] = str(Path(tmp) / f"{key}.json")
            Path(files[key]).write_text(json.dumps(doc), encoding="utf-8")
        argv = [files.get(a, a) for a in argv]
        code, out = run(argv)
        assert (code, out) == run(argv)
    assert code in (0, 1, 2), out
    if argv[0] == "export" and code == 0:
        assert out.split(None, 1)[0] in ("digraph", "graph") and out.endswith("}\n")
    else:
        report = json.loads(out)
        assert report["verdict"] == {0: "pass", 1: "fail", 2: "error"}[code]
