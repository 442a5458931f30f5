"""Machine output must not depend on the string-hash seed: every bundled
fixture command, two inputs with several candidate witnesses of which the
least must be reported, two stellar subdivisions, one of a missing face,
three documents for the stats of an ungraded poset, a morphism that is
not monotone and an extension from the top values, and three sets of
element names with several unknown names, run in child processes under
different PYTHONHASHSEED values and must print the same bytes.  Nor may
it depend on the order of a document's keys, elements and covers.
Together the commands run every action of the CLI's command table, and
each action, run as the only command of a fresh process, prints what it
prints in process."""

import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

from posetcover import cli, fileio

from generators import random_balanced_map, random_sheaf_morphism

FIXTURE_COMMANDS = [
    ["poset", "validate", "FIX-TROP/target"],
    ["poset", "stats", "FIX-TROP/target"],
    ["poset", "stats", "FIX-IDREAD/source"],
    ["poset", "stats", "FIX-GRAPH/source"],
    ["poset", "upsets", "FIX-TROP/target"],
    ["poset", "upsets", "FIX-CE1/source"],
    ["poset", "upsets", "FIX-IDREAD/source", "--connected"],
    ["morphism", "check", "--morphism", "FIX-TROP"],
    ["morphism", "check", "--morphism", "FIX-CE1"],
    ["morphism", "check", "--morphism", "FIX-OPEN"],
    ["morphism", "check", "--morphism", "FIX-LIFT"],
    ["cover", "balanced", "--morphism", "FIX-CE2", "--index", "FIX-CE2-M"],
    ["cover", "balanced", "--morphism", "FIX-CE1", "--index", "FIX-CE1-M"],
    ["cover", "ibc", "--morphism", "FIX-CE1", "--index", "FIX-CE1-M"],
    ["cover", "ibc", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M"],
    ["cover", "ibc", "--morphism", "FIX-CE2", "--index", "FIX-CE2-M"],
    ["cover", "ibc-oracle", "--morphism", "FIX-CE1", "--index", "FIX-CE1-M"],
    ["cover", "ibc-oracle", "--morphism", "FIX-CE2", "--index", "FIX-CE2-M"],
    ["cover", "ibc-oracle", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M"],
    ["cover", "degree", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M"],
    ["cover", "degree", "--morphism", "FIX-CE1", "--index", "FIX-CE1-M"],
    ["cover", "search", "--morphism", "FIX-OPEN", "--bound", "4"],
    ["cover", "search", "--morphism", "FIX-TROP", "--bound", "3"],
    ["extend", "--morphism", "FIX-IDREAD", "--index", "FIX-IDREAD-M"],
    ["extend", "--morphism", "FIX-SIMPLE-EXT", "--index", "FIX-SIMPLE-EXT-M"],
    ["lift", "path", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M",
     "--start", "s1", "--path", "s,B,t"],
    ["lift", "path", "--morphism", "FIX-LIFT", "--index", "FIX-LIFT-M",
     "--start", "beta1", "--path", "beta,B"],
    ["lift", "up", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M",
     "--start", "B1", "--path", "B,t"],
    ["connect", "strong", "--poset", "FIX-IDREAD/target"],
    ["connect", "codimk", "--poset", "FIX-TROP/target", "--k", "1"],
    ["connect", "lifting", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M"],
    ["connect", "lifting", "--morphism", "FIX-SIMPLE-EXT", "--index", "FIX-SIMPLE-EXT-M"],
    ["subdivide", "bcs", "--poset", "FIX-TROP/target"],
    ["subdivide", "bcs", "--morphism", "FIX-TROP"],
    ["graph", "refine", "--morphism", "FIX-GRAPH"],
    ["graph", "sample", "--morphism", "FIX-GRAPH", "--point", "t:5/2"],
    ["graph", "sample", "--morphism", "FIX-GRAPH", "--random", "10", "--seed", "3"],
    ["graph", "poset", "--morphism", "FIX-GRAPH"],
    ["graph", "poset", "--graph", "FIX-GRAPH/source"],
    ["export", "dot", "--poset", "FIX-TROP/target", "--kind", "covering"],
    ["export", "dot", "--morphism", "FIX-TROP", "--kind", "hasse"],
    ["export", "dot", "--morphism", "FIX-IDREAD", "--kind", "comparability"],
    ["fixtures", "list"],
    ["fixtures", "run"],
]

# one child runs every command in turn and prints each exit code and output
CHILD = """
import io, json, sys
from contextlib import redirect_stdout
from posetcover import cli
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--format", "machine", *argv])
    print(code, out.getvalue())
"""

SRC = Path(__file__).resolve().parent.parent / "src"


def witness_inputs(tmp_path):
    """Three incomparable elements below a top, onto a four-chain (the
    inverse is not monotone at the top), a poset with two redundant
    covers, a tetrahedron for stellar subdivision (no fixture is a
    simplicial complex), a path of three edges where the face to
    subdivide is missing, a poset whose cover d < c skips a rank, a map
    that reverses a cover, the values of FIX-TROP on its top elements
    only, and three sets with the unknown names mm, kk and jj least:
    index-map keys, the generators of an extension's up-set and those of
    an index map's domain."""
    morphism = {
        "source": {"elements": ["x", "y", "z", "a"],
                   "covers": [["x", "a"], ["y", "a"], ["z", "a"]]},
        "target": {"elements": ["X", "Y", "Z", "A"],
                   "covers": [["X", "Y"], ["Y", "Z"], ["Z", "A"]]},
        "map": {"x": "X", "y": "Y", "z": "Z", "a": "A"},
    }
    poset = {"elements": ["a", "b", "c", "d", "e", "f"],
             "covers": [["a", "b"], ["b", "c"], ["a", "c"], ["d", "e"], ["e", "f"], ["d", "f"]]}
    (tmp_path / "onto_chain.json").write_text(fileio.dumps(morphism))
    (tmp_path / "redundant.json").write_text(fileio.dumps(poset))
    (tmp_path / "simplex.json").write_text(fileio.dumps(
        {"vertices": ["1", "2", "3", "4"], "maximal_faces": [["1", "2", "3", "4"]]}))
    (tmp_path / "path.json").write_text(fileio.dumps(
        {"vertices": ["1", "2", "3", "4"], "maximal_faces": [["1", "2"], ["2", "3"], ["3", "4"]]}))
    (tmp_path / "ungraded.json").write_text(fileio.dumps(
        {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["b", "c"], ["d", "c"]]}))
    chain = {"elements": ["a", "b"], "covers": [["a", "b"]]}
    (tmp_path / "reversed.json").write_text(fileio.dumps(
        {"source": chain, "target": chain, "map": {"a": "b", "b": "a"}}))
    (tmp_path / "trop_tops.json").write_text(fileio.dumps(
        {"values": {"s1": 2, "s2": 1, "t1": 1, "t2": 2}}))
    (tmp_path / "unknown_keys.json").write_text(fileio.dumps(
        {"values": {"zz": 1, "qq": 2, "A1": 3, "mm": 1}}))
    (tmp_path / "unknown_generators.json").write_text(fileio.dumps(
        {"domain_upset_generators": ["yy", "s1", "nn", "jj"], "values": {"s1": 1}}))
    return [["morphism", "check", "--morphism", str(tmp_path / "onto_chain.json")],
            ["poset", "validate", str(tmp_path / "redundant.json")],
            ["subdivide", "stellar", "--complex", str(tmp_path / "simplex.json"),
             "--face", "1,2,3", "--vertex", "p"],
            ["subdivide", "stellar", "--complex", str(tmp_path / "path.json"),
             "--face", "1,4", "--vertex", "p"],
            ["poset", "stats", str(tmp_path / "ungraded.json")],
            ["morphism", "check", "--morphism", str(tmp_path / "reversed.json")],
            ["extend", "--morphism", "FIX-TROP", "--index", str(tmp_path / "trop_tops.json")],
            ["cover", "balanced", "--morphism", "FIX-TROP",
             "--index", str(tmp_path / "unknown_keys.json")],
            ["extend", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M",
             "--upset", "ww,pp,B1,kk"],
            ["cover", "balanced", "--morphism", "FIX-TROP",
             "--index", str(tmp_path / "unknown_generators.json")]]


def run_all(commands, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_output_is_independent_of_the_hash_seed(tmp_path):
    commands = FIXTURE_COMMANDS + witness_inputs(tmp_path)
    runs = [run_all(commands, seed) for seed in range(6)]
    assert all(run == runs[0] for run in runs)
    # the two witness inputs report the least offending pair
    assert "X <= Y but x !<= y" in runs[0]
    assert '"error":"RedundantCover"' in runs[0].replace(" ", "")
    assert "('a', 'c')" in runs[0]
    # the missing face is named with its vertices sorted
    assert "face ['1', '4'] is not in the complex" in runs[0]
    # the least cover that skips a rank, and the cover a map reverses
    compact = runs[0].replace(" ", "").replace("\n", "")
    assert '"not_graded_witness":["d","c"]' in compact
    assert '"error":"NotMonotone","pair":["a","b"]' in compact
    # a set of names reports the least unknown one
    for least in ("mm", "kk", "jj"):
        assert f'"detail":"unknownelement\'{least}\'"' in compact


def shuffled(doc, rng):
    """The document with its keys, element lists and cover lists in a
    random order."""
    if isinstance(doc, dict):
        keys = list(doc)
        rng.shuffle(keys)
        return {k: shuffled(doc[k], rng) for k in keys}
    if isinstance(doc, list) and all(isinstance(x, (str, list)) for x in doc):
        return rng.sample(doc, len(doc))  # the pairs inside keep their order
    return doc


SHUFFLED_COMMANDS = [["morphism", "check", "--morphism", "{m}"],
                     ["cover", "balanced", "--morphism", "{m}", "--index", "{i}"],
                     ["cover", "ibc", "--morphism", "{m}", "--index", "{i}"],
                     ["export", "dot", "--morphism", "{m}", "--kind", "hasse"],
                     ["subdivide", "bcs", "--morphism", "{m}"]]


def test_output_is_independent_of_document_order(tmp_path):
    """Random glued morphisms and index maps, written three times with
    their keys, elements and covers in different orders, each copy run in
    its own process under another hash seed, print the same bytes."""
    rng = Random(2024)
    docs = []
    for _ in range(4):
        phi = random_sheaf_morphism(rng, max_sheets=3)
        m = random_balanced_map(rng, phi)
        values = dict(m.values) if m else {x: rng.randint(1, 2) for x in phi.source.elements}
        docs.append((fileio.morphism_to_doc(phi), {"values": values}))
    runs = []
    for copy in range(3):
        folder = tmp_path / f"copy{copy}"
        folder.mkdir()
        commands = []
        for k, (morphism, index) in enumerate(docs):
            paths = {"m": folder / f"morphism{k}.json", "i": folder / f"index{k}.json"}
            # json, not fileio, writes the keys in the shuffled order
            paths["m"].write_text(json.dumps(shuffled(morphism, rng) if copy else morphism))
            paths["i"].write_text(json.dumps(shuffled(index, rng) if copy else index))
            commands += [[a.format(**paths) for a in argv] for argv in SHUFFLED_COMMANDS]
        runs.append(run_all(commands, copy))
    assert runs[0] == runs[1] == runs[2]


def action(argv):
    return argv[0], None if None in cli.COMMANDS[argv[0]].actions else argv[1]


def test_the_commands_run_every_action_of_the_command_table(tmp_path):
    table = {(command, a) for command, spec in cli.COMMANDS.items() for a in spec.actions}
    assert {action(argv) for argv in FIXTURE_COMMANDS + witness_inputs(tmp_path)} == table


def json_values(value) -> bool:
    """Whether value is built only from dicts keyed by strings, lists,
    tuples, strings, ints, bools and None; a record, a frozenset or a
    Fraction is not."""
    if value is None or type(value) in (str, int, bool):
        return True
    if type(value) in (list, tuple):
        return all(map(json_values, value))
    if type(value) is dict:
        return all(type(k) is str and json_values(v) for k, v in value.items())
    return False


# the data keys of the actions whose constant fields were dropped
DATA_KEYS = {
    ("graph", "refine"): {"new_target_vertices", "new_source_vertices", "target_pieces",
                          "source_pieces", "morphism"},
    ("extend", None): {"mode", "assigned"},
}


def test_each_action_run_first_in_a_fresh_process_prints_what_it_prints_in_process(
        tmp_path, capsys):
    """A command imports the modules it uses when it runs, so each action
    runs as the only command of a new process: one that relied on a module
    an earlier command had loaded would fail there.

    The machine report passes a handler's data to the writer as it is and
    turns only record witnesses into objects, so each action's data and
    witnesses must be JSON values, which the writer renders as json does."""
    first = {}
    for argv in FIXTURE_COMMANDS + witness_inputs(tmp_path):
        first.setdefault(action(argv), argv)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key, argv in first.items():
        argv = ["--format", "machine", *argv]
        report, _ = cli.dispatch(cli.shared_parser().parse_args(argv))
        assert json_values(report.data), argv
        assert all(json_values(cli._plain(w)) for w in report.witnesses), argv
        payload = cli._payload(report)
        assert fileio.dumps(payload) == json.dumps(
            payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        if key in DATA_KEYS:
            assert set(report.data) == DATA_KEYS[key]
        code = cli.main(argv)
        in_process = capsys.readouterr().out
        # an import a handler lacks is an internal error in both processes
        assert code in (0, 1, 2), (argv, in_process)
        done = subprocess.run([sys.executable, "-m", "posetcover.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stdout) == (code, in_process), (argv, done.stderr)
