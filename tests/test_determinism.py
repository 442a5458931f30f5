"""Machine output must not depend on the string-hash seed: every bundled
fixture command, two inputs with several candidate witnesses of which the
least must be reported, and a stellar subdivision run in child processes
under different PYTHONHASHSEED values and must print the same bytes.
Together the commands run every action of the CLI's command table."""

import json
import os
import subprocess
import sys
from pathlib import Path

from posetcover import cli, fileio

FIXTURE_COMMANDS = [
    ["poset", "validate", "FIX-TROP/target"],
    ["poset", "stats", "FIX-TROP/target"],
    ["poset", "stats", "FIX-IDREAD/source"],
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
    ["subdivide", "bcs", "--poset", "FIX-TROP/target"],
    ["subdivide", "bcs", "--morphism", "FIX-TROP"],
    ["graph", "refine", "--morphism", "FIX-GRAPH"],
    ["graph", "sample", "--morphism", "FIX-GRAPH", "--point", "t:5/2"],
    ["graph", "sample", "--morphism", "FIX-GRAPH", "--random", "10", "--seed", "3"],
    ["graph", "poset", "--morphism", "FIX-GRAPH"],
    ["export", "dot", "--poset", "FIX-TROP/target", "--kind", "covering"],
    ["export", "dot", "--morphism", "FIX-TROP", "--kind", "hasse"],
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
    covers, and a tetrahedron for stellar subdivision (no fixture is a
    simplicial complex)."""
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
    return [["morphism", "check", "--morphism", str(tmp_path / "onto_chain.json")],
            ["poset", "validate", str(tmp_path / "redundant.json")],
            ["subdivide", "stellar", "--complex", str(tmp_path / "simplex.json"),
             "--face", "1,2,3", "--vertex", "p"]]


def run_all(commands, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_output_is_independent_of_the_hash_seed(tmp_path):
    commands = FIXTURE_COMMANDS + witness_inputs(tmp_path)
    runs = [run_all(commands, seed) for seed in (0, 1, 3)]
    assert runs[0] == runs[1] == runs[2]
    # the two witness inputs report the least offending pair
    assert "X <= Y but x !<= y" in runs[0]
    assert '"error":"RedundantCover"' in runs[0].replace(" ", "")
    assert "('a', 'c')" in runs[0]


def test_the_commands_run_every_action_of_the_command_table(tmp_path):
    def action(argv):
        return argv[0], None if None in cli.COMMANDS[argv[0]].actions else argv[1]

    table = {(command, a) for command, spec in cli.COMMANDS.items() for a in spec.actions}
    assert {action(argv) for argv in FIXTURE_COMMANDS + witness_inputs(tmp_path)} == table
