"""The package runs on the standard library alone: importing the CLI loads
no module from outside it, nor the heavy introspection modules that
``dataclasses`` pulls in, nor ``typing``, and the project declares no
dependencies.  A command loads only the modules it uses: a poset, morphism
or cover command on document files loads neither the metric graph code nor
``fractions``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from posetcover import fileio
from posetcover.fixtures import fix_graph, fix_trop, fix_trop_m

ROOT = Path(__file__).resolve().parent.parent

# -S skips site, so .pth files of the interpreter's site-packages import nothing
CHILD = "import json, sys, posetcover.cli; print(json.dumps(sorted(sys.modules)))"


def test_the_cli_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = {name.split(".")[0] for name in json.loads(done.stdout)}
    assert "posetcover" in loaded
    assert loaded - set(sys.stdlib_module_names) <= {"posetcover", "__main__"}
    assert not loaded & {"dataclasses", "inspect", "typing"}


# runs one command, then writes its exit code and the loaded modules to stderr
RUN = ("import json, sys; from posetcover import cli; code = cli.main(sys.argv[1:]); "
       "sys.stderr.write(json.dumps([code, sorted(sys.modules)]))")

# what the metric graph, extension, subdivision and DOT export commands
# use, and the rationals that metric graphs are measured in
HEAVY = {"posetcover.metric", "posetcover.extend", "posetcover.subdivision",
         "posetcover.dot", "fractions", "decimal"}


def _run(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", RUN, "--format", "machine", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, loaded = json.loads(done.stderr)
    return code, set(loaded)


def test_a_command_on_documents_loads_only_the_modules_it_uses(tmp_path):
    docs = {"phi.json": fileio.morphism_to_doc(fix_trop()),
            "m.json": {"values": fix_trop_m().values},
            "p.json": fileio.poset_to_doc(fix_trop().source),
            "g.json": fileio.metric_morphism_to_doc(fix_graph())}
    for name, doc in docs.items():
        (tmp_path / name).write_text(fileio.dumps(doc), encoding="utf-8")
    phi, m, p, g = (str(tmp_path / name) for name in docs)
    for argv in (["poset", "stats", p], ["morphism", "check", "--morphism", phi],
                 ["cover", "balanced", "--morphism", phi, "--index", m]):
        code, loaded = _run(argv)
        assert code == 0, argv
        assert not loaded & HEAVY, (argv, sorted(loaded & HEAVY))
    # the guard sees the modules a command does load
    code, loaded = _run(["graph", "refine", "--morphism", g])
    assert code == 0
    assert "posetcover.metric" in loaded
    code, loaded = _run(["export", "dot", "--morphism", phi])
    assert code == 0
    assert "posetcover.dot" in loaded


def test_only_a_command_on_an_index_map_loads_the_cover_code(tmp_path):
    docs = {"phi.json": fileio.morphism_to_doc(fix_trop()),
            "m.json": {"values": fix_trop_m().values},
            "p.json": fileio.poset_to_doc(fix_trop().source)}
    for name, doc in docs.items():
        (tmp_path / name).write_text(fileio.dumps(doc), encoding="utf-8")
    phi, m, p = (str(tmp_path / name) for name in docs)
    for argv in (["poset", "stats", p], ["morphism", "check", "--morphism", phi]):
        assert "posetcover.covers" not in _run(argv)[1], argv
    assert "posetcover.covers" in _run(["cover", "balanced", "--morphism", phi, "--index", m])[1]


def test_the_project_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines


def test_every_module_parses_as_the_oldest_declared_python():
    """Every module parses with the grammar of Python 3.10, the floor that
    pyproject.toml declares.  ``feature_version`` checks syntax only: a
    call to a function or method that 3.10 lacks still passes."""
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert 'requires-python = ">=3.10"' in lines
    modules = sorted((ROOT / "src" / "posetcover").rglob("*.py"))
    assert modules
    for module in modules:
        ast.parse(module.read_text(encoding="utf-8"), str(module), feature_version=(3, 10))
