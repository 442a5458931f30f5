"""The order structure has one owner: only ``posets`` and the chain
builder in ``subdivision`` read a poset's topological order, every other
pass along the order goes through ``Poset``, only ``posets`` produces the
order and the closures, and no module keeps a heap.  In ``subdivision``
one builder applies the drop-one-member rule to chains and faces alike.
The first repeated name is found in one place: ``DuplicateElement`` is
raised only by ``posets._distinct`` and by the edge-id check of
``MetricGraph.__init__``, which keeps its place among each edge's checks."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posetcover"


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_only_posets_and_the_chain_builder_read_the_order():
    readers = {name for name, tree in _trees() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "_order_ix"}
    assert readers == {"posets.py", "subdivision.py"}


def test_only_posets_produces_the_order_and_the_closures():
    producers = {name for name, tree in _trees() for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                 and node.attr in ("_order_ix", "_above", "_below")}
    assert producers <= {"posets.py"}


def test_no_module_imports_heapq():
    importers = set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "heapq" for m in modules):
                importers.add(name)
    assert not importers


def _calls_to(tree, attr):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == attr]


def test_only_the_drop_one_builder_builds_the_subdivision_posets():
    tree = dict(_trees())["subdivision.py"]
    builder = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_drop_one_poset"]
    assert len(builder) == 1
    calls = _calls_to(tree, "_from_index")
    assert calls and calls == _calls_to(builder[0], "_from_index")


def _raisers(tree, error):
    """The qualified name of the function around each ``raise error(...)``."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                    and isinstance(child.exc.func, ast.Name) and child.exc.func.id == error):
                found.append(".".join(scope))
            walk(child, scope)

    walk(tree, ())
    return found


def test_only_the_duplicate_reader_and_the_edge_check_raise_duplicates():
    raisers = sorted((name, scope) for name, tree in _trees()
                     for scope in _raisers(tree, "DuplicateElement"))
    assert raisers == [("metric.py", "MetricGraph.__init__"), ("posets.py", "_distinct")]
