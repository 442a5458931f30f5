"""The package runs on the standard library alone: importing the CLI loads
no module from outside it, nor the heavy introspection modules that
``dataclasses`` pulls in, nor ``typing``, and the project declares no
dependencies."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_the_project_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
