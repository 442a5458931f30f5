"""The CLI prints the recorded bytes: for every bundled fixture command and
every argv of the `fixtures run` table, the exit code and the stdout of
``--format machine`` and of ``--format human``, run in process, must equal
those kept in ``cli_golden.json``.  Commands on temporary files stay in
``test_determinism.py``, because their error texts hold paths.

After an intended change of output, regenerate the file from the root of
the repository with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from posetcover import cli, fixtures
from test_determinism import FIXTURE_COMMANDS

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
FORMATS = ("machine", "human")


def commands() -> list[list[str]]:
    """The fixture commands, then the argvs of the row table, each once."""
    found = {}
    argvs = FIXTURE_COMMANDS + [argv for rows in fixtures.FIXTURE_ROWS.values()
                                for _, argv, _, _ in rows]
    for argv in argvs:
        found.setdefault(" ".join(argv), argv)
    return list(found.values())


def run(argv: list[str], fmt: str) -> list:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--format", fmt, *argv])
    return [code, out.getvalue()]


def record() -> dict:
    return {" ".join(argv): {fmt: run(argv, fmt) for fmt in FORMATS}
            for argv in commands()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_the_golden_file_holds_every_command(golden):
    assert list(golden) == [" ".join(argv) for argv in commands()]


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_the_cli_prints_the_recorded_bytes(golden, argv):
    assert {fmt: run(argv, fmt) for fmt in FORMATS} == golden[" ".join(argv)]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
