"""The package's exported names resolve on first use to the objects their
modules define, and importing the package alone loads none of its modules.
Fixture names are told from paths by their prefix, and a fixture still wins
over a file of the same name."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posetcover
from posetcover import fileio, fixtures

ROOT = Path(__file__).resolve().parent.parent

# every name the package exported when it imported all its modules up front
EXPORTS = {
    "Check": "checks",
    "export_dot": "dot",
    "DegreeReport": "covers",
    "IndexMap": "covers",
    "branch_locus_check": "covers",
    "global_degree": "covers",
    "is_balanced": "covers",
    "is_ibc": "covers",
    "is_ibc_oracle": "covers",
    "local_degree": "covers",
    "search_balanced": "covers",
    "ExtensionReport": "extend",
    "LiftingReport": "extend",
    "Path": "extend",
    "check_connectivity_lifting": "extend",
    "extend_balanced": "extend",
    "lift_path": "extend",
    "lift_upward_path": "extend",
    "MetricGraph": "metric",
    "MetricGraphMorphism": "metric",
    "Point": "metric",
    "Refinement": "metric",
    "graph_face_poset": "metric",
    "morphism_face_poset": "metric",
    "refine_to_combinatorial": "metric",
    "sample_fibre": "metric",
    "PosetMorphism": "morphisms",
    "ConnectivityReport": "posets",
    "Poset": "posets",
    "RankReport": "posets",
    "connectivity": "posets",
    "enumerate_up_sets": "posets",
    "rank_check": "posets",
    "ChainPoset": "subdivision",
    "SimplicialComplex": "subdivision",
    "bcs_morphism": "subdivision",
    "chain_poset": "subdivision",
    "simplicial_face_poset": "subdivision",
    "stellar_subdivide": "subdivision",
}


def test_the_export_list_is_kept():
    assert len(EXPORTS) == 39
    assert sorted(posetcover.__all__) == sorted(EXPORTS)


@pytest.mark.parametrize("name", sorted(EXPORTS))
def test_an_exported_name_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"posetcover.{EXPORTS[name]}")
    assert getattr(posetcover, name) is getattr(module, name)


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from posetcover import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert set(EXPORTS) <= set(dir(posetcover))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        posetcover.no_such_name
    assert not hasattr(posetcover, "no_such_name")


def test_importing_the_package_loads_none_of_its_modules():
    child = "import json, sys, posetcover; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", child], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert [m for m in json.loads(done.stdout) if m.startswith("posetcover")] == ["posetcover"]


def test_every_fixture_name_passes_the_prefix_screen():
    assert all(name.startswith(fileio.FIXTURE_PREFIX) for name in fixtures.FIXTURES)


def test_a_fixture_wins_over_a_file_of_the_same_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "FIX-TROP").write_text(fileio.dumps({"elements": ["x"], "covers": []}))
    trop = fixtures.load_fixture("FIX-TROP")
    assert fileio.load_named("FIX-TROP") is trop
    assert fileio.load_named("FIX-TROP/target") is trop.target
