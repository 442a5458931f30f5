"""Large inputs in-process: poset stats, the identity morphism check and
the branched-cover decision with all values 1 on a 5000-element chain and
on the face poset of a metric cycle, the 8191 faces of a 13-vertex simplex
through stellar subdivision and its face poset, the 15 624 chains of a
complete layered poset through barycentric subdivision, and the refinement
of a 3-sheet cover of a 500-edge metric cycle.  Every check on them is local to
principal down-sets, punctured up-sets, covers, faces one member apart or
one target edge, so each stays well inside a generous wall budget.  The
refinements of a 2500-edge and a 5000-edge cover and the face-poset
morphism of the latter run in child processes, whose peak memory must
stay linear in the cells, and so do the chain poset
of the boundary of the 6-simplex and the face poset of a 15-vertex
simplex, whose peak memory must not grow with the square of their size."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest

from posetcover import cli, fileio
from posetcover.subdivision import SimplicialComplex, simplicial_face_poset
from test_metric import random_cycle_cover

BUDGET_S = 2.0


def chain_inputs():
    names = [f"c{i:04d}" for i in range(5000)]
    chain = {"elements": names, "covers": [list(c) for c in zip(names, names[1:])]}
    identity = {"source": chain, "target": chain, "map": {x: x for x in names}}
    return chain, identity, names


def cycle_inputs():
    """A 2500-edge metric cycle, its identity map and its 5000 cells."""
    vertices = [f"v{i:04d}" for i in range(2500)]
    edges = [{"id": f"e{i:04d}", "a": v, "b": vertices[(i + 1) % 2500], "length": "3/2"}
             for i, v in enumerate(vertices)]
    graph = {"vertices": vertices, "edges": edges}
    identity = {"source": graph, "target": graph,
                "vertex_images": {v: v for v in vertices},
                "edge_images": {e["id"]: {"edge": e["id"], "from": "0", "to": "3/2", "slope": 1}
                                for e in edges}}
    return graph, identity, vertices + [e["id"] for e in edges]


@pytest.mark.parametrize("inputs,dim", [(chain_inputs, 4999), (cycle_inputs, 1)],
                         ids=["chain", "metric-cycle"])
def test_five_thousand_elements(inputs, dim, tmp_path, capsys):
    poset, identity, cells = inputs()
    paths = {}
    for name, doc in (("poset", poset), ("identity", identity),
                      ("index", {"values": {x: 1 for x in cells}})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(fileio.dumps(doc))

    def run(*argv):
        start = time.monotonic()
        code = cli.main(["--format", "machine", *map(str, argv)])
        elapsed = time.monotonic() - start
        assert elapsed < BUDGET_S, (argv[:2], elapsed)
        return code, json.loads(capsys.readouterr().out)

    code, payload = run("poset", "stats", paths["poset"])
    assert code == 0 and payload["verdict"] == "pass"
    data = payload["data"]
    assert len(data["elements"]) == 5000
    assert (data["graded"], data["dim"], data["connected"], data["strongly_connected"]) == (
        True, dim, True, True)

    code, payload = run("morphism", "check", "--morphism", paths["identity"])
    assert code == 0 and payload["verdict"] == "pass"
    assert payload["data"] == {"monotone": True, "combinatorial": True, "open": True}

    code, payload = run("cover", "ibc", "--morphism", paths["identity"],
                        "--index", paths["index"])
    assert code == 0 and payload["verdict"] == "pass" and payload["witnesses"] == []


def thirteen_vertices():
    return [f"v{i:02d}" for i in range(13)]


def test_stellar_subdivision_of_a_thirteen_vertex_simplex(tmp_path, capsys):
    vertices = thirteen_vertices()
    path = tmp_path / "simplex.json"
    path.write_text(fileio.dumps({"vertices": vertices, "maximal_faces": [vertices]}))
    start = time.monotonic()
    code = cli.main(["--format", "machine", "subdivide", "stellar", "--complex", str(path),
                     "--face", "v00,v01,v02", "--vertex", "p"])
    elapsed = time.monotonic() - start
    assert code == 0 and elapsed < BUDGET_S, elapsed
    data = json.loads(capsys.readouterr().out)["data"]
    # the 2^10 faces holding the triangle give way to the new vertex and
    # the cone over every other face
    kept = 8191 - 2 ** 10
    assert (data["faces_before"], data["faces_after"]) == (8191, 2 * kept + 1)
    assert data["complex"]["maximal_faces"] == sorted(
        sorted(set(vertices + ["p"]) - {v}) for v in vertices[:3])


def test_face_poset_of_a_thirteen_vertex_simplex():
    vertices = thirteen_vertices()
    k = SimplicialComplex.from_maximal(vertices, [vertices])
    start = time.monotonic()
    p = simplicial_face_poset(k)
    elapsed = time.monotonic() - start
    assert elapsed < BUDGET_S, elapsed
    assert len(p.elements) == 8191 and len(p.covers) == 13 * 2 ** 12 - 13


def test_chain_poset_of_a_complete_layered_poset(tmp_path, capsys):
    # 6 ranks of 4 elements, each covering the whole rank below: a chain
    # picks a non-empty set of ranks and one element in each, so there are
    # 5^6 - 1 chains; a chain of k > 1 members covers k chains, and the
    # sum of k over all chains, 6 * 4 * 5^5, counts the 24 singletons once
    levels = [[f"r{r}e{i}" for i in range(4)] for r in range(6)]
    covers = [[a, b] for lower, upper in zip(levels, levels[1:]) for a in lower for b in upper]
    path = tmp_path / "layered.json"
    path.write_text(fileio.dumps({"elements": sum(levels, []), "covers": covers}))
    start = time.monotonic()
    code = cli.main(["--format", "machine", "subdivide", "bcs", "--poset", str(path)])
    elapsed = time.monotonic() - start
    assert code == 0 and elapsed < BUDGET_S, elapsed
    data = json.loads(capsys.readouterr().out)["data"]
    assert data["chains"] == 5 ** 6 - 1 == 15624
    assert len(data["poset"]["elements"]) == 15624
    assert len(data["poset"]["covers"]) == 6 * 4 * 5 ** 5 - 24


def test_refinement_of_a_three_sheet_cover_of_a_long_cycle(tmp_path, capsys):
    phi, own = random_cycle_cover(Random(5), 500, 3, wind=True)
    path = tmp_path / "cover.json"
    path.write_text(fileio.dumps(fileio.metric_morphism_to_doc(phi)))
    start = time.monotonic()
    code = cli.main(["--format", "machine", "graph", "refine", "--morphism", str(path)])
    elapsed = time.monotonic() - start
    assert code == 0 and elapsed < BUDGET_S, elapsed
    data = json.loads(capsys.readouterr().out)["data"]
    # every cut of a target edge lands inside one piece of each sheet that
    # does not cut there itself
    cuts = {}
    for (t, _), positions in own.items():
        cuts.setdefault(t, set()).update(positions)
    target_cuts = sum(map(len, cuts.values()))
    source_cuts = sum(len(cuts[t] - positions) for (t, _), positions in own.items())
    assert target_cuts > 500 and source_cuts > 1000
    assert len(data["new_target_vertices"]) == target_cuts
    assert len(data["new_source_vertices"]) == source_cuts
    assert sum(map(len, data["target_pieces"].values())) == 500 + target_cuts
    assert sum(map(len, data["source_pieces"].values())) == len(phi.source.edges) + source_cuts


# ended by every child: it reports the number it left in ``value`` and its
# own peak resident set in KiB.  It reads VmHWM, the peak of its own memory
# since it started: on Linux a child's ru_maxrss starts at the peak of the
# process that spawned it, which a test run lifts past the bounds
OWN_PEAK = """
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
sys.stderr.write(f"{value} {peak}\\n")
"""
own_peak = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                              reason="reads a process's own peak from /proc")

# the child runs the CLI on its arguments; its value is the exit code
CLI_CHILD = """
import sys
from posetcover import cli
value = cli.main(sys.argv[1:])
"""
# peak MiB per cover size in edges; the children peak near 107 MiB at 2500
# edges and 190 MiB at 5000 (CPython 3.11, x86-64), so a structure kept
# per edge beyond the refinement's own shows
REFINE_RSS_LIMIT_MIB = {2500: 300, 5000: 250}


def run_in_a_child(child: str, *argv) -> tuple[int, float]:
    """Run the source ``child``, then ``OWN_PEAK``, with ``argv`` in a child
    process; returns the child's value and its peak resident set in MiB."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", child + OWN_PEAK, *map(str, argv)],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    value, peak_kib = map(int, done.stderr.split()[-2:])
    return value, peak_kib / 1024


def cover_in_a_child(n_edges: int, command: str, tmp_path) -> float:
    """Run ``graph <command>`` through the CLI in a child process on a
    3-sheet winding cover of an n-edge cycle; returns the child's peak
    resident set in MiB."""
    phi, _ = random_cycle_cover(Random(7), n_edges, 3, wind=True)
    path = tmp_path / "cover.json"
    path.write_text(fileio.dumps(fileio.metric_morphism_to_doc(phi)))
    code, peak = run_in_a_child(CLI_CHILD, "--format", "machine", "graph", command,
                                "--morphism", path)
    assert code == 0
    return peak


@own_peak
def test_refining_a_2500_edge_cover_stays_under_the_memory_bound(tmp_path):
    assert cover_in_a_child(2500, "refine", tmp_path) < REFINE_RSS_LIMIT_MIB[2500]


@own_peak
def test_refining_a_5000_edge_cover_stays_under_the_memory_bound(tmp_path):
    assert cover_in_a_child(5000, "refine", tmp_path) < REFINE_RSS_LIMIT_MIB[5000]


# peak MiB of the face-poset morphism of the 5000-edge cover: nothing on
# that path reads the fibres of the morphism, and the child peaks near
# 77 MiB, against 124 MiB when every morphism built its quadratic fibre
# table (CPython 3.11, x86-64)
FACE_MORPHISM_RSS_LIMIT_MIB = 105


@own_peak
def test_the_face_morphism_of_a_5000_edge_cover_stays_under_the_memory_bound(tmp_path):
    peak = cover_in_a_child(5000, "poset", tmp_path)
    assert peak < FACE_MORPHISM_RSS_LIMIT_MIB, peak


# the child builds the face poset of the simplex on its first argument's
# vertices (or of its boundary, with a second argument) and then, with a
# second argument, its chain poset; its value is the number of elements
FACE_CHILD = """
import sys
from posetcover.subdivision import SimplicialComplex, chain_poset, simplicial_face_poset
vertices = [f"v{i:02d}" for i in range(int(sys.argv[1]))]
chains = len(sys.argv) > 2
facets = [[v for v in vertices if v != x] for x in vertices] if chains else [vertices]
p = simplicial_face_poset(SimplicialComplex.from_maximal(vertices, facets))
if chains:
    p = chain_poset(p).poset
value = len(p)
"""
# peak MiB of either child; both builders pass a rank that every cover
# raises by one, so neither poset builds its n-bit closures: the children
# peak at 57 (chains) and 59 MiB (faces) on CPython 3.11, x86-64, against
# 373 and 281 MiB when every build made them
FACE_RSS_LIMIT_MIB = 150


@own_peak
def test_the_chain_poset_of_the_boundary_of_the_6_simplex_stays_under_the_memory_bound():
    size, peak = run_in_a_child(FACE_CHILD, 7, "chains")
    assert size == 47_292 and peak < FACE_RSS_LIMIT_MIB, peak


@own_peak
def test_the_face_poset_of_a_15_vertex_simplex_stays_under_the_memory_bound():
    size, peak = run_in_a_child(FACE_CHILD, 15)
    assert size == 2 ** 15 - 1 and peak < FACE_RSS_LIMIT_MIB, peak
