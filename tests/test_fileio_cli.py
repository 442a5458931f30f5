"""File formats, reference resolution, DOT export, and the CLI surface."""

import io
import json
import re
import time
from random import Random

import pytest

from posetcover import cli, dot, extend, fileio, fixtures, posets, subdivision
from posetcover.covers import DEFAULT_SEARCH_STATES
from posetcover.dot import export_dot
from posetcover.errors import (
    CycleDetected,
    DuplicateElement,
    FormatError,
    NotCombinatorial,
    OracleSizeExceeded,
    TheoremViolation,
    UnknownElement,
)
from posetcover.fixtures import fix_graph, fix_trop, fix_trop_m
from posetcover.metric import graph_face_poset, morphism_face_poset
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset

from generators import random_graded_poset


class TestDocuments:
    def test_poset_round_trip(self):
        p = fix_trop().target
        doc = fileio.poset_to_doc(p, with_rank=True)
        assert fileio.poset_from_doc(doc) == p
        assert doc["rank"]["s"] == 1

    def test_rank_verification(self):
        doc = fileio.poset_to_doc(fix_trop().target, with_rank=True)
        doc["rank"]["s"] = 5
        with pytest.raises(FormatError):
            fileio.poset_from_doc(doc)

    def test_morphism_round_trip(self):
        phi = fix_trop()
        doc = fileio.morphism_to_doc(phi)
        loaded = fileio.morphism_from_doc(doc)
        assert loaded.mapping == phi.mapping
        assert loaded.source == phi.source and loaded.target == phi.target

    def test_index_map_round_trip(self):
        m = fix_trop_m()
        doc = {"domain_upset_generators": ["A1", "B1", "C1", "C2"],
               "values": {"A1": 3, "B1": 3, "C1": 1, "C2": 2,
                          "s1": 2, "s2": 1, "t1": 1, "t2": 2}}
        loaded = fileio.index_map_from_doc(doc, m.poset)
        assert loaded.values == m.values

    def test_index_values_must_cover_domain(self):
        m = fix_trop_m()
        doc = {"domain_upset_generators": ["A1", "B1", "C1", "C2"],
               "values": {"B1": 3, "C1": 1, "C2": 2, "s1": 2, "s2": 1, "t1": 1, "t2": 2}}
        with pytest.raises(FormatError):
            fileio.index_map_from_doc(doc, m.poset)

    def test_metric_morphism_round_trip(self):
        phi = fix_graph()
        doc = fileio.metric_morphism_to_doc(phi)
        assert doc["edge_images"]["f"] == {"edge": "t", "from": "0", "to": "3", "slope": 1}
        loaded = fileio.metric_morphism_from_doc(doc)
        assert loaded.edge_images == phi.edge_images
        assert loaded.vertex_images == phi.vertex_images

    def test_rationals(self):
        from fractions import Fraction

        assert fileio.parse_rational("5/2") == Fraction(5, 2)
        assert fileio.parse_rational("7") == 7
        assert fileio.format_rational(Fraction(5, 2)) == "5/2"
        with pytest.raises(FormatError):
            fileio.parse_rational("x")

    def test_file_references(self, tmp_path):
        target_doc = fileio.poset_to_doc(fix_trop().target)
        (tmp_path / "delta.json").write_text(fileio.dumps(target_doc))
        morphism_doc = {
            "source": fileio.poset_to_doc(fix_trop().source),
            "target": "delta.json",
            "map": dict(fix_trop().mapping),
        }
        path = tmp_path / "phi.json"
        path.write_text(fileio.dumps(morphism_doc))
        loaded = fileio.load_named(str(path))
        assert isinstance(loaded, PosetMorphism)
        assert loaded.target == fix_trop().target

    def test_fixture_reference_sides(self):
        assert fileio.load_named("FIX-TROP/target") == fix_trop().target
        side = fileio.load_named("FIX-GRAPH/source")
        assert side is fix_graph().source
        assert fileio.resolve("FIX-GRAPH/source", "poset") == graph_face_poset(side)


class TestDot:
    def test_two_chain_hasse(self):
        text = export_dot(Poset(["A", "B"], [("A", "B")]), "hasse")
        assert text.count('"A"') == 2 and '"A" -> "B"' in text

    def test_trop_source_covering_counts(self):
        text = export_dot(fix_trop().source, "covering")
        edges = [line for line in text.splitlines() if " -- " in line]
        nodes = [line for line in text.splitlines()
                 if line.endswith('";') and " -- " not in line]
        assert len(nodes) == 8 and len(edges) == 8

    def test_ce1_morphism_counts(self):
        from posetcover.fixtures import fix_ce1

        text = export_dot(fix_ce1(), "hasse")
        cover_edges = [l for l in text.splitlines()
                       if "->" in l and "dashed" not in l]
        mapping_edges = [l for l in text.splitlines() if "dashed" in l]
        labels = [l for l in text.splitlines() if "[label=" in l]
        assert len(labels) == 5
        assert len(cover_edges) == 3
        assert len(mapping_edges) == 3

    def test_comparability_kind(self):
        text = export_dot(Poset(["A", "B", "C"], [("A", "B"), ("B", "C")]),
                          "comparability")
        assert text.count(" -- ") == 3  # includes the transitive pair

    def test_deterministic(self):
        a = export_dot(fix_trop(), "hasse")
        b = export_dot(fix_trop(), "hasse")
        assert a == b

    def test_quoted_names_round_trip(self):
        names = ["a\\", 'x"y']
        text = export_dot(Poset(names, [tuple(names)]), "hasse")
        # a DOT string runs to the first quote that no backslash escapes
        quoted = re.findall(r'"((?:[^"\\]|\\.)*)"', text)
        assert [re.sub(r"\\(.)", r"\1", q) for q in quoted] == names + names

    @pytest.mark.parametrize("seed", range(12))
    def test_comparability_pairs_match_the_pairwise_rule(self, seed):
        rng = Random(seed)
        p = random_graded_poset(rng, max_elements=12, max_rank=3)
        # relabel at random, so that the least label is not always the lower element
        labels = dict(zip(p.elements, rng.sample(range(100), len(p.elements))))
        q = Poset([f"e{labels[e]}" for e in p.elements],
                  [(f"e{labels[a]}", f"e{labels[b]}") for a, b in p.covers])
        order = sorted(q.elements)
        expected = [(a, b) for i, a in enumerate(order) for b in order[i + 1:]
                    if q.leq(a, b) or q.leq(b, a)]
        assert dot._edge_pairs(q, "comparability") == expected


def run_cli(*argv, capsys=None):
    code = cli.main(list(argv))
    return code


class TestCli:
    def test_degree_example(self, capsys):
        code = cli.main(["cover", "degree", "--morphism", "FIX-TROP",
                         "--index", "FIX-TROP-M"])
        out = capsys.readouterr().out
        assert code == 0 and "degree: 3" in out

    def test_extend_example(self, capsys):
        code = cli.main(["--format", "machine", "extend",
                         "--morphism", "FIX-IDREAD", "--index", "FIX-IDREAD-M"])
        out = capsys.readouterr().out
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "fail"
        conflict = payload["witnesses"][0]
        assert (conflict["alpha"], conflict["beta1"], conflict["beta2"],
                conflict["sum1"], conflict["sum2"]) == ("tO1", "B", "C", 2, 1)

    def test_missing_file_is_usage_error(self, capsys):
        code = cli.main(["poset", "validate", "missing.file"])
        capsys.readouterr()
        assert code == 2

    def test_invalid_poset_fails_with_witness(self, tmp_path, capsys):
        bad = {"elements": ["A", "B", "C"],
               "covers": [["A", "B"], ["B", "C"], ["A", "C"]]}
        path = tmp_path / "bad.json"
        path.write_text(fileio.dumps(bad))
        code = cli.main(["--format", "machine", "poset", "validate", str(path)])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1 and payload["witnesses"][0]["error"] == "RedundantCover"

    def test_machine_output_is_deterministic(self, capsys):
        cli.main(["--format", "machine", "poset", "stats", "FIX-TROP/target"])
        first = capsys.readouterr().out
        cli.main(["--format", "machine", "poset", "stats", "FIX-TROP/target"])
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)

    def test_morphism_check(self, capsys):
        assert cli.main(["morphism", "check", "--morphism", "FIX-TROP"]) == 0
        capsys.readouterr()
        code = cli.main(["--format", "machine", "morphism", "check",
                         "--morphism", "FIX-CE1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["data"]["combinatorial"] is False
        assert payload["witnesses"][0]["alpha"] == "B1"

    def test_cover_commands(self, capsys):
        assert cli.main(["cover", "balanced", "--morphism", "FIX-CE2",
                         "--index", "FIX-CE2-M"]) == 1
        capsys.readouterr()
        assert cli.main(["cover", "ibc", "--morphism", "FIX-CE2",
                         "--index", "FIX-CE2-M"]) == 0
        capsys.readouterr()
        assert cli.main(["cover", "ibc-oracle", "--morphism", "FIX-CE1",
                         "--index", "FIX-CE1-M"]) == 1
        capsys.readouterr()
        assert cli.main(["cover", "search", "--morphism", "FIX-OPEN",
                         "--bound", "4"]) == 1
        capsys.readouterr()

    def test_upsets_command(self, capsys):
        code = cli.main(["--format", "machine", "poset", "upsets", "FIX-TROP/target"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["data"]["count"] == 13

    def test_connect_commands(self, capsys):
        assert cli.main(["connect", "strong", "--poset", "FIX-IDREAD/target"]) == 1
        capsys.readouterr()
        assert cli.main(["connect", "codimk", "--poset", "FIX-TROP/target",
                         "--k", "1"]) == 0
        capsys.readouterr()

    def test_lift_commands(self, capsys):
        code = cli.main(["--format", "machine", "lift", "path",
                         "--morphism", "FIX-TROP", "--index", "FIX-TROP-M",
                         "--start", "s1", "--path", "s,B,t"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["data"]["steps"] == ["s1", "B1", "t1"]
        code = cli.main(["lift", "path", "--morphism", "FIX-LIFT",
                         "--index", "FIX-LIFT-M",
                         "--start", "beta1", "--path", "beta,B"])
        capsys.readouterr()
        assert code == 1

    def test_subdivide_commands(self, tmp_path, capsys):
        # 5 singleton chains plus one 2-chain per cover pair
        code = cli.main(["--format", "machine", "subdivide", "bcs",
                         "--poset", "FIX-TROP/target"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["data"]["chains"] == 9
        doc = {"vertices": ["1", "2", "3", "4"], "maximal_faces": [["1", "2", "3", "4"]]}
        path = tmp_path / "simplex.json"
        path.write_text(fileio.dumps(doc))
        code = cli.main(["--format", "machine", "subdivide", "stellar",
                         "--complex", str(path), "--face", "1,2,3",
                         "--vertex", "p"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["data"]["faces_after"] == 27

    def test_graph_commands(self, capsys):
        code = cli.main(["--format", "machine", "graph", "refine",
                         "--morphism", "FIX-GRAPH"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["data"]["new_target_vertices"] == {"t@2": ["t", "2"]}
        code = cli.main(["graph", "sample", "--morphism", "FIX-GRAPH",
                         "--point", "t:5/2"])
        capsys.readouterr()
        assert code == 1

    def test_export_command(self, capsys):
        code = cli.main(["export", "dot", "--poset", "FIX-TROP/target",
                         "--kind", "covering"])
        out = capsys.readouterr().out
        assert code == 0 and out.startswith("graph poset {")

    def test_fixtures_commands(self, capsys):
        assert cli.main(["fixtures", "list"]) == 0
        capsys.readouterr()
        assert cli.main(["fixtures", "run", "FIX-TROP", "FIX-CE1"]) == 0
        capsys.readouterr()

    def test_connect_lifting(self, capsys):
        code = cli.main(["--format", "machine", "connect", "lifting",
                         "--morphism", "FIX-TROP", "--index", "FIX-TROP-M"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["data"]["fibre_witness"] == "A"

    def test_graph_poset_command(self, capsys):
        code = cli.main(["--format", "machine", "graph", "poset",
                         "--morphism", "FIX-GRAPH"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["data"]["morphism"]["map"]["B"] == "t"

    def test_subdivide_bcs_morphism(self, capsys):
        code = cli.main(["--format", "machine", "subdivide", "bcs",
                         "--morphism", "FIX-TROP"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["data"]["combinatorial"] is True

    def test_graph_sample_random(self, capsys):
        code = cli.main(["graph", "sample", "--morphism", "FIX-GRAPH",
                         "--random", "10", "--seed", "3"])
        capsys.readouterr()
        assert code == 1  # the unrefined fixture mismatches somewhere

    def test_missing_flag_is_usage_error(self, capsys):
        assert cli.main(["cover", "balanced", "--morphism", "FIX-TROP"]) == 2
        capsys.readouterr()
        assert cli.main(["connect", "codimk", "--poset", "FIX-TROP/target"]) == 2
        capsys.readouterr()

    def test_usage_error(self, capsys):
        assert cli.main(["no-such-command"]) == 2

    def test_failing_reports_carry_named_witness_fields(self, capsys):
        # every verdict=fail machine report parses and exposes the witness
        # fields of the owning module
        expectations = [
            (["cover", "balanced", "--morphism", "FIX-CE2", "--index", "FIX-CE2-M"],
             {"alpha", "beta", "lhs", "rhs"}),
            (["cover", "ibc", "--morphism", "FIX-CE1", "--index", "FIX-CE1-M"],
             {"beta", "component", "y1", "y2", "d1", "d2"}),
            (["extend", "--morphism", "FIX-SIMPLE-EXT", "--index", "FIX-SIMPLE-EXT-M"],
             {"alpha", "beta1", "beta2", "sum1", "sum2"}),
            (["morphism", "check", "--morphism", "FIX-CE1"],
             {"alpha", "reason", "detail"}),
            (["connect", "strong", "--poset", "FIX-IDREAD/target"],
             {"witness", "components"}),
        ]
        for argv, fields in expectations:
            code = cli.main(["--format", "machine", *argv])
            payload = json.loads(capsys.readouterr().out)
            assert code == 1 and payload["verdict"] == "fail"
            assert payload["witnesses"], argv
            assert fields <= set(payload["witnesses"][0]), argv


# every "this action needs" case: an argv without the needed option, and the
# alternatives of that option
NEEDS = [
    (["cover", "balanced", "--morphism", "FIX-TROP"], ("index",)),
    (["cover", "ibc", "--morphism", "FIX-TROP"], ("index",)),
    (["cover", "ibc-oracle", "--morphism", "FIX-TROP"], ("index",)),
    (["cover", "degree", "--morphism", "FIX-TROP"], ("index",)),
    (["connect", "codimk", "--k", "1"], ("poset",)),
    (["connect", "codimk", "--poset", "FIX-TROP/target"], ("k",)),
    (["connect", "strong"], ("poset",)),
    (["connect", "lifting", "--index", "FIX-TROP-M"], ("morphism",)),
    (["connect", "lifting", "--morphism", "FIX-TROP"], ("index",)),
    (["connect", "lifting", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M",
      "--mode", "codim"], ("k",)),
    (["subdivide", "bcs"], ("poset", "morphism")),
    (["subdivide", "stellar", "--face", "1", "--vertex", "p"], ("complex",)),
    (["subdivide", "stellar", "--complex", "C", "--vertex", "p"], ("face",)),
    (["subdivide", "stellar", "--complex", "C", "--face", "1"], ("vertex",)),
    (["graph", "refine"], ("morphism",)),
    (["graph", "sample"], ("morphism",)),
    (["graph", "poset"], ("graph", "morphism")),
    (["export", "dot"], ("poset", "morphism")),
]


@pytest.mark.parametrize("argv,names", NEEDS, ids=[" ".join(a) for a, _ in NEEDS])
def test_a_missing_needed_option_is_named(argv, names, capsys):
    code = cli.main(["--format", "machine", *argv])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["verdict"] == "error"
    detail = "this action needs " + " or ".join(f"--{n}" for n in names)
    assert payload["witnesses"] == [{"error": "FormatError", "detail": detail}]


def test_needs_cases_match_the_command_table():
    table = {(command, action, names) for command, spec in cli.COMMANDS.items()
             for action, (_, needs) in spec.actions.items() for names in needs}
    # --k is needed by connect lifting only in --mode codim, so its handler checks it
    conditional = {("connect", "lifting", ("k",))}
    assert {(argv[0], argv[1], names) for argv, names in NEEDS} == table | conditional


def test_theorem_violation_is_an_internal_error(monkeypatch, capsys):
    def violated(*args, **kwargs):
        raise TheoremViolation("the hypotheses hold but the conclusion fails")

    monkeypatch.setattr(extend, "check_connectivity_lifting", violated)
    code = cli.main(["--format", "machine", "connect", "lifting",
                     "--morphism", "FIX-TROP", "--index", "FIX-TROP-M"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3 and payload["verdict"] == "error"
    assert payload["witnesses"] == [{"error": "TheoremViolation",
                                     "detail": "the hypotheses hold but the conclusion fails"}]


def test_deeply_nested_json_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    code = cli.main(["--format", "machine", "poset", "stats", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["verdict"] == "error"
    assert payload["witnesses"] == [{"error": "FormatError", "detail": str(
        FormatError(f"{path} nests deeper than the JSON parser allows"))}]


# json.loads raises a plain ValueError, not JSONDecodeError, on both
@pytest.mark.parametrize("content", [
    b'{"elements": [' + b"1" * 4301 + b'], "covers": []}',
    b'\xff{"elements": [], "covers": []}',
], ids=["integer-of-4301-digits", "not-utf-8"])
def test_an_unreadable_document_is_a_usage_error_naming_its_file(content, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    code = cli.main(["--format", "machine", "poset", "stats", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["verdict"] == "error"
    [witness] = payload["witnesses"]
    assert witness["error"] == "FormatError"
    assert witness["detail"].startswith(f"cannot read {path}: ")


def _bad_point_doc():
    doc = fileio.metric_morphism_to_doc(fix_graph())
    doc["vertex_images"]["A"] = 5
    return doc


# JSON of the wrong type where identifiers or containers are expected, text
# that is no JSON, and documents of another kind than the command reads;
# the document is the last argument, written as it is when it is a string,
# and its path fills {path} in the witness
WRONGLY_TYPED = [
    (["morphism", "check", "--morphism"],
     {"source": "FIX-CE1/source", "target": "FIX-CE1/target",
      "map": {"A1": ["A"], "A2": "A", "B1": "B"}},
     "a morphism map value must be a string, got ['A']"),
    (["graph", "poset", "--graph"],
     {"vertices": ["u", "v"], "edges": [{"id": ["x"], "a": "u", "b": "v", "length": "1"}]},
     "an edge id must be a string, got ['x']"),
    (["cover", "balanced", "--morphism", "FIX-CE1", "--index"],
     {"domain_upset_generators": 5, "values": {"A1": 1, "A2": 1, "B1": 1}},
     "domain_upset_generators must be a list of strings, got 5"),
    (["cover", "balanced", "--morphism", "FIX-CE1", "--index"],
     {"values": [1]},
     "index map values must be an object keyed by strings, got [1]"),
    (["poset", "stats"], '{"elements": [',
     "{path} is not valid JSON: Expecting value: line 1 column 15 (char 14)"),
    (["poset", "stats"], [1, 2], "top-level document must be a JSON object"),
    (["poset", "stats"], {"foo": 1}, "unrecognized document; no known field combination"),
    (["cover", "balanced", "--morphism", "FIX-TROP", "--index"],
     {"elements": ["a"], "covers": []}, "'{path}' does not describe an index map"),
    (["cover", "balanced", "--index", "FIX-CE1-M", "--morphism"],
     fileio.morphism_to_doc(fix_trop()), "index map 'FIX-CE1-M' lives on a different poset"),
    (["graph", "refine", "--morphism"], _bad_point_doc(), "bad point 5"),
    # a supplied rank function names the least element it gets wrong
    (["poset", "stats"], {"elements": ["a", "b", "c"], "covers": [["a", "b"]], "rank": {"b": 1}},
     "supplied rank disagrees with the computed rank function at 'a': "
     "supplied no value, computed 0"),
    (["poset", "stats"], {"elements": ["a", "b", "c"], "covers": [["a", "b"]],
                          "rank": {"a": 0, "b": 1, "c": 0, "z": 2, "d": 5}},
     "supplied rank disagrees with the computed rank function at 'd': "
     "supplied 5, computed no value"),
    (["poset", "stats"], {"elements": ["a", "b", "c"], "covers": [["a", "b"]],
                          "rank": {"a": 0, "b": 2, "c": 1}},
     "supplied rank disagrees with the computed rank function at 'b': "
     "supplied 2, computed 1"),
]


@pytest.mark.parametrize("argv,doc,detail", WRONGLY_TYPED,
                         ids=["map-value-list", "edge-id-list", "generators-int", "values-list",
                              "json-syntax", "top-level-list", "no-known-fields",
                              "index-names-a-poset", "index-on-another-poset", "bad-point",
                              "rank-missing", "rank-extra", "rank-different"])
def test_wrongly_typed_documents_are_usage_errors(argv, doc, detail, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else fileio.dumps(doc))
    code = cli.main(["--format", "machine", *argv, str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["verdict"] == "error"
    assert payload["witnesses"] == [{"error": "FormatError", "detail": detail.format(path=path)}]


def test_long_cycle_fails_validation_with_witness(tmp_path, capsys):
    names = [f"e{i}" for i in range(5000)]
    doc = {"elements": names, "covers": [list(c) for c in zip(names, names[1:] + names[:1])]}
    path = tmp_path / "cycle.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", "poset", "validate", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    witness = payload["witnesses"][0]
    assert witness["error"] == "CycleDetected"
    assert witness["detail"] == str(CycleDetected(names + names[:1]))


def test_refining_an_edge_onto_a_loop_is_a_usage_error(tmp_path, capsys):
    # both endpoints of the source edge land on the loop's one vertex, so no
    # subdivision makes the face-poset map injective on down(e)
    doc = {
        "source": {"vertices": ["A", "B"], "edges": [{"id": "e", "a": "A", "b": "B", "length": "2"}]},
        "target": {"vertices": ["u"], "edges": [{"id": "t", "a": "u", "b": "u", "length": "2"}]},
        "vertex_images": {"A": "u", "B": "u"},
        "edge_images": {"e": {"edge": "t", "from": "0", "to": "2", "slope": 1}},
    }
    path = tmp_path / "loop.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", "graph", "refine", "--morphism", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["witnesses"][0]["error"] == "NotCombinatorial"
    assert payload["witnesses"][0]["detail"] == str(NotCombinatorial("e"))


def test_sampling_an_edge_free_target_is_a_usage_error(tmp_path, capsys):
    doc = {
        "source": {"vertices": ["A"], "edges": []},
        "target": {"vertices": ["u"], "edges": []},
        "vertex_images": {"A": "u"},
        "edge_images": {},
    }
    path = tmp_path / "point.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", "graph", "sample", "--morphism", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["verdict"] == "error"
    assert payload["witnesses"][0]["error"] == "FormatError"


def test_internal_error_is_exit_3_without_traceback(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(cli, "cmd_fixtures_list", broken)
    code = cli.main(["--format", "machine", "fixtures", "list"])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 3 and payload["verdict"] == "error"
    assert payload["witnesses"] == [{"error": "RuntimeError", "detail": "handler fault"}]
    assert "Traceback" not in captured.err


def test_an_internal_key_error_while_loading_is_exit_3(monkeypatch, tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(fileio.dumps({"elements": ["a"], "covers": []}))

    def broken(doc):
        raise KeyError("elements")

    monkeypatch.setattr(fileio, "poset_from_doc", broken)
    code = cli.main(["--format", "machine", "poset", "stats", str(path)])
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert code == 3 and payload["verdict"] == "error"
    assert payload["witnesses"] == [{"error": "KeyError", "detail": "'elements'"}]
    assert "Traceback" not in captured.err


def test_long_chain_subdivision_hits_the_chain_limit(tmp_path, capsys):
    names = [f"c{i:04d}" for i in range(1200)]
    doc = {"elements": names, "covers": [list(c) for c in zip(names, names[1:])]}
    path = tmp_path / "chain.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", "subdivide", "bcs", "--poset", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["witnesses"] == [{"error": "OracleSizeExceeded",
                                     "detail": str(OracleSizeExceeded(100_001, 100_000))}]


@pytest.mark.parametrize("argv", [["morphism", "check"], ["graph", "refine"],
                                  ["graph", "sample"]])
def test_unknown_metric_image_keys_are_usage_errors(argv, tmp_path, capsys):
    doc = fileio.metric_morphism_to_doc(fix_graph())
    doc["vertex_images"]["GHOST"] = "u"
    doc["edge_images"]["phantom"] = dict(doc["edge_images"]["e"])
    path = tmp_path / "ghost.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", *argv, "--morphism", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["witnesses"] == [{"error": "UnknownElement",
                                     "detail": str(UnknownElement("GHOST"))}]


def _set_length(doc, value):
    doc["source"]["edges"][0]["length"] = value


def _set_from(doc, value):
    doc["edge_images"]["e"]["from"] = value


def _set_pos(doc, value):
    doc["vertex_images"]["B"] = {"edge": "t", "pos": value}


@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("place", [_set_length, _set_from, _set_pos],
                         ids=["length", "from", "pos"])
def test_json_booleans_are_not_rationals(place, value, tmp_path, capsys):
    doc = fileio.metric_morphism_to_doc(fix_graph())
    place(doc, value)
    path = tmp_path / "bool.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", "graph", "refine", "--morphism", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["witnesses"] == [{"error": "FormatError", "detail": str(FormatError(
        f"rationals must be strings like '3' or '5/2', got {value!r}"))}]


@pytest.mark.parametrize("rank,key", [
    ({"a": False, "b": True, "c": 0.0}, "a"),
    ({"a": 0, "b": True, "c": 0}, "b"),
    ({"a": 0, "b": 1, "c": 0.0}, "c"),
    ({"a": 0, "b": "1", "c": None}, "b"),
], ids=["booleans-and-float", "boolean", "float", "string-and-null"])
def test_json_booleans_and_floats_are_not_ranks(rank, key, tmp_path, capsys):
    path = tmp_path / "rank.json"
    path.write_text(fileio.dumps({"elements": ["a", "b", "c"], "covers": [["a", "b"]],
                                  "rank": rank}))
    code = cli.main(["--format", "machine", "poset", "stats", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["witnesses"] == [{"error": "FormatError", "detail": str(FormatError(
        f"rank values must be integers, got {rank[key]!r} at {key!r}"))}]


def test_undeclared_complex_vertices_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(fileio.dumps({"vertices": ["1", "4"], "maximal_faces": [["1", "3", "2"]]}))
    code = cli.main(["--format", "machine", "subdivide", "stellar", "--complex", str(path),
                     "--face", "2", "--vertex", "p"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["witnesses"] == [{"error": "FormatError", "detail": str(FormatError(
        "maximal faces use undeclared vertex '2'"))}]


@pytest.mark.parametrize("doc,witness", [
    ({"vertices": ["a", "a", "b"], "maximal_faces": [["a", "b"]]},
     {"error": "DuplicateElement", "detail": str(DuplicateElement("a"))}),
    ({"vertices": ["a", "b"], "maximal_faces": [["a", "b"], []]},
     {"error": "FormatError", "detail": "a maximal face must have at least one vertex"}),
], ids=["repeated-vertex", "empty-face"])
def test_malformed_complexes_are_usage_errors(doc, witness, tmp_path, capsys):
    path = tmp_path / "complex.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", "subdivide", "stellar", "--complex", str(path),
                     "--face", "a", "--vertex", "p"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["witnesses"] == [witness]


@pytest.mark.parametrize("argv", [
    ["cover", "search", "--morphism", "FIX-TROP", "--bound", "0"],
    ["cover", "search", "--morphism", "FIX-TROP", "--bound", "-3"],
    ["graph", "sample", "--morphism", "FIX-GRAPH", "--random", "0"],
    ["graph", "sample", "--morphism", "FIX-GRAPH", "--random", "-2"],
])
def test_non_positive_counts_are_usage_errors(argv, capsys):
    code = cli.main(["--format", "machine", *argv])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and payload["verdict"] == "error"


def _run_fixtures(capsys, *names):
    code = cli.main(["--format", "machine", "fixtures", "run", *names])
    return code, json.loads(capsys.readouterr().out)


def test_fixture_row_with_a_wrong_expected_value_fails(monkeypatch, capsys):
    rows = list(fixtures.FIXTURE_ROWS["FIX-TROP"])
    label, argv, exit_code, _ = rows[3]
    rows[3] = (label, argv, exit_code, {"data.degree": 4})
    monkeypatch.setitem(fixtures.FIXTURE_ROWS, "FIX-TROP", rows)
    code, payload = _run_fixtures(capsys, "FIX-TROP", "FIX-CE1")
    assert code == 1
    assert payload["data"]["results"] == {"FIX-CE1": "ok", "FIX-TROP": "failed"}
    assert payload["witnesses"] == [{"fixture": "FIX-TROP", "failed": ["degree 3"]}]


def test_fixture_row_whose_command_raises_fails(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("handler fault")

    monkeypatch.setattr(cli, "cmd_extend", broken)
    code, payload = _run_fixtures(capsys, "FIX-SIMPLE-EXT", "FIX-TROP")
    assert code == 1 and payload["verdict"] == "fail"
    assert payload["witnesses"] == [{"fixture": "FIX-SIMPLE-EXT",
                                     "failed": ["conflict at O with sums 2,1"]}]


def test_fixtures_run_rejects_unknown_names(capsys):
    code, payload = _run_fixtures(capsys, "NOPE")
    assert code == 2
    assert payload["witnesses"][0]["detail"].startswith("no checks for ['NOPE']")


def test_up_set_walk_guard_stops_a_wide_antichain(tmp_path, capsys):
    doc = {"elements": [f"a{i:04d}" for i in range(1200)], "covers": []}
    path = tmp_path / "antichain.json"
    path.write_text(fileio.dumps(doc))
    start = time.monotonic()
    code = cli.main(["--format", "machine", "poset", "upsets", str(path), "--oracle-limit", "2000"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and elapsed < 5
    limit = posets.UP_SET_WALK_LIMIT
    assert payload["witnesses"] == [{"error": "OracleSizeExceeded", "detail": str(
        OracleSizeExceeded(limit + 1, limit, "up-sets walked"))}]


def _cover_ibc(tmp_path, capsys, source, target, mapping, values):
    paths = {"morphism": tmp_path / "morphism.json", "index": tmp_path / "index.json"}
    paths["morphism"].write_text(fileio.dumps({"source": source, "target": target,
                                               "map": mapping}))
    paths["index"].write_text(fileio.dumps({"values": values}))
    code = cli.main(["--format", "machine", "cover", "ibc", "--morphism", str(paths["morphism"]),
                     "--index", str(paths["index"])])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_cover_degree_gives_one_degree_per_target_component(tmp_path, capsys):
    paths = {"morphism": tmp_path / "morphism.json", "index": tmp_path / "index.json"}
    paths["morphism"].write_text(fileio.dumps({
        "source": {"elements": ["a", "b", "p", "q"], "covers": [["a", "b"]]},
        "target": {"elements": ["x", "y", "z"], "covers": [["x", "y"]]},
        "map": {"a": "x", "b": "y", "p": "z", "q": "z"}}))
    paths["index"].write_text(fileio.dumps({"values": {"a": 1, "b": 1, "p": 1, "q": 1}}))
    code = cli.main(["--format", "machine", "cover", "degree",
                     "--morphism", str(paths["morphism"]), "--index", str(paths["index"])])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["verdict"] == "pass"
    assert payload["data"] == {
        "constant": True, "degree": None, "per_target": {"x": 1, "y": 1, "z": 2},
        "per_component": [{"elements": ["x", "y"], "degree": 1},
                          {"elements": ["z"], "degree": 2}]}


def test_cover_ibc_walks_the_up_sets_of_a_non_combinatorial_map(tmp_path, capsys):
    # degree 2 at e0 and 1 at e1 over the whole target, though every
    # principal up-set's preimage has a constant degree
    source = {"elements": ["e0", "e1", "e2", "e3"],
              "covers": [["e0", "e2"], ["e1", "e2"], ["e0", "e3"]]}
    target = {"elements": ["e0", "e1", "e2"], "covers": [["e0", "e2"], ["e1", "e2"]]}
    code, payload, _ = _cover_ibc(tmp_path, capsys, source, target,
                                  {"e0": "e0", "e1": "e1", "e2": "e2", "e3": "e2"},
                                  {"e0": 2, "e1": 1, "e2": 1, "e3": 1})
    assert code == 1
    assert [(w["y1"], w["y2"], w["d1"], w["d2"]) for w in payload["witnesses"]] == [
        ("e0", "e1", 2, 1)]


def test_cover_ibc_on_a_non_combinatorial_map_stops_at_the_up_set_walk_guard(tmp_path, capsys):
    antichain = [f"a{i:02d}" for i in range(18)]
    code, payload, err = _cover_ibc(
        tmp_path, capsys, {"elements": ["b", *antichain], "covers": [["b", "a00"]]},
        {"elements": antichain, "covers": []}, {"b": "a00", **{a: a for a in antichain}},
        dict.fromkeys(["b", *antichain], 1))
    assert code == 2 and "Traceback" not in err
    limit = posets.UP_SET_WALK_LIMIT
    assert payload["witnesses"] == [{"error": "OracleSizeExceeded", "detail": str(
        OracleSizeExceeded(limit + 1, limit, "up-sets walked"))}]


def test_cover_ibc_on_a_wide_antichain_stops_once_the_walk_holds_eighteen_members(
        tmp_path, capsys):
    # any 18 members of the target's antichain have 2^18 subsets, more up-sets
    # than the guard allows, so the walk stops as soon as it holds 18 of them
    antichain = [f"a{i:04d}" for i in range(4000)]
    start = time.monotonic()
    code, payload, err = _cover_ibc(
        tmp_path, capsys, {"elements": ["b", *antichain], "covers": [["b", "a0000"]]},
        {"elements": antichain, "covers": []}, {"b": "a0000", **{a: a for a in antichain}},
        dict.fromkeys(["b", *antichain], 1))
    elapsed = time.monotonic() - start
    assert code == 2 and "Traceback" not in err and elapsed < 1
    limit = posets.UP_SET_WALK_LIMIT
    assert payload["witnesses"] == [{"error": "OracleSizeExceeded", "detail": str(
        OracleSizeExceeded(limit + 1, limit, "up-sets walked"))}]


def test_a_forty_vertex_face_stops_at_the_face_guard(tmp_path, capsys):
    vertices = [f"v{i:02d}" for i in range(40)]
    path = tmp_path / "simplex.json"
    path.write_text(fileio.dumps({"vertices": vertices, "maximal_faces": [vertices]}))
    start = time.monotonic()
    code = cli.main(["--format", "machine", "subdivide", "stellar", "--complex", str(path),
                     "--face", "v00", "--vertex", "p"])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and elapsed < 1
    assert payload["witnesses"] == [{"error": "OracleSizeExceeded", "detail": str(
        OracleSizeExceeded(2 ** 40 - 1, subdivision.DEFAULT_CHAIN_LIMIT,
                           "subsets of maximal faces"))}]


def test_random_points_above_the_cap_are_refused(capsys):
    limit = cli.RANDOM_POINT_LIMIT
    start = time.monotonic()
    code = cli.main(["--format", "machine", "graph", "sample", "--morphism", "FIX-GRAPH",
                     "--random", str(limit + 1)])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and elapsed < 1
    assert payload["witnesses"] == [{"error": "OracleSizeExceeded", "detail": str(
        OracleSizeExceeded(limit + 1, limit, "--random"))}]


@pytest.mark.parametrize("bound", [2, 100, 10 ** 100])
def test_search_on_many_free_elements_stops_at_the_state_guard(bound, tmp_path, capsys):
    # every element of an antichain is free, so the search space is bound ** 3000
    poset = {"elements": [f"a{i:04d}" for i in range(3000)], "covers": []}
    path = tmp_path / "antichain_identity.json"
    path.write_text(fileio.dumps({"source": poset, "target": poset,
                                  "map": {x: x for x in poset["elements"]}}))
    start = time.monotonic()
    code = cli.main(["--format", "machine", "cover", "search", "--morphism", str(path),
                     "--bound", str(bound)])
    elapsed = time.monotonic() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 2 and elapsed < 1
    assert payload["witnesses"] == [{"error": "OracleSizeExceeded", "detail": str(
        OracleSizeExceeded(f"{bound}**3000", DEFAULT_SEARCH_STATES, "search states"))}]


@pytest.mark.parametrize("value", ["1e10000000", "1e999999999", "1e-999999999"])
def test_exponents_above_the_limit_are_usage_errors(value, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(fileio.dumps({"vertices": ["u", "v"],
                                  "edges": [{"id": "t", "a": "u", "b": "v", "length": value}]}))
    detail = str(FormatError(f"bad rational {value!r}: exponent above 4300 in magnitude"))
    for argv in (["graph", "poset", "--graph", str(path)],
                 ["graph", "sample", "--morphism", "FIX-GRAPH", "--point", f"t:{value}"]):
        start = time.monotonic()
        code = cli.main(["--format", "machine", *argv])
        elapsed = time.monotonic() - start
        payload = json.loads(capsys.readouterr().out)
        assert code == 2 and elapsed < 1
        assert payload["witnesses"] == [{"error": "FormatError", "detail": detail}]


@pytest.mark.parametrize("value,code", [("1e4300", 2), ("1e4299", 0)])
def test_only_rationals_the_writer_can_write_are_read(value, code, tmp_path, capsys):
    # 10^4300 has 4301 digits, one more than str() writes
    segment = {"vertices": ["u", "v"], "edges": [{"id": "t", "a": "u", "b": "v", "length": value}]}
    path = tmp_path / "segment.json"
    path.write_text(fileio.dumps({
        "source": segment, "target": segment, "vertex_images": {"u": "u", "v": "v"},
        "edge_images": {"t": {"edge": "t", "from": "0", "to": value, "slope": 1}}}))
    assert cli.main(["--format", "machine", "graph", "refine", "--morphism", str(path)]) == code
    payload = json.loads(capsys.readouterr().out)
    if code:
        detail = str(FormatError(f"bad rational {value!r}: more than 4300 digits "
                                 "in its numerator or denominator"))
        assert payload["witnesses"] == [{"error": "FormatError", "detail": detail}]
    else:
        assert payload["data"]["morphism"]["edge_images"]["t"]["to"] == "1" + "0" * 4299


def poset_with_comparable_pairs(pairs: int) -> dict:
    """A chain as long as the count allows, then two-element chains for
    the rest of the pairs."""
    n = max(n for n in range(pairs + 2) if n * (n - 1) // 2 <= pairs)
    names = [f"c{i:04d}" for i in range(n)]
    covers = [list(c) for c in zip(names, names[1:])]
    for i in range(pairs - n * (n - 1) // 2):
        names += [f"p{i:04d}", f"q{i:04d}"]
        covers.append(names[-2:])
    return {"elements": names, "covers": covers}


@pytest.mark.parametrize("extra", [0, 1])
def test_comparability_export_is_refused_above_the_pair_limit(extra, tmp_path, capsys):
    limit = dot.COMPARABLE_PAIR_LIMIT
    doc = poset_with_comparable_pairs(limit + extra)
    path = tmp_path / "poset.json"
    path.write_text(fileio.dumps(doc))
    code = cli.main(["--format", "machine", "export", "dot", "--poset", str(path),
                     "--kind", "comparability"])
    out = capsys.readouterr().out
    if not extra:
        assert code == 0 and out.count(" -- ") == limit
        return
    assert code == 2
    assert json.loads(out)["witnesses"] == [{"error": "OracleSizeExceeded", "detail": str(
        OracleSizeExceeded(limit + 1, limit, "comparable pairs"))}]
    # a morphism counts the pairs of both sides
    identity = tmp_path / "identity.json"
    half = poset_with_comparable_pairs(limit // 2 + 1)
    identity.write_text(fileio.dumps({"source": half, "target": half,
                                      "map": {x: x for x in half["elements"]}}))
    code = cli.main(["--format", "machine", "export", "dot", "--morphism", str(identity),
                     "--kind", "comparability"])
    assert code == 2 and json.loads(capsys.readouterr().out)["witnesses"][0]["detail"] == str(
        OracleSizeExceeded(2 * (limit // 2 + 1), limit, "comparable pairs"))


def test_parser_is_built_once_per_process(capsys):
    cli.shared_parser.cache_clear()
    assert cli.main(["--format", "machine", "morphism", "check", "--morphism", "FIX-TROP"]) == 0
    assert cli.main(["--format", "machine", "poset", "validate", "FIX-TROP/target"]) == 0
    capsys.readouterr()
    assert cli.main(["--format", "machine", "fixtures", "run"]) == 0
    assert cli.shared_parser.cache_info().misses == 1
    expected = {"command": "fixtures run", "verdict": "pass", "witnesses": [],
                "data": {"results": {name: "ok" for name in fixtures.FIXTURE_ROWS}}}
    assert capsys.readouterr().out == fileio.dumps(expected)
