"""Command-line interface.

Exit codes: 0 when the checked property holds, 1 when it fails (witnesses
are emitted), 2 for input or usage errors, 3 for an internal error, a
TheoremViolation included (a structured report, no traceback).  ``--format
machine`` prints a canonical JSON report; identical inputs give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

from . import covers, dot, extend, fileio, fixtures, metric, posets, subdivision
from .errors import (
    CorestrictionNotCombinatorial,
    FormatError,
    NoLiftExists,
    NotMonotone,
    TheoremViolation,
    ToolError,
)
from .metric import MetricGraph, MetricGraphMorphism, Point
from .morphisms import PosetMorphism
from .posets import Poset


@dataclass
class RunReport:
    verdict: str  # pass | fail | error
    witnesses: list = field(default_factory=list)
    data: dict = field(default_factory=dict)
    command: str = ""  # set by dispatch from the subcommand and its action


def _plain(value):
    """Make report values JSON-friendly and deterministic."""
    if hasattr(value, "_asdict"):
        out = {"kind": type(value).__name__}
        out.update({k: _plain(v) for k, v in value._asdict().items()})
        return out
    if isinstance(value, frozenset):
        return sorted(_plain(v) for v in value)
    if isinstance(value, (set, tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, Fraction):
        return fileio.format_rational(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return value


def _payload(report: RunReport) -> dict:
    """The machine report as plain JSON values."""
    return {
        "command": report.command,
        "verdict": report.verdict,
        "witnesses": _plain(report.witnesses),
        "data": _plain(report.data),
    }


def emit(report: RunReport, fmt: str, out=None):
    out = out or sys.stdout
    payload = _payload(report)
    if fmt == "machine":
        out.write(fileio.dumps(payload))
        return
    out.write(f"command: {report.command}\n")
    out.write(f"verdict: {report.verdict}\n")
    for key, value in payload["data"].items():
        out.write(f"{key}: {json.dumps(value, sort_keys=True, ensure_ascii=False)}\n")
    for w in payload["witnesses"]:
        out.write(f"witness: {json.dumps(w, sort_keys=True, ensure_ascii=False)}\n")


# ----- input resolution -------------------------------------------------------


def _load(name: str):
    try:
        return fileio.load_named(name, Path.cwd())
    except KeyError:
        raise FormatError(f"not a fixture or readable file: {name!r}") from None


def resolve_poset(name: str) -> Poset:
    obj = _load(name)
    got = fileio.as_poset(obj, name)
    if got is None:
        raise FormatError(f"{name!r} does not describe a poset")
    return got


def resolve_morphism(name: str) -> PosetMorphism:
    obj = _load(name)
    if isinstance(obj, PosetMorphism):
        return obj
    if isinstance(obj, MetricGraphMorphism):
        return metric.morphism_face_poset(obj)
    raise FormatError(f"{name!r} does not describe a morphism")


def resolve_metric_morphism(name: str) -> MetricGraphMorphism:
    obj = _load(name)
    if isinstance(obj, MetricGraphMorphism):
        return obj
    raise FormatError(f"{name!r} does not describe a metric graph morphism")


def resolve_index(name: str, carrier: Poset) -> covers.IndexMap:
    obj = _load(name)
    if isinstance(obj, covers.IndexMap):
        if obj.poset != carrier:
            raise FormatError(f"index map {name!r} lives on a different poset")
        return obj
    if isinstance(obj, dict):
        return fileio.index_map_from_doc(obj, carrier)
    raise FormatError(f"{name!r} does not describe an index map")


def _csv(text: str) -> list[str]:
    return [part for part in (text or "").split(",") if part]


def _parse_point(text: str) -> Point:
    if ":" in text:
        edge, _, pos = text.rpartition(":")
        return Point.interior(edge, fileio.parse_rational(pos))
    return Point.at_vertex(text)


# ----- handlers ---------------------------------------------------------------
# One per action, named in COMMANDS; dispatch checks the needed options first.


def cmd_poset_validate(args) -> RunReport:
    try:
        p = resolve_poset(args.poset)
    except FormatError:
        raise
    except ToolError as exc:
        return RunReport("fail", witnesses=[{"error": type(exc).__name__,
                                             "detail": str(exc)}])
    return RunReport("pass", data={
        "elements": len(p.elements), "covers": len(p.covers)})


def cmd_poset_stats(args) -> RunReport:
    p = resolve_poset(args.poset)
    data = {
        "elements": sorted(p.elements),
        "covers": sorted(list(c) for c in p.covers),
        "max": p.max_elements(),
        "min": p.min_elements(),
        "connected": p.is_connected(),
    }
    try:
        rank = posets.rank_check(p)
        data.update(graded=True, dim=rank.dim, pure=rank.pure,
                    rank=dict(sorted(rank.rank.items())))
        data["strongly_connected"] = posets.connectivity(p, "strong").connected
    except ToolError as exc:
        data.update(graded=False, not_graded_witness=list(getattr(exc, "pair", ())))
    return RunReport("pass", data=data)


def cmd_poset_upsets(args) -> RunReport:
    p = resolve_poset(args.poset)
    # bitsets until the walk is done, so a walk cut short by its guard
    # has not built its up-sets as lists of names
    ups = list(posets.up_set_bits(p, connected_only=args.connected,
                                  limit=args.oracle_limit))
    return RunReport("pass", data={
        "count": len(ups),
        "up_sets": sorted([list(p._labels(u)) for u in ups]),
    })


def cmd_morphism_check(args) -> RunReport:
    try:
        phi = resolve_morphism(args.morphism)
    except NotMonotone as exc:
        return RunReport("fail",
                         witnesses=[{"error": "NotMonotone", "pair": list(exc.pair)}],
                         data={"monotone": False})
    comb = phi.is_combinatorial()
    opened = phi.is_open()
    witnesses = list(comb.witnesses) + list(opened.witnesses)
    verdict = "pass" if comb and opened else "fail"
    return RunReport(verdict, witnesses=witnesses, data={
        "monotone": True,
        "combinatorial": bool(comb),
        "open": bool(opened),
    })


def cmd_cover_check(args) -> RunReport:
    phi = resolve_morphism(args.morphism)
    m = resolve_index(args.index, phi.source)
    check = {"balanced": covers.is_balanced,
             "ibc": covers.is_ibc,
             "ibc-oracle": lambda phi, m: covers.is_ibc_oracle(phi, m, limit=args.oracle_limit),
             }[args.action](phi, m)
    return RunReport("pass" if check else "fail", witnesses=list(check.witnesses))


def cmd_cover_degree(args) -> RunReport:
    phi = resolve_morphism(args.morphism)
    report = covers.global_degree(phi, resolve_index(args.index, phi.source))
    data = {"per_target": dict(sorted(report.per_target_value.items())),
            "constant": report.constant}
    if report.constant:
        data["degree"] = report.degree
        return RunReport("pass", data=data)
    return RunReport("fail", data=data,
                     witnesses=[{"per_target": data["per_target"]}])


def cmd_cover_search(args) -> RunReport:
    found = covers.search_balanced(resolve_morphism(args.morphism), bound=args.bound)
    if found is None:
        return RunReport("fail",
                         witnesses=[{"result": "NoneFound", "bound": args.bound}])
    return RunReport("pass", data={"values": dict(sorted(found.values.items()))})


def cmd_extend(args) -> RunReport:
    phi = resolve_morphism(args.morphism)
    m = resolve_index(args.index, phi.source)
    target_upset = (phi.source.up_set(_csv(args.upset))
                    if args.upset else frozenset(phi.source.elements))
    report = extend.extend_balanced(phi, m, target_upset)
    assigned = {k: v for k, v in report.extended.values.items() if k not in m.domain}
    data = {"mode": report.mode,
            "assigned": dict(sorted(assigned.items())),
            "unconstrained": sorted(report.unconstrained)}
    if report.conflicts:
        return RunReport("fail", witnesses=list(report.conflicts), data=data)
    return RunReport("pass", data=data)


def cmd_lift(args) -> RunReport:
    phi = resolve_morphism(args.morphism)
    m = resolve_index(args.index, phi.source)
    lift = {"up": extend.lift_upward_path, "path": extend.lift_path}[args.action]
    try:
        lifted = lift(phi, m, args.start, _csv(args.path))
    except (CorestrictionNotCombinatorial, NoLiftExists) as exc:
        return RunReport("fail", witnesses=[{
            "error": type(exc).__name__,
            "detail": getattr(exc, "witness", None) or str(exc),
        }])
    return RunReport("pass", data={
        "steps": list(lifted.steps), "directions": list(lifted.directions)})


def cmd_connect_codimk(args) -> RunReport:
    report = posets.connectivity(resolve_poset(args.poset), "codim", args.k)
    if report.connected:
        return RunReport("pass", data={"k": args.k})
    return RunReport("fail", data={"k": args.k},
                     witnesses=[{"components": [sorted(c) for c in report.components]}])


def cmd_connect_strong(args) -> RunReport:
    report = posets.connectivity(resolve_poset(args.poset), "strong")
    if report.connected:
        return RunReport("pass")
    return RunReport("fail", witnesses=[{
        "witness": report.witness,
        "components": [sorted(c) for c in report.components]}])


def cmd_connect_lifting(args) -> RunReport:
    if args.mode == "codim" and args.k is None:
        raise FormatError("this action needs --k")
    phi = resolve_morphism(args.morphism)
    m = resolve_index(args.index, phi.source)
    report = extend.check_connectivity_lifting(phi, m, args.mode, k=args.k)
    data = {"hypotheses": report.hypotheses,
            "conclusion": report.conclusion_holds,
            "fibre_witness": report.witness_fibre}
    if report.hypotheses_hold and report.conclusion_holds:
        return RunReport("pass", data=data)
    return RunReport("fail", data=data,
                     witnesses=[{"hypotheses": report.hypotheses}])


def cmd_subdivide_bcs(args) -> RunReport:
    if args.morphism:
        bcs = subdivision.bcs_morphism(resolve_morphism(args.morphism))
        return RunReport("pass", data={
            "source_chains": len(bcs.source.elements),
            "target_chains": len(bcs.target.elements),
            "combinatorial": bool(bcs.is_combinatorial()),
            "morphism": fileio.morphism_to_doc(bcs),
        })
    chains = subdivision.chain_poset(resolve_poset(args.poset))
    return RunReport("pass", data={
        "chains": len(chains.poset.elements),
        "poset": fileio.poset_to_doc(chains.poset),
    })


def cmd_subdivide_stellar(args) -> RunReport:
    obj = _load(args.complex)
    if not isinstance(obj, subdivision.SimplicialComplex):
        raise FormatError(f"{args.complex!r} does not describe a simplicial complex")
    result = subdivision.stellar_subdivide(obj, frozenset(_csv(args.face)), args.vertex)
    return RunReport("pass", data={
        "faces_before": len(obj),
        "faces_after": len(result),
        "complex": fileio.complex_to_doc(result),
    })


def cmd_graph_refine(args) -> RunReport:
    ref = metric.refine_to_combinatorial(resolve_metric_morphism(args.morphism))
    return RunReport("pass", data={
        "new_target_vertices": {k: [v[0], fileio.format_rational(v[1])]
                                for k, v in sorted(ref.new_target_vertices.items())},
        "new_source_vertices": {k: [v[0], fileio.format_rational(v[1])]
                                for k, v in sorted(ref.new_source_vertices.items())},
        "target_pieces": {k: list(v) for k, v in sorted(ref.target_pieces.items())},
        "source_pieces": {k: list(v) for k, v in sorted(ref.source_pieces.items())},
        "combinatorial": True,
        "morphism": fileio.metric_morphism_to_doc(ref.morphism),
    })


def cmd_graph_sample(args) -> RunReport:
    phi = resolve_metric_morphism(args.morphism)
    results = []
    mismatch = []
    points = ([_parse_point(args.point)] if args.point
              else _random_points(phi.target, args.random, args.seed))
    for y in points:
        sample = metric.sample_fibre(phi, y)
        entry = {"point": repr(y), "geometric": sample.geometric,
                 "poset": sample.poset, "match": sample.match}
        results.append(entry)
        if not sample.match:
            mismatch.append(entry)
    verdict = "pass" if not mismatch else "fail"
    return RunReport(verdict, witnesses=mismatch, data={"samples": results})


def cmd_graph_poset(args) -> RunReport:
    if args.morphism:
        pm = metric.morphism_face_poset(resolve_metric_morphism(args.morphism))
        return RunReport("pass", data={"morphism": fileio.morphism_to_doc(pm)})
    obj = _load(args.graph)
    if isinstance(obj, MetricGraphMorphism):
        obj = obj.source
    if not isinstance(obj, MetricGraph):
        raise FormatError(f"{args.graph!r} does not describe a metric graph")
    return RunReport("pass", data={
        "poset": fileio.poset_to_doc(metric.graph_face_poset(obj), with_rank=True)})


def _random_points(graph: MetricGraph, count: int, seed: int) -> list[Point]:
    if count < 1:
        raise FormatError(f"--random must be at least 1, got {count}")
    rng = Random(seed)
    edges = sorted(graph.edges)
    if not edges:
        raise FormatError("the target graph has no edges to sample; give --point")
    points = []
    for _ in range(count):
        eid = rng.choice(edges)
        length = graph.edges[eid].length
        denominator = rng.randint(2, 40)
        numerator = rng.randint(1, denominator - 1)
        points.append(Point.interior(eid, Fraction(numerator, denominator) * length))
    return points


def cmd_export_dot(args) -> RunReport:
    obj = resolve_morphism(args.morphism) if args.morphism else resolve_poset(args.poset)
    return RunReport("pass", data={"dot": dot.export_dot(obj, args.kind)})


def cmd_fixtures_list(args) -> RunReport:
    listing = {name: type(fixtures.load_fixture(name)).__name__
               for name in sorted(fixtures.FIXTURES)}
    return RunReport("pass", data={"fixtures": listing})


def cmd_fixtures_run(args) -> RunReport:
    rows = fixtures.FIXTURE_ROWS
    names = args.names or sorted(rows)
    unknown = [n for n in names if n not in rows]
    if unknown:
        raise FormatError(f"no checks for {unknown!r}; available: {sorted(rows)}")
    failed = {name: _failed_rows(rows[name]) for name in sorted(names)}
    failures = [{"fixture": name, "failed": labels} for name, labels in failed.items() if labels]
    data = {"results": {name: ("ok" if not labels else "failed")
                        for name, labels in failed.items()}}
    return RunReport("fail" if failures else "pass", witnesses=failures, data=data)


def _failed_rows(rows) -> list[str]:
    """Labels of the fixture rows whose command gives another exit code or
    another value at one of the expected paths of its machine report."""
    failed = []
    for label, argv, code, expected in rows:
        report, got = dispatch(shared_parser().parse_args(argv))
        payload = _payload(report)
        if got != code or any(_at(payload, path) != value for path, value in expected.items()):
            failed.append(label)
    return list(dict.fromkeys(failed))


def _at(payload: dict, path: str):
    """The value at a dotted path such as ``witnesses.0.alpha``, or None
    where the report has no such path (no fixture row expects None)."""
    try:
        for key in path.split("."):
            payload = payload[int(key) if isinstance(payload, list) else key]
    except (LookupError, TypeError, ValueError):
        return None
    return payload


# ----- the command table --------------------------------------------------------
# Each subcommand has its help, its actions as {action: (handler name, needed
# options)}, with the one action None when it takes no action word, and its
# arguments in usage order as (name or flag, argparse keywords); those that
# several subcommands take are declared once.  A needed option is a tuple of
# alternatives, at least one of which must be given.

MORPHISM = ("--morphism", {})
INDEX = ("--index", {})
POSET = ("--poset", {})
ORACLE_LIMIT = ("--oracle-limit", {"type": int, "default": posets.DEFAULT_ORACLE_LIMIT})


def required(argument):
    flag, keywords = argument
    return flag, {**keywords, "required": True}


Command = namedtuple("Command", "help actions arguments")

COMMANDS = {
    "poset": Command("validate, inspect, or enumerate up-sets", {
        "validate": ("cmd_poset_validate", ()),
        "stats": ("cmd_poset_stats", ()),
        "upsets": ("cmd_poset_upsets", ()),
    }, [("poset", {}), ("--connected", {"action": "store_true"}), ORACLE_LIMIT]),
    "morphism": Command("check monotone, combinatorial, open", {
        "check": ("cmd_morphism_check", ()),
    }, [required(MORPHISM)]),
    "cover": Command("balancing and branched-cover decisions", {
        "balanced": ("cmd_cover_check", (("index",),)),
        "ibc": ("cmd_cover_check", (("index",),)),
        "ibc-oracle": ("cmd_cover_check", (("index",),)),
        "degree": ("cmd_cover_degree", (("index",),)),
        "search": ("cmd_cover_search", ()),
    }, [required(MORPHISM), INDEX,
        ("--bound", {"type": int, "default": covers.DEFAULT_SEARCH_BOUND}), ORACLE_LIMIT]),
    "extend": Command("extend a balanced map over a larger up-set", {
        None: ("cmd_extend", ()),
    }, [required(MORPHISM), required(INDEX),
        ("--upset", {"help": "comma-separated generators; default whole source"})]),
    "lift": Command("lift paths along a balanced map", {
        "up": ("cmd_lift", ()),
        "path": ("cmd_lift", ()),
    }, [required(MORPHISM), required(INDEX), ("--start", {"required": True}),
        ("--path", {"required": True, "help": "comma-separated target elements"})]),
    "connect": Command("connectivity checks and lifting", {
        "codimk": ("cmd_connect_codimk", (("poset",), ("k",))),
        "strong": ("cmd_connect_strong", (("poset",),)),
        "lifting": ("cmd_connect_lifting", (("morphism",), ("index",))),
    }, [POSET, MORPHISM, INDEX, ("--k", {"type": int}),
        ("--mode", {"choices": ["one-fibre", "codim"], "default": "one-fibre"})]),
    "subdivide": Command("barycentric and stellar subdivision", {
        "bcs": ("cmd_subdivide_bcs", (("poset", "morphism"),)),
        "stellar": ("cmd_subdivide_stellar", (("complex",), ("face",), ("vertex",))),
    }, [POSET, MORPHISM, ("--complex", {}),
        ("--face", {"help": "comma-separated vertices of the subdivided face"}),
        ("--vertex", {"help": "name of the new vertex"})]),
    "graph": Command("metric graph refinement and sampling", {
        "refine": ("cmd_graph_refine", (("morphism",),)),
        "sample": ("cmd_graph_sample", (("morphism",),)),
        "poset": ("cmd_graph_poset", (("graph", "morphism"),)),
    }, [MORPHISM, ("--graph", {}),
        ("--point", {"help": "vertex name or edge:pos with pos rational"}),
        ("--random", {"type": int, "default": 100}), ("--seed", {"type": int, "default": 0})]),
    "export": Command("emit DOT text", {
        "dot": ("cmd_export_dot", (("poset", "morphism"),)),
    }, [POSET, MORPHISM, ("--kind", {"choices": list(dot.KINDS), "default": "hasse"})]),
    "fixtures": Command("list or re-verify the bundled fixtures", {
        "list": ("cmd_fixtures_list", ()),
        "run": ("cmd_fixtures_run", ()),
    }, [("names", {"nargs": "*"})]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetcover",
        description="Indexed branched covers of finite posets: checks, "
                    "extension, lifting, subdivision, refinement.",
    )
    parser.add_argument("--format", choices=["human", "machine"], default="human")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if None not in command.actions:
            p.add_argument("action", choices=list(command.actions))
        for flag, keywords in command.arguments:
            p.add_argument(flag, **keywords)
    return parser


_PARSER = None


def shared_parser() -> argparse.ArgumentParser:
    """The parser of build_parser, built on first use and then shared by
    every main() call and fixture row of the process."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def dispatch(args) -> tuple[RunReport, int]:
    """Check the options the parsed action needs, then run its handler from
    COMMANDS; return its report, labelled with the command, and the exit
    code.  The handler is looked up by name at each call, not bound into
    the shared parser."""
    action = getattr(args, "action", None)
    handler, needs = COMMANDS[args.command].actions[action]
    try:
        for names in needs:
            if all(getattr(args, name) is None for name in names):
                raise FormatError("this action needs " + " or ".join(f"--{n}" for n in names))
        report = globals()[handler](args)
        code = {"pass": 0, "fail": 1}[report.verdict]
    except Exception as exc:
        report = RunReport("error", witnesses=[{"error": type(exc).__name__, "detail": str(exc)}])
        # bad input raises one of these; anything else, a TheoremViolation
        # included, is a fault of this program
        bad_input = (isinstance(exc, (ToolError, OSError, ValueError))
                     and not isinstance(exc, TheoremViolation))
        code = 2 if bad_input else 3
    report.command = args.command if action is None else f"{args.command} {action}"
    return report, code


def main(argv=None) -> int:
    try:
        args = shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    report, code = dispatch(args)
    if args.command == "export" and report.verdict == "pass":
        sys.stdout.write(report.data["dot"])
        return 0
    emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
