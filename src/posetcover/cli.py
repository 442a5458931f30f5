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
from functools import cache

# a handler imports what only its own command uses, so that a process
# loads the modules of the one command it runs
from . import fileio, posets
from .errors import (
    CorestrictionNotCombinatorial,
    FormatError,
    NoLiftExists,
    NotGraded,
    NotMonotone,
    OracleSizeExceeded,
    TheoremViolation,
    ToolError,
)


# verdict is pass, fail or error; dispatch fills in command from the
# subcommand and its action.  The {} default is shared: no code writes into
# a report after building it.
RunReport = namedtuple("RunReport", "verdict witnesses data command", defaults=((), {}, ""))


def _plain(witness):
    """A witness as JSON values.  A record becomes an object with its type
    name as "kind" and a frozenset field as a sorted list; any other
    witness, like every report's data, is built from JSON values already."""
    if not hasattr(witness, "_asdict"):
        return witness
    out = {"kind": type(witness).__name__}
    for key, value in witness._asdict().items():
        out[key] = sorted(value) if isinstance(value, frozenset) else value
    return out


def _payload(report: RunReport) -> dict:
    """The machine report as JSON values."""
    return {
        "command": report.command,
        "verdict": report.verdict,
        "witnesses": [_plain(w) for w in report.witnesses],
        "data": report.data,
    }


def emit(report: RunReport, fmt: str):
    out = sys.stdout
    payload = _payload(report)
    if fmt == "machine":
        out.write(fileio.dumps(payload))
        return
    out.write(f"command: {report.command}\n")
    out.write(f"verdict: {report.verdict}\n")
    for key, value in sorted(report.data.items()):
        out.write(f"{key}: {json.dumps(value, sort_keys=True, ensure_ascii=False)}\n")
    for w in payload["witnesses"]:
        out.write(f"witness: {json.dumps(w, sort_keys=True, ensure_ascii=False)}\n")


# ----- argument parsing -------------------------------------------------------


def _csv(text: str) -> list[str]:
    return [part for part in (text or "").split(",") if part]


def _parse_point(text: str):
    from .metric import Point

    if ":" in text:
        edge, _, pos = text.rpartition(":")
        return Point.interior(edge, fileio.parse_rational(pos))
    return Point.at_vertex(text)


# ----- handlers ---------------------------------------------------------------
# One per action, named in COMMANDS; dispatch checks the needed options first.


def cmd_poset_validate(args) -> RunReport:
    try:
        p = fileio.resolve(args.poset, "poset")
    except FormatError:
        raise
    except ToolError as exc:
        return RunReport("fail", witnesses=[{"error": type(exc).__name__,
                                             "detail": str(exc)}])
    return RunReport("pass", data={
        "elements": len(p.elements), "covers": sum(map(len, p._up_ix))})


def cmd_poset_stats(args) -> RunReport:
    p = fileio.resolve(args.poset, "poset")
    data = {
        **fileio.poset_to_doc(p),
        "max": p.max_elements(),
        "min": p.min_elements(),
        "connected": p.is_connected(),
    }
    try:
        rank = posets.rank_check(p)
        data.update(graded=True, dim=rank.dim, pure=rank.pure, rank=rank.rank)
        data["strongly_connected"] = posets.connectivity(p, "strong").connected
    except NotGraded as exc:
        data.update(graded=False, not_graded_witness=list(exc.pair))
    return RunReport("pass", data=data)


def cmd_poset_upsets(args) -> RunReport:
    p = fileio.resolve(args.poset, "poset")
    # bitsets until the walk is done, so a walk cut short by its guard
    # has not built its up-sets as lists of names
    ups = [up for up, _ in posets.up_set_walk(p, connected_only=args.connected,
                                              limit=args.oracle_limit)]
    return RunReport("pass", data={
        "count": len(ups),
        "up_sets": sorted([list(p._labels(u)) for u in ups]),
    })


def cmd_morphism_check(args) -> RunReport:
    try:
        phi = fileio.resolve(args.morphism, "morphism")
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
    from . import covers

    phi = fileio.resolve(args.morphism, "morphism")
    m = fileio.resolve_index(args.index, phi.source)
    check = {"balanced": covers.is_balanced,
             "ibc": covers.is_ibc,
             "ibc-oracle": lambda phi, m: covers.is_ibc_oracle(phi, m, limit=args.oracle_limit),
             }[args.action](phi, m)
    return RunReport("pass" if check else "fail", witnesses=list(check.witnesses))


def cmd_cover_degree(args) -> RunReport:
    from . import covers

    phi = fileio.resolve(args.morphism, "morphism")
    report = covers.global_degree(phi, fileio.resolve_index(args.index, phi.source))
    data = {"per_target": report.per_target_value,
            "constant": report.constant}
    # the degree of each component, listed when the target has several
    if report.per_component is not None and len(report.per_component) > 1:
        data["per_component"] = [{"elements": sorted(comp), "degree": d}
                                 for comp, d in report.per_component]
    if report.constant:
        data["degree"] = report.degree
        return RunReport("pass", data=data)
    return RunReport("fail", data=data,
                     witnesses=[{"per_target": data["per_target"]}])


def cmd_cover_search(args) -> RunReport:
    from . import covers

    bound = covers.DEFAULT_SEARCH_BOUND if args.bound is None else args.bound
    found = covers.search_balanced(fileio.resolve(args.morphism, "morphism"), bound=bound)
    if found is None:
        return RunReport("fail",
                         witnesses=[{"result": "NoneFound", "bound": bound}])
    return RunReport("pass", data={"values": found.values})


def cmd_extend(args) -> RunReport:
    from . import extend

    phi = fileio.resolve(args.morphism, "morphism")
    m = fileio.resolve_index(args.index, phi.source)
    target_upset = (phi.source.up_set(_csv(args.upset))
                    if args.upset else frozenset(phi.source.elements))
    report = extend.extend_balanced(phi, m, target_upset)
    assigned = {k: v for k, v in report.extended.values.items() if k not in m.domain}
    data = {"mode": report.mode, "assigned": assigned}
    if report.conflicts:
        return RunReport("fail", witnesses=list(report.conflicts), data=data)
    return RunReport("pass", data=data)


def cmd_lift(args) -> RunReport:
    from . import extend

    phi = fileio.resolve(args.morphism, "morphism")
    m = fileio.resolve_index(args.index, phi.source)
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
    report = posets.connectivity(fileio.resolve(args.poset, "poset"), "codim", args.k)
    if report.connected:
        return RunReport("pass", data={"k": args.k})
    return RunReport("fail", data={"k": args.k},
                     witnesses=[{"components": [sorted(c) for c in report.components]}])


def cmd_connect_strong(args) -> RunReport:
    report = posets.connectivity(fileio.resolve(args.poset, "poset"), "strong")
    if report.connected:
        return RunReport("pass")
    return RunReport("fail", witnesses=[{
        "witness": report.witness,
        "components": [sorted(c) for c in report.components]}])


def cmd_connect_lifting(args) -> RunReport:
    from . import extend

    if args.mode == "codim" and args.k is None:
        raise FormatError("this action needs --k")
    phi = fileio.resolve(args.morphism, "morphism")
    m = fileio.resolve_index(args.index, phi.source)
    report = extend.check_connectivity_lifting(phi, m, args.mode, k=args.k)
    data = {"hypotheses": report.hypotheses,
            "conclusion": report.conclusion_holds,
            "fibre_witness": report.witness_fibre}
    if report.hypotheses_hold and report.conclusion_holds:
        return RunReport("pass", data=data)
    return RunReport("fail", data=data,
                     witnesses=[{"hypotheses": report.hypotheses}])


def cmd_subdivide_bcs(args) -> RunReport:
    from . import subdivision

    if args.morphism:
        bcs = subdivision.bcs_morphism(fileio.resolve(args.morphism, "morphism"))
        return RunReport("pass", data={
            "source_chains": len(bcs.source.elements),
            "target_chains": len(bcs.target.elements),
            "combinatorial": bool(bcs.is_combinatorial()),
            "morphism": fileio.morphism_to_doc(bcs),
        })
    chains = subdivision.chain_poset(fileio.resolve(args.poset, "poset"))
    return RunReport("pass", data={
        "chains": len(chains.poset.elements),
        "poset": fileio.poset_to_doc(chains.poset),
    })


def cmd_subdivide_stellar(args) -> RunReport:
    from . import subdivision

    k = fileio.resolve(args.complex, "simplicial complex")
    result = subdivision.stellar_subdivide(k, frozenset(_csv(args.face)), args.vertex)
    return RunReport("pass", data={
        "faces_before": len(k),
        "faces_after": len(result),
        "complex": fileio.complex_to_doc(result),
    })


def cmd_graph_refine(args) -> RunReport:
    from . import metric

    ref = metric.refine_to_combinatorial(fileio.resolve(args.morphism, "metric graph morphism"))
    return RunReport("pass", data={
        "new_target_vertices": {k: [v[0], fileio.format_rational(v[1])]
                                for k, v in ref.new_target_vertices.items()},
        "new_source_vertices": {k: [v[0], fileio.format_rational(v[1])]
                                for k, v in ref.new_source_vertices.items()},
        "target_pieces": {k: list(v) for k, v in ref.target_pieces.items()},
        "source_pieces": {k: list(v) for k, v in ref.source_pieces.items()},
        "morphism": fileio.metric_morphism_to_doc(ref.morphism),
    })


def cmd_graph_sample(args) -> RunReport:
    from . import metric

    phi = fileio.resolve(args.morphism, "metric graph morphism")
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
    from . import metric

    if args.morphism:
        pm = metric.morphism_face_poset(fileio.resolve(args.morphism, "metric graph morphism"))
        return RunReport("pass", data={"morphism": fileio.morphism_to_doc(pm)})
    graph = fileio.resolve(args.graph, "metric graph")
    return RunReport("pass", data={
        "poset": fileio.poset_to_doc(metric.graph_face_poset(graph), with_rank=True)})


# one fibre sample per point; 10 000 points take about 0.4 s in process on
# FIX-GRAPH (median of 9, Python 3.11, 2-vCPU Xeon VM) and print 2.3 MB
RANDOM_POINT_LIMIT = 10_000


def _random_points(graph, count: int, seed: int) -> list:
    from fractions import Fraction
    from random import Random

    from .metric import Point

    if count < 1:
        raise FormatError(f"--random must be at least 1, got {count}")
    if count > RANDOM_POINT_LIMIT:
        raise OracleSizeExceeded(count, RANDOM_POINT_LIMIT, "--random")
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
    from . import dot

    obj = (fileio.resolve(args.morphism, "morphism") if args.morphism
           else fileio.resolve(args.poset, "poset"))
    return RunReport("pass", data={"dot": dot.export_dot(obj, args.kind)})


def cmd_fixtures_list(args) -> RunReport:
    from . import fixtures

    listing = {name: type(fixtures.load_fixture(name)).__name__ for name in fixtures.FIXTURES}
    return RunReport("pass", data={"fixtures": listing})


def cmd_fixtures_run(args) -> RunReport:
    from . import fixtures

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
        ("--bound", {"type": int}), ORACLE_LIMIT]),
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
    }, [POSET, MORPHISM, ("--kind", {"choices": list(posets.GRAPH_KINDS), "default": "hasse"})]),
    "fixtures": Command("list or re-verify the bundled fixtures", {
        "list": ("cmd_fixtures_list", ()),
        "run": ("cmd_fixtures_run", ()),
    }, [("names", {"nargs": "*"})]),
}


@cache
def shared_parser() -> argparse.ArgumentParser:
    """The parser of COMMANDS, built on first use and then shared by every
    main() call and fixture row of the process."""
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
    return report._replace(command=args.command if action is None
                           else f"{args.command} {action}"), code


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
