"""Command-line interface.

Exit codes: 0 when the checked property holds, 1 when it fails (witnesses
are emitted), 2 for input or usage errors, 3 for an internal error (a
structured report, no traceback).  ``--format machine`` prints a
canonical JSON report; identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
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


def _need(args, *names):
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise FormatError(f"this action needs --{name}")


def _parse_point(text: str) -> Point:
    if ":" in text:
        edge, _, pos = text.rpartition(":")
        return Point.interior(edge, fileio.parse_rational(pos))
    return Point.at_vertex(text)


# ----- handlers ---------------------------------------------------------------


def cmd_poset(args) -> RunReport:
    if args.action == "validate":
        try:
            p = resolve_poset(args.poset)
        except FormatError:
            raise
        except ToolError as exc:
            return RunReport("fail", witnesses=[{"error": type(exc).__name__,
                                                 "detail": str(exc)}])
        return RunReport("pass", data={
            "elements": len(p.elements), "covers": len(p.covers)})
    p = resolve_poset(args.poset)
    if args.action == "stats":
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
    if args.action == "upsets":
        # bitsets until the walk is done, so a walk cut short by its guard
        # has not built its up-sets as lists of names
        ups = list(posets.up_set_bits(p, connected_only=args.connected,
                                      limit=args.oracle_limit))
        return RunReport("pass", data={
            "count": len(ups),
            "up_sets": sorted([list(p._labels(u)) for u in ups]),
        })
    raise FormatError(f"unknown poset action {args.action!r}")


def cmd_morphism(args) -> RunReport:
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


def cmd_cover(args) -> RunReport:
    phi = resolve_morphism(args.morphism)
    if args.action != "search":
        _need(args, "index")
    if args.action == "search":
        found = covers.search_balanced(phi, bound=args.bound)
        if found is None:
            return RunReport("fail",
                             witnesses=[{"result": "NoneFound", "bound": args.bound}])
        return RunReport("pass", data={"values": dict(sorted(found.values.items()))})
    m = resolve_index(args.index, phi.source)
    if args.action == "balanced":
        check = covers.is_balanced(phi, m)
        return RunReport("pass" if check else "fail",
                         witnesses=list(check.witnesses))
    if args.action == "ibc":
        check = covers.is_ibc(phi, m)
        return RunReport("pass" if check else "fail",
                         witnesses=list(check.witnesses))
    if args.action == "ibc-oracle":
        check = covers.is_ibc_oracle(phi, m, limit=args.oracle_limit)
        return RunReport("pass" if check else "fail",
                         witnesses=list(check.witnesses))
    if args.action == "degree":
        report = covers.global_degree(phi, m)
        data = {"per_target": dict(sorted(report.per_target_value.items())),
                "constant": report.constant}
        if report.constant:
            data["degree"] = report.degree
            return RunReport("pass", data=data)
        return RunReport("fail", data=data,
                         witnesses=[{"per_target": data["per_target"]}])
    raise FormatError(f"unknown cover action {args.action!r}")


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
    path = _csv(args.path)
    try:
        if args.action == "up":
            lifted = extend.lift_upward_path(phi, m, args.start, path)
        else:
            lifted = extend.lift_path(phi, m, args.start, path)
    except (CorestrictionNotCombinatorial, NoLiftExists) as exc:
        return RunReport("fail", witnesses=[{
            "error": type(exc).__name__,
            "detail": getattr(exc, "witness", None) or str(exc),
        }])
    return RunReport("pass", data={
        "steps": list(lifted.steps), "directions": list(lifted.directions)})


def cmd_connect(args) -> RunReport:
    if args.action == "codimk":
        _need(args, "poset", "k")
        p = resolve_poset(args.poset)
        report = posets.connectivity(p, "codim", args.k)
        if report.connected:
            return RunReport("pass", data={"k": args.k})
        return RunReport("fail", data={"k": args.k},
                         witnesses=[{"components": [sorted(c) for c in report.components]}])
    if args.action == "strong":
        _need(args, "poset")
        p = resolve_poset(args.poset)
        report = posets.connectivity(p, "strong")
        if report.connected:
            return RunReport("pass")
        return RunReport("fail", witnesses=[{
            "witness": report.witness,
            "components": [sorted(c) for c in report.components]}])
    if args.action == "lifting":
        _need(args, "morphism", "index")
        if args.mode == "codim":
            _need(args, "k")
        phi = resolve_morphism(args.morphism)
        m = resolve_index(args.index, phi.source)
        mode = {"one-fibre": "one-fibre", "codim": "codim"}[args.mode]
        report = extend.check_connectivity_lifting(phi, m, mode, k=args.k)
        data = {"hypotheses": report.hypotheses,
                "conclusion": report.conclusion_holds,
                "fibre_witness": report.witness_fibre}
        if report.hypotheses_hold and report.conclusion_holds:
            return RunReport("pass", data=data)
        return RunReport("fail", data=data,
                         witnesses=[{"hypotheses": report.hypotheses}])
    raise FormatError(f"unknown connect action {args.action!r}")


def cmd_subdivide(args) -> RunReport:
    if args.action == "bcs":
        if args.poset is None and args.morphism is None:
            raise FormatError("this action needs --poset or --morphism")
        if args.morphism:
            phi = resolve_morphism(args.morphism)
            bcs = subdivision.bcs_morphism(phi)
            return RunReport("pass", data={
                "source_chains": len(bcs.source.elements),
                "target_chains": len(bcs.target.elements),
                "combinatorial": bool(bcs.is_combinatorial()),
                "morphism": fileio.morphism_to_doc(bcs),
            })
        p = resolve_poset(args.poset)
        chains = subdivision.chain_poset(p)
        return RunReport("pass", data={
            "chains": len(chains.poset.elements),
            "poset": fileio.poset_to_doc(chains.poset),
        })
    if args.action == "stellar":
        _need(args, "complex", "face", "vertex")
        obj = _load(args.complex)
        if not isinstance(obj, subdivision.SimplicialComplex):
            raise FormatError(f"{args.complex!r} does not describe a simplicial complex")
        face = frozenset(_csv(args.face))
        result = subdivision.stellar_subdivide(obj, face, args.vertex)
        return RunReport("pass", data={
            "faces_before": len(obj),
            "faces_after": len(result),
            "complex": fileio.complex_to_doc(result),
        })
    raise FormatError(f"unknown subdivide action {args.action!r}")


def cmd_graph(args) -> RunReport:
    if args.action == "refine":
        _need(args, "morphism")
        phi = resolve_metric_morphism(args.morphism)
        ref = metric.refine_to_combinatorial(phi)
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
    if args.action == "sample":
        _need(args, "morphism")
        phi = resolve_metric_morphism(args.morphism)
        results = []
        mismatch = []
        if args.point:
            points = [_parse_point(args.point)]
        else:
            points = _random_points(phi.target, args.random, args.seed)
        for y in points:
            sample = metric.sample_fibre(phi, y)
            entry = {"point": repr(y), "geometric": sample.geometric,
                     "poset": sample.poset, "match": sample.match}
            results.append(entry)
            if not sample.match:
                mismatch.append(entry)
        verdict = "pass" if not mismatch else "fail"
        return RunReport(verdict, witnesses=mismatch, data={"samples": results})
    if args.action == "poset":
        if args.graph is None and args.morphism is None:
            raise FormatError("this action needs --graph or --morphism")
        if args.morphism:
            phi = resolve_metric_morphism(args.morphism)
            pm = metric.morphism_face_poset(phi)
            return RunReport("pass", data={"morphism": fileio.morphism_to_doc(pm)})
        obj = _load(args.graph)
        if isinstance(obj, MetricGraphMorphism):
            obj = obj.source
        if not isinstance(obj, MetricGraph):
            raise FormatError(f"{args.graph!r} does not describe a metric graph")
        return RunReport("pass", data={
            "poset": fileio.poset_to_doc(metric.graph_face_poset(obj), with_rank=True)})
    raise FormatError(f"unknown graph action {args.action!r}")


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


def cmd_export(args) -> RunReport:
    if args.poset is None and args.morphism is None:
        raise FormatError("this action needs --poset or --morphism")
    name = args.morphism or args.poset
    obj = resolve_morphism(name) if args.morphism else resolve_poset(name)
    text = dot.export_dot(obj, args.kind)
    return RunReport("pass", data={"dot": text})


def cmd_fixtures(args) -> RunReport:
    if args.action == "list":
        listing = {name: type(fixtures.load_fixture(name)).__name__
                   for name in sorted(fixtures.FIXTURES)}
        return RunReport("pass", data={"fixtures": listing})
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


# ----- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetcover",
        description="Indexed branched covers of finite posets: checks, "
                    "extension, lifting, subdivision, refinement.",
    )
    parser.add_argument("--format", choices=["human", "machine"], default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="validate, inspect, or enumerate up-sets")
    p.add_argument("action", choices=["validate", "stats", "upsets"])
    p.add_argument("poset")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--oracle-limit", type=int, default=posets.DEFAULT_ORACLE_LIMIT)

    p = sub.add_parser("morphism", help="check monotone, combinatorial, open")
    p.add_argument("action", choices=["check"])
    p.add_argument("--morphism", required=True)

    p = sub.add_parser("cover", help="balancing and branched-cover decisions")
    p.add_argument("action", choices=["balanced", "ibc", "ibc-oracle", "degree", "search"])
    p.add_argument("--morphism", required=True)
    p.add_argument("--index")
    p.add_argument("--bound", type=int, default=covers.DEFAULT_SEARCH_BOUND)
    p.add_argument("--oracle-limit", type=int, default=posets.DEFAULT_ORACLE_LIMIT)

    p = sub.add_parser("extend", help="extend a balanced map over a larger up-set")
    p.add_argument("--morphism", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--upset", help="comma-separated generators; default whole source")

    p = sub.add_parser("lift", help="lift paths along a balanced map")
    p.add_argument("action", choices=["up", "path"])
    p.add_argument("--morphism", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--path", required=True, help="comma-separated target elements")

    p = sub.add_parser("connect", help="connectivity checks and lifting")
    p.add_argument("action", choices=["codimk", "strong", "lifting"])
    p.add_argument("--poset")
    p.add_argument("--morphism")
    p.add_argument("--index")
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=["one-fibre", "codim"], default="one-fibre")

    p = sub.add_parser("subdivide", help="barycentric and stellar subdivision")
    p.add_argument("action", choices=["bcs", "stellar"])
    p.add_argument("--poset")
    p.add_argument("--morphism")
    p.add_argument("--complex")
    p.add_argument("--face", help="comma-separated vertices of the subdivided face")
    p.add_argument("--vertex", help="name of the new vertex")

    p = sub.add_parser("graph", help="metric graph refinement and sampling")
    p.add_argument("action", choices=["refine", "sample", "poset"])
    p.add_argument("--morphism")
    p.add_argument("--graph")
    p.add_argument("--point", help="vertex name or edge:pos with pos rational")
    p.add_argument("--random", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("export", help="emit DOT text")
    p.add_argument("action", choices=["dot"])
    p.add_argument("--poset")
    p.add_argument("--morphism")
    p.add_argument("--kind", choices=list(dot.KINDS), default="hasse")

    p = sub.add_parser("fixtures", help="list or re-verify the bundled fixtures")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("names", nargs="*")

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
    """Run the parsed command's handler, ``cmd_<command>``; return its
    report, labelled with the command, and the exit code.  The handler is
    looked up at each call, not bound into the shared parser."""
    try:
        report = globals()[f"cmd_{args.command}"](args)
        code = {"pass": 0, "fail": 1}[report.verdict]
    except Exception as exc:
        report = RunReport("error", witnesses=[{"error": type(exc).__name__, "detail": str(exc)}])
        # bad input raises one of these; anything else is a fault of this program
        code = 2 if isinstance(exc, (ToolError, OSError, ValueError)) else 3
    report.command = f"{args.command} {getattr(args, 'action', '')}".strip()
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
