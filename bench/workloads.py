"""The four benchmark workloads.

Each workload builds a pool of raw instances from the seed, runs one
instance from raw lists to all its verdicts (the timed part), and checks
the verdicts against answers known without the code under test (untimed).
Every call into the package goes through ``tracer.call`` under a
``module.function`` name, so a traced run can time each layer.

Instance sizes follow a fixed schedule that the seed does not change; the
seed draws everything else (gluings, perturbations, cut points, walks).
That keeps the mix of sizes the same from run to run, and the schedule
spans a range of sizes so growth with size shows in the traced run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from random import Random

import inputs
import known
from posetcover import covers, extend, fileio, metric, morphisms, posets, subdivision

ROOT = Path(__file__).resolve().parent.parent


class Workload:
    """A named workload: ``build(seed, out_dir)`` makes the state holding the
    pool and the ``round`` (instances per pass over the size schedule; a
    run ends on a whole pass); ``run(raw, tracer, state)`` is one timed
    instance; ``check(raw, out, counts, state)`` returns the problems found."""

    name = ""

    def build(self, seed: int, out_dir: Path) -> dict:
        raise NotImplementedError

    def run(self, raw, tracer, state):
        raise NotImplementedError

    def check(self, raw, out, counts, state) -> list:
        raise NotImplementedError

    def sizes(self, state) -> dict:
        """Input-size summary of the pool.  ``size`` is source elements for
        the poset workloads, source edges for metric-refine and input bytes
        for cli-mixed."""
        pool = state["pool"]
        keys = ("size", "target", "covers", "free_count", "sheets", "target_cuts")
        summary = {"pool": len(pool)}
        for key in keys:
            vals = [raw[key] for raw in pool if key in raw]
            if vals:
                summary[key] = {"min": min(vals), "max": max(vals),
                                "mean": round(sum(vals) / len(vals), 2)}
        return summary


def _morphism_summary(raw):
    raw["target"] = len(raw["t_elements"])
    raw["covers"] = len(raw["s_covers"])
    raw["free_count"] = len(raw["free"])
    return raw


def _build_morphism(raw, tracer):
    target = tracer.call("posets.build", posets.Poset, raw["t_elements"], raw["t_covers"])
    source = target if raw["identity"] else tracer.call(
        "posets.build", posets.Poset, raw["s_elements"], raw["s_covers"])
    phi = tracer.call("morphisms.build", morphisms.PosetMorphism, source, target, raw["mapping"])
    return target, source, phi


def _count_built(raw, counts):
    counts["posets.elements_built"] += len(raw["t_elements"]) + (
        0 if raw["identity"] else len(raw["s_elements"]))


def _check_balancing(raw, out, problems):
    own = known.balance_violations(raw["s_covers"], raw["mapping"], raw["t_covers"],
                                   raw["perturbed"])
    if not out["balanced"].ok:
        problems.append("balanced map reported unbalanced")
    if out["balanced_p"].ok or {tuple(w) for w in out["balanced_p"].witnesses} != own:
        problems.append("perturbed map: balancing witnesses differ from the known violations")
    if not out["ibc"].ok:
        problems.append("balanced gluing reported not an indexed branched cover")
    if out["ibc_p"].ok:
        problems.append("perturbed map reported an indexed branched cover")


def _check_extension(raw, report, problems):
    if report.conflicts or report.unconstrained:
        problems.append("extension of the top-only map reported conflicts")
    if report.extended.values != raw["values"]:
        problems.append("extension of the top-only map differs from the pushed-down map")
    mode = "guaranteed" if raw["guaranteed"] else "opportunistic"
    if report.mode != mode:
        problems.append(f"extension mode {report.mode}, expected {mode}")


# ----- order-large -------------------------------------------------------------

# Complete layered posets (width, ranks) and chains (length).  The caps keep
# an instance near 0.1 s so a run holds at least 100 instances:
# is_combinatorial compares every pair in every principal down-set, which is
# cubic on chains and grows as width^2 * ranks^3 on layered posets.
ORDER_SHAPES = [
    ("layered", 10, 3), ("chain", 30), ("layered", 15, 3), ("layered", 10, 4),
    ("chain", 45), ("layered", 12, 4), ("layered", 20, 3), ("layered", 10, 5),
    ("chain", 60), ("layered", 10, 6),
]
ORDER_SHEETS = (1, 2, 3)
ORDER_POOL = 8 * len(ORDER_SHAPES) * len(ORDER_SHEETS)


class OrderLarge(Workload):
    name = "order-large"

    def build(self, seed, out_dir):
        rng = Random(f"order-large/{seed}")
        pool = []
        for i in range(ORDER_POOL):
            shape = ORDER_SHAPES[i % len(ORDER_SHAPES)]
            sheets = ORDER_SHEETS[(i // len(ORDER_SHAPES)) % len(ORDER_SHEETS)]
            target = inputs.layered(*shape[1:]) if shape[0] == "layered" else inputs.chain(shape[1])
            raw = inputs.morphism_instance(rng, target, sheets, merge_p=0.3,
                                           top_blocks=(sheets, sheets))
            raw["top_values"] = {x: raw["values"][x] for x in raw["free"]}
            raw["guaranteed"] = known.extension_guaranteed(raw["t_elements"], raw["t_covers"])
            pool.append(_morphism_summary(raw))
        return {"pool": pool, "round": len(ORDER_SHAPES) * len(ORDER_SHEETS)}

    def run(self, raw, tracer, state):
        call = tracer.call
        target, source, phi = _build_morphism(raw, tracer)
        m = call("covers.index_map_build", covers.IndexMap, source, raw["values"])
        mp = call("covers.index_map_build", covers.IndexMap, source, raw["perturbed"])
        top = call("covers.index_map_build", covers.IndexMap, source, raw["top_values"])
        return {
            "combinatorial": call("morphisms.is_combinatorial", phi.is_combinatorial),
            "open": call("morphisms.is_open", phi.is_open),
            "balanced": call("covers.is_balanced", covers.is_balanced, phi, m),
            "balanced_p": call("covers.is_balanced", covers.is_balanced, phi, mp),
            "ibc": call("covers.is_ibc", covers.is_ibc, phi, m),
            "ibc_p": call("covers.is_ibc", covers.is_ibc, phi, mp),
            "degree": call("covers.global_degree", covers.global_degree, phi, m),
            "degree_p": call("covers.global_degree", covers.global_degree, phi, mp),
            "components": call("posets.components", source.components),
            "rank": call("posets.rank_check", posets.rank_check, source),
            "strong": call("posets.connectivity", posets.connectivity, target, "strong"),
            "extension": call("extend.extend_balanced", extend.extend_balanced,
                              phi, top, source.elements),
        }

    def check(self, raw, out, counts, state):
        problems = []
        _count_built(raw, counts)
        if not out["combinatorial"].ok:
            problems.append("gluing reported not combinatorial")
        if not out["open"].ok:
            problems.append("gluing reported not open")
        _check_balancing(raw, out, problems)
        degree = out["degree"]
        if not degree.constant or degree.degree != raw["degree"]:
            problems.append(f"global degree {degree.degree}, expected {raw['degree']}")
        if out["degree_p"].constant:
            problems.append("perturbed map reported a constant degree")
        own = inputs.component_sets(raw["s_elements"], raw["s_covers"])
        if out["components"] != own:
            problems.append("source components differ from union-find")
        if out["rank"].rank != raw["rank"]:
            problems.append("source rank function differs from the construction")
        if not out["strong"].connected:
            problems.append("complete layered poset or chain reported not strongly connected")
        _check_extension(raw, out["extension"], problems)
        return problems


# ----- covers-small ------------------------------------------------------------

# Target sizes (elements) and sheet counts.  Targets have at most 16
# elements because is_ibc_oracle refuses larger ones (its oracle limit), at
# most 5 per level, and 2-4 ranks.  The search runs with bound 3 over
# bound^free states and no pruning (the package's state guard is 10^6), so
# gluings are redrawn until at most FREE_CAP source elements lie over
# maximal target elements.
COVER_SIZES = (6, 8, 10, 12, 14, 16)
COVER_SHEETS = (2, 3, 4)
SEARCH_BOUND = 3
FREE_CAP = 6
COVER_POOL = 24 * len(COVER_SIZES) * len(COVER_SHEETS)


class CoversSmall(Workload):
    name = "covers-small"

    def build(self, seed, out_dir):
        rng = Random(f"covers-small/{seed}")
        pool = []
        for i in range(COVER_POOL):
            size = COVER_SIZES[i % len(COVER_SIZES)]
            sheets = COVER_SHEETS[(i // len(COVER_SIZES)) % len(COVER_SHEETS)]
            while True:
                ranks = rng.randint(max(2, -(-size // 5)), 4)
                target = inputs.random_target(rng, size, max_width=5, ranks=ranks)
                weights = [rng.randint(1, 2) for _ in range(sheets)]
                raw = inputs.morphism_instance(rng, target, sheets, merge_p=0.3,
                                               top_blocks=(1, 2), weights=weights)
                if len(raw["free"]) <= FREE_CAP:
                    break
            raw["top_values"] = {x: raw["values"][x] for x in raw["free"]}
            raw["guaranteed"] = known.extension_guaranteed(raw["t_elements"], raw["t_covers"])
            start = rng.choice(raw["s_elements"])
            raw["lift_start"] = start
            raw["walk"] = inputs.cover_walk(rng, raw["t_elements"], raw["t_covers"],
                                            raw["mapping"][start], steps=4)
            pool.append(_morphism_summary(raw))
        return {"pool": pool, "round": len(COVER_SIZES) * len(COVER_SHEETS),
                "oracles": known.load_oracles()}

    def run(self, raw, tracer, state):
        call = tracer.call
        target, source, phi = _build_morphism(raw, tracer)
        m = call("covers.index_map_build", covers.IndexMap, source, raw["values"])
        mp = call("covers.index_map_build", covers.IndexMap, source, raw["perturbed"])
        top = call("covers.index_map_build", covers.IndexMap, source, raw["top_values"])
        return {
            "balanced": call("covers.is_balanced", covers.is_balanced, phi, m),
            "balanced_p": call("covers.is_balanced", covers.is_balanced, phi, mp),
            "ibc": call("covers.is_ibc", covers.is_ibc, phi, m),
            "ibc_p": call("covers.is_ibc", covers.is_ibc, phi, mp),
            "oracle": call("covers.is_ibc_oracle", covers.is_ibc_oracle, phi, m),
            "oracle_p": call("covers.is_ibc_oracle", covers.is_ibc_oracle, phi, mp),
            "search": call("covers.search_balanced", covers.search_balanced, phi,
                           bound=SEARCH_BOUND),
            "extension": call("extend.extend_balanced", extend.extend_balanced,
                              phi, top, source.elements),
            "lift": call("extend.lift_path", extend.lift_path, phi, m,
                         raw["lift_start"], raw["walk"]),
            "lifting": call("extend.connectivity_lifting", extend.check_connectivity_lifting,
                            phi, m, "one-fibre"),
            "target_chains": call("subdivision.chain_poset", subdivision.chain_poset, target),
            "bcs": call("subdivision.bcs_morphism", subdivision.bcs_morphism, phi),
        }

    def check(self, raw, out, counts, state):
        problems = []
        _count_built(raw, counts)
        _check_balancing(raw, out, problems)
        if out["oracle"].ok != out["ibc"].ok or out["oracle_p"].ok != out["ibc_p"].ok:
            problems.append("is_ibc disagrees with is_ibc_oracle")
        mapping = raw["mapping"]

        found = out["search"]
        counts["covers.search_attempts"] += 1
        if found is None:
            if max(raw["values"].values()) <= SEARCH_BOUND:
                problems.append("search found nothing though a balanced map fits the bound")
        else:
            counts["covers.search_found"] += 1
            values = found.values
            if (set(values) != set(raw["s_elements"])
                    or not all(1 <= v <= SEARCH_BOUND for v in values.values())
                    or known.balance_violations(raw["s_covers"], mapping, raw["t_covers"], values)):
                problems.append("search returned a map the independent balancing check rejects")

        report = out["extension"]
        counts["extend.attempts"] += 1
        counts["extend.guaranteed"] += report.mode == "guaranteed"
        _check_extension(raw, report, problems)

        walk, steps = raw["walk"], out["lift"].steps
        s_covers = set(raw["s_covers"])
        t_covers = set(raw["t_covers"])
        if (len(steps) != len(walk)
                or any(mapping[x] != b for x, b in zip(steps, walk))
                or any(((x, y) in s_covers) != ((a, b) in t_covers)
                       or ((y, x) in s_covers) != ((b, a) in t_covers)
                       for x, y, a, b in zip(steps, steps[1:], walk, walk[1:]))):
            problems.append("lifted path does not follow the target walk cover by cover")

        lifting = out["lifting"]
        single = sorted(b for b in raw["t_elements"]
                        if sum(1 for x in raw["s_elements"] if mapping[x] == b) == 1)
        source_connected = len(inputs.component_sets(raw["s_elements"], raw["s_covers"])) == 1
        expected = {"image connected": True, "some fibre connected": bool(single)}
        if (lifting.hypotheses != expected
                or lifting.witness_fibre != (single[0] if single else None)
                or lifting.conclusion_holds != source_connected):
            problems.append("connectivity-lifting report differs from the known answer")

        brute = set(state["oracles"].brute_chains(raw["t_elements"], raw["t_covers"]))
        built = {frozenset(c) for c in out["target_chains"].chain_of.values()}
        if built != brute:
            problems.append("chain_poset of the target differs from brute_chains")
        # chains topped at a source element correspond to chains topped at
        # its image, through the down-set isomorphism of a gluing
        rank = raw["rank"]
        t_rank = {mapping[x]: r for x, r in rank.items()}
        topped = {}
        for c in brute:
            top = max(c, key=t_rank.__getitem__)
            topped[top] = topped.get(top, 0) + 1
        bcs = out["bcs"]
        if (len(bcs.target.elements) != len(brute)
                or len(bcs.source.elements) != sum(topped[mapping[x]] for x in raw["s_elements"])):
            problems.append("barycentric subdivision chain counts differ from brute_chains")
        counts["subdivision.chains_built"] += (len(bcs.source.elements) + len(bcs.target.elements)
                                               + len(out["target_chains"].chain_of))
        return problems


# ----- metric-refine -----------------------------------------------------------

# Cycle targets (edges) and sheet counts.  sample_fibre rebuilds both face
# posets on every call, so SAMPLES points per instance keep it a share of
# the instance rather than all of it.
METRIC_EDGES = (10, 20, 30, 40, 50)
METRIC_SHEETS = (2, 3)
SAMPLES = 8
METRIC_POOL = 30 * len(METRIC_EDGES) * len(METRIC_SHEETS)


def _point(image):
    edge, pos = image
    return metric.Point.at_vertex(edge) if pos is None else metric.Point.interior(edge, pos)


def _build_metric(raw):
    target = metric.MetricGraph(raw["t_vertices"], raw["t_edges"])
    source = metric.MetricGraph(raw["s_vertices"], raw["s_edges"])
    images = {v: _point(img) for v, img in raw["vertex_images"].items()}
    return metric.MetricGraphMorphism(source, target, images, raw["edge_images"])


def _refined_point(raw, refinement, edge, pos):
    """A point of the original target, in the refined target."""
    cuts = raw["cuts"].get(edge, [])
    if pos in cuts:
        name = next(n for n, key in refinement.new_target_vertices.items() if key == (edge, pos))
        return metric.Point.at_vertex(name)
    idx = sum(1 for c in cuts if c < pos)
    base = cuts[idx - 1] if idx else Fraction(0)
    return metric.Point.interior(refinement.target_pieces[edge][idx], pos - base)


class MetricRefine(Workload):
    name = "metric-refine"

    def build(self, seed, out_dir):
        rng = Random(f"metric-refine/{seed}")
        pool = []
        for i in range(METRIC_POOL):
            edges = METRIC_EDGES[i % len(METRIC_EDGES)]
            sheets = METRIC_SHEETS[(i // len(METRIC_EDGES)) % len(METRIC_SHEETS)]
            raw = inputs.metric_instance(rng, edges, sheets, SAMPLES)
            raw["target"] = len(raw["t_edges"])
            pool.append(raw)
        return {"pool": pool, "round": len(METRIC_EDGES) * len(METRIC_SHEETS)}

    def run(self, raw, tracer, state):
        call = tracer.call
        phi = call("metric.build", _build_metric, raw)
        refinement = call("metric.refine", metric.refine_to_combinatorial, phi)
        face = call("metric.face_poset", metric.morphism_face_poset, phi)
        half = len(raw["points"]) // 2
        samples = [call("metric.sample_fibre", metric.sample_fibre, phi, metric.Point.interior(*p))
                   for p in raw["points"][:half]]
        refined = refinement.morphism
        samples += [call("metric.sample_fibre", metric.sample_fibre, refined,
                         _refined_point(raw, refinement, *p))
                    for p in raw["points"][half:]]
        text = call("fileio.dump", lambda: fileio.dumps(fileio.metric_morphism_to_doc(refined)))
        loaded = call("fileio.load",
                      lambda: fileio.metric_morphism_from_doc(json.loads(text)))
        return {"refinement": refinement, "face": face, "samples": samples,
                "half": half, "text": text, "loaded": loaded}

    def check(self, raw, out, counts, state):
        problems = []
        ref = out["refinement"]
        sheets = raw["sheets"]
        n_edges = len(raw["t_edges"])
        if (len(ref.new_target_vertices) != raw["target_cuts"]
                or len(ref.new_source_vertices) != raw["source_cuts"]):
            problems.append("refinement made a different number of cuts than the construction")
        if (len(ref.target.edges) != n_edges + raw["target_cuts"]
                or len(ref.source.edges) != len(raw["s_edges"]) + raw["source_cuts"]):
            problems.append("refined graphs have the wrong number of edges")
        face = out["face"]
        if (len(face.source) != len(raw["s_vertices"]) + len(raw["s_edges"])
                or len(face.target) != 2 * n_edges):
            problems.append("face posets have the wrong number of cells")
        for i, sample in enumerate(out["samples"]):
            if sample.geometric != sheets:
                problems.append(f"geometric fibre {sample.geometric}, expected {sheets}")
            elif i >= out["half"] and not sample.match:
                problems.append("refined morphism's poset fibre differs from the geometric fibre")
        text = out["text"]
        if fileio.dumps(fileio.metric_morphism_to_doc(out["loaded"])) != text:
            problems.append("metric morphism document does not round-trip byte for byte")
        counts["metric.cuts"] += raw["target_cuts"] + raw["source_cuts"]
        counts["metric.samples"] += len(out["samples"])
        counts["fileio.bytes"] += len(text.encode("utf-8"))
        # face posets built inside the calls: once by morphism_face_poset,
        # once by the refinement, and both sides on every sample
        original = len(face.source) + len(face.target)
        refined = (len(raw["s_vertices"]) + len(raw["s_edges"]) + 2 * raw["source_cuts"]
                   + 2 * (n_edges + raw["target_cuts"]))
        half = out["half"]
        counts["posets.elements_built"] += (original * (1 + half)
                                            + refined * (1 + len(out["samples"]) - half))
        return problems


# ----- cli-mixed ---------------------------------------------------------------

# Generated inputs: CLI_SETS morphisms onto connected graded targets of
# CLI_TARGET elements with CLI_SHEETS sheets, each with a balanced and a
# perturbed index map, plus one metric cycle cover per set.  At these sizes
# the handler costs less than process start-up, so start-up changes show.
CLI_SETS = 3
CLI_TARGET = 10
CLI_SHEETS = 3
CLI_METRIC_EDGES = 8
CLI_REPEATS = 4

# Bundled fixtures with verdicts stated by the paper's examples.
CLI_FIXTURE_SPECS = [
    (["morphism", "check", "--morphism", "FIX-TROP"], 0),
    (["morphism", "check", "--morphism", "FIX-CE1"], 1),
    (["cover", "balanced", "--morphism", "FIX-CE2", "--index", "FIX-CE2-M"], 1),
    (["cover", "ibc", "--morphism", "FIX-TROP", "--index", "FIX-TROP-M"], 0),
    (["fixtures", "run"], 0),
    (["graph", "refine", "--morphism", "FIX-GRAPH"], 0),
]


def _write(path: Path, doc):
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


class CliMixed(Workload):
    name = "cli-mixed"

    def build(self, seed, out_dir):
        rng = Random(f"cli-mixed/{seed}")
        files = out_dir / f"cli-{seed}"
        files.mkdir(parents=True, exist_ok=True)
        specs = []
        for k in range(CLI_SETS):
            target = inputs.random_target(rng, CLI_TARGET, max_width=5, ranks=4)
            raw = inputs.morphism_instance(rng, target, CLI_SHEETS, merge_p=0.3,
                                           top_blocks=(1, 2))
            m_path = _write(files / f"morphism{k}.json", {
                "source": {"elements": raw["s_elements"], "covers": raw["s_covers"]},
                "target": {"elements": raw["t_elements"], "covers": raw["t_covers"]},
                "map": raw["mapping"],
            })
            bal = _write(files / f"balanced{k}.json", {"values": raw["values"]})
            pert = _write(files / f"perturbed{k}.json", {"values": raw["perturbed"]})
            poset = _write(files / f"poset{k}.json",
                           {"elements": raw["s_elements"], "covers": raw["s_covers"]})
            graph = inputs.metric_instance(rng, CLI_METRIC_EDGES, 2, 0)
            g_path = _write(files / f"metric{k}.json", _metric_doc(graph))
            facts = {"degree": raw["degree"], "elements": len(raw["s_elements"]),
                     "components": len(inputs.component_sets(raw["s_elements"], raw["s_covers"])),
                     "source_chains": known.chain_count(raw["s_elements"], raw["s_covers"]),
                     "target_chains": known.chain_count(raw["t_elements"], raw["t_covers"]),
                     "target_cuts": graph["target_cuts"], "source_cuts": graph["source_cuts"]}
            index = ["--morphism", m_path, "--index"]
            specs += [
                (["morphism", "check", "--morphism", m_path], 0, facts),
                (["cover", "balanced", *index, bal], 0, facts),
                (["cover", "balanced", *index, pert], 1, facts),
                (["cover", "ibc", *index, bal], 0, facts),
                (["cover", "ibc", *index, pert], 1, facts),
                (["cover", "degree", *index, bal], 0, facts),
                (["cover", "degree", *index, pert], 1, facts),
                (["poset", "stats", poset], 0, facts),
                (["subdivide", "bcs", "--morphism", m_path], 0, facts),
                (["export", "dot", "--morphism", m_path], 0, facts),
                (["graph", "refine", "--morphism", g_path], 0, facts),
            ]
        specs += [(args, code, None) for args, code in CLI_FIXTURE_SPECS]
        pool = [{"argv": args, "code": code, "facts": facts,
                 "size": sum(Path(a).stat().st_size for a in args if a.startswith(str(files)))}
                for args, code, facts in specs]
        # the package is run from the checkout's sources, not an installed
        # console script
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        # every spec runs CLI_REPEATS times per pass, which fixes a run at
        # one whole pass of enough samples for a steady p90
        return {"pool": pool * CLI_REPEATS, "round": len(pool) * CLI_REPEATS,
                "env": env, "outputs": {}}

    def run(self, raw, tracer, state):
        argv = [sys.executable, "-m", "posetcover.cli", "--format", "machine", *raw["argv"]]
        return tracer.call("cli.invoke", subprocess.run, argv,
                           env=state["env"], capture_output=True, timeout=120)

    def check(self, raw, out, counts, state):
        problems = []
        label = " ".join(a if len(a) < 40 else Path(a).name for a in raw["argv"])
        if out.returncode != raw["code"]:
            problems.append(f"{label}: exit {out.returncode}, expected {raw['code']}")
        first = state["outputs"].setdefault(tuple(raw["argv"]), out.stdout)
        if first != out.stdout:
            problems.append(f"{label}: output differs from the first invocation")
        counts["cli.stdout_bytes"] += len(out.stdout)
        if raw["argv"][0] == "export":
            if not out.stdout.startswith(b"digraph"):
                problems.append(f"{label}: no DOT digraph on stdout")
            return problems
        try:
            report = json.loads(out.stdout)
        except ValueError:
            return problems + [f"{label}: machine output is not JSON"]
        verdict = {0: "pass", 1: "fail"}.get(raw["code"])
        if report.get("verdict") != verdict:
            problems.append(f"{label}: verdict {report.get('verdict')}, expected {verdict}")
        facts, data = raw["facts"], report.get("data", {})
        if facts is None:
            return problems
        action = tuple(raw["argv"][:2])
        if action == ("cover", "degree") and raw["code"] == 0 and data.get("degree") != facts["degree"]:
            problems.append(f"{label}: degree {data.get('degree')}, expected {facts['degree']}")
        if action == ("poset", "stats") and (
                len(data.get("elements", ())) != facts["elements"]
                or data.get("connected") != (facts["components"] == 1)):
            problems.append(f"{label}: stats differ from the known element count or connectivity")
        if action == ("subdivide", "bcs") and (
                data.get("source_chains") != facts["source_chains"]
                or data.get("target_chains") != facts["target_chains"]
                or data.get("combinatorial") is not True):
            problems.append(f"{label}: chain counts differ from the independent count")
        if action == ("graph", "refine") and (
                len(data.get("new_target_vertices", ())) != facts["target_cuts"]
                or len(data.get("new_source_vertices", ())) != facts["source_cuts"]):
            problems.append(f"{label}: refinement cut counts differ from the construction")
        return problems

    def main_ms(self, state):
        """In-process ``cli.main(argv)`` time of every spec, stdout captured."""
        from posetcover import cli

        times = []
        for raw in state["pool"]:
            start = time.perf_counter()
            with redirect_stdout(StringIO()):
                cli.main(["--format", "machine", *raw["argv"]])
            times.append(time.perf_counter() - start)
        return times


def _metric_doc(raw):
    def rational(x):
        return str(Fraction(x))

    def point(img):
        edge, pos = img
        return edge if pos is None else {"edge": edge, "pos": rational(pos)}

    def graph(vertices, edges):
        return {"vertices": vertices,
                "edges": [{"id": e, "a": a, "b": b, "length": rational(n)} for e, a, b, n in edges]}

    return {
        "source": graph(raw["s_vertices"], raw["s_edges"]),
        "target": graph(raw["t_vertices"], raw["t_edges"]),
        "vertex_images": {v: point(img) for v, img in raw["vertex_images"].items()},
        "edge_images": {e: {"edge": t, "from": rational(s), "to": rational(f), "slope": k}
                        for e, (t, s, f, k) in raw["edge_images"].items()},
    }


WORKLOADS = {w.name: w for w in (OrderLarge(), CoversSmall(), MetricRefine(), CliMixed())}
