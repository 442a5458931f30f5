"""Layered benchmark for posetcover.

    python3 bench/run.py --workload order-large --seed 1 --seconds 20 --trace 0

Runs one workload (order-large, covers-small, metric-refine, cli-mixed) as a
closed loop with one caller: the next instance starts when the previous one
has finished and been checked.  Inputs come from the seed alone.  Each
instance goes from raw lists to all its verdicts; its verdicts are checked
against answers known without the code under test, outside the timed part.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same loop runs with a span
around every call into the package and the object holds per-layer
metrics instead.  Both write a fuller report (sizes, environment, failures,
raw wall times, and for traced runs the spans and a breakdown by
instance-size band) to ``.bench_out/`` at the root of the checkout.

Instance and per-layer times are reported at a reference machine speed
(units ``ref_ms``, ``ref_s``); set-up time stays in wall seconds.  Between
instances, outside the timed part, the loop times a fixed pure-Python
routine that shares no code with the package.  Each instance time is
scaled by REFERENCE_CALIBRATION_S over the median time of the routine in
the CALIBRATION_WINDOW runs around it, and per-layer times by the run's
median.  On a shared machine the speed of all code drifts by tens of
percent over seconds to minutes; on a 2-vCPU VM the scaling halved the
run-to-run spread of the instance times.  A change to the package moves
instance times and not the routine.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# p90 needs at least ten samples beyond it
MIN_INSTANCES = 100
SETUP_REPEATS = 3
WARMUP_INSTANCES = 2
# measuring stops here whatever the instance count, so a run ends in 180 s
LOOP_LIMIT_S = 120
OVERHEAD_INSTANCES = 10
CLI_START_REPEATS = 10
# the reference speed: roughly what calibrate() takes on a 2.1 GHz x86-64
# virtual CPU with CPython 3.11
REFERENCE_CALIBRATION_S = 0.003
CALIBRATION_WINDOW = 7

# Every span name the workloads use; each gives ``<name>_s`` (busy seconds
# per instance) and ``<name>.calls`` (calls per instance).
CALLS = [
    "posets.build", "posets.components", "posets.connectivity", "posets.rank_check",
    "morphisms.build", "morphisms.is_combinatorial", "morphisms.is_open",
    "covers.index_map_build", "covers.is_balanced", "covers.is_ibc", "covers.global_degree",
    "covers.is_ibc_oracle", "covers.search_balanced",
    "extend.extend_balanced", "extend.lift_path", "extend.connectivity_lifting",
    "subdivision.chain_poset", "subdivision.bcs_morphism",
    "metric.build", "metric.refine", "metric.face_poset", "metric.sample_fibre",
    "fileio.load", "fileio.dump",
    "cli.invoke",
]
# work counts, reported per instance
COUNTS = ["posets.elements_built", "subdivision.chains_built", "metric.cuts",
          "metric.samples", "fileio.bytes", "cli.stdout_bytes"]
# self time of each layer as a share of instance time
LAYERS = ["posets", "morphisms", "covers", "extend", "subdivision", "metric", "fileio",
          "cli", "harness"]


def calibrate():
    """Fixed interpreter-bound work like the package's own: depth-first
    searches over a dict of string-keyed adjacency tuples, with set
    membership tests, and a Fraction sum."""
    up = {f"n{i}": tuple(f"n{(i * 7 + k * 13) % 300}" for k in range(3)) for i in range(300)}
    reached = 0
    for start in sorted(up)[:20]:
        seen = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(up[x])
        reached += len(seen)
    total = Fraction(0)
    for i in range(1, 40):
        total += Fraction(i, i + 1)
    return reached, total


def _quantile(sorted_values, q):
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def git_sha():
    """The checked-out commit, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "implementation": sys.implementation.name, "git_sha": git_sha(),
        "nproc": os.cpu_count(),
    }


def measure(wl, state, tracer, counts, seconds):
    """The closed loop: instances in pool order until ``seconds`` have passed,
    at least MIN_INSTANCES ran and the last pass over the size schedule is
    complete.  Returns instance wall times, failures and calibration times."""
    pool, per_pass = state["pool"], state["round"]
    times, failures, calibration = [], [], []
    # keep the pool out of the collector's scans, so the package's own
    # garbage collections cost what they would without the benchmark
    gc.collect()
    gc.freeze()
    loop_start = time.perf_counter()
    n = 0
    while True:
        elapsed = time.perf_counter() - loop_start
        if elapsed >= LOOP_LIMIT_S or (
                elapsed >= seconds and n >= MIN_INSTANCES and n % per_pass == 0):
            break
        raw = pool[n % len(pool)]
        start = time.perf_counter()
        try:
            out = tracer.instance_span(n, wl.run, raw, tracer, state)
            problems = None
        except Exception as exc:  # any exception is a failed instance
            problems = [f"{type(exc).__name__}: {exc}"]
        times.append(time.perf_counter() - start)
        if problems is None:
            try:
                problems = wl.check(raw, out, counts, state)
            except Exception as exc:  # a malformed result is a failed instance
                problems = [f"unexpected result, check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures.append({"instance": n, "size": raw["size"], "problems": problems[:3]})
        # with the collector off, so the instance's garbage does not slow it
        gc.disable()
        start = time.perf_counter()
        calibrate()
        calibration.append(time.perf_counter() - start)
        gc.enable()
        n += 1
    return times, failures, calibration


def reference_times(times, calibration):
    """Instance times at reference speed, each scaled by the calibration
    runs around it."""
    half = CALIBRATION_WINDOW // 2
    return [t * REFERENCE_CALIBRATION_S
            / statistics.median(calibration[max(0, i - half): i + half + 1])
            for i, t in enumerate(times)]


def end_to_end(wl, times, failures, setup_s):
    """End-to-end metrics from reference-speed instance times."""
    ms = sorted(t * 1000 for t in times)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-mixed" else resource.RUSAGE_SELF
    return {
        "instances_per_s": (len(times) / sum(times), "1/ref_s"),
        "instance_ms_p50": (statistics.median(ms), "ref_ms"),
        "instance_ms_p90": (_quantile(ms, 0.9), "ref_ms"),
        "success_share": ((len(times) - len(failures)) / len(times), "share"),
        "setup_s": (setup_s, "s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }


def _subprocess_ms(argv, env, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        subprocess.run(argv, env=env, capture_output=True, check=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def trace_overhead(wl, state):
    """Paired untraced and traced runs of the first pool instances."""
    plain = traced = 0.0
    spare = Tracer(True)
    for iid, raw in enumerate(state["pool"][:OVERHEAD_INSTANCES]):
        start = time.perf_counter()
        wl.run(raw, Tracer(False), state)
        plain += time.perf_counter() - start
        start = time.perf_counter()
        spare.instance_span(iid, wl.run, raw, spare, state)
        traced += time.perf_counter() - start
    return traced / plain - 1


def per_layer(wl, state, tracer, counts, times, import_s, scale):
    """Per-layer metrics; ``scale`` converts wall time to reference time."""
    n = len(times)
    busy, calls, self_time, per_instance = tracer.summarize()
    instance_total = busy["instance"]
    metrics = {}
    for name in CALLS:
        metrics[f"{name}_s"] = (busy.get(name, 0.0) * scale / n, "ref_s/instance")
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n, "calls/instance")
    for name in COUNTS:
        metrics[name] = (counts[name] / n, "count/instance")
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (self_time.get(layer, 0.0) / instance_total, "share")
    metrics["covers.search_found_ratio"] = (
        counts["covers.search_found"] / counts["covers.search_attempts"]
        if counts["covers.search_attempts"] else 0.0, "ratio")
    metrics["extend.guaranteed_ratio"] = (
        counts["extend.guaranteed"] / counts["extend.attempts"]
        if counts["extend.attempts"] else 0.0, "ratio")

    if wl.name == "cli-mixed":
        env = state["env"]
        interpreter = _subprocess_ms([sys.executable, "-c", "pass"], env, CLI_START_REPEATS)
        with_import = _subprocess_ms([sys.executable, "-c", "import posetcover.cli"], env,
                                     CLI_START_REPEATS)
        main_ms = statistics.median(wl.main_ms(state)) * 1000
        import_ms = with_import - interpreter
        import_share = import_ms / (statistics.median(times) * 1000)
    else:
        # a library user imports once per process
        interpreter = import_ms = main_ms = 0.0
        import_share = import_s / (import_s + sum(times))
    metrics["cli.interpreter_ms"] = (interpreter * scale, "ref_ms")
    metrics["cli.import_ms"] = (import_ms * scale, "ref_ms")
    metrics["cli.main_ms"] = (main_ms * scale, "ref_ms")
    metrics["cli.import_share"] = (import_share, "share")
    metrics["trace.overhead_share"] = (trace_overhead(wl, state), "share")
    metrics["trace.instances"] = (n, "count")
    return metrics, bands(state, per_instance, times)


def bands(state, per_instance, times):
    """Layer self time per instance in three bands of instance size (the
    run's instances split into thirds by size), in wall milliseconds."""
    pool = state["pool"]
    order = sorted(range(len(times)), key=lambda i: pool[i % len(pool)]["size"])
    table = {}
    for label, part in zip(("small", "medium", "large"),
                           (order[: len(order) // 3], order[len(order) // 3: 2 * len(order) // 3],
                            order[2 * len(order) // 3:])):
        if not part:
            continue
        sizes = [pool[i % len(pool)]["size"] for i in part]
        layers = Counter()
        for i in part:
            layers.update(per_instance[i])
        table[label] = {
            "instances": len(part), "size_min": min(sizes), "size_max": max(sizes),
            "instance_ms": 1000 * sum(times[i] for i in part) / len(part),
            "layer_ms": {k: round(1000 * v / len(part), 4) for k, v in sorted(layers.items())},
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "posetcover" / "__init__.py").is_file():
        print(f"bench: no package at {ROOT / 'src' / 'posetcover'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import posetcover  # noqa: F401  (timed: a user pays the import once)
    import_s = time.perf_counter() - start

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = wl.build(args.seed, OUT)
        for raw in state["pool"][:WARMUP_INSTANCES]:
            wl.run(raw, Tracer(False), state)
        setups.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setups)

    tracer = Tracer(args.trace == 1)
    counts = Counter()
    times, failures, calibration = measure(wl, state, tracer, counts, args.seconds)
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)

    if args.trace:
        metrics, band_table = per_layer(wl, state, tracer, counts, times, import_s, scale)
    else:
        metrics = end_to_end(wl, reference_times(times, calibration), failures, setup_s)
        band_table = None

    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    report = {
        "environment": environment(args),
        "sizes": wl.sizes(state),
        "instances": len(times),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "wall": {
            "calibration_ms": 1000 * statistics.median(calibration),
            "scale": scale,
            "instance_ms_p50": 1000 * statistics.median(times),
            "instance_ms_p90": 1000 * _quantile(sorted(times), 0.9),
            "instances_per_s": len(times) / sum(times),
            "setup_s": setup_s,
            "instance_ms": [round(1000 * t, 3) for t in times],
            "calibration_each_ms": [round(1000 * c, 4) for c in calibration],
        },
    }
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
        report["bands"] = band_table
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"bench: {json.dumps(report['environment'], sort_keys=True)}")
    print(f"bench: sizes {json.dumps(report['sizes'], sort_keys=True)}")
    if band_table:
        for label, row in band_table.items():
            print(f"bench: band {label} {json.dumps(row, sort_keys=True)}")
    for failure in failures[:5]:
        print(f"bench: failed {json.dumps(failure)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(times),
        "failed": len(failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
