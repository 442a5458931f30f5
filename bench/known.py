"""Answers known without the code under test.

These helpers recompute order facts from the raw cover lists with the
benchmark's own code, and load the brute-force chain oracle from
``tests/oracles.py``.  The workload checks compare the package's verdicts
against them outside the timed region.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from inputs import component_sets, top_down

_ORACLES = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"


def load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", _ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def strictly_above(elements, covers):
    """Strict up-set of every element, walking top-down over the covers."""
    up = {e: [] for e in elements}
    for a, b in covers:
        up[a].append(b)
    above = {}
    for e in top_down(elements, covers):
        acc = set()
        for c in up[e]:
            acc.add(c)
            acc |= above[c]
        above[e] = acc
    return above


def balance_violations(s_covers, mapping, t_covers, values):
    """Every (alpha, beta, value, sum) where the balancing equation fails,
    for alpha in the domain of ``values``."""
    s_up = {}
    for a, b in s_covers:
        s_up.setdefault(a, []).append(b)
    t_up = {}
    for a, b in t_covers:
        t_up.setdefault(a, []).append(b)
    found = set()
    for alpha, value in values.items():
        for beta in t_up.get(mapping[alpha], ()):
            total = sum(values[g] for g in s_up.get(alpha, ()) if mapping[g] == beta)
            if total != value:
                found.add((alpha, beta, value, total))
    return found


def extension_guaranteed(t_elements, t_covers):
    """Extending a top-only map down a gluing meets the extension theorem's
    hypotheses at every step iff every punctured principal up-set of a
    non-maximal target element is connected (its preimage is always valued
    first, since elements are processed by decreasing height)."""
    above = strictly_above(t_elements, t_covers)
    for beta in t_elements:
        punctured = above[beta]
        # an up-set is convex, so its comparability graph is connected
        # iff its cover graph is
        inside = [(a, b) for a, b in t_covers if a in punctured and b in punctured]
        if punctured and len(component_sets(punctured, inside)) > 1:
            return False
    return True


def chain_count(elements, covers):
    """Number of non-empty strict chains: chains topped at e are e alone
    or e on top of a chain topped strictly below it."""
    above = strictly_above(elements, covers)
    below = {e: [] for e in elements}
    for e, ups in above.items():
        for u in ups:
            below[u].append(e)
    topped = {}
    for e in reversed(top_down(elements, covers)):
        topped[e] = 1 + sum(topped[x] for x in below[e])
    return sum(topped.values())
