"""Seeded random instances for the differential test suite.

Graded posets are built rank by rank with random bipartite cover graphs.
Random combinatorial morphisms are built by gluing copies of target
down-sets: pick a number of sheets, choose a partition of the sheets over
every maximal element, and coarsen downward (with optional extra merges).
Source elements are (element, sheet-block) pairs.  Morphisms produced this
way are always combinatorial, open, and onto, which is exactly the class
on which the fast indexed-branched-cover test, the exhaustive oracle, and
the balancing criterion provably agree.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations, product
from random import Random

from posetcover.covers import IndexMap, _push_down, _push_plan, is_balanced
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset, connectivity

from oracles import longest_chains


def random_graded_poset(rng: Random, max_elements: int = 10, max_rank: int = 2) -> Poset:
    """Random graded poset: random level sizes, every element above rank 0
    covering at least one element of the level below."""
    ranks = rng.randint(1, max_rank + 1)
    sizes = []
    remaining = max_elements
    for r in range(ranks):
        hi = max(1, remaining - (ranks - r - 1))
        size = rng.randint(1, min(3, hi))
        sizes.append(size)
        remaining -= size
        if remaining <= 0:
            break
    levels = [[f"r{r}n{i}" for i in range(size)] for r, size in enumerate(sizes)]
    elements = [e for level in levels for e in level]
    covers = []
    for lower, upper in zip(levels, levels[1:]):
        for u in upper:
            for l in rng.sample(lower, rng.randint(1, len(lower))):
                covers.append((l, u))
    return Poset(elements, covers)


def random_connected_graded_poset(rng: Random, max_elements: int = 10, max_rank: int = 2) -> Poset:
    for _ in range(200):
        p = random_graded_poset(rng, max_elements, max_rank)
        if p.is_connected():
            return p
    raise RuntimeError("could not generate a connected poset")


def random_strongly_connected_poset(rng: Random, max_elements: int = 10) -> Poset:
    for _ in range(2000):
        p = random_graded_poset(rng, max_elements, max_rank=2)
        if connectivity(p, "strong").connected:
            return p
    raise RuntimeError("could not generate a strongly connected poset")


def _random_partition(rng: Random, items):
    """Random set partition, uniform over assignments to up to len(items)
    buckets (not uniform over partitions; good enough for fuzzing)."""
    items = list(items)
    buckets = {}
    n_buckets = rng.randint(1, len(items))
    for x in items:
        buckets.setdefault(rng.randrange(n_buckets), set()).add(x)
    return [frozenset(b) for b in buckets.values()]


def _join_partitions(parts):
    """Finest common coarsening of several partitions of the same set."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in parts:
        for block in part:
            block = sorted(block)
            for x in block:
                parent.setdefault(x, x)
            for x, y in zip(block, block[1:]):
                parent[find(x)] = find(y)
    blocks = {}
    for x in parent:
        blocks.setdefault(find(x), set()).add(x)
    return [frozenset(b) for b in blocks.values()]


def random_sheaf_morphism(
    rng: Random,
    target: Poset | None = None,
    max_sheets: int = 3,
    merge_probability: float = 0.3,
) -> PosetMorphism:
    """Random combinatorial morphism onto the target, built from sheet
    partitions that coarsen downward."""
    if target is None:
        target = random_connected_graded_poset(rng, max_elements=6)
    sheets = range(rng.randint(1, max_sheets))
    partition = {}
    # maximal elements first (depth 0), so everything covering delta is
    # already done
    _, depth = longest_chains(target.elements, target.covers)
    for delta in sorted(target.elements, key=lambda e: (depth[e], e)):
        above = [partition[c] for c in target.covers_of(delta)]
        if not above:
            partition[delta] = _random_partition(rng, sheets)
            continue
        joined = _join_partitions(above)
        while len(joined) > 1 and rng.random() < merge_probability:
            a, b = rng.sample(range(len(joined)), 2)
            merged = joined[a] | joined[b]
            joined = [blk for i, blk in enumerate(joined) if i not in (a, b)] + [merged]
        partition[delta] = joined

    def name(delta, block):
        return f"{delta}#{min(block)}"

    elements = []
    mapping = {}
    for delta in target.elements:
        for block in sorted(partition[delta], key=min):
            elements.append(name(delta, block))
            mapping[name(delta, block)] = delta
    covers = []
    for mu, nu in sorted(target.covers):
        for upper in partition[nu]:
            lower = next(b for b in partition[mu] if upper <= b)
            covers.append((name(mu, lower), name(nu, upper)))
    return PosetMorphism(Poset(elements, covers), target, mapping)


def random_index_map(rng: Random, poset: Poset, hi: int = 3) -> IndexMap:
    return IndexMap.total(poset, {e: rng.randint(1, hi) for e in poset.elements})


def random_balanced_map(rng: Random, phi: PosetMorphism, hi: int = 3):
    """Try to build a total balanced map by choosing top values and pushing
    them down the fibres; None when the random choice is inconsistent."""
    source = phi.source
    free, plan = _push_plan(phi)
    # the values are drawn in (depth, id) order: another order would change
    # every seeded instance the tests use
    _, depth = longest_chains(source.elements, source.covers)
    values = [0] * len(source)
    for alpha in sorted(free, key=lambda i: (depth[source._ids[i]], i)):
        values[alpha] = rng.randint(1, hi)
    if _push_down(plan, values) is None:
        return None
    m = IndexMap.total(source, dict(zip(source._ids, values)))
    assert is_balanced(phi, m)
    return m


def all_posets(n: int):
    """One poset on the labels e0 .. e(n-1) per isomorphism class of
    n-element posets.  Every class has a natural labelling, one where i < j
    in the order implies i < j as numbers, so the strict orders are drawn
    from the transitive sets of such pairs, and a class is known by the
    least sorted pair list any relabelling of it gives."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    relabellings = list(permutations(range(n)))
    names = [f"e{i}" for i in range(n)]
    seen = set()
    for mask in range(1 << len(pairs)):
        less = {pair for k, pair in enumerate(pairs) if mask >> k & 1}
        if any((a, d) not in less for a, b in less for c, d in less if b == c):
            continue
        key = min(tuple(sorted((p[a], p[b]) for a, b in less)) for p in relabellings)
        if key in seen:
            continue
        seen.add(key)
        covers = [(names[a], names[b]) for a, b in less
                  if not any((a, c) in less and (c, b) in less for c in range(n))]
        yield Poset(names, covers)


def all_morphisms(s: Poset, t: Poset):
    """Every order-preserving map from s to t, with the images of the
    elements of s, in sorted order, running through the elements of t in
    lexicographic order."""
    sources = sorted(s.elements)
    for images in product(sorted(t.elements), repeat=len(sources)):
        mapping = dict(zip(sources, images))
        if all(t.leq(mapping[a], mapping[b]) for a, b in s.covers):
            yield PosetMorphism(s, t, mapping)


@cache
def small_world() -> tuple:
    """Every map from a poset of at most 4 elements to one of at most 3, up
    to isomorphism of both: 2436 maps, built once per process."""
    return tuple(phi for s in range(1, 5) for t in range(1, 4)
                 for source in all_posets(s) for target in all_posets(t)
                 for phi in all_morphisms(source, target))
