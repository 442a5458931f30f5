"""Seeded raw inputs for the benchmark workloads.

This is the benchmark's own generator code on the standard library
``random``; it never calls ``posetcover.generators``, so a change to the
package's generators cannot change a workload.  Every instance is plain
lists and dicts (element ids, cover pairs, a mapping, index values) plus
the facts its construction makes known, which the checks in ``known.py``
compare the package's verdicts against.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random


# ----- order structure, computed here without the package -------------------


def top_down(elements, covers):
    """Elements ordered so that everything covering an element comes
    before it."""
    up = {e: [] for e in elements}
    below_count = {e: 0 for e in elements}
    for a, b in covers:
        up[a].append(b)
        below_count[a] += 1
    ready = [e for e in elements if below_count[e] == 0]
    order = []
    down = {e: [] for e in elements}
    for a, b in covers:
        down[b].append(a)
    while ready:
        e = ready.pop()
        order.append(e)
        for c in down[e]:
            below_count[c] -= 1
            if below_count[c] == 0:
                ready.append(c)
    return order


def component_sets(nodes, edges):
    """Connected components as frozensets, sorted by least member, by
    union-find over the edges between the nodes."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        if a in parent and b in parent:
            parent[find(a)] = find(b)
    comps = {}
    for n in nodes:
        comps.setdefault(find(n), set()).add(n)
    return sorted((frozenset(c) for c in comps.values()), key=min)


def _join(partitions):
    """Finest common coarsening of partitions of one set of sheets."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks in partitions:
        for block in blocks:
            block = sorted(block)
            for x in block:
                parent.setdefault(x, x)
            for x, y in zip(block, block[1:]):
                parent[find(x)] = find(y)
    joined = {}
    for x in parent:
        joined.setdefault(find(x), set()).add(x)
    return [frozenset(b) for b in joined.values()]


# ----- poset morphisms --------------------------------------------------------


def layered(width: int, ranks: int):
    """Complete layered poset: every element of rank r is covered by every
    element of rank r + 1."""
    levels = [[f"L{r}_{i}" for i in range(width)] for r in range(ranks)]
    covers = [(a, b) for lo, hi in zip(levels, levels[1:]) for a in lo for b in hi]
    return [e for level in levels for e in level], covers, levels


def chain(n: int):
    elements = [f"c{i:03d}" for i in range(n)]
    return elements, list(zip(elements, elements[1:])), [[e] for e in elements]


def random_target(rng: Random, size: int, max_width: int, ranks: int):
    """Connected graded poset with ``size`` elements on ``ranks`` levels of
    at most ``max_width`` elements; every element above rank 0 covers a
    non-empty random subset of the level below."""
    while True:
        sizes = [1] * ranks
        for _ in range(size - ranks):
            open_levels = [r for r in range(ranks) if sizes[r] < max_width]
            sizes[rng.choice(open_levels)] += 1
        levels = [[f"t{r}_{i}" for i in range(s)] for r, s in enumerate(sizes)]
        covers = []
        for lower, upper in zip(levels, levels[1:]):
            for u in upper:
                for low in rng.sample(lower, rng.randint(1, len(lower))):
                    covers.append((low, u))
        elements = [e for level in levels for e in level]
        if len(component_sets(elements, covers)) == 1:
            return elements, covers, levels


def glue(rng: Random, elements, covers, sheets: int, merge_p: float, top_blocks):
    """A sheaf gluing of ``sheets`` copies of the target: a partition of the
    sheets at every target element, taken at random over maximal elements
    (into a number of blocks drawn from the range ``top_blocks``) and
    coarsened downward, merging two blocks with probability ``merge_p`` at
    a time.

    Source elements are named ``delta#s`` after the least sheet s of their
    block.  Gluings are combinatorial, open and onto by construction.
    """
    up = {e: [] for e in elements}
    for a, b in covers:
        up[a].append(b)
    partition = {}
    for delta in top_down(elements, covers):
        if not up[delta]:
            order = rng.sample(range(sheets), sheets)
            k = rng.randint(*top_blocks)
            cuts = [0] + sorted(rng.sample(range(1, sheets), k - 1)) + [sheets]
            blocks = [frozenset(order[i:j]) for i, j in zip(cuts, cuts[1:])]
        else:
            blocks = _join([partition[c] for c in up[delta]])
            while len(blocks) > 1 and rng.random() < merge_p:
                i, j = rng.sample(range(len(blocks)), 2)
                merged = blocks[i] | blocks[j]
                blocks = [b for k, b in enumerate(blocks) if k not in (i, j)] + [merged]
        partition[delta] = sorted(blocks, key=min)

    def name(delta, block):
        return f"{delta}#{min(block)}"

    source, mapping, block_of = [], {}, {}
    for delta in elements:
        for block in partition[delta]:
            x = name(delta, block)
            source.append(x)
            mapping[x] = delta
            block_of[x] = block
    source_covers = []
    for mu, nu in covers:
        for upper in partition[nu]:
            lower = next(b for b in partition[mu] if upper <= b)
            source_covers.append((name(mu, lower), name(nu, upper)))
    return source, source_covers, mapping, block_of


def morphism_instance(rng: Random, target, sheets: int, merge_p: float, top_blocks,
                      weights=None):
    """Raw morphism instance with a balanced map, a perturbed map and the
    facts the construction makes known.

    The balanced map gives each sheet a weight and each source element the
    total weight of its block, which is balanced because the blocks over a
    cover partition the block below.  The perturbed map adds 1 at one
    element over a non-maximal target element, which breaks the balancing
    equation there.  ``sheets == 1`` gives the identity morphism.
    """
    t_elements, t_covers, levels = target
    t_up = {e: [] for e in t_elements}
    for a, b in t_covers:
        t_up[a].append(b)
    if weights is None:
        weights = [1] * sheets
    if sheets == 1:
        s_elements, s_covers = t_elements, t_covers
        mapping = {e: e for e in t_elements}
        block_of = {e: frozenset([0]) for e in t_elements}
    else:
        s_elements, s_covers, mapping, block_of = glue(
            rng, t_elements, t_covers, sheets, merge_p, top_blocks)
    values = {x: sum(weights[s] for s in block_of[x]) for x in s_elements}
    free = [x for x in s_elements if not t_up[mapping[x]]]
    bumped = rng.choice([x for x in s_elements if t_up[mapping[x]]])
    perturbed = dict(values)
    perturbed[bumped] += 1
    rank_of = {e: r for r, level in enumerate(levels) for e in level}
    return {
        "identity": sheets == 1,
        "t_elements": t_elements,
        "t_covers": t_covers,
        "s_elements": s_elements,
        "s_covers": s_covers,
        "mapping": mapping,
        "values": values,
        "perturbed": perturbed,
        "free": free,
        "sheets": sheets,
        "degree": sum(weights),
        "rank": {x: rank_of[mapping[x]] for x in s_elements},
        "size": len(s_elements),
    }


def cover_walk(rng: Random, elements, covers, start, steps: int):
    """A random walk of cover steps, up or down, in a poset."""
    up = {e: [] for e in elements}
    down = {e: [] for e in elements}
    for a, b in covers:
        up[a].append(b)
        down[b].append(a)
    walk = [start]
    for _ in range(steps):
        options = sorted(up[walk[-1]] + down[walk[-1]])
        if not options:
            break
        walk.append(rng.choice(options))
    return walk


# ----- metric graphs ----------------------------------------------------------


def metric_instance(rng: Random, n_edges: int, sheets: int, samples: int):
    """A degree-``sheets`` cover of a metric cycle.

    Every sheet runs once around the cycle and covers each target edge in
    1-3 pieces (the count cycles with edge and sheet) that meet at random
    rational cut points, each piece with a random integer slope of 1-3 and
    a random orientation.  Half the instances join the
    sheets into one source cycle that winds ``sheets`` times; the rest keep
    them as disjoint cycles.  The geometric fibre over every target point
    is then exactly ``sheets``.
    """
    t_vertices = [f"t{k}" for k in range(n_edges)]
    lengths = [rng.randint(1, 4) for _ in range(n_edges)]
    t_edges = [(f"E{k}", f"t{k}", f"t{(k + 1) % n_edges}", lengths[k]) for k in range(n_edges)]
    wind = rng.random() < 0.5
    s_vertices, s_edges, vertex_images, edge_images = [], [], {}, {}
    cuts = {}  # target edge -> set of cut positions over all sheets
    own_cuts = 0
    for s in range(sheets):
        for k in range(n_edges):
            v = f"v{k}s{s}"
            s_vertices.append(v)
            vertex_images[v] = ("t" + str(k), None)
    for s in range(sheets):
        for k in range(n_edges):
            length = lengths[k]
            n_cuts = (k + s) % 3
            positions = set()
            while len(positions) < n_cuts:
                den = rng.randint(2, 6)
                positions.add(Fraction(rng.randint(1, den * length - 1), den))
            positions = sorted(positions)
            cuts.setdefault(k, set()).update(positions)
            own_cuts += len(positions)
            first = f"v{k}s{s}"
            next_sheet = (s + 1) % sheets if wind and k == n_edges - 1 else s
            last = f"v{(k + 1) % n_edges}s{next_sheet}"
            names = [first]
            for j, p in enumerate(positions):
                c = f"c{k}_{j}s{s}"
                s_vertices.append(c)
                vertex_images[c] = (f"E{k}", p)
                names.append(c)
            names.append(last)
            stops = [Fraction(0)] + positions + [Fraction(length)]
            for j in range(len(stops) - 1):
                slope = rng.randint(1, 3)
                eid = f"e{k}_{j}s{s}"
                piece = (stops[j + 1] - stops[j]) / slope
                a, b, start, end = names[j], names[j + 1], stops[j], stops[j + 1]
                if rng.random() < 0.5:
                    a, b, start, end = b, a, end, start
                s_edges.append((eid, a, b, piece))
                edge_images[eid] = (f"E{k}", start, end, slope)
    points = []
    for _ in range(samples):
        k = rng.randrange(n_edges)
        den = rng.randint(2, 12)
        points.append((f"E{k}", Fraction(rng.randint(1, den * lengths[k] - 1), den)))
    target_cuts = sum(len(c) for c in cuts.values())
    return {
        "t_vertices": t_vertices,
        "t_edges": t_edges,
        "s_vertices": s_vertices,
        "s_edges": s_edges,
        "vertex_images": vertex_images,
        "edge_images": edge_images,
        "points": points,
        "sheets": sheets,
        "cuts": {f"E{k}": sorted(c) for k, c in cuts.items()},
        "target_cuts": target_cuts,
        # every target cut falls inside one piece of every sheet that did
        # not cut there itself, and that piece is cut in the refinement
        "source_cuts": sheets * target_cuts - own_cuts,
        "size": len(s_edges),
    }
