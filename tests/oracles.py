"""Independent brute-force oracles.

Everything here recomputes results from first principles (subset
enumeration, relation composition, union-find), sharing no algorithmic
path with the package, so differential tests mean something.
"""

from fractions import Fraction
from itertools import chain, combinations


def reachability(elements, covers):
    """Reflexive-transitive closure of the cover relation by repeated
    composition."""
    leq = {(e, e) for e in elements}
    leq |= {(a, b) for a, b in covers}
    changed = True
    while changed:
        changed = False
        for (a, b) in list(leq):
            for (c, d) in list(leq):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
    return leq


def all_subsets(elements):
    elements = sorted(elements)
    return chain.from_iterable(combinations(elements, r) for r in range(len(elements) + 1))


def brute_up_sets(elements, covers):
    """Every upward-closed subset, by filtering the full power set."""
    leq = reachability(elements, covers)
    result = []
    for subset in all_subsets(elements):
        s = set(subset)
        if all(b in s for a in s for (x, b) in leq if x == a):
            result.append(frozenset(s))
    return result


def brute_antichain_count(elements, covers):
    leq = reachability(elements, covers)
    count = 0
    for subset in all_subsets(elements):
        s = list(subset)
        if all((a, b) not in leq and (b, a) not in leq
               for i, a in enumerate(s) for b in s[i + 1:]):
            count += 1
    return count


def brute_components(nodes, edges):
    """Union-find connected components of an undirected graph."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    comps = {}
    for n in nodes:
        comps.setdefault(find(n), set()).add(n)
    return sorted((frozenset(c) for c in comps.values()), key=min)


def brute_poset_components(elements, covers, subset=None):
    """Components of the comparability graph, restricted to ``subset``
    when given (comparability taken in the whole poset)."""
    nodes = set(elements if subset is None else subset)
    return comparability_components(reachability(elements, covers), nodes)


def comparability_components(leq, nodes):
    """Components of the comparability graph of ``leq``, a closed order
    relation as pairs, restricted to ``nodes``."""
    edges = [(a, b) for (a, b) in leq if a != b and a in nodes and b in nodes]
    return brute_components(nodes, edges)


def brute_combinatorial_defects(s_elements, s_covers, t_elements, t_covers, mapping):
    """(alpha, reason, detail) for every source element whose principal
    down-set does not map isomorphically onto the down-set of its image,
    in sorted order: the image is compared element by element, and the
    inverse pair by pair, least reversed pair (x, y) first."""
    s_leq = reachability(s_elements, s_covers)
    t_leq = reachability(t_elements, t_covers)
    defects = []
    for alpha in sorted(s_elements):
        beta = mapping[alpha]
        down = sorted(x for x in s_elements if (x, alpha) in s_leq)
        image_down = {y for y in t_elements if (y, beta) in t_leq}
        images = {mapping[x] for x in down}
        if len(images) < len(down):
            defects.append((alpha, "not injective",
                            f"|down({alpha})|={len(down)} maps to {len(images)} elements"))
        elif images != image_down:
            defects.append((alpha, "not surjective",
                            f"|down({alpha})|={len(down)} != |down({beta})|={len(image_down)}"))
        else:
            bad = next(((x, y) for x in down for y in down
                        if (mapping[x], mapping[y]) in t_leq and (x, y) not in s_leq), None)
            if bad:
                x, y = bad
                defects.append((alpha, "inverse not monotone",
                                f"{mapping[x]} <= {mapping[y]} but {x} !<= {y}"))
    return defects


def brute_chains(elements, covers):
    """All non-empty strict chains, by filtering subsets for total
    comparability."""
    leq = reachability(elements, covers)

    def comparable(a, b):
        return (a, b) in leq or (b, a) in leq

    found = []
    for subset in all_subsets(elements):
        if not subset:
            continue
        if all(comparable(a, b) for i, a in enumerate(subset) for b in subset[i + 1:]):
            found.append(frozenset(subset))
    return found


def brute_codim_one_pairs(sets):
    """Pairs (c, d) of the given sets with c a subset of d and one member
    fewer, by comparing every pair: the covers of a face poset, and of a
    chain poset with chains given as sets."""
    sets = [frozenset(s) for s in sets]
    return {(c, d) for c in sets for d in sets if c < d and len(d) == len(c) + 1}


def brute_missing_faces(faces):
    """Every non-empty subset of a face that is not itself a face, by
    enumerating all subsets of every face."""
    faces = {frozenset(f) for f in faces}
    return {frozenset(sub) for f in faces for sub in all_subsets(f)
            if sub and frozenset(sub) not in faces}


def brute_maximal_faces(faces):
    """Faces contained in no other face, by comparing every pair."""
    faces = {frozenset(f) for f in faces}
    return {f for f in faces if not any(f < g for g in faces)}


def brute_closure_faces(maximal_faces):
    """All non-empty subsets of the given faces."""
    faces = set()
    for f in maximal_faces:
        f = sorted(f)
        for r in range(1, len(f) + 1):
            for sub in combinations(f, r):
                faces.add(frozenset(sub))
    return faces


def is_forest(nodes, edges):
    """An undirected graph is a forest iff every component has one more
    node than it has edges."""
    comps = brute_components(nodes, edges)
    edge_count = {min(c): 0 for c in comps}
    lookup = {n: min(c) for c in comps for n in c}
    for a, b in edges:
        edge_count[lookup[a]] += 1
    return all(len(c) == edge_count[min(c)] + 1 for c in comps)


def longest_chains(elements, covers):
    """Height and depth of every element: the longest cover chain down to
    a minimal element and up to a maximal one, found by relaxing every
    cover pair until no length grows."""
    height = {e: 0 for e in elements}
    depth = {e: 0 for e in elements}
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            if height[b] < height[a] + 1:
                height[b] = height[a] + 1
                changed = True
            if depth[a] < depth[b] + 1:
                depth[a] = depth[b] + 1
                changed = True
    return height, depth


def _covers_above(covers, a):
    return sorted(b for x, b in covers if x == a)


def brute_balance_violations(s_covers, t_covers, mapping, values):
    """(alpha, beta, lhs, rhs) for every valued alpha and every cover beta
    of its image where the value at alpha differs from the sum of values
    over the covers of alpha that map to beta; alpha, then beta, sorted."""
    found = []
    for alpha in sorted(values):
        for beta in _covers_above(t_covers, mapping[alpha]):
            rhs = sum(values[g] for g in _covers_above(s_covers, alpha) if mapping[g] == beta)
            if rhs != values[alpha]:
                found.append((alpha, beta, values[alpha], rhs))
    return found


def brute_openness_defects(s_elements, s_covers, t_covers, mapping):
    """(alpha, y, c) for every alpha, in sorted order, whose principal
    up-set has an image that is not an up-set: y is the least image
    element with a cover outside the image, c its least such cover."""
    s_leq = reachability(s_elements, s_covers)
    found = []
    for alpha in sorted(s_elements):
        image = {mapping[x] for x in s_elements if (alpha, x) in s_leq}
        for y in sorted(image):
            outside = [c for c in _covers_above(t_covers, y) if c not in image]
            if outside:
                found.append((alpha, y, outside[0]))
                break
    return found


def brute_branch_defects(s_elements, s_covers, t_elements, t_covers, mapping):
    """(beta, alpha) for every maximal target element beta and every
    element of its fibre that is not maximal, both sorted."""
    s_max = {x for x in s_elements if not _covers_above(s_covers, x)}
    return [(beta, alpha)
            for beta in sorted(t_elements) if not _covers_above(t_covers, beta)
            for alpha in sorted(s_elements) if mapping[alpha] == beta and alpha not in s_max]


def brute_degree_mismatches(s_elements, s_covers, mapping, values, labelled_sets):
    """(label, component, y1, y2, d1, d2) for every (label, target set) in
    order and every component of the preimage of the set, by least member,
    whose local degree (sum of values over the component and one fibre)
    is not constant over its image: y1 is the least image element and y2
    the least one whose degree differs from it."""
    leq = reachability(s_elements, s_covers)
    found = []
    for label, targets in labelled_sets:
        preimage = {x for x in s_elements if mapping[x] in targets}
        for comp in comparability_components(leq, preimage):
            image = sorted({mapping[x] for x in comp})
            degree = {y: sum(values[x] for x in comp if mapping[x] == y) for y in image}
            y1 = image[0]
            y2 = next((y for y in image if degree[y] != degree[y1]), None)
            if y2 is not None:
                found.append((label, comp, y1, y2, degree[y1], degree[y2]))
    return found


def brute_up_set_walk(elements, covers, connected_only=False):
    """Every up-set, one per antichain of generators, by the recursive
    walk that extends an antichain by each later incomparable element in
    sorted order, emitting the up-set before its extensions; with
    connected_only, only non-empty connected up-sets."""
    leq = reachability(elements, covers)
    order = sorted(elements)
    found = []

    def walk(start, antichain):
        up = frozenset(x for x in elements if any((a, x) in leq for a in antichain))
        if not connected_only or (up and len(comparability_components(leq, up)) == 1):
            found.append(up)
        for i in range(start, len(order)):
            e = order[i]
            if all((e, a) not in leq and (a, e) not in leq for a in antichain):
                walk(i + 1, antichain + [e])

    walk(0, [])
    return found


def brute_extension(s_elements, s_covers, t_elements, t_covers, mapping, values, upset):
    """Extension of a balanced map over a larger up-set, from the
    definitions: the unvalued elements in order of decreasing height, then
    name; each takes the sum over its covers in the fibre of a cover beta
    of its image when every beta gives the same positive sum over valued
    covers, else it stays unvalued with a conflict (the least two distinct
    sums, or the least beta twice).  The mode is guaranteed when at every
    constrained element the punctured up-set of its image is connected and
    its preimage valued.  Returns (values, mode, conflicts, unconstrained)."""
    height, _ = longest_chains(s_elements, s_covers)
    t_leq = reachability(t_elements, t_covers)
    values = dict(values)
    conflicts, unconstrained = [], []
    guaranteed = True
    for alpha in sorted((x for x in upset if x not in values), key=lambda x: (-height[x], x)):
        y = mapping[alpha]
        betas = _covers_above(t_covers, y)
        if not betas:
            unconstrained.append(alpha)
            continue
        punctured = {z for z in t_elements if (y, z) in t_leq and z != y}
        if (len(brute_poset_components(t_elements, t_covers, punctured)) > 1
                or any(mapping[x] in punctured and x not in values for x in s_elements)):
            guaranteed = False
        sums = {}
        for beta in betas:
            above = [g for g in _covers_above(s_covers, alpha) if mapping[g] == beta]
            sums[beta] = sum(values[g] for g in above) if all(g in values for g in above) else None
        distinct = sorted({c for c in sums.values() if c is not None})
        if None not in sums.values() and len(distinct) == 1 and distinct[0] >= 1:
            values[alpha] = distinct[0]
        elif len(distinct) >= 2:
            low = min(b for b in betas if sums[b] == distinct[0])
            high = min(b for b in betas if sums[b] == distinct[-1])
            (b1, c1), (b2, c2) = sorted([(low, distinct[0]), (high, distinct[-1])])
            conflicts.append((alpha, b1, b2, c1, c2))
        else:
            conflicts.append((alpha, betas[0], betas[0], sums[betas[0]], sums[betas[0]]))
    return values, "guaranteed" if guaranteed else "opportunistic", conflicts, unconstrained


# ----- metric graphs on Fractions ---------------------------------------------
#
# Graphs are (vertices, {edge: (a, b, length)}); a vertex image is a target
# vertex name or an (edge, position) pair; edge images are
# {edge: (target edge, start, end, slope)}.  Every position is a Fraction
# and every point is worked out on its own, with no common denominator.


def _fresh_name(name, taken):
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def _split_on_fractions(graph, cuts, taken):
    vertices, edges = graph
    vertices = list(vertices)
    new_edges, pieces, cut_names = {}, {}, {}
    for eid in sorted(edges):
        a, b, length = edges[eid]
        positions = sorted(cuts.get(eid, ()))
        if not positions:
            new_edges[eid] = (a, b, length)
            pieces[eid] = (eid,)
            continue
        stops = [Fraction(0)] + positions + [length]
        names = [a]
        for p in positions:
            v = _fresh_name(f"{eid}@{p}", taken)
            cut_names[(eid, p)] = v
            vertices.append(v)
            names.append(v)
        names.append(b)
        ids = []
        for i in range(len(stops) - 1):
            pid = _fresh_name(f"{eid}.{i + 1}", taken)
            ids.append(pid)
            new_edges[pid] = (names[i], names[i + 1], stops[i + 1] - stops[i])
        pieces[eid] = tuple(ids)
    return (vertices, new_edges), pieces, cut_names


def fraction_refinement(source, target, vertex_images, edge_images):
    """The combinatorial refinement on Fractions: cut the target edges at
    the interior vertex images, pull every cut back through each edge image
    that holds it strictly inside, and re-express every image piece by
    piece.  Returns the refined source, target, vertex images and edge
    images, the new target and source vertices and the piece tables."""
    target_cuts = {}
    for v in source[0]:
        img = vertex_images[v]
        if not isinstance(img, str):
            target_cuts.setdefault(img[0], set()).add(img[1])
    taken = set(target[0]) | set(target[1])
    new_target, target_pieces, target_names = _split_on_fractions(target, target_cuts, taken)

    source_cuts = {}
    for eid in sorted(source[1]):
        t, start, end, slope = edge_images[eid]
        direction = 1 if end > start else -1
        for q in target_cuts.get(t, ()):
            if min(start, end) < q < max(start, end):
                source_cuts.setdefault(eid, set()).add((q - start) / (direction * slope))
    taken = set(source[0]) | set(source[1])
    new_source, source_pieces, source_names = _split_on_fractions(source, source_cuts, taken)

    def refined(t, pos):
        cuts = sorted(target_cuts.get(t, ()))
        if pos in cuts:
            return target_names[(t, pos)]
        offset = Fraction(0)
        for i, piece in enumerate(target_pieces[t]):
            stop = cuts[i] if i < len(cuts) else target[1][t][2]
            if pos < stop:
                return (piece, pos - offset)
            offset = stop
        raise AssertionError("position beyond edge length")

    images = {v: vertex_images[v] if isinstance(vertex_images[v], str)
              else refined(*vertex_images[v]) for v in source[0]}
    for (eid, x), name in source_names.items():
        t, start, end, slope = edge_images[eid]
        direction = 1 if end > start else -1
        images[name] = refined(t, start + direction * slope * x)

    new_edge_images = {}
    for eid in sorted(source[1]):
        t, start, end, slope = edge_images[eid]
        direction = 1 if end > start else -1
        stops = [Fraction(0)] + sorted(source_cuts.get(eid, ())) + [source[1][eid][2]]
        target_stops = [Fraction(0)] + sorted(target_cuts.get(t, ())) + [target[1][t][2]]
        for pid, x0, x1 in zip(source_pieces[eid], stops, stops[1:]):
            q0 = start + direction * slope * x0
            q1 = start + direction * slope * x1
            lo, hi = min(q0, q1), max(q0, q1)
            idx = next(i for i in range(len(target_stops) - 1)
                       if target_stops[i] <= lo and hi <= target_stops[i + 1])
            base = target_stops[idx]
            new_edge_images[pid] = (target_pieces[t][idx], q0 - base, q1 - base, slope)

    return {
        "source": new_source,
        "target": new_target,
        "vertex_images": images,
        "edge_images": new_edge_images,
        "new_target_vertices": {name: key for key, name in target_names.items()},
        "new_source_vertices": {name: key for key, name in source_names.items()},
        "target_pieces": target_pieces,
        "source_pieces": source_pieces,
    }


def fraction_fibre_count(source, vertex_images, edge_images, point):
    """The number of source points over a target point (a vertex name or
    an (edge, position) pair): the vertices mapped onto it and the edges
    whose image holds it strictly inside."""
    count = sum(1 for v in source[0] if vertex_images[v] == point)
    if not isinstance(point, str):
        t, y = point
        for eid, (edge, start, end, slope) in edge_images.items():
            direction = 1 if end > start else -1
            x = (y - start) / (direction * slope)
            if edge == t and 0 < x < source[1][eid][2]:
                count += 1
    return count


def staged_search_balanced(phi, bound):
    """The least total balanced map of phi with values in 1..bound, in
    lexicographic element order, as a list by source index, or None, found
    by a depth-first walk over the free values; the same ValueError and
    OracleSizeExceeded as ``covers.search_balanced``.  It shares only the
    top-down plan and its push with the package (``_push_plan``,
    ``_push_down``): each forced value is settled, and checked against the
    bound, as soon as the last free value it depends on is set, so a
    failed check cuts off every assignment of the later free values."""
    from posetcover.covers import DEFAULT_SEARCH_STATES, _push_down, _push_plan
    from posetcover.errors import OracleSizeExceeded

    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    free, plan = _push_plan(phi)
    states = 1
    for _ in free:
        states *= bound
        if states > DEFAULT_SEARCH_STATES:
            raise OracleSizeExceeded(f"{bound}**{len(free)}", DEFAULT_SEARCH_STATES,
                                     "search states")
    # stage k + 1 holds, in plan order, the entries settled once free[k] is
    # set, and stage 0 those that depend on no free element
    last = [-1] * len(phi.source)
    for k, alpha in enumerate(free):
        last[alpha] = k
    stages = [[] for _ in range(len(free) + 1)]
    for alpha, groups in plan:
        last[alpha] = max((last[g] for _, group in groups for g in group), default=-1)
        stages[last[alpha] + 1].append((alpha, groups))

    def settled(stage, values):
        return (_push_down(stage, values) is not None
                and all(values[alpha] <= bound for alpha, _ in stage))

    values = [0] * len(phi.source)  # a free value is 0 until it is set
    best = None
    # k free values are set and the first k + 1 stages settled
    k = 0 if settled(stages[0], values) else -1
    while k >= 0:
        if k == len(free):
            if best is None or values < best:
                best = values[:]
            k -= 1
            continue
        alpha = free[k]
        if values[alpha] == bound:
            values[alpha] = 0
            k -= 1
            continue
        values[alpha] += 1
        stage = stages[k + 1]
        if not stage or settled(stage, values):
            k += 1
    return best
