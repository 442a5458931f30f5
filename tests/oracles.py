"""Independent brute-force oracles.

Everything here recomputes results from first principles (subset
enumeration, relation composition, union-find), sharing no algorithmic
path with the package, so differential tests mean something.
"""

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
    leq = reachability(elements, covers)
    edges = [(a, b) for (a, b) in leq if a != b and a in nodes and b in nodes]
    return brute_components(nodes, edges)


def least_first_order(elements, covers):
    """Topological order taking the least element whose lower covers are
    all placed, by rescanning every unplaced element at each step."""
    placed, order = set(), []
    while len(order) < len(elements):
        ready = [e for e in elements if e not in placed
                 and all(a in placed for a, b in covers if b == e)]
        e = min(ready)
        placed.add(e)
        order.append(e)
    return order


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
