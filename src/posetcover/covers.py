"""Index maps, local degrees, balancing, and the branched-cover decisions.

`is_ibc` reduces the definition to principal up-sets of the target; the
exhaustive oracle runs the definition verbatim over every connected
up-set.  Both evaluate constancy of the local degree over the image of
each preimage component, and they provably agree on combinatorial
morphisms, which is what the differential test suite generates.

On a combinatorial morphism `is_ibc` uses the paper's local statements.
The preimage of up(beta) splits into the up-sets up(alpha) over the fibre
of beta, one component each, and along a cover of the image the local
degree on up(alpha) changes only by the balancing defects inside it.  So
a balanced map is an indexed branched cover as soon as its branch
condition holds (the main theorem; a balanced combinatorial map is open),
and an unbalanced one is summed only on the up(alpha) that hold a defect.
Other morphisms are decided by splitting every preimage into components.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import compress, product
from typing import Iterable

from .checks import Check
from .errors import (
    InvalidIndexMap,
    NotUpSet,
    OracleSizeExceeded,
    PartialIndexMap,
    UnknownElement,
    ValueMissing,
)
from .morphisms import PosetMorphism
from .posets import DEFAULT_ORACLE_LIMIT, Poset, bit_indices, up_set_bits

DEFAULT_SEARCH_BOUND = 8
DEFAULT_SEARCH_STATES = 1_000_000

BalanceViolation = namedtuple("BalanceViolation", "alpha beta lhs rhs")
BranchDefect = namedtuple("BranchDefect", "beta alpha")
DegreeMismatch = namedtuple("DegreeMismatch", "beta component y1 y2 d1 d2")


class IndexMap:
    """Positive integer multiplicities on an up-set of a poset."""

    def __init__(self, poset: Poset, values: dict):
        domain = poset.require_up_set(values.keys())
        for x, v in values.items():
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise InvalidIndexMap(f"value for {x!r} must be a positive integer, got {v!r}")
        self.poset = poset
        self.domain = domain
        self.values = dict(values)

    @classmethod
    def total(cls, poset: Poset, values: dict) -> "IndexMap":
        m = cls(poset, values)
        m.require_total()
        return m

    @classmethod
    def constant(cls, poset: Poset, value: int = 1) -> "IndexMap":
        return cls(poset, {e: value for e in poset.elements})

    def is_total(self) -> bool:
        return len(self.domain) == len(self.poset)

    def require_total(self) -> None:
        if not self.is_total():
            raise PartialIndexMap(frozenset(self.poset.elements) - self.domain)

    def __getitem__(self, x: str) -> int:
        if x not in self.values:
            raise ValueMissing(x)
        return self.values[x]

    def __contains__(self, x):
        return x in self.domain

    def __repr__(self):
        return f"IndexMap({len(self.domain)}/{len(self.poset)} elements)"

    def __eq__(self, other):
        if not isinstance(other, IndexMap):
            return NotImplemented
        return self.poset == other.poset and self.values == other.values

    def restricted(self, upset: Iterable[str]) -> "IndexMap":
        v = self.poset.require_up_set(upset)
        missing = v - self.domain
        if missing:
            raise ValueMissing(min(missing))
        return IndexMap(self.poset, {x: self.values[x] for x in v})


def local_degree(phi: PosetMorphism, m: IndexMap, subset: Iterable[str], y: str) -> int:
    """Sum of multiplicities over the fibre of y inside the subset; the
    empty sum is 0."""
    if y not in phi.target:
        raise UnknownElement(y)
    total = 0
    for x in subset:
        if x not in phi.source:
            raise UnknownElement(x)
        if phi(x) == y:
            total += m[x]
    return total


def _cover_groups(phi: PosetMorphism) -> list:
    """For every source element, as indices: the elements covering it,
    grouped by the element covering its image that they map to, one
    (beta, group) pair per cover beta of the image, betas and group members
    ascending.  Empty groups stay, because their sum of 0 is a real witness.
    One pass over the covers of each element and of its image buckets the
    covers, once per morphism."""
    groups = phi._cover_groups_memo
    if groups is None:
        image_of, t_up = phi._image_of, phi.target._up_ix
        groups = []
        for i, ups in enumerate(phi.source._up_ix):
            buckets = {beta: [] for beta in t_up[image_of[i]]}
            for g in ups:
                bucket = buckets.get(image_of[g])
                if bucket is not None:
                    bucket.append(g)
            groups.append(list(buckets.items()))
        phi._cover_groups_memo = groups
    return groups


def _value_list(phi: PosetMorphism, m: IndexMap) -> list:
    """The values of m by source index; None off the domain."""
    get = m.values.get
    return [get(x) for x in phi.source._ids]


def _push_plan(phi: PosetMorphism):
    """Split the source indices, top first in (depth, id) order, into the
    free elements, whose image is maximal so no balancing condition binds
    them, and the (alpha, cover groups) pairs of all the others."""
    depth = phi.source._depth
    groups = _cover_groups(phi)
    free, plan = [], []
    for i in sorted(range(len(depth)), key=lambda i: (depth[i], i)):
        if groups[i]:
            plan.append((i, groups[i]))
        else:
            free.append(i)
    return free, plan


def _push_down(plan, values: list):
    """Push values, a list by source index, down the plan: each element
    gets the common sum of its cover groups.  Returns the filled values, or
    None when two groups disagree or the sum is below 1."""
    for alpha, groups in plan:
        sums = {sum([values[g] for g in group]) for _, group in groups}
        if len(sums) != 1 or min(sums) < 1:
            return None
        values[alpha] = sums.pop()
    return values


def _pushed_index_map(phi: PosetMorphism, free, plan, values: list) -> IndexMap:
    """The total index map of pushed-down values, keyed free elements
    first and then in plan order."""
    ids = phi.source._ids
    order = free + [alpha for alpha, _ in plan]
    return IndexMap.total(phi.source, {ids[i]: values[i] for i in order})


def is_balanced(phi: PosetMorphism, m: IndexMap) -> Check:
    """The balancing condition: for alpha in the domain and every beta
    covering phi(alpha), the value at alpha equals the multiplicity sum of
    the elements covering alpha in the fibre of beta."""
    if m.poset != phi.source:
        raise InvalidIndexMap("index map lives on a different poset than the morphism source")
    witnesses = _balance_violations(phi, _value_list(phi, m))
    if witnesses:
        return Check.failed(witnesses)
    return Check.passed()


def _balance_violations(phi: PosetMorphism, values: list) -> list:
    """The BalanceViolation witnesses of values, a list by source index
    with None off the domain, in (alpha, beta) order."""
    groups = _cover_groups(phi)
    ids, t_ids = phi.source._ids, phi.target._ids
    witnesses = []
    for alpha, lhs in enumerate(values):
        if lhs is None:
            continue
        for beta, group in groups[alpha]:
            rhs = sum([values[g] for g in group])  # the domain is an up-set
            if rhs != lhs:
                witnesses.append(BalanceViolation(ids[alpha], t_ids[beta], lhs, rhs))
    return witnesses


@dataclass
class BranchReport:
    ok: bool
    witnesses: tuple
    branch_locus: frozenset

    def __bool__(self):
        return self.ok


def branch_locus_check(phi: PosetMorphism) -> BranchReport:
    """A poset morphism is a branched cover relative to the complement of
    the maximal target elements iff every fibre over a maximal target
    element consists of maximal source elements.  The branch locus reported
    is always that safe superset, not a minimal one."""
    source, target = phi.source, phi.target
    witnesses = []
    for j, ups in enumerate(target._up_ix):
        if not ups:
            for i in bit_indices(phi._fibres[j]):
                if source._up_ix[i]:
                    witnesses.append(BranchDefect(target._ids[j], source._ids[i]))
    locus = frozenset(compress(target._ids, target._up_ix))
    return BranchReport(not witnesses, tuple(witnesses), locus)


def _degree_mismatch(phi: PosetMorphism, values: list, component: int):
    """Is the local degree constant over the image of the component (a
    source bitset)?  One pass sums the local degree of every image
    element; returns None, or the least image element, the least one whose
    degree differs, and the two degrees."""
    image_of = phi._image_of
    degree = {}
    for x in bit_indices(component):
        y = image_of[x]
        degree[y] = degree.get(y, 0) + values[x]
    if len(set(degree.values())) <= 1:
        return None
    image = sorted(degree)
    y1, d1 = image[0], degree[image[0]]
    y2 = next(y for y in image if degree[y] != d1)
    t_ids = phi.target._ids
    return t_ids[y1], t_ids[y2], d1, degree[y2]


def _constancy_witnesses(phi: PosetMorphism, values: list, preimage: int, label) -> list:
    """A DegreeMismatch for every component of the preimage (a source
    bitset) whose local degree is not constant; ``label()`` names the
    target set the preimage is taken of."""
    source = phi.source
    found = []
    for component in source._component_bits(preimage):
        bad = _degree_mismatch(phi, values, component)
        if bad:
            found.append(DegreeMismatch(label(), frozenset(source._labels(component)), *bad))
    return found


def is_ibc(phi: PosetMorphism, m: IndexMap) -> Check:
    """Indexed-branched-cover decision over the principal up-sets of the
    target: the branched-cover condition must hold and the local degree of
    every preimage component must be constant over its image.

    On a combinatorial morphism the components of the preimage of up(beta)
    are the up(alpha) with phi(alpha) = beta, and along each cover of the
    image the degree on up(alpha) changes by the balancing defects inside
    up(alpha) (see _up_set_mismatches).  So a balanced map passes once its
    branch condition holds, by the main theorem (a balanced combinatorial
    map is open, so the theorem's openness hypothesis needs no test of its
    own), and an unbalanced one is summed only on the up(alpha) that hold
    a defect.  Other morphisms split each preimage by search."""
    m.require_total()
    witnesses = list(branch_locus_check(phi).witnesses)
    values = _value_list(phi, m)
    if phi._non_bijective():
        witnesses += _scanned_mismatches(phi, values)
    else:
        unbalanced = phi.source._bits(w.alpha for w in _balance_violations(phi, values))
        witnesses += _up_set_mismatches(phi, values, unbalanced)
    if witnesses:
        return Check.failed(witnesses)
    return Check.passed()


def _up_set_mismatches(phi: PosetMorphism, values: list, unbalanced: int) -> list:
    """The DegreeMismatch witnesses of a combinatorial morphism, target
    element by target element.

    The preimage of up(beta) is the disjoint union of the up(alpha) over
    the fibre of beta: down(x) of an x over up(beta) holds one element
    over beta, and two elements of different up(alpha) are never
    comparable.  For gamma covering y, each z in up(alpha) over gamma
    covers exactly one element of up(alpha) over y, as down(z) maps
    isomorphically onto down(gamma).  So the degree at gamma is the degree
    at y plus the balancing defects at gamma of the elements of up(alpha)
    over y, and a component without an unbalanced element has constant
    degree; only the up(alpha) with alpha below an unbalanced element are
    summed."""
    source = phi.source
    s_above, s_below = source._above, source._below
    suspects = unbalanced
    for x in bit_indices(unbalanced):
        suspects |= s_below[x]
    found = []
    if not suspects:
        return found
    t_ids = phi.target._ids
    for j, fibre in enumerate(phi._fibres):
        # disjoint components, so their lowest bits order them by least member
        ups = [s_above[a] | 1 << a for a in bit_indices(fibre & suspects)]
        for component in sorted(ups, key=lambda c: c & -c):
            bad = _degree_mismatch(phi, values, component)
            if bad:
                found.append(DegreeMismatch(t_ids[j], frozenset(source._labels(component)), *bad))
    return found


def _scanned_mismatches(phi: PosetMorphism, values: list) -> list:
    """The DegreeMismatch witnesses of any morphism: the preimage of every
    principal up-set, built top down in one pass, split into its
    components by breadth-first search."""
    target = phi.target
    preimages = list(phi._fibres)
    for j in reversed(target._order_ix):
        for c in target._up_ix[j]:
            preimages[j] |= preimages[c]
    found = []
    for j, beta in enumerate(target._ids):
        found += _constancy_witnesses(phi, values, preimages[j], lambda: beta)
    return found


def is_ibc_oracle(phi: PosetMorphism, m: IndexMap, limit: int = DEFAULT_ORACLE_LIMIT) -> Check:
    """Exhaustive indexed-branched-cover decision: every connected up-set
    of the target, every component of its preimage."""
    m.require_total()
    branch = branch_locus_check(phi)
    witnesses = list(branch.witnesses)
    target = phi.target
    values = _value_list(phi, m)
    for upset in up_set_bits(target, connected_only=True, limit=limit):
        preimage = phi._preimage_bits(bit_indices(upset))
        witnesses += _constancy_witnesses(
            phi, values, preimage, lambda: frozenset(target._labels(upset)))
    if witnesses:
        return Check.failed(witnesses)
    return Check.passed()


@dataclass
class DegreeReport:
    per_target_value: dict
    constant: bool
    degree: int | None


def global_degree(phi: PosetMorphism, m: IndexMap) -> DegreeReport:
    """Multiplicity count of every fibre; the degree when constant."""
    m.require_total()
    per = {beta: 0 for beta in phi.target.elements}
    for x in phi.source.elements:
        per[phi(x)] += m[x]
    counts = set(per.values())
    constant = len(counts) <= 1
    return DegreeReport(per, constant, counts.pop() if constant and counts else None)


def search_balanced(
    phi: PosetMorphism,
    bound: int = DEFAULT_SEARCH_BOUND,
    state_limit: int = DEFAULT_SEARCH_STATES,
):
    """Exhaustive search for a total balanced index map with values in
    1..bound; returns the least solution in lexicographic element order,
    or None.

    Elements whose image is maximal in the target carry no balancing
    constraint of their own, so they are the free variables; every other
    value is forced by the values above it and we only propagate and check
    consistency.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    free, plan = _push_plan(phi)
    free.sort()

    states = bound ** len(free)
    if states > state_limit:
        raise OracleSizeExceeded(states, state_limit)

    # values by index, so comparing lists compares in element order
    best = None
    blank = [0] * len(phi.source)
    for assignment in product(range(1, bound + 1), repeat=len(free)):
        values = blank[:]
        for alpha, v in zip(free, assignment):
            values[alpha] = v
        values = _push_down(plan, values)
        if values is None or any(values[alpha] > bound for alpha, _ in plan):
            continue
        if best is None or values < best:
            best = values
    if best is None:
        return None
    return _pushed_index_map(phi, free, plan, best)
