"""Index maps, local degrees, balancing, and the branched-cover decisions.

The fast indexed-branched-cover test reduces the definition to principal
up-sets of the target; the exhaustive oracle runs the definition verbatim
over every connected up-set.  Both evaluate constancy of the local degree
over the image of the component, and they provably agree on combinatorial
morphisms, which is what the differential test suite generates.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import product
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
from .posets import DEFAULT_ORACLE_LIMIT, Poset, enumerate_up_sets

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
        if not m.is_total():
            raise PartialIndexMap(frozenset(poset.elements) - m.domain)
        return m

    @classmethod
    def constant(cls, poset: Poset, value: int = 1) -> "IndexMap":
        return cls(poset, {e: value for e in poset.elements})

    def is_total(self) -> bool:
        return len(self.domain) == len(self.poset)

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


def _cover_groups(phi: PosetMorphism, alpha: str) -> list:
    """The elements covering alpha, grouped by the element covering
    phi(alpha) that they map to: one (beta, group) pair per cover beta of
    phi(alpha), in covers_of order.  Empty groups stay, because their sum of
    0 is a real witness."""
    ups = phi.source.covers_of(alpha)
    return [(beta, [g for g in ups if phi(g) == beta])
            for beta in phi.target.covers_of(phi(alpha))]


def _push_plan(phi: PosetMorphism):
    """Split the source, top first in (depth, id) order, into the free
    elements, whose image is maximal so no balancing condition binds them,
    and the (alpha, cover groups) pairs of all the others."""
    depth = phi.source._depth
    free, plan = [], []
    for alpha in sorted(phi.source.elements, key=lambda x: (depth[x], x)):
        groups = _cover_groups(phi, alpha)
        if groups:
            plan.append((alpha, groups))
        else:
            free.append(alpha)
    return free, plan


def _push_down(plan, values: dict):
    """Push values down the plan: each element gets the common sum of its
    cover groups.  Returns the filled values, or None when two groups
    disagree or the sum is below 1."""
    for alpha, groups in plan:
        sums = {sum(values[g] for g in group) for _, group in groups}
        if len(sums) != 1 or min(sums) < 1:
            return None
        values[alpha] = sums.pop()
    return values


def is_balanced(phi: PosetMorphism, m: IndexMap) -> Check:
    """The balancing condition: for alpha in the domain and every beta
    covering phi(alpha), the value at alpha equals the multiplicity sum of
    the elements covering alpha in the fibre of beta."""
    if m.poset != phi.source:
        raise InvalidIndexMap("index map lives on a different poset than the morphism source")
    witnesses = []
    for alpha in sorted(m.domain):
        for beta, group in _cover_groups(phi, alpha):
            rhs = sum(m[g] for g in group)
            if rhs != m[alpha]:
                witnesses.append(BalanceViolation(alpha, beta, m[alpha], rhs))
    if witnesses:
        return Check.failed(witnesses)
    return Check.passed()


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
    witnesses = []
    max_source = set(phi.source.max_elements())
    for beta in phi.target.max_elements():
        for alpha in sorted(phi.fibre(beta)):
            if alpha not in max_source:
                witnesses.append(BranchDefect(beta, alpha))
    locus = frozenset(phi.target.elements) - frozenset(phi.target.max_elements())
    return BranchReport(not witnesses, tuple(witnesses), locus)


def _constancy_violation(phi, m, beta_label, component):
    """Check the local degree is constant over the image of the component;
    return a DegreeMismatch or None.  One pass sums the local degree of
    every image element."""
    degree = {}
    for x in component:
        y = phi.mapping[x]
        degree[y] = degree.get(y, 0) + m[x]
    if not degree:
        return None
    image = sorted(degree)
    y1, d1 = image[0], degree[image[0]]
    for y2 in image[1:]:
        d2 = degree[y2]
        if d2 != d1:
            return DegreeMismatch(beta_label, frozenset(component), y1, y2, d1, d2)
    return None


def is_ibc(phi: PosetMorphism, m: IndexMap) -> Check:
    """Indexed-branched-cover decision over the principal up-sets of the
    target: the branched-cover condition must hold and the local degree of
    every preimage component must be constant over its image."""
    if not m.is_total():
        raise PartialIndexMap(frozenset(phi.source.elements) - m.domain)
    branch = branch_locus_check(phi)
    witnesses = list(branch.witnesses)
    for beta in sorted(phi.target.elements):
        for component in phi.preimage_components(beta):
            bad = _constancy_violation(phi, m, beta, component)
            if bad:
                witnesses.append(bad)
    if witnesses:
        return Check.failed(witnesses)
    return Check.passed()


def is_ibc_oracle(phi: PosetMorphism, m: IndexMap, limit: int = DEFAULT_ORACLE_LIMIT) -> Check:
    """Exhaustive indexed-branched-cover decision: every connected up-set
    of the target, every component of its preimage."""
    if not m.is_total():
        raise PartialIndexMap(frozenset(phi.source.elements) - m.domain)
    branch = branch_locus_check(phi)
    witnesses = list(branch.witnesses)
    for upset in enumerate_up_sets(phi.target, connected_only=True, limit=limit):
        label = frozenset(upset)
        for component in phi.source.components(phi.preimage(upset)):
            bad = _constancy_violation(phi, m, label, component)
            if bad:
                witnesses.append(bad)
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
    if not m.is_total():
        raise PartialIndexMap(frozenset(phi.source.elements) - m.domain)
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
    order = sorted(phi.source.elements)
    free, plan = _push_plan(phi)
    free.sort()

    states = bound ** len(free)
    if states > state_limit:
        raise OracleSizeExceeded(states, state_limit)

    best = best_key = None
    for assignment in product(range(1, bound + 1), repeat=len(free)):
        values = _push_down(plan, dict(zip(free, assignment)))
        if values is None or any(values[alpha] > bound for alpha, _ in plan):
            continue
        key = tuple(values[x] for x in order)
        if best is None or key < best_key:
            best, best_key = values, key
    if best is None:
        return None
    return IndexMap.total(phi.source, best)
