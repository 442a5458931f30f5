"""Index maps, local degrees, balancing, and the branched-cover decisions.

The exhaustive oracle checks the definition on every connected up-set of
the target and every component of its preimage, which it merges as the
up-set walk grows the up-set (see `is_ibc_oracle`).  It tests constancy
of the local degree over the image of each preimage component.  A
preimage of one component holds whole fibres, so its local degrees are
the fibre totals (``_fibre_totals``); those of a preimage of several are
sums of popcounts (``_degree_mismatch``).  The walk and its preimage
parts depend on the morphism alone, so they are kept on it and serve
every index map.

`is_ibc` uses one of two proven procedures.  On a combinatorial morphism
it uses the paper's local statements.  The preimage of up(beta) splits
into the up-sets up(alpha) over the fibre of beta, one component each,
and along a cover of the image the local degree on up(alpha) changes
only by the balancing defects inside it.  So a balanced map is an
indexed branched cover as soon as its branch condition holds (the main
theorem; a balanced combinatorial map is open), and an unbalanced one is
summed only on the up(alpha) that hold a defect.  Principal up-sets do
not decide other morphisms, so `is_ibc` runs the oracle's walk on them.

Balancing is the one walk that `is_balanced`, the fast pass of `is_ibc`,
and `extend_balanced`, the path lifts and connectivity lifting in
``extend`` share.  `_balance_violations` walks it once per morphism and
index map and keeps the witnesses on the map.

`search_balanced` solves the balancing equations.  Pushed down from the
free elements (those over maximal target elements), every value is an
integer linear form in the free values and every further cover group
one homogeneous equation; integer row reduction leaves d free values to
try, bound**d assignments, where the guard counts bound**free.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cache, cached_property
from itertools import product
from math import gcd, lcm
from operator import mul, sub

from .checks import Check
from .errors import (
    InvalidIndexMap,
    NotUpSet,
    OracleSizeExceeded,
    PartialIndexMap,
    ValueMissing,
)
from .morphisms import PosetMorphism
from .posets import DEFAULT_ORACLE_LIMIT, Poset, bit_indices

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
        # (morphism, balancing witnesses) of the last morphism this map was
        # balanced against, kept by covers._balance_violations; the values
        # never change, so the witnesses stay valid for that morphism
        self._balance_memo = None

    @cached_property
    def _by_index(self) -> list:
        """The values by index of the poset, None off the domain; callers
        that change values change a copy."""
        return list(map(self.values.get, self.poset._ids))

    @classmethod
    def total(cls, poset: Poset, values: dict) -> "IndexMap":
        m = cls(poset, values)
        m.require_total()
        return m

    @classmethod
    def constant(cls, poset: Poset) -> "IndexMap":
        return cls(poset, dict.fromkeys(poset.elements, 1))

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


def _require_on_source(phi: PosetMorphism, m: IndexMap) -> None:
    """Refuse an index map that lives on another poset than the source."""
    if m.poset != phi.source:
        raise InvalidIndexMap("index map lives on a different poset than the morphism source")


def local_degree(phi: PosetMorphism, m: IndexMap, subset: Iterable[str], y: str) -> int:
    """Sum of multiplicities over the fibre of y inside the subset; the
    empty sum is 0, and the least member of that fibre without a value
    raises ValueMissing."""
    _require_on_source(phi, m)
    j = phi.target._ix(y)
    image_of, ids = phi._image_of, phi.source._ids
    return sum(m[ids[i]] for i in bit_indices(phi.source._bits(subset)) if image_of[i] == j)


def _push_plan(phi: PosetMorphism):
    """The one top-down walk of the source: its indices in (-height, id)
    order, so every element comes after the elements covering it, split
    into the free elements, whose image is maximal so no balancing
    condition binds them, and the (alpha, cover groups) pairs of all the
    others."""
    height = phi.source._height
    groups = phi._cover_groups
    free, plan = [], []
    # a reversed sort keeps equal heights in index order
    for i in sorted(range(len(height)), key=height.__getitem__, reverse=True):
        if groups[i]:
            plan.append((i, groups[i]))
        else:
            free.append(i)
    return free, plan


def _push_down(plan, values: list):
    """Settle the entries of a plan, or of a part of it, in values, a
    list by source index: each element gets the common sum of its cover
    groups.  Returns the filled values, or None as soon as a group sums
    below 1 or differs from the first group."""
    value = values.__getitem__
    for alpha, groups in plan:
        total = sum(map(value, groups[0][1]))
        if total < 1:
            return None
        for _, group in groups[1:]:
            if sum(map(value, group)) != total:
                return None
        values[alpha] = total
    return values


def is_balanced(phi: PosetMorphism, m: IndexMap) -> Check:
    """The balancing condition: for alpha in the domain and every beta
    covering phi(alpha), the value at alpha equals the multiplicity sum of
    the elements covering alpha in the fibre of beta."""
    return Check.of(_balance_violations(phi, m))


def _balance_violations(phi: PosetMorphism, m: IndexMap) -> tuple:
    """The BalanceViolation witnesses of m, in (alpha, beta) order: the one
    balancing entry.  The cover groups are walked once per morphism and
    map; the witnesses are kept on m for the last morphism it was balanced
    against, so later calls with that morphism read them back."""
    memo = m._balance_memo
    if memo is not None and memo[0] is phi:
        return memo[1]
    _require_on_source(phi, m)
    witnesses = _walk_balance(phi, m._by_index)
    m._balance_memo = phi, witnesses
    return witnesses


def _walk_balance(phi: PosetMorphism, values: list) -> tuple:
    """The walk of _balance_violations over values, a list by source index
    with None off the domain; an unvalued alpha has no condition, and the
    covers of a valued one are valued, because the domain is an up-set."""
    groups = phi._cover_groups
    value = values.__getitem__
    ids, t_ids = phi.source._ids, phi.target._ids
    witnesses = []
    for alpha, lhs in enumerate(values):
        if lhs is None:
            continue
        for beta, group in groups[alpha]:
            rhs = sum(map(value, group))
            if rhs != lhs:
                witnesses.append(BalanceViolation(ids[alpha], t_ids[beta], lhs, rhs))
    return tuple(witnesses)


def branch_locus_check(phi: PosetMorphism) -> Check:
    """A poset morphism is a branched cover relative to the complement of
    the maximal target elements iff every fibre over a maximal target
    element consists of maximal source elements."""
    s_up, t_up = phi.source._up_ix, phi.target._up_ix
    # sorted by target index, then source index: fibre by fibre
    defects = sorted((j, i) for i, j in enumerate(phi._image_of) if not t_up[j] and s_up[i])
    s_ids, t_ids = phi.source._ids, phi.target._ids
    return Check.of([BranchDefect(t_ids[j], s_ids[i]) for j, i in defects])


def _fibre_totals(phi: PosetMorphism, values: list) -> list:
    """The multiplicity count of every fibre, by target index, from the
    values of a total map by source index."""
    totals = [0] * len(phi.target)
    for y, v in zip(phi._image_of, values):
        totals[y] += v
    return totals


def _degree_tables(phi: PosetMorphism, values: list) -> list:
    """For every target index, the (value, source bitset) pairs of its
    fibre, one pair per value, so a local degree is a sum of popcounts."""
    tables = [{} for _ in range(len(phi.target))]
    for x, (y, v) in enumerate(zip(phi._image_of, values)):
        table = tables[y]
        table[v] = table.get(v, 0) | 1 << x
    return [list(table.items()) for table in tables]


def _degree_mismatch(phi: PosetMorphism, tables: list, component: int, image: int):
    """Is the local degree constant over the image of the component (a
    source bitset)?  ``image`` is a target bitset that holds that image;
    the degree at each of its members, lowest first, is summed by
    popcount, a degree of 0 marks a member outside the image (every value
    is at least 1), and the first degree that differs ends the walk.
    Returns None, or the least image element, the least one whose degree
    differs, and the two degrees."""
    first = None
    while image:
        low = image & -image
        image ^= low
        y = low.bit_length() - 1
        degree = 0
        for v, bits in tables[y]:
            degree += v * (component & bits).bit_count()
        if not degree:
            continue
        if first is None:
            first, d1 = y, degree
        elif degree != d1:
            t_ids = phi.target._ids
            return t_ids[first], t_ids[y], d1, degree
    return None


def _constancy_witnesses(phi: PosetMorphism, tables: list, components, image: int,
                         label) -> list:
    """A DegreeMismatch for every component (a source bitset, its image
    inside the target bitset ``image``) whose local degree is not
    constant, by least member; ``label()`` names the target set the
    components split the preimage of."""
    found = []
    for component in components:
        bad = _degree_mismatch(phi, tables, component, image)
        if bad:
            found.append((component & -component, component, bad))
    if not found:
        return found
    # disjoint components, so their lowest bits order them by least member
    return [DegreeMismatch(label(), frozenset(phi.source._labels(component)), *bad)
            for _, component, bad in sorted(found)]


def is_ibc(phi: PosetMorphism, m: IndexMap) -> Check:
    """Indexed-branched-cover decision: the branched-cover condition must
    hold and the local degree of every preimage component must be constant
    over its image.

    On a combinatorial morphism principal up-sets decide it.  The
    components of the preimage of up(beta) are the up(alpha) with
    phi(alpha) = beta, and along each cover of the image the degree on
    up(alpha) changes by the balancing defects inside up(alpha) (see
    _up_set_mismatches).  So a balanced map passes once its branch
    condition holds, by the main theorem (a balanced combinatorial map is
    open, so the theorem's openness hypothesis needs no test of its own),
    and an unbalanced one is summed only on the up(alpha) that hold a
    defect.  Any other morphism is decided by the oracle's walk over every
    connected up-set, which UP_SET_WALK_LIMIT bounds; the oracle's element
    limit does not apply."""
    if phi._non_bijective:
        return is_ibc_oracle(phi, m, limit=len(phi.target))
    _require_on_source(phi, m)
    m.require_total()
    witnesses = list(branch_locus_check(phi).witnesses)
    unbalanced = phi.source._bits(w.alpha for w in _balance_violations(phi, m))
    witnesses += _up_set_mismatches(phi, m._by_index, unbalanced)
    return Check.of(witnesses)


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
    s_above = phi.source._above
    suspects = phi.source._closure(unbalanced, phi.source._below)
    found = []
    if not suspects:
        return found
    tables = _degree_tables(phi, values)
    t_above, t_ids = phi.target._above, phi.target._ids
    for j, fibre in enumerate(phi._fibres):
        ups = [s_above[a] | 1 << a for a in bit_indices(fibre & suspects)]
        if ups:
            found += _constancy_witnesses(phi, tables, ups, t_above[j] | 1 << j,
                                          lambda: t_ids[j])
    return found


def is_ibc_oracle(phi: PosetMorphism, m: IndexMap, limit: int = DEFAULT_ORACLE_LIMIT) -> Check:
    """Exhaustive indexed-branched-cover decision: every connected up-set
    of the target, every component of its preimage.  A target of more than
    ``limit`` elements is refused before any work.

    ``up_set_walk`` grows each up-set U by one closed up-set up(i), so the
    preimage of U grows by the preimage of up(i).  Preimages of up-sets
    are up-sets, so the components of the preimage of up(i), split once
    per target element, merge into those of U's wherever they meet: a few
    ANDs and ORs per up-set, not a search.  The walk depends on the
    morphism alone, so it is kept on it (``PosetMorphism._up_set_parts``)
    and every later call, whatever its index map, reads it back.  A
    preimage of one component
    holds the whole fibre of every member of U, so its local degree at y
    is y's fibre total, and the members of U with a non-zero total must
    all share the first one's; only a preimage of several components is
    summed by popcount."""
    _require_on_source(phi, m)
    m.require_total()
    source, target = phi.source, phi.target
    if len(target) > limit:
        raise OracleSizeExceeded(len(target), limit)
    witnesses = list(branch_locus_check(phi).witnesses)
    values = m._by_index
    totals = _fibre_totals(phi, values)
    # the targets by fibre total; a total of 0 is an empty fibre, as every
    # value is at least 1, and drops out as _degree_mismatch skips it
    with_total = {}
    for j, d in enumerate(totals):
        with_total[d] = with_total.get(d, 0) | 1 << j
    empty = with_total.pop(0, 0)

    @cache
    def tables():
        return _degree_tables(phi, values)

    t_ids = target._ids
    for upset, parts in phi._up_set_parts:
        if len(parts) > 1:
            witnesses += _constancy_witnesses(phi, tables(), parts, upset,
                                              lambda: frozenset(target._labels(upset)))
        elif parts:
            live = upset & ~empty
            y1 = (live & -live).bit_length() - 1
            other = live & ~with_total[totals[y1]]
            if other:
                y2 = (other & -other).bit_length() - 1
                witnesses.append(DegreeMismatch(
                    frozenset(target._labels(upset)), frozenset(source._labels(parts[0])),
                    t_ids[y1], t_ids[y2], totals[y1], totals[y2]))
    return Check.of(witnesses)


DegreeReport = namedtuple("DegreeReport", "per_target_value constant degree per_component")


def global_degree(phi: PosetMorphism, m: IndexMap) -> DegreeReport:
    """Multiplicity count of every fibre.  The paper's degree is one per
    connected component of the target, so ``constant`` says whether the
    count is constant on each component, and ``degree`` is the count when
    it is the same everywhere.  Only when the counts differ are the
    components found: ``per_component`` then pairs each, in the order of
    ``Poset.components``, with its count, or None where the count varies;
    otherwise it is None."""
    _require_on_source(phi, m)
    m.require_total()
    totals, t_index = _fibre_totals(phi, m._by_index), phi.target._index
    per = {beta: totals[t_index[beta]] for beta in phi.target.elements}
    counts = set(per.values())
    if len(counts) <= 1:
        return DegreeReport(per, True, counts.pop() if counts else None, None)
    per_component = []
    for comp in phi.target.components():
        values = {per[beta] for beta in comp}
        per_component.append((comp, values.pop() if len(values) == 1 else None))
    constant = all(d is not None for _, d in per_component)
    return DegreeReport(per, constant, None, tuple(per_component))


def search_balanced(phi: PosetMorphism, bound: int = DEFAULT_SEARCH_BOUND):
    """Exhaustive search for a total balanced index map with values in
    1..bound; returns the least solution in lexicographic element order,
    or None.  More than DEFAULT_SEARCH_STATES assignments of the free
    elements raise OracleSizeExceeded before any other work.

    Elements whose image is maximal in the target carry no balancing
    constraint of their own, so they are the free variables; every other
    value is forced by the values above it.  Pushed down the plan of
    ``_push_plan``, every value is an integer linear form in the free
    values, and every cover group after an element's first one gives one
    homogeneous equation between forms.  The equations are row-reduced
    over the integers, so only the bound**d assignments of the d free
    values that are not pivots are tried (see _least_solution); with bound
    1 the one assignment is pushed down directly.
    """
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    free, plan = _push_plan(phi)

    # bound ** len(free) only as far as the limit: the full power of many
    # free elements is too large to compute, let alone print
    states = 1
    for _ in free:
        states *= bound
        if states > DEFAULT_SEARCH_STATES:
            raise OracleSizeExceeded(f"{bound}**{len(free)}", DEFAULT_SEARCH_STATES,
                                     "search states")

    source = phi.source
    if bound == 1 or not free:
        # one assignment, all ones; there may be thousands of free elements
        values = [0] * len(source)
        for alpha in free:
            values[alpha] = 1
        if _push_down(plan, values) is None or max(values, default=1) > bound:
            return None
    else:
        values = _least_solution(len(source), free, plan, bound)
        if values is None:
            return None
    return IndexMap.total(source, dict(zip(source._ids, values)))


def _least_solution(size: int, free: list, plan: list, bound: int):
    """The least list by source index of values in 1..bound that meets
    every balancing equation of the plan, or None; at least one free
    element.

    Each free element's form is its unit vector and each other element's
    is the sum over its first cover group; each further group must sum to
    the same form.  After integer Gauss-Jordan elimination every pivot is
    a rational form in the d non-pivot values y, all over one common
    denominator den, so each distinct element form f has a numerator
    vector g_f over y: a candidate y is a solution when every g_f . y is a
    multiple of den in den..bound*den.  Only the distinct forms are
    evaluated, in order of their first element by source index: two value
    lists first differ at such an element, so the numerators compare like
    the full lists."""
    n = len(free)
    zero = (0,) * n
    forms = [zero] * size
    for k, alpha in enumerate(free):
        forms[alpha] = zero[:k] + (1,) + zero[k + 1:]
    equations = {}  # each distinct one once
    for alpha, groups in plan:
        total = None
        for _, group in groups:
            if len(group) == 1:
                form = forms[group[0]]
            else:
                form = tuple(map(sum, zip(zero, *map(forms.__getitem__, group))))
            if total is None:
                total = forms[alpha] = form
            elif form != total:
                equations[tuple(map(sub, form, total))] = None
    distinct = list(dict.fromkeys(forms))
    # every coefficient is at least 0 and every value at least 1, so a
    # form with no coefficient is 0, and one whose coefficients sum past
    # the bound exceeds it
    if any(not 1 <= sum(f) <= bound for f in distinct):
        return None

    pivots = _row_reduced(list(equations), n)
    den = lcm(*(row[c] for c, row in pivots))
    rest = sorted(set(range(n)) - {c for c, _ in pivots})
    # every free value by index of free, as numerators over y
    over_y = [[den if j == c else 0 for j in rest] for c in range(n)]
    for c, row in pivots:
        scale = den // row[c]
        over_y[c] = [-row[j] * scale for j in rest]
    # the numerators of the distinct forms, one column per y value, and
    # each column times 1..bound: a candidate's numerators are a sum of one
    # choice per column
    columns = [[sum(map(mul, f, column)) for f in distinct] for column in zip(*over_y)]
    choices = [[tuple([v * g for g in column]) for v in range(1, bound + 1)] for column in columns]

    lo, hi = den, bound * den
    # no choice at all when every free value is a pivot
    start, ones = (0,) * len(distinct), (den,) * len(distinct)
    best = None
    for chosen in product(*choices):
        key = tuple(map(sum, zip(start, *chosen)))
        if best is not None and key >= best:
            continue
        if min(key) < lo or max(key) > hi or den > 1 and any(v % den for v in key):
            continue
        best = key
        if best == ones:  # every value 1: nothing is less
            break
    if best is None:
        return None
    value = dict(zip(distinct, (v // den for v in best)))
    return list(map(value.__getitem__, forms))


def _row_reduced(rows: list, n: int) -> list:
    """Gauss-Jordan elimination over the integers, without fractions: the
    (column, row) pairs of the reduced rows, one per pivot column, each
    row with a positive entry in its own column, 0 in every other pivot
    column and its entries divided by their greatest common divisor."""
    pivots = []
    for c in range(n):
        pick = next((row for row in rows if row[c]), None)
        if pick is None:
            continue
        g = gcd(*pick) if pick[c] > 0 else -gcd(*pick)
        pick = [v // g for v in pick]
        p = pick[c]

        def eliminated(row):
            q = row[c]
            if not q:
                return row
            row = [p * a - q * b for a, b in zip(row, pick)]
            g = gcd(*row)
            return [v // g for v in row] if g else row

        # the picked row itself drops out as a row of zeros
        rows = [row for row in map(eliminated, rows) if any(row)]
        pivots = [(d, eliminated(row)) for d, row in pivots]
        pivots.append((c, pick))
    return pivots
