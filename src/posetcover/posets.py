"""Finite posets with explicit cover (Hasse) relations.

A poset is built from element identifiers and cover pairs; the cover input
must already be a transitive reduction, and redundant pairs are rejected
rather than silently reduced.  All outputs that are lists of elements are
sorted lexicographically so identical inputs give identical output.

Inside a poset, element ``_ids[i]`` is the integer i, numbered in sorted
id order, and a set of elements is an int bitset with bit i standing for
``_ids[i]``.  The lowest set bit of a set is therefore its least member,
and listing the bits from the bottom lists the members in sorted order.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import compress, count

from .errors import (
    CycleDetected,
    DuplicateElement,
    NotGraded,
    NotUpSet,
    OracleSizeExceeded,
    RedundantCover,
    UnknownElement,
)

DEFAULT_ORACLE_LIMIT = 16
# up-sets one walk may visit: twice the most a poset within the default
# oracle limit has (2^16, an antichain), so only a raised limit meets it
UP_SET_WALK_LIMIT = 2 ** (DEFAULT_ORACLE_LIMIT + 1)


_BIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _flags(bits: int) -> bytes:
    """One byte per bit of a non-negative int, lowest bit first, 1 where
    the bit is set; it selects members with itertools.compress at C speed."""
    return bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)


def _sparse(bits: int) -> bool:
    """Peeling off set bits one at a time costs a few big-int steps per
    member; scanning flags costs a little per bit.  Peel below one member
    in 16 bits: face posets of metric graphs are that sparse, layered
    posets are not."""
    return bits.bit_count() * 16 < bits.bit_length()


def bit_indices(bits: int) -> list[int]:
    """Positions of the set bits of a non-negative int, lowest first."""
    if _sparse(bits):
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    return list(compress(count(), _flags(bits)))


def _least(labels: set):
    """The least of a set of labels; labels that do not compare with one
    another are ordered by type name, then by repr."""
    try:
        return min(labels)
    except TypeError:
        return min(labels, key=lambda x: (type(x).__name__, repr(x)))


def _distinct(items) -> set:
    """The set of ``items``; raises DuplicateElement on the first repeat."""
    seen = set()
    for x in items:
        if x in seen:
            raise DuplicateElement(x)
        seen.add(x)
    return seen


def _merged(parts: list, pieces) -> list:
    """The components of a union of up-sets: ``parts``, the components so
    far, joined by ``pieces``, each a connected up-set.  An up-set holds
    the upper end of every comparable pair that starts in it, so two
    up-sets are joined by a comparable pair exactly when they meet; each
    piece absorbs every part it meets."""
    for piece in pieces:
        kept = []
        for part in parts:
            if part & piece:
                piece |= part
            else:
                kept.append(part)
        kept.append(piece)
        parts = kept
    return parts


# the graphs of a poset that DOT export draws (``dot.export_dot``),
# declared here so that the CLI lists them without loading ``dot``
GRAPH_KINDS = ("comparability", "covering", "hasse")


class Poset:
    """Immutable finite poset.

    ``elements`` keeps the input order; ``covers`` is a frozenset of pairs
    ``(a, b)`` meaning b covers a, derived from ``_up_ix`` on each read.
    Everything else is kept by index: ``_up_ix[i]`` and ``_down_ix[i]``
    list the elements covering i and covered by i, ascending, and are built
    with the poset.  ``_order_ix``, a topological order with every element
    after its lower covers, and ``_above[i]`` and ``_below[i]``, the strict
    up- and down-closures of element i as bitsets, are computed on first
    read and kept, so order queries are bit tests.  The constructor reads
    its cover pairs in one pass, so the first bad pair is the witness, and
    then the order and ``_above`` at once, as they hold the checks on its
    covers; a graded builder's covers need no check, so a chain poset or a
    face poset computes none of the three until a caller reads it.  A first
    read from two threads computes equal values, so the object is safe to
    share between threads.
    """

    def __init__(self, elements: Iterable[str], covers: Iterable[tuple[str, str]]):
        self._intern(elements)
        self._build(self._upper_covers(covers))

    def _upper_covers(self, covers) -> list[list[int]]:
        """The elements covering each element, by index, ascending, read in
        one pass over the cover pairs in input order: the first pair that
        does not unpack into two labels raises the unpacking error, and the
        first unknown label, a before b, raises UnknownElement.  A repeated
        pair counts once."""
        index = self._index.get
        up = [[] for _ in self._ids]
        for a, b in covers:
            i = index(a)
            if i is None:
                raise UnknownElement(a)
            j = index(b)
            if j is None:
                raise UnknownElement(b)
            up[i].append(j)
        for ups in up:
            if len(ups) > 1:
                ups.sort()
                # repeats are neighbours once sorted, and input rarely has any
                prev = None
                for j in ups:
                    if j == prev:
                        ups[:] = dict.fromkeys(ups)
                        break
                    prev = j
        return up

    @classmethod
    def _from_index(cls, elements: Iterable[str], up: list[list[int]],
                    rank: list[int] | None = None) -> "Poset":
        """The poset on ``elements`` whose element i, in sorted order, is
        covered by the elements listed in ``up[i]``, ascending; its covers
        are never spelled out as label pairs.  A graded builder passes the
        rank of each element by index (see ``_build``)."""
        p = cls.__new__(cls)
        p._intern(elements)
        p._build(up, rank)
        return p

    def _intern(self, elements: Iterable[str]) -> None:
        """Number the elements in sorted order; raises DuplicateElement with
        the first element repeated in input order."""
        elements = tuple(elements)
        ids = tuple(sorted(elements))
        index = dict(zip(ids, count()))
        if len(index) != len(elements):
            _distinct(elements)
        self.elements = elements
        self._ids = ids
        self._index = index

    def _build(self, up: list[list[int]], rank: list[int] | None = None) -> None:
        """The lower covers from ``up``, the elements covering each element
        by index, ascending.  Covers from outside (no ``rank``) are checked
        at once: reading the order and the up-closures raises CycleDetected,
        or RedundantCover with the least redundant pair.  A builder that
        knows a rank by index passes it instead, and every cover must raise
        it by exactly one, which proves the covers acyclic and irredundant;
        the order and the closures then wait for their first reader."""
        down = [[] for _ in up]
        if rank is None:
            for i, ups in enumerate(up):
                for j in ups:
                    down[j].append(i)  # i ascending, so every list comes out sorted
        else:
            for i, ups in enumerate(up):
                step = rank[i] + 1
                for j in ups:
                    if rank[j] != step:
                        raise AssertionError(f"cover {(self._ids[i], self._ids[j])!r} "
                                             "does not raise the rank by one")
                    down[j].append(i)
        self._up_ix = up
        self._down_ix = down
        if rank is None:
            # covers from outside are checked now: a cycle, then a redundant cover
            self._order_ix, self._above

    @cached_property
    def _order_ix(self) -> list[int]:
        """A topological order by Kahn's algorithm: the order grows while it
        is walked, each element appended once its last lower cover is
        placed.  It comes out short when the covers have a cycle, and then
        raises CycleDetected."""
        up = self._up_ix
        indeg = list(map(len, self._down_ix))
        order = [i for i, d in enumerate(indeg) if not d]
        for i in order:
            for j in up[i]:
                indeg[j] -= 1
                if not indeg[j]:
                    order.append(j)
        if len(order) != len(up):
            raise CycleDetected(self._find_cycle())
        return order

    @cached_property
    def _above(self) -> list[int]:
        """The strict up-closure of each element as a bitset, by index: one
        walk down the order.  A cover i < j is redundant when j is also
        reachable through another cover of i; raises RedundantCover with
        the least redundant pair."""
        up = self._up_ix
        above = [0] * len(up)
        redundant = []
        for i in reversed(self._order_ix):
            reach = covered = 0
            for j in up[i]:
                covered |= 1 << j
                reach |= above[j]
            if reach & covered:
                redundant.append((i, reach & covered))
            above[i] = reach | covered
        if redundant:
            i, implied = min(redundant)
            raise RedundantCover((self._ids[i], self._ids[bit_indices(implied)[0]]))
        return above

    @cached_property
    def _below(self) -> list[int]:
        """The strict down-closure of each element as a bitset, by index:
        each element's own bit spread downward, then taken out.  The seeds
        come from a generator, so no list keeps a seed once its closure
        has replaced it: the n seeds hold about n^2/16 bytes."""
        below = self._spread((1 << i for i in range(len(self._ids))), upward=False)
        for i in range(len(below)):
            below[i] ^= 1 << i
        return below

    def _find_cycle(self):
        """Iterative depth-first search along covers, roots in input order;
        returns the first cycle closed, its first element repeated last."""
        up, ids = self._up_ix, self._ids
        state = [None] * len(ids)  # 0 = on the current path, 1 = done
        for root in map(self._index.__getitem__, self.elements):
            if state[root] is not None:
                continue
            state[root] = 0
            path = [root]
            pending = [iter(up[root])]
            while pending:
                for c in pending[-1]:
                    if state[c] is None:
                        state[c] = 0
                        path.append(c)
                        pending.append(iter(up[c]))
                        break
                    if state[c] == 0:
                        return [ids[i] for i in path[path.index(c):] + [c]]
                else:
                    state[path.pop()] = 1
                    pending.pop()
        raise AssertionError("cycle reported but not found")

    @property
    def covers(self) -> frozenset:
        return frozenset(self._cover_pairs())

    def _cover_pairs(self) -> list[tuple[str, str]]:
        """The cover pairs in sorted order, read off the index lists."""
        ids = self._ids
        return [(ids[i], ids[j]) for i, ups in enumerate(self._up_ix) for j in ups]

    @cached_property
    def _height(self) -> list[int]:
        """Length of the longest cover chain from a minimal element up to
        each element, by index."""
        height = [0] * len(self._ids)
        down = self._down_ix
        for i in self._order_ix:  # every lower cover before its element
            for j in down[i]:
                if height[j] >= height[i]:
                    height[i] = height[j] + 1
        return height

    @cached_property
    def _chain_poset(self):
        """The poset of non-empty strict chains, built on first use and kept
        here; ``subdivision.chain_poset`` reads it and applies the chain
        limit at every call."""
        from .subdivision import _build_chain_poset

        return _build_chain_poset(self)

    # ----- order queries -------------------------------------------------

    def _ix(self, x) -> int:
        i = self._index.get(x)
        if i is None:
            raise UnknownElement(x)
        return i

    def _bits(self, subset: Iterable[str]) -> int:
        """The bitset of a collection of elements: the one reader of a set
        of labels.  A set has no order, so UnknownElement names the least
        label that is no element, whatever order the collection walks in."""
        index = self._index
        if iter(subset) is subset:
            subset = list(subset)  # a failed pass walks them again
        bits = 0
        try:
            for i in map(index.__getitem__, subset):
                bits |= 1 << i
        except (KeyError, TypeError):
            raise UnknownElement(_least(set(subset).difference(index))) from None
        return bits

    def _labels(self, bits: int) -> Iterator[str]:
        """The members of a bitset, in sorted order."""
        if _sparse(bits):
            return map(self._ids.__getitem__, bit_indices(bits))
        return compress(self._ids, _flags(bits))

    def _spread(self, seeds: Iterable[int], upward: bool) -> list[int]:
        """Each element's seed joined with the seeds of every element above
        it (upward) or below it, by index: one walk of the topological
        order, one OR per cover.  The seeds are ints of any meaning, such
        as bitsets over another poset."""
        spread = list(seeds)
        if upward:
            order, near = reversed(self._order_ix), self._up_ix
        else:
            order, near = self._order_ix, self._down_ix
        for i in order:
            acc = spread[i]
            for j in near[i]:
                acc |= spread[j]
            spread[i] = acc
        return spread

    def _closure(self, bits: int, reach: list[int]) -> int:
        """The bitset joined with everything ``reach`` (``_above`` or
        ``_below``) holds for its members."""
        for i in bit_indices(bits):
            bits |= reach[i]
        return bits

    def __contains__(self, x):
        return x in self._index

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {sum(map(len, self._up_ix))} covers)"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Poset):
            return NotImplemented
        return self._ids == other._ids and self._up_ix == other._up_ix

    def __hash__(self):
        return hash((self._ids, tuple(map(tuple, self._up_ix))))

    def leq(self, a: str, b: str) -> bool:
        i, j = self._ix(a), self._ix(b)
        return i == j or bool(self._above[i] >> j & 1)

    def lt(self, a: str, b: str) -> bool:
        i, j = self._ix(a), self._ix(b)
        return bool(self._above[i] >> j & 1)

    def covers_of(self, a: str) -> tuple[str, ...]:
        """Elements covering a."""
        return tuple(map(self._ids.__getitem__, self._up_ix[self._ix(a)]))

    def up_set(self, generators: Iterable[str]) -> frozenset:
        return frozenset(self._labels(self._closure(self._bits(generators), self._above)))

    def down_set(self, generators: Iterable[str]) -> frozenset:
        return frozenset(self._labels(self._closure(self._bits(generators), self._below)))

    def max_elements(self) -> tuple[str, ...]:
        return tuple(compress(self._ids, [not u for u in self._up_ix]))

    def min_elements(self) -> tuple[str, ...]:
        return tuple(compress(self._ids, [not d for d in self._down_ix]))

    def require_up_set(self, subset: Iterable[str]) -> frozenset:
        """The subset as a frozenset; raises NotUpSet with the least member
        that has a cover outside it, and the least such cover."""
        return frozenset(self._labels(self._require_up_set_bits(subset)))

    def _require_up_set_bits(self, subset: Iterable[str]) -> int:
        """The bitset of ``require_up_set``."""
        bits = self._bits(subset)
        if self._closure(bits, self._above) != bits:
            for i in bit_indices(bits):
                for j in self._up_ix[i]:
                    if not bits >> j & 1:
                        raise NotUpSet(self._ids[i], self._ids[j])
        return bits

    # ----- connectivity ---------------------------------------------------

    def components(self, subset: Iterable[str] | None = None) -> list[frozenset]:
        """Connected components of the comparability graph, restricted to
        ``subset`` when given (comparability taken in the ambient poset).
        Sorted by least member."""
        return [frozenset(self._labels(c)) for c in self._component_bits(self._pool(subset))]

    def _pool(self, subset) -> int:
        return (1 << len(self._ids)) - 1 if subset is None else self._bits(subset)

    def _component_bits(self, pool: int) -> list[int]:
        """Each component is grown from the least member left in the pool,
        so the list comes out sorted by least member."""
        comps = []
        while pool:
            comp = self._grow(pool & -pool, pool)
            pool ^= comp
            comps.append(comp)
        return comps

    def _grow(self, comp: int, pool: int) -> int:
        """Breadth-first search over bitsets: the component of the pool
        that holds the one-member set ``comp``."""
        above, below = self._above, self._below
        frontier = comp
        pool ^= comp
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            new = (above[i] | below[i]) & pool
            if new:
                pool ^= new
                comp |= new
                frontier |= new
        return comp

    def _is_connected_bits(self, pool: int) -> bool:
        return not pool or self._grow(pool & -pool, pool) == pool

    def _punctured_connected(self, i: int) -> bool:
        """Is the punctured up-set of element i non-empty and connected?
        It is the union of the closed up-sets of the covers of i, each
        connected through its least element, so ``_merged`` splits it."""
        above, ups = self._above, self._up_ix[i]
        return bool(ups) and len(_merged([], [above[c] | 1 << c for c in ups])) == 1

    def is_connected(self, subset: Iterable[str] | None = None) -> bool:
        return self._is_connected_bits(self._pool(subset))

    def induced(self, subset: Iterable[str]) -> "Poset":
        """Induced subposet; covers are recomputed (a pair comparable through
        removed elements only becomes a cover here)."""
        bits = self._bits(subset)
        above = self._above
        members = bit_indices(bits)
        local = dict(zip(members, count()))
        up = []
        for i in members:
            higher = above[i] & bits
            shadow = 0
            for j in bit_indices(higher):
                shadow |= above[j]
            up.append(list(map(local.__getitem__, bit_indices(higher & ~shadow))))
        return Poset._from_index(map(self._ids.__getitem__, members), up)


# ----- rank functions -----------------------------------------------------


class RankReport(namedtuple("RankReport", "rank dim pure")):
    """Rank function of a graded poset plus its dimension data."""

    __slots__ = ()

    def level(self, k: int) -> tuple[str, ...]:
        return tuple(sorted(e for e, r in self.rank.items() if r == k))


def rank_check(p: Poset) -> RankReport:
    """Compute the rank function (longest cover chain from a minimal
    element) and verify it; raises NotGraded with the least cover pair that
    does not raise rank by exactly one."""
    height, ids = p._height, p._ids
    for i, ups in enumerate(p._up_ix):  # the cover pairs in sorted order
        for j in ups:
            if height[j] != height[i] + 1:
                raise NotGraded((ids[i], ids[j]))
    maxdims = {height[i] for i, ups in enumerate(p._up_ix) if not ups}
    return RankReport(rank=dict(zip(ids, height)), dim=max(height, default=-1),
                      pure=len(maxdims) <= 1)


# ----- connectivity report ------------------------------------------------


ConnectivityReport = namedtuple("ConnectivityReport", "mode connected components witness",
                                defaults=(None,))


def connectivity(p: Poset, mode: str, k: int | None = None) -> ConnectivityReport:
    """Connectivity checks: plain comparability connectivity, connectivity
    in codimension k (the up-set of the rank d-k level), and strong
    connectivity (connected, and every punctured principal up-set at rank
    <= d-2 connected)."""
    if mode == "connected":
        comps = p.components()
        return ConnectivityReport(mode, len(comps) <= 1, comps)
    report = rank_check(p)  # raises NotGraded for the modes below
    d = report.dim
    if mode == "codim":
        if k is None or not 0 <= k <= d:
            raise ValueError(f"codimension must lie in 0..{d}, got {k}")
        subset = p.up_set(report.level(d - k))
        comps = p.components(subset)
        return ConnectivityReport(mode, len(comps) <= 1, comps)
    if mode == "strong":
        comps = p.components()
        if len(comps) > 1:
            return ConnectivityReport(mode, False, comps)
        height = p._height
        for i, alpha in enumerate(p._ids):
            # an empty puncture means alpha is maximal at low rank; the
            # poset is pinched there, which strong connectivity rules out
            if height[i] <= d - 2 and not p._punctured_connected(i):
                sub = p._component_bits(p._above[i])  # the punctured up-set of alpha
                return ConnectivityReport(mode, False, [frozenset(p._labels(c)) for c in sub],
                                          witness=alpha)
        return ConnectivityReport(mode, True, comps)
    raise ValueError(f"unknown connectivity mode {mode!r}")


# ----- up-set enumeration ---------------------------------------------------


def enumerate_up_sets(
    p: Poset,
    connected_only: bool = False,
    limit: int = DEFAULT_ORACLE_LIMIT,
) -> Iterator[frozenset]:
    """Yield every up-set of p, one per antichain of generators.

    With connected_only, only non-empty up-sets whose comparability graph is
    connected are yielded.  This is the oracle support for the exhaustive
    indexed-branched-cover check, hence the size guard.
    """
    return (frozenset(p._labels(up)) for up, _ in up_set_walk(p, connected_only, limit))


def up_set_walk(
    p: Poset,
    connected_only: bool = False,
    limit: int = DEFAULT_ORACLE_LIMIT,
    pieces=None,
) -> Iterator[tuple[int, list]]:
    """Every up-set of p as a bitset, one per antichain of generators: a
    depth-first walk from an explicit stack, each antichain extended by its
    candidates in sorted order, the empty up-set first.  A walk that would
    visit more than UP_SET_WALK_LIMIT up-sets, the empty one included,
    raises OracleSizeExceeded(UP_SET_WALK_LIMIT + 1, UP_SET_WALK_LIMIT).
    An antichain of k members has 2^k subsets, each an antichain the walk
    visits, so the walk raises as soon as it holds an antichain of
    UP_SET_WALK_LIMIT.bit_length() members, before it visits the rest.

    Adding element i to an antichain joins the closed up-set of i to its
    up-set; with connected_only, every frame keeps the components of its
    up-set, merges that piece in (``_merged``) and yields the up-set only
    when one component is left.  Each up-set comes with ``parts``, the
    components of the union over the antichain of ``pieces(i)``, connected
    up-sets of another poset (the preimage of up(i), say) merged the same
    way; empty without pieces."""
    n = len(p)
    if n > limit:
        raise OracleSizeExceeded(n, limit)
    above, below = p._above, p._below
    walked, widest = 1, UP_SET_WALK_LIMIT.bit_length()
    if not connected_only:
        yield 0, []
    # one frame per antichain on the current path: its up-set, the
    # candidates (elements after its last member comparable to no member),
    # the components of its up-set (with connected_only) and its parts
    stack = [(0, (1 << n) - 1, [], [])]
    while stack:
        up, candidates, comps, parts = stack[-1]
        if not candidates:
            stack.pop()
            continue
        low = candidates & -candidates
        candidates ^= low
        stack[-1] = (up, candidates, comps, parts)
        walked += 1
        # adding i makes an antichain of len(stack) members
        if walked > UP_SET_WALK_LIMIT or len(stack) == widest:
            raise OracleSizeExceeded(UP_SET_WALK_LIMIT + 1, UP_SET_WALK_LIMIT, "up-sets walked")
        i = low.bit_length() - 1
        closed = above[i] | low
        if connected_only:
            comps = _merged(comps, (closed,))
        if pieces is not None:
            parts = _merged(parts, pieces(i))
        grown = up | closed
        if not connected_only or len(comps) == 1:
            yield grown, parts
        stack.append((grown, candidates & ~(above[i] | below[i]), comps, parts))
