"""Finite posets with explicit cover (Hasse) relations.

A poset is built from element identifiers and cover pairs; the cover input
must already be a transitive reduction, and redundant pairs are rejected
rather than silently reduced.  All outputs that are lists of elements are
sorted lexicographically so identical inputs give identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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


class Poset:
    """Immutable finite poset.

    ``elements`` keeps the input order; ``covers`` is a frozenset of pairs
    ``(a, b)`` meaning b covers a.  Order queries run over precomputed
    reachability sets, so they are cheap and the object is safe to share
    between threads.  ``_order`` is a topological order, least id first.
    """

    def __init__(self, elements: Iterable[str], covers: Iterable[tuple[str, str]]):
        elements = tuple(elements)
        seen = set()
        for e in elements:
            if e in seen:
                raise DuplicateElement(e)
            seen.add(e)
        self.elements = elements
        self._set = frozenset(elements)

        up = {e: set() for e in elements}
        down = {e: set() for e in elements}
        cover_set = set()
        for a, b in covers:
            if a not in self._set:
                raise UnknownElement(a)
            if b not in self._set:
                raise UnknownElement(b)
            cover_set.add((a, b))
            up[a].add(b)
            down[b].add(a)
        self.covers = frozenset(cover_set)
        self._up = {e: tuple(sorted(up[e])) for e in elements}
        self._down = {e: tuple(sorted(down[e])) for e in elements}

        self._order = order = tuple(self._topological_order())
        # filled on first use; declared here because a later write keeps the
        # compact attribute layout that writing to __dict__ would give up
        self._height_memo = self._depth_memo = None
        # strict reachability over covers, computed bottom-up
        above: dict[str, frozenset] = {}
        for e in reversed(order):
            acc = set()
            for c in self._up[e]:
                acc.add(c)
                acc |= above[c]
            above[e] = frozenset(acc)
        below: dict[str, frozenset] = {}
        for e in order:
            acc = set()
            for c in self._down[e]:
                acc.add(c)
                acc |= below[c]
            below[e] = frozenset(acc)
        self._above = above
        self._below = below

        for a, b in self.covers:
            for c in self._up[a]:
                if c != b and b in above[c]:
                    raise RedundantCover((a, b))

    def _topological_order(self):
        indeg = {e: len(self._down[e]) for e in self.elements}
        ready = sorted(e for e in self.elements if indeg[e] == 0)
        order = []
        while ready:
            e = ready.pop(0)
            order.append(e)
            for c in self._up[e]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
            ready.sort()
        if len(order) != len(self.elements):
            raise CycleDetected(self._find_cycle())
        return order

    def _find_cycle(self):
        """Iterative depth-first search along covers, roots in input order;
        returns the first cycle closed, its first element repeated last."""
        state = {}  # 0 = on the current path, 1 = done
        for root in self.elements:
            if root in state:
                continue
            state[root] = 0
            path = [root]
            pending = [iter(self._up[root])]
            while pending:
                for c in pending[-1]:
                    if c not in state:
                        state[c] = 0
                        path.append(c)
                        pending.append(iter(self._up[c]))
                        break
                    if state[c] == 0:
                        return path[path.index(c):] + [c]
                else:
                    state[path.pop()] = 1
                    pending.pop()
        raise AssertionError("cycle reported but not found")

    @property
    def _height(self) -> dict:
        """Length of the longest cover chain from a minimal element up to
        each element, keyed in topological order."""
        if self._height_memo is None:
            height = {}
            for e in self._order:
                height[e] = 1 + max((height[c] for c in self._down[e]), default=-1)
            self._height_memo = height  # published only when complete
        return self._height_memo

    @property
    def _depth(self) -> dict:
        """Length of the longest cover chain from each element up to a
        maximal element."""
        if self._depth_memo is None:
            depth = {}
            for e in reversed(self._order):
                depth[e] = 1 + max((depth[c] for c in self._up[e]), default=-1)
            self._depth_memo = depth  # published only when complete
        return self._depth_memo

    # ----- order queries -------------------------------------------------

    def _check(self, *xs):
        for x in xs:
            if x not in self._set:
                raise UnknownElement(x)

    def __contains__(self, x):
        return x in self._set

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Poset({len(self.elements)} elements, {len(self.covers)} covers)"

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self._set == other._set and self.covers == other.covers

    def __hash__(self):
        return hash((self._set, self.covers))

    def leq(self, a: str, b: str) -> bool:
        self._check(a, b)
        return a == b or b in self._above[a]

    def lt(self, a: str, b: str) -> bool:
        self._check(a, b)
        return b in self._above[a]

    def comparable(self, a: str, b: str) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def covers_of(self, a: str) -> tuple[str, ...]:
        """Elements covering a."""
        self._check(a)
        return self._up[a]

    def cocovers_of(self, a: str) -> tuple[str, ...]:
        """Elements covered by a."""
        self._check(a)
        return self._down[a]

    def up_set(self, generators: Iterable[str]) -> frozenset:
        gens = list(generators)
        self._check(*gens)
        acc = set(gens)
        for g in gens:
            acc |= self._above[g]
        return frozenset(acc)

    def down_set(self, generators: Iterable[str]) -> frozenset:
        gens = list(generators)
        self._check(*gens)
        acc = set(gens)
        for g in gens:
            acc |= self._below[g]
        return frozenset(acc)

    def max_elements(self) -> tuple[str, ...]:
        return tuple(sorted(e for e in self.elements if not self._up[e]))

    def min_elements(self) -> tuple[str, ...]:
        return tuple(sorted(e for e in self.elements if not self._down[e]))

    def is_up_set(self, subset: Iterable[str]) -> bool:
        s = frozenset(subset)
        self._check(*s)
        return all(c in s for a in s for c in self._up[a])

    def require_up_set(self, subset: Iterable[str]) -> frozenset:
        s = frozenset(subset)
        self._check(*s)
        for a in s:
            for c in self._up[a]:
                if c not in s:
                    raise NotUpSet(a, c)
        return s

    # ----- connectivity ---------------------------------------------------

    def components(self, subset: Iterable[str] | None = None) -> list[frozenset]:
        """Connected components of the comparability graph, restricted to
        ``subset`` when given (comparability taken in the ambient poset).
        Sorted by least member."""
        pool = set(self.elements if subset is None else subset)
        self._check(*pool)
        comps = []
        while pool:
            start = min(pool)
            comp = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for y in list(pool):
                    if y not in comp and (y in self._above[x] or y in self._below[x]):
                        comp.add(y)
                        frontier.append(y)
                pool -= comp
            comps.append(frozenset(comp))
        return sorted(comps, key=min)

    def is_connected(self, subset: Iterable[str] | None = None) -> bool:
        return len(self.components(subset)) <= 1

    def induced(self, subset: Iterable[str]) -> "Poset":
        """Induced subposet; covers are recomputed (a pair comparable through
        removed elements only becomes a cover here)."""
        s = frozenset(subset)
        self._check(*s)
        covers = []
        for a in s:
            strictly_above = self._above[a] & s
            for b in strictly_above:
                if not any(b in self._above[c] for c in strictly_above if c != b):
                    covers.append((a, b))
        return Poset(sorted(s), covers)


# ----- rank functions -----------------------------------------------------


@dataclass
class RankReport:
    """Rank function of a graded poset plus its dimension data."""

    rank: dict
    dim: int
    pure: bool

    def level(self, k: int) -> tuple[str, ...]:
        return tuple(sorted(e for e, r in self.rank.items() if r == k))


def rank_check(p: Poset) -> RankReport:
    """Compute the rank function (longest cover chain from a minimal
    element) and verify it; raises NotGraded with an offending cover pair
    if covers do not raise rank by exactly one."""
    rank = dict(p._height)
    for a, b in sorted(p.covers):
        if rank[b] != rank[a] + 1:
            raise NotGraded((a, b))
    maxdims = {rank[e] for e in p.max_elements()}
    dim = max(rank.values(), default=-1)
    return RankReport(rank=rank, dim=dim, pure=len(maxdims) <= 1)


# ----- connectivity report ------------------------------------------------


@dataclass
class ConnectivityReport:
    mode: str
    connected: bool
    components: list
    witness: str | None = None


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
        for alpha in sorted(p.elements):
            if report.rank[alpha] > d - 2:
                continue
            punctured = p.up_set([alpha]) - {alpha}
            sub = p.components(punctured)
            # an empty puncture means alpha is maximal at low rank; the
            # poset is pinched there, which strong connectivity rules out
            if len(sub) != 1:
                return ConnectivityReport(mode, False, sub, witness=alpha)
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
    if len(p) > limit:
        raise OracleSizeExceeded(len(p), limit)
    order = sorted(p.elements)

    def emit(antichain):
        up = p.up_set(antichain)
        if connected_only:
            if up and p.is_connected(up):
                return up
            return None
        return up

    def walk(start: int, antichain: list):
        got = emit(antichain)
        if got is not None:
            yield got
        for i in range(start, len(order)):
            e = order[i]
            if any(p.comparable(e, a) for a in antichain):
                continue
            antichain.append(e)
            yield from walk(i + 1, antichain)
            antichain.pop()

    yield from walk(0, [])
