"""Barycentric subdivision at the face-poset level and stellar subdivision
of abstract simplicial complexes.

The barycentric subdivision of a poset is the poset of its non-empty strict
chains ordered by subchain inclusion.  Ranks follow the simplex convention,
rank = cardinality - 1; the cone-dimension convention found elsewhere is
this plus one.  The apex object that a cone complex would carry is omitted
on purpose.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice, tee

from .errors import (
    DuplicateElement,
    FaceNotInComplex,
    NotCombinatorial,
    OracleSizeExceeded,
    VertexClash,
)
from .morphisms import PosetMorphism
from .posets import Poset

DEFAULT_CHAIN_LIMIT = 100_000


class SimplicialComplex:
    """Finite abstract simplicial complex; faces are non-empty frozensets
    closed under non-empty subsets, and every vertex is a singleton face."""

    def __init__(self, faces):
        faces = {frozenset(f) for f in faces}
        if any(not f for f in faces):
            raise ValueError("faces must be non-empty")
        vertices = set()
        for f in faces:
            vertices |= f
        for f in faces:
            for r in range(1, len(f)):
                for sub in combinations(sorted(f), r):
                    if frozenset(sub) not in faces:
                        raise ValueError(f"not closed under subsets: missing {set(sub)!r}")
        for v in vertices:
            if frozenset([v]) not in faces:
                raise ValueError(f"vertex {v!r} has no singleton face")
        self.vertices = frozenset(vertices)
        self.faces = frozenset(faces)

    @classmethod
    def from_maximal(cls, vertices, maximal_faces) -> "SimplicialComplex":
        faces = {frozenset([v]) for v in vertices}
        for f in maximal_faces:
            f = frozenset(f)
            for r in range(1, len(f) + 1):
                for sub in combinations(sorted(f), r):
                    faces.add(frozenset(sub))
        return cls(faces)

    @classmethod
    def full_simplex(cls, vertices) -> "SimplicialComplex":
        return cls.from_maximal(vertices, [tuple(vertices)])

    def __len__(self):
        return len(self.faces)

    def __contains__(self, face):
        return frozenset(face) in self.faces

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.faces == other.faces

    def __repr__(self):
        return f"SimplicialComplex({len(self.vertices)} vertices, {len(self.faces)} faces)"

    def dimension(self) -> int:
        return max(len(f) for f in self.faces) - 1

    def faces_of_dimension(self, d: int) -> list[frozenset]:
        return sorted((f for f in self.faces if len(f) == d + 1), key=sorted)

    def star(self, face) -> frozenset:
        face = frozenset(face)
        if face not in self.faces:
            raise FaceNotInComplex(face)
        return frozenset(f for f in self.faces if face <= f)


def stellar_subdivide(complex_: SimplicialComplex, face, new_vertex: str) -> SimplicialComplex:
    """Replace the star of a face by the cone with a new vertex over the
    faces of starred simplices that miss the subdivided face."""
    face = frozenset(face)
    if face not in complex_.faces:
        raise FaceNotInComplex(face)
    if new_vertex in complex_.vertices:
        raise VertexClash(new_vertex)
    star = complex_.star(face)
    kept = set(complex_.faces) - set(star)
    added = {frozenset([new_vertex])}
    for tau in complex_.faces:
        if face <= tau:
            continue
        if any(tau <= f for f in star):
            added.add(tau | {new_vertex})
    return SimplicialComplex(kept | added)


def simplicial_face_poset(complex_: SimplicialComplex) -> Poset:
    """Face poset graded by cardinality minus one; covers are codimension-1
    inclusions.  Elements are the sorted vertex lists joined by commas."""
    label = {f: ",".join(sorted(f)) for f in complex_.faces}
    covers = []
    for f in complex_.faces:
        for g in complex_.faces:
            if f < g and len(g) == len(f) + 1:
                covers.append((label[f], label[g]))
    return Poset(sorted(label.values()), covers)


# ----- barycentric subdivision ---------------------------------------------


@dataclass
class ChainPoset:
    """Poset of non-empty strict chains, with back-references to the chain
    contents and each chain's top element."""

    poset: Poset
    chain_of: dict
    top_of: dict


def _chain_label(chain) -> str:
    return "<".join(chain)


def _has_bit(bits: int, i: int) -> int:
    return bits >> i & 1


def chain_poset(p: Poset, limit: int = DEFAULT_CHAIN_LIMIT) -> ChainPoset:
    """All non-empty strict chains of p, ordered by subchain inclusion;
    covers add exactly one element somewhere in the chain."""
    order = p._order_ix
    position = [0] * len(order)
    for k, i in enumerate(order):
        position[i] = k
    # depth-first over element indices, extensions by position in the
    # order; a chain is kept as (parent index, top) until the count is
    # within the limit, and the elements above a top are found once, in a
    # tee whose copies share them
    above = [None] * len(order)
    parents, tops = [], []
    stack = [(-1, iter(order))]
    while stack:
        parent, extensions = stack[-1]
        for top in extensions:
            if len(tops) > limit:
                raise OracleSizeExceeded(len(tops), limit)
            parents.append(parent)
            tops.append(top)
            if above[top] is None:
                later = islice(order, position[top] + 1, None)
                above[top] = tee(filter(partial(_has_bit, p._above[top]), later), 1)[0]
            stack.append((len(tops) - 1, copy(above[top])))
            break
        else:
            stack.pop()
    chains = []
    for parent, top in zip(parents, tops):
        chains.append((chains[parent] if parent >= 0 else ()) + (p._ids[top],))

    labels = {}
    for c in chains:
        lbl = _chain_label(c)
        if lbl in labels:
            raise DuplicateElement(lbl)
        labels[lbl] = c
    covers = []
    by_content = {frozenset(c): c for c in chains}
    for c in chains:
        if len(c) < 2:
            continue
        content = frozenset(c)
        for drop in c:
            sub = by_content.get(content - {drop})
            if sub is not None:
                covers.append((_chain_label(sub), _chain_label(c)))
    poset = Poset(sorted(labels), covers)
    return ChainPoset(
        poset=poset,
        chain_of=labels,
        top_of={lbl: c[-1] for lbl, c in labels.items()},
    )


def bcs_morphism(phi: PosetMorphism, limit: int = DEFAULT_CHAIN_LIMIT) -> PosetMorphism:
    """The induced map on barycentric subdivisions, defined elementwise on
    chains.  Needs a combinatorial morphism: every chain lies inside a
    principal down-set, where the map is injective, so strict chains stay
    strict."""
    combinatorial = phi.is_combinatorial()
    if not combinatorial:
        raise NotCombinatorial(combinatorial.witnesses[0].alpha)
    source = chain_poset(phi.source, limit)
    target = chain_poset(phi.target, limit)
    mapping = {}
    for lbl, chain in source.chain_of.items():
        mapping[lbl] = _chain_label(tuple(phi(x) for x in chain))
    return PosetMorphism(source.poset, target.poset, mapping)
