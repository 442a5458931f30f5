"""Barycentric subdivision at the face-poset level and stellar subdivision
of abstract simplicial complexes.

The barycentric subdivision of a poset is the poset of its non-empty strict
chains ordered by subchain inclusion.  Ranks follow the simplex convention,
rank = cardinality - 1; the cone-dimension convention found elsewhere is
this plus one.  The apex object that a cone complex would carry is omitted
on purpose.

Strict chains and the faces of a complex follow one rule: a chain or a
face covers exactly the chains or faces it becomes with one member dropped.
One builder, ``_drop_one_poset``, applies it to both: it takes the chains
or the faces as tuples and grades them by length minus one.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, count

from .errors import FaceNotInComplex, OracleSizeExceeded, VertexClash
from .morphisms import PosetMorphism
from .posets import Poset, bit_indices

DEFAULT_CHAIN_LIMIT = 100_000


class SimplicialComplex:
    """Finite abstract simplicial complex; faces are non-empty frozensets
    closed under non-empty subsets, and every vertex is a singleton face."""

    def __init__(self, faces):
        faces = {frozenset(f) for f in faces}
        if any(not f for f in faces):
            raise ValueError("faces must be non-empty")
        # closed under non-empty subsets exactly when closed under dropping
        # one member, and then every vertex is a singleton face
        missing = [f - {v} for f in faces if len(f) > 1 for v in f if f - {v} not in faces]
        if missing:
            raise ValueError(f"not closed under subsets: missing {min(map(sorted, missing))!r}")
        self.vertices = frozenset().union(*faces)
        self.faces = frozenset(faces)

    @classmethod
    def from_maximal(cls, vertices, maximal_faces) -> "SimplicialComplex":
        maximal = [sorted(set(f)) for f in maximal_faces]
        size = sum((1 << len(f)) - 1 for f in maximal)
        if size > DEFAULT_CHAIN_LIMIT:
            raise OracleSizeExceeded(size, DEFAULT_CHAIN_LIMIT, "subsets of maximal faces")
        faces = {frozenset([v]) for v in vertices}
        for f in maximal:
            for r in range(1, len(f) + 1):
                faces.update(map(frozenset, combinations(f, r)))
        return cls(faces)

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
    kept = complex_.faces - complex_.star(face)
    # by closure, tau lies in a starred simplex exactly when tau | face is one
    cone = {tau | {new_vertex} for tau in kept if tau | face in complex_.faces}
    return SimplicialComplex(kept | cone | {frozenset([new_vertex])})


def simplicial_face_poset(complex_: SimplicialComplex) -> Poset:
    """Face poset graded by cardinality minus one; covers are codimension-1
    inclusions.  Elements are the sorted vertex lists joined by commas;
    labels that collide raise DuplicateElement in the build."""
    return _drop_one_poset([tuple(sorted(f)) for f in complex_.faces], ",".join)[0]


def _drop_one_poset(members: list, label) -> tuple:
    """The poset on the labels of ``members``, tuples closed under dropping
    one entry, in which each member covers the members it becomes with one
    entry dropped, graded by length minus one; with the labels in the
    order of ``members``."""
    labels = list(map(label, members))
    # the members in label order, the poset's numbering, so walking them in
    # that order lists the members covering each one in ascending order
    by_label = sorted(range(len(members)), key=labels.__getitem__)
    ordered = list(map(members.__getitem__, by_label))
    index = dict(zip(ordered, count()))
    up = [[] for _ in ordered]
    for k, c in enumerate(ordered):
        if len(c) > 1:
            for d in combinations(c, len(c) - 1):
                up[index[d]].append(k)
    poset = Poset._from_index(map(labels.__getitem__, by_label), up,
                              [len(c) - 1 for c in ordered])
    return poset, labels


# ----- barycentric subdivision ---------------------------------------------


# the poset of non-empty strict chains, with back-references to the chain
# contents
ChainPoset = namedtuple("ChainPoset", "poset chain_of")


# the label of a chain: its members joined by "<"
_chain_label = "<".join


def chain_poset(p: Poset) -> ChainPoset:
    """All non-empty strict chains of p, ordered by subchain inclusion;
    a chain covers each chain it becomes with one member dropped.  More
    than DEFAULT_CHAIN_LIMIT chains raise OracleSizeExceeded.  The chain
    poset is built once per poset and kept on it; the limit is read at
    every call, so one kept under a higher limit is refused all the same."""
    chains = p._chain_poset
    if len(chains.chain_of) > DEFAULT_CHAIN_LIMIT:
        raise OracleSizeExceeded(DEFAULT_CHAIN_LIMIT + 1, DEFAULT_CHAIN_LIMIT)
    return chains


def _build_chain_poset(p: Poset) -> ChainPoset:
    """The chain poset of p, built for Poset._chain_poset to keep."""
    ids, below, order = p._ids, p._below, p._order_ix
    # the chains that end at i are i alone and each chain ending below i
    # with i appended; they are counted before any is built
    number = [0] * len(ids)
    under = [None] * len(ids)
    total = 0
    for i in order:
        under[i] = bit_indices(below[i])
        number[i] = 1 + sum(map(number.__getitem__, under[i]))
        total += number[i]
        if total > DEFAULT_CHAIN_LIMIT:
            raise OracleSizeExceeded(DEFAULT_CHAIN_LIMIT + 1, DEFAULT_CHAIN_LIMIT)
    chains = []
    ending = [None] * len(ids)
    for i in order:
        top = (ids[i],)
        ending[i] = [top, *(c + top for j in under[i] for c in ending[j])]
        chains += ending[i]
    poset, labels = _drop_one_poset(chains, _chain_label)
    return ChainPoset(poset, dict(zip(labels, chains)))


def bcs_morphism(phi: PosetMorphism) -> PosetMorphism:
    """The induced map on barycentric subdivisions, defined elementwise on
    chains.  Needs a combinatorial morphism: every chain lies inside a
    principal down-set, where the map is injective, so strict chains stay
    strict."""
    phi.require_combinatorial()
    source = chain_poset(phi.source)
    target = chain_poset(phi.target)
    image = phi.mapping.__getitem__
    mapping = {lbl: _chain_label(map(image, chain)) for lbl, chain in source.chain_of.items()}
    return PosetMorphism(source.poset, target.poset, mapping)
