"""Order-preserving maps between finite posets.

The central test is `is_combinatorial`: a morphism is combinatorial when
it maps every principal down-set isomorphically onto the down-set of the
image.  A monotone bijection between posets need not be an isomorphism,
so after bijectivity the check counts comparable pairs: a monotone
injection sends strict pairs of the down-set to distinct strict pairs of
the image, so the two counts agree exactly when every strict pair of the
image comes from one below, that is, when the inverse is monotone too.
Pairs are compared one by one only to name the witness of a failure.
"""

from __future__ import annotations

from collections import namedtuple

from .checks import Check
from .errors import NotMonotone, UnknownElement
from .posets import Poset, bit_indices

CombinatorialDefect = namedtuple("CombinatorialDefect", "alpha reason detail")
OpennessDefect = namedtuple("OpennessDefect", "alpha base missing")


class PosetMorphism:
    """A validated order-preserving map between two posets."""

    def __init__(self, source: Poset, target: Poset, mapping: dict):
        for e in source.elements:
            if e not in mapping:
                raise UnknownElement(e)
            if mapping[e] not in target:
                raise UnknownElement(mapping[e])
        for e in mapping:
            if e not in source:
                raise UnknownElement(e)
        # _image_of[i]: target index of source element i; _fibres[j]: the
        # source bitset over target element j
        t_index = target._index
        image_of = [t_index[mapping[x]] for x in source._ids]
        # monotone on covers implies monotone everywhere; the covers come
        # in sorted order, so the first failure is the least failing pair
        t_above = target._above
        for i, ups in enumerate(source._up_ix):
            y = image_of[i]
            reach = t_above[y] | 1 << y
            for g in ups:
                if not reach >> image_of[g] & 1:
                    raise NotMonotone((source._ids[i], source._ids[g]))
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._image_of = image_of
        self._fibres = fibres = [0] * len(target)
        for i, j in enumerate(image_of):
            fibres[j] |= 1 << i
        # the balancing cover groups of covers._cover_groups, built on first
        # use; declared here so that writing it keeps the compact layout
        self._cover_groups_memo = None

    @classmethod
    def identity(cls, p: Poset) -> "PosetMorphism":
        return cls(p, p, {e: e for e in p.elements})

    def __call__(self, x: str) -> str:
        if x not in self.mapping:
            raise UnknownElement(x)
        return self.mapping[x]

    def __repr__(self):
        return f"PosetMorphism({self.source!r} -> {self.target!r})"

    def image(self, subset=None) -> frozenset:
        if subset is None:
            subset = self.source.elements
        return frozenset(self.mapping[x] for x in subset)

    def fibre(self, beta: str) -> frozenset:
        return frozenset(self.source._labels(self._fibres[self.target._ix(beta)]))

    def preimage(self, subset) -> frozenset:
        index = self.target._index
        return frozenset(self.source._labels(
            self._preimage_bits(index[y] for y in subset if y in index)))

    def _preimage_bits(self, target_indices) -> int:
        """The source bitset over the given target element indices."""
        fibres = self._fibres
        bits = 0
        for j in target_indices:
            bits |= fibres[j]
        return bits

    def is_combinatorial(self) -> Check:
        """Does the map send every principal down-set isomorphically onto
        the down-set of its image?  Witnesses carry the offending element
        and whether the restriction fails to inject, to surject, or to have
        a monotone inverse."""
        s_below, t_below = self.source._below, self.target._below
        image_of = self._image_of
        s_pairs = [b.bit_count() for b in s_below]  # strict pairs topped at x
        t_pairs = [b.bit_count() for b in t_below]
        witnesses = []
        for i, alpha in enumerate(self.source._ids):
            down = bit_indices(s_below[i] | 1 << i)
            images = surplus = 0
            for x in down:
                y = image_of[x]
                images |= 1 << y
                surplus += t_pairs[y] - s_pairs[x]
            image_down = t_below[image_of[i]] | 1 << image_of[i]
            if images.bit_count() < len(down):
                witnesses.append(CombinatorialDefect(
                    alpha, "not injective",
                    f"|down({alpha})|={len(down)} maps to {images.bit_count()} elements"))
            elif images != image_down:
                witnesses.append(CombinatorialDefect(
                    alpha, "not surjective",
                    f"|down({alpha})|={len(down)} != |down({self.mapping[alpha]})|="
                    f"{image_down.bit_count()}"))
            elif surplus:
                x, y = self._inverse_defect(down)
                witnesses.append(CombinatorialDefect(
                    alpha, "inverse not monotone",
                    f"{self.mapping[x]} <= {self.mapping[y]} but {x} !<= {y}"))
        if witnesses:
            return Check.failed(witnesses)
        return Check.passed()

    def _inverse_defect(self, down) -> tuple[str, str]:
        """The least pair (x, y) of the sorted down-set with phi(x) <= phi(y)
        but not x <= y."""
        s_above, t_above = self.source._above, self.target._above
        image_of, ids = self._image_of, self.source._ids
        for x in down:
            for y in down:
                if t_above[image_of[x]] >> image_of[y] & 1 and not s_above[x] >> y & 1:
                    return ids[x], ids[y]
        raise AssertionError("pair counts differ but no pair reverses")

    def preimage_components(self, beta: str) -> list[frozenset]:
        """Connected components of the preimage of the principal up-set at
        beta, sorted by least member."""
        target, source = self.target, self.source
        j = target._ix(beta)
        preimage = self._preimage_bits(bit_indices(target._above[j] | 1 << j))
        return [frozenset(source._labels(c)) for c in source._component_bits(preimage)]

    def is_open(self) -> Check:
        """A morphism of posets is open iff the image of every principal
        up-set is an up-set; images distribute over unions, so checking
        principal up-sets suffices.  The image of up(alpha) lies in
        up(phi(alpha)) and holds phi(alpha), so it is an up-set exactly
        when it is all of up(phi(alpha)).  A witness names the least image
        element with a cover outside the image, and its least such cover."""
        source, target = self.source, self.target
        image_of, t_above, t_up = self._image_of, target._above, target._up_ix
        # images[i]: the image of up(i) as a target bitset, tops first
        images = [0] * len(image_of)
        for i in reversed(source._order_ix):
            img = 1 << image_of[i]
            for g in source._up_ix[i]:
                img |= images[g]
            images[i] = img
        witnesses = []
        for i, img in enumerate(images):
            y = image_of[i]
            if img != t_above[y] | 1 << y:
                x, c = next((x, c) for x in bit_indices(img) for c in t_up[x]
                            if not img >> c & 1)
                witnesses.append(OpennessDefect(
                    source._ids[i], target._ids[x], target._ids[c]))
        if witnesses:
            return Check.failed(witnesses)
        return Check.passed()

    def restrict_corestrict(self, upset) -> "PosetMorphism":
        """Restrict to an up-set of the source and corestrict to its image,
        both taken with their induced orders."""
        v = self.source.require_up_set(upset)
        sub_source = self.source.induced(v)
        sub_target = self.target.induced(self.image(v))
        return PosetMorphism(sub_source, sub_target, {x: self.mapping[x] for x in v})
