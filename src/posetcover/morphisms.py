"""Order-preserving maps between finite posets.

The central test is `is_combinatorial`: a morphism is combinatorial when
it maps every principal down-set isomorphically onto the down-set of the
image.  The test is local.  Down(alpha) maps isomorphically exactly when
every x <= alpha maps down(x) bijectively onto down(phi(x)), so one
bottom-up pass builds the image of every principal down-set, one OR per
lower cover, and compares its size and its bits with the down-set of the
image.  An element that is bijective itself but lies above one that is not
has an inverse that is not monotone; pairs are compared only there, to
name the witness.
"""

from __future__ import annotations

from collections import namedtuple

from .checks import Check
from .errors import NotCombinatorial, NotMonotone, UnknownElement
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
        # the balancing cover groups of covers._cover_groups and the bitset
        # of _non_bijective, built on first use; declared here so that
        # writing them keeps the compact layout
        self._cover_groups_memo = self._non_bijective_memo = None

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

    def _non_bijective(self) -> int:
        """The source elements whose principal down-set does not map
        bijectively onto the down-set of their image, as a bitset; built
        once per morphism.  The image of down(x) is the image of x joined
        with the images of the down-sets of its lower covers, so one
        bottom-up pass with one OR per lower cover builds them all; the map
        is bijective there when the image has as many members as down(x)
        and is all of the down-set of phi(x) (it always lies inside it)."""
        bad = self._non_bijective_memo
        if bad is None:
            source, t_below = self.source, self.target._below
            s_below, down, image_of = source._below, source._down_ix, self._image_of
            images = [0] * len(image_of)
            bad = 0
            for i in source._order_ix:
                y = image_of[i]
                img = 1 << y
                for c in down[i]:
                    img |= images[c]
                images[i] = img
                if img != t_below[y] | 1 << y or img.bit_count() != s_below[i].bit_count() + 1:
                    bad |= 1 << i
            self._non_bijective_memo = bad
        return bad

    def is_combinatorial(self) -> Check:
        """Does the map send every principal down-set isomorphically onto
        the down-set of its image?  Witnesses carry the offending element
        and whether the restriction fails to inject, to surject, or to have
        a monotone inverse.

        Down(alpha) maps isomorphically exactly when every x <= alpha maps
        its own down-set bijectively: an isomorphism restricts to one on
        each down(x), and conversely if phi(x) <= phi(y) inside down(alpha),
        then phi(x) is the image of some x' <= y, and x' = x by injectivity.
        So an element that is bijective itself fails only through the
        inverse, and does so exactly when a non-bijective element lies
        below it; only there are pairs compared, to name the witness."""
        bad = self._non_bijective()
        if not bad:
            return Check.passed()
        s_above, s_below = self.source._above, self.source._below
        image_of, ids = self._image_of, self.source._ids
        tainted = bad
        for x in bit_indices(bad):
            tainted |= s_above[x]
        witnesses = []
        for i in bit_indices(tainted):
            alpha = ids[i]
            if not bad >> i & 1:
                x, y = self._inverse_defect(i)
                witnesses.append(CombinatorialDefect(
                    alpha, "inverse not monotone",
                    f"{self.mapping[x]} <= {self.mapping[y]} but {x} !<= {y}"))
                continue
            down = bit_indices(s_below[i] | 1 << i)
            images = 0
            for x in down:
                images |= 1 << image_of[x]
            if images.bit_count() < len(down):
                witnesses.append(CombinatorialDefect(
                    alpha, "not injective",
                    f"|down({alpha})|={len(down)} maps to {images.bit_count()} elements"))
            else:
                image_down = self.target._below[image_of[i]] | 1 << image_of[i]
                witnesses.append(CombinatorialDefect(
                    alpha, "not surjective",
                    f"|down({alpha})|={len(down)} != |down({self.mapping[alpha]})|="
                    f"{image_down.bit_count()}"))
        return Check.failed(witnesses)

    def require_combinatorial(self, error=NotCombinatorial) -> None:
        """Raise ``error`` with the first offending element unless the
        morphism is combinatorial."""
        combinatorial = self.is_combinatorial()
        if not combinatorial:
            raise error(combinatorial.witnesses[0].alpha)

    def _inverse_defect(self, i: int) -> tuple[str, str]:
        """The least pair (x, y) of down(i) with phi(x) <= phi(y) but not
        x <= y, where i maps its down-set bijectively.  Then the elements
        of down(i) above x map injectively into those of down(phi(i)) above
        phi(x), and onto them exactly when no pair starts at x; counting
        both finds the least such x with one bitset step per element."""
        s_above, t_above = self.source._above, self.target._above
        image_of, ids = self._image_of, self.source._ids
        down = self.source._below[i] | 1 << i
        image_down = self.target._below[image_of[i]] | 1 << image_of[i]
        for x in bit_indices(down):
            up = t_above[image_of[x]]
            if (s_above[x] & down).bit_count() != (up & image_down).bit_count():
                for y in bit_indices(down):
                    if up >> image_of[y] & 1 and not s_above[x] >> y & 1:
                        return ids[x], ids[y]
        raise AssertionError("a bijective down-set above a failure has no reversed pair")

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
