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
from functools import cache, cached_property

from .checks import Check
from .errors import NotCombinatorial, NotMonotone, UnknownElement
from .posets import Poset, bit_indices, up_set_walk

CombinatorialDefect = namedtuple("CombinatorialDefect", "alpha reason detail")
OpennessDefect = namedtuple("OpennessDefect", "alpha base missing")


class PosetMorphism:
    """A validated order-preserving map between two posets."""

    def __init__(self, source: Poset, target: Poset, mapping: dict):
        # _image_of[i]: target index of source element i.  A mapping that
        # sends every source element into the target and has no other keys
        # is looked up at C speed; any other is walked to name the witness.
        t_index = target._index
        try:
            image_of = list(map(t_index.__getitem__, map(mapping.__getitem__, source._ids)))
        except (KeyError, TypeError):
            image_of = None
        if image_of is None or len(mapping) != len(image_of):
            for e in source.elements:
                if e not in mapping:
                    raise UnknownElement(e)
                if mapping[e] not in target:
                    raise UnknownElement(mapping[e])
            for e in mapping:
                if e not in source:
                    raise UnknownElement(e)
            raise AssertionError("mapping refused but no witness found")
        # monotone on covers implies monotone everywhere.  The covers of an
        # element over y that go to y or to covers of y pass at once; the
        # target's up-closure is read only when other images are left, and
        # the covers come in sorted order, so the first failure is the least
        # failing pair
        t_up = target._up_ix
        for i, ups in enumerate(source._up_ix):
            if not ups:
                continue
            y = image_of[i]
            rest = {image_of[g] for g in ups}
            rest.discard(y)
            rest.difference_update(t_up[y])
            if not rest:
                continue
            reach = target._above[y] | 1 << y
            for g in ups:
                if not reach >> image_of[g] & 1:
                    raise NotMonotone((source._ids[i], source._ids[g]))
        self.source = source
        self.target = target
        self.mapping = dict(mapping)
        self._image_of = image_of

    @classmethod
    def identity(cls, p: Poset) -> "PosetMorphism":
        return cls(p, p, {e: e for e in p.elements})

    def __call__(self, x: str) -> str:
        if x not in self.mapping:
            raise UnknownElement(x)
        return self.mapping[x]

    def __repr__(self):
        return f"PosetMorphism({self.source!r} -> {self.target!r})"

    def image(self, subset) -> frozenset:
        source = self.source
        return frozenset(map(self.mapping.__getitem__, source._labels(source._bits(subset))))

    def fibre(self, beta: str) -> frozenset:
        return frozenset(self.source._labels(self._fibres[self.target._ix(beta)]))

    def preimage(self, subset) -> frozenset:
        bits = 0
        for j in bit_indices(self.target._bits(subset)):
            bits |= self._fibres[j]
        return frozenset(self.source._labels(bits))

    @cached_property
    def _fibres(self) -> list:
        """The source bitset over every target element, by target index."""
        fibres = [0] * len(self.target)
        for i, j in enumerate(self._image_of):
            fibres[j] |= 1 << i
        return fibres

    @cached_property
    def _up_preimages(self) -> list:
        """The preimage of the up-set of every target element, an up-set of
        the source as a bitset, by target index."""
        return self.target._spread(self._fibres, upward=True)

    @cached_property
    def _up_set_parts(self) -> list:
        """Every connected up-set of the target as a bitset, with the
        components of its preimage as source bitsets: the list of
        ``up_set_walk(target, True, len(target), pieces)``, with pieces(j)
        the components of the preimage of up(j).  Every oracle call on the
        morphism reads it, whatever its index map; it holds at most
        UP_SET_WALK_LIMIT entries, and a walk that exceeds that raises
        OracleSizeExceeded and keeps nothing."""
        source, preimages = self.source, self._up_preimages

        @cache
        def pieces(j):
            return source._component_bits(preimages[j])

        return list(up_set_walk(self.target, True, len(self.target), pieces))

    @cached_property
    def _non_bijective(self) -> int:
        """The source elements whose principal down-set does not map
        bijectively onto the down-set of their image, as a bitset.  The
        image of down(x) is the image of x joined with the images of the
        down-sets of its lower covers, so one bottom-up pass with one OR per
        lower cover builds them all; the map is bijective there when the
        image has as many members as down(x) and is all of the down-set of
        phi(x) (it always lies inside it)."""
        source, t_below = self.source, self.target._below
        s_below, image_of = source._below, self._image_of
        images = source._spread([1 << y for y in image_of], upward=False)
        bad = 0
        for i, (y, img) in enumerate(zip(image_of, images)):
            if img != t_below[y] | 1 << y or img.bit_count() != s_below[i].bit_count() + 1:
                bad |= 1 << i
        return bad

    @cached_property
    def _cover_groups(self) -> list:
        """For every source element, as indices: the elements covering it,
        grouped by the element covering its image that they map to, one
        (beta, group) pair per cover beta of the image, betas and group
        members ascending.  Empty groups stay, because their sum of 0 is a
        real balancing witness.  One pass over the covers of each element
        and of its image buckets the covers."""
        image_of, t_up = self._image_of, self.target._up_ix
        groups = []
        for i, ups in enumerate(self.source._up_ix):
            buckets = {beta: [] for beta in t_up[image_of[i]]}
            for g in ups:
                bucket = buckets.get(image_of[g])
                if bucket is not None:
                    bucket.append(g)
            groups.append(list(buckets.items()))
        return groups

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
        bad = self._non_bijective
        if not bad:
            return Check.passed()
        source = self.source
        s_below, image_of, ids = source._below, self._image_of, source._ids
        tainted = source._closure(bad, source._above)
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

    def is_open(self) -> Check:
        """A morphism of posets is open iff the image of every principal
        up-set is an up-set; images distribute over unions, so checking
        principal up-sets suffices.  The image of up(alpha) lies in
        up(phi(alpha)) and holds phi(alpha), so it is an up-set exactly
        when it is all of up(phi(alpha)).  A witness names the least image
        element with a cover outside the image, and its least such cover."""
        source, target = self.source, self.target
        image_of, t_above, t_up = self._image_of, target._above, target._up_ix
        # images[i]: the image of up(i) as a target bitset
        images = source._spread([1 << y for y in image_of], upward=True)
        witnesses = []
        for i, img in enumerate(images):
            y = image_of[i]
            if img != t_above[y] | 1 << y:
                x, c = next((x, c) for x in bit_indices(img) for c in t_up[x]
                            if not img >> c & 1)
                witnesses.append(OpennessDefect(
                    source._ids[i], target._ids[x], target._ids[c]))
        return Check.of(witnesses)

    def restrict_corestrict(self, upset) -> "PosetMorphism":
        """Restrict to an up-set of the source and corestrict to its image,
        both taken with their induced orders: the morphism itself when the
        up-set is the whole source and its image the whole target."""
        source = self.source
        bits = source._require_up_set_bits(upset)
        if bits == (1 << len(source)) - 1 and len(set(self._image_of)) == len(self.target):
            return self
        v = frozenset(source._labels(bits))
        sub_source = source.induced(v)
        sub_target = self.target.induced(self.image(v))
        return PosetMorphism(sub_source, sub_target, {x: self.mapping[x] for x in v})
