"""Extension of balanced maps and path lifting.

Extension walks the missing elements along the top-down plan of the
balancing push in ``covers`` ((-height, id) order), so every element
covering the current one already has a value; each cover of the image
gives one sum, over the elements covering the current one in its fibre,
and the extension succeeds at an element exactly when all sums agree on a
positive value.  When the hypotheses of the extension theorem hold at
every step the result is marked ``guaranteed``; otherwise extension is
attempted anyway and the report says ``opportunistic``.
"""

from __future__ import annotations

from collections import namedtuple

from .covers import (
    IndexMap,
    _balance_violations,
    _push_plan,
    _require_on_source,
)
from .errors import (
    CorestrictionNotCombinatorial,
    MaxElementsUncovered,
    NoLiftExists,
    NotBalancedInput,
    NotInDomain,
    PathNotFromImage,
    PathNotIncreasing,
    TheoremViolation,
    UnknownElement,
)
from .morphisms import PosetMorphism
from .posets import Poset, bit_indices, connectivity, rank_check

ExtensionConflict = namedtuple("ExtensionConflict", "alpha beta1 beta2 sum1 sum2")


# mode is "guaranteed" or "opportunistic"; unconstrained is always empty
class ExtensionReport(namedtuple("ExtensionReport", "extended mode conflicts unconstrained")):
    __slots__ = ()

    def __bool__(self):
        return not self.conflicts


class Path(namedtuple("Path", "steps directions")):
    """A walk in the comparability graph; ``directions`` tags every step
    between consecutive elements "up" or "down" relative to the order."""

    __slots__ = ()

    @classmethod
    def through(cls, poset: Poset, steps) -> "Path":
        steps = tuple(steps)
        directions = []
        for a, b in zip(steps, steps[1:]):
            if poset.lt(a, b):
                directions.append("up")
            elif poset.lt(b, a):
                directions.append("down")
            else:
                raise PathNotIncreasing((a, b))
        return cls(steps, tuple(directions))


def extend_balanced(phi: PosetMorphism, m: IndexMap, target_upset) -> ExtensionReport:
    """Extend a balanced map from its domain to the larger up-set.

    Every new value is the multiplicity sum over one cover direction of the
    image; a conflict is recorded when two cover directions disagree (or the
    agreed value is not positive), and such elements stay unvalued.
    """
    phi.require_combinatorial()
    _require_on_source(phi, m)
    w = phi.source.require_up_set(target_upset)
    if not m.domain <= w:
        raise ValueError("the target up-set must contain the index map domain")
    _require_balanced(phi, m)
    uncovered = [x for x in phi.source.max_elements() if x not in m.domain]
    if uncovered:
        raise MaxElementsUncovered(uncovered)

    source, target = phi.source, phi.target
    ids, t_ids = source._ids, target._ids
    image_of, fibres, t_above = phi._image_of, phi._fibres, target._above
    known = m._by_index[:]  # by index; None while unvalued
    value = known.__getitem__
    valued = source._bits(m.domain)
    todo = source._bits(w) & ~valued
    # the free elements of the plan are left out: on a combinatorial map an
    # element over a maximal element is maximal, so it is in the domain
    _, plan = _push_plan(phi)
    up_preimages = phi._up_preimages
    conflicts = []
    guaranteed = True
    for i, groups in plan:
        if not todo >> i & 1:
            continue
        if guaranteed:
            # the theorem's hypothesis: the up-set of phi(alpha) punctured
            # at phi(alpha) is connected and its preimage already valued
            y = image_of[i]
            guaranteed = (target._punctured_connected(y)
                          and not up_preimages[y] & ~(fibres[y] | valued))
        try:
            sums = {sum(map(value, above)) for _, above in groups}
        except TypeError:  # a cover left unvalued by a conflict holds None
            sums = None
        if sums and len(sums) == 1 and (total := sums.pop()) >= 1:
            known[i] = total
            valued |= 1 << i
        else:
            conflicts.append(_conflict(ids[i], groups, known, t_ids))

    extended = IndexMap(source, {x: v for x, v in zip(ids, known) if v is not None})
    if not conflicts:
        image = 0
        for x in bit_indices(valued):
            image |= 1 << image_of[x]
        if any(t_above[y] & ~image for y in bit_indices(image)):
            raise TheoremViolation(
                "image of the extended domain is not an up-set; this contradicts "
                "the openness corollary for balanced maps"
            )
    mode = "guaranteed" if guaranteed else "opportunistic"
    return ExtensionReport(extended, mode, conflicts, [])


def _conflict(alpha: str, groups, known: list, t_ids) -> ExtensionConflict:
    """The conflict at alpha, whose cover groups do not agree on one
    positive sum.  Two distinct sums name the least and the greatest, each
    at its first cover; otherwise a cover had no value or the agreed sum was
    zero, and the first cover is named twice with its sum (None when one
    of its elements has no value)."""
    candidates = []
    for beta, above in groups:
        got = [known[g] for g in above]
        candidates.append((t_ids[beta], None if None in got else sum(got)))
    sums = [(b, c) for b, c in candidates if c is not None]
    distinct = sorted({c for _, c in sums})
    if len(distinct) >= 2:
        (b1, c1) = next(x for x in sums if x[1] == distinct[0])
        (b2, c2) = next(x for x in sums if x[1] == distinct[-1])
        first, second = sorted([(b1, c1), (b2, c2)])
        return ExtensionConflict(alpha, first[0], second[0], first[1], second[1])
    b, c = candidates[0]
    return ExtensionConflict(alpha, b, b, c, c)


def _require_balanced(phi: PosetMorphism, m: IndexMap) -> None:
    witnesses = _balance_violations(phi, m)
    if witnesses:
        raise NotBalancedInput(witnesses[0])


def _saturated_chain(p: Poset, lo: int, hi: int) -> list[int]:
    """A deterministic cover chain of indices from lo up to hi (least cover
    at every step)."""
    above, up = p._above, p._up_ix
    chain = [lo]
    while chain[-1] != hi:
        chain.append(next(c for c in up[chain[-1]] if c == hi or above[c] >> hi & 1))
    return chain


def lift_upward_path(phi: PosetMorphism, m: IndexMap, alpha: str, target_path) -> Path:
    """Lift a strictly increasing target path starting at the image of
    alpha; strict steps are refined to saturated cover chains and lifted
    cover by cover, choosing the least valued preimage."""
    _require_on_source(phi, m)
    steps = list(target_path)
    for b in steps:
        if b not in phi.target:
            raise UnknownElement(b)
    if alpha not in m.domain:
        raise NotInDomain(alpha)
    if not steps or steps[0] != phi(alpha):
        raise PathNotFromImage(phi(alpha), steps[0] if steps else None)
    for a, b in zip(steps, steps[1:]):
        if not phi.target.lt(a, b):
            raise PathNotIncreasing((a, b))
    _require_balanced(phi, m)

    source, t_index = phi.source, phi.target._index
    valued = source._bits(m.domain)
    lift = [source._index[alpha]]
    for a, b in zip(steps, steps[1:]):
        lift += _lift_step(phi, valued, lift[-1], t_index[a], t_index[b])
    return Path.through(source, [source._ids[g] for g in lift])


def _lift_step(phi: PosetMorphism, valued: int, start: int, a: int, b: int) -> list[int]:
    """The source indices lifting the strict step a < b of target indices
    from start (not repeated), cover by cover along a saturated chain: over
    each cover, the least valued element that covers the lift so far.  The
    map is balanced, so the valued elements covering the lift over a cover
    of its image sum to its value, at least 1: one always exists."""
    source, target, image_of = phi.source, phi.target, phi._image_of
    lift = [start]
    for nu in _saturated_chain(target, a, b)[1:]:
        g = next((g for g in source._up_ix[lift[-1]]
                  if image_of[g] == nu and valued >> g & 1), None)
        if g is None:
            raise AssertionError("a balanced map has a valued element without a valued cover")
        lift.append(g)
    return lift[1:]


def lift_path(phi: PosetMorphism, m: IndexMap, alpha: str, target_path) -> Path:
    """Lift a general path inside the image of the index-map domain.

    Up-steps use the balancing condition; down-steps use the down-set
    isomorphism of the restricted-corestricted morphism, which must be
    combinatorial or the operation refuses with the witness.
    """
    _require_on_source(phi, m)
    v = m.domain
    psi = phi.restrict_corestrict(v)
    psi.require_combinatorial(CorestrictionNotCombinatorial)
    if alpha not in v:
        raise NotInDomain(alpha)
    steps = list(target_path)
    if not steps or steps[0] != phi(alpha):
        raise PathNotFromImage(phi(alpha), steps[0] if steps else None)
    image = phi.image(v)
    for b in steps:
        if b not in phi.target:
            raise UnknownElement(b)
        if b not in image:
            raise NoLiftExists(f"path element {b!r} lies outside the image of the domain")
    _require_balanced(phi, m)

    source, t_index = phi.source, phi.target._index
    valued = source._bits(v)
    lift = [alpha]
    current = alpha
    for a, b in zip(steps, steps[1:]):
        if phi.target.lt(a, b):
            up = _lift_step(phi, valued, source._index[current], t_index[a], t_index[b])
            lift.extend(source._ids[g] for g in up)
            current = lift[-1]
        elif phi.target.lt(b, a):
            # psi maps down(current) onto the down-set of a in the image,
            # which holds b, so exactly one option exists
            options = [g for g in psi.source.down_set([current]) if phi(g) == b]
            if not options:
                raise AssertionError("a combinatorial corestriction misses a lower image")
            current = min(options)
            lift.append(current)
        else:
            raise PathNotIncreasing((a, b))
    return Path.through(phi.source, lift)


class LiftingReport(namedtuple("LiftingReport", "mode hypotheses conclusion_holds witness_fibre")):
    __slots__ = ()

    @property
    def hypotheses_hold(self):
        return all(self.hypotheses.values())


def _first_connected_fibre(phi: PosetMorphism, betas, within):
    """The least beta whose fibre inside within is non-empty and
    connected, or None; target indices ascend in label order."""
    source = phi.source
    within = source._bits(within)
    for j in bit_indices(phi.target._bits(betas)):
        fibre = phi._fibres[j] & within
        if fibre and source._is_connected_bits(fibre):
            return phi.target._ids[j]
    return None


def check_connectivity_lifting(phi: PosetMorphism, m: IndexMap, mode: str, k: int | None = None) -> LiftingReport:
    """Verify the hypotheses of a connectivity-lifting statement, then
    independently verify its conclusion, and fail loudly if the hypotheses
    hold while the conclusion does not.

    mode="one-fibre": the domain of m is an up-set with combinatorial
    restricted morphism; connected image plus one connected fibre forces the
    domain connected.  mode="codim": graded posets, total balanced map;
    codimension-k connectivity of the target plus one connected fibre at
    that level forces the source connected in codimension k.
    """
    _require_balanced(phi, m)

    if mode == "one-fibre":
        v = m.domain
        phi.restrict_corestrict(v).require_combinatorial(CorestrictionNotCombinatorial)
        image = phi.image(v)
        hyp = {"image connected": phi.target.is_connected(image)}
        witness = _first_connected_fibre(phi, image, v)
        hyp["some fibre connected"] = witness is not None
        conclusion = phi.source.is_connected(v)
        report = LiftingReport(mode, hyp, conclusion, witness)
    elif mode == "codim":
        if k is None:
            raise ValueError("codim mode needs k")
        phi.require_combinatorial()
        m.require_total()
        source_rank = rank_check(phi.source)
        target_rank = rank_check(phi.target)
        hyp = {
            "target codim-k connected": connectivity(phi.target, "codim", k).connected,
        }
        level = phi.source.up_set(source_rank.level(source_rank.dim - k))
        witness = _first_connected_fibre(
            phi, phi.target.up_set(target_rank.level(target_rank.dim - k)), level)
        hyp["some fibre connected at level"] = witness is not None
        conclusion = connectivity(phi.source, "codim", k).connected
        report = LiftingReport(mode, hyp, conclusion, witness)
    else:
        raise ValueError(f"unknown lifting mode {mode!r}")

    if report.hypotheses_hold and not report.conclusion_holds:
        raise TheoremViolation(
            f"connectivity-lifting hypotheses hold in mode {mode!r} but the "
            "conclusion fails; this is a bug, not a bad input"
        )
    return report
