"""Bundled fixture catalog.

Each fixture is a small branched-cover instance used throughout the test
suite and exposed to the CLI by name.  Greek letters in the original
labels are transliterated (alpha1, beta2, ...) and the twiddled O becomes
tO.  Index-map fixtures carry the -M suffix.
"""

from __future__ import annotations

from functools import cache

from .covers import IndexMap
from .morphisms import PosetMorphism
from .posets import Poset


def _drop_subscripts(source: Poset, target: Poset) -> PosetMorphism:
    mapping = {}
    for e in source.elements:
        base = e.rstrip("0123456789")
        mapping[e] = base if base in target else e
    return PosetMorphism(source, target, mapping)


@cache
def fix_trop() -> PosetMorphism:
    """Degree-3 branched covering of posets: two segments glued over a
    path, subscripted elements over unsubscripted ones."""
    gamma = Poset(
        ["A1", "B1", "C1", "C2", "s1", "s2", "t1", "t2"],
        [("A1", "s1"), ("A1", "s2"), ("B1", "s1"), ("B1", "s2"),
         ("B1", "t1"), ("B1", "t2"), ("C1", "t1"), ("C2", "t2")],
    )
    delta = Poset(
        ["A", "B", "C", "s", "t"],
        [("A", "s"), ("B", "s"), ("B", "t"), ("C", "t")],
    )
    return _drop_subscripts(gamma, delta)


@cache
def fix_trop_m() -> IndexMap:
    return IndexMap.total(fix_trop().source, {
        "A1": 3, "B1": 3, "C1": 1, "C2": 2,
        "s1": 2, "s2": 1, "t1": 1, "t2": 2,
    })


@cache
def fix_ce1() -> PosetMorphism:
    """Balanced but not an indexed branched cover (two points folding onto
    a segment); the morphism is not combinatorial."""
    sigma = Poset(["A1", "A2", "B1"], [("A1", "B1"), ("A2", "B1")])
    delta = Poset(["A", "B"], [("A", "B")])
    return _drop_subscripts(sigma, delta)


@cache
def fix_ce1_m() -> IndexMap:
    return IndexMap.constant(fix_ce1().source)


@cache
def fix_ce2() -> PosetMorphism:
    """An indexed branched cover that is not balanced; also not
    combinatorial."""
    sigma = Poset(
        ["A1", "A2", "B1", "B2", "B3"],
        [("A1", "B1"), ("A1", "B2"), ("A2", "B2"), ("A2", "B3")],
    )
    delta = Poset(["A", "B"], [("A", "B")])
    return _drop_subscripts(sigma, delta)


@cache
def fix_ce2_m() -> IndexMap:
    return IndexMap.total(fix_ce2().source, {"A1": 2, "A2": 2, "B1": 1, "B2": 2, "B3": 1})


@cache
def fix_idread() -> PosetMorphism:
    """Connected domain where a balanced map extends over one bottom
    element but conflicts over the other two."""
    sigma = Poset(
        ["O1", "tO1", "tO2", "A1", "B1", "B2", "C1", "C2",
         "beta1", "beta2", "gamma1", "gamma2"],
        [("O1", "A1"), ("O1", "B1"), ("O1", "B2"),
         ("tO1", "B1"), ("tO1", "C1"), ("tO2", "B2"), ("tO2", "C2"),
         ("A1", "beta1"), ("A1", "beta2"), ("A1", "gamma1"), ("A1", "gamma2"),
         ("B1", "beta1"), ("B2", "beta2"), ("C1", "gamma1"), ("C2", "gamma2")],
    )
    delta = Poset(
        ["O", "tO", "A", "B", "C", "beta", "gamma"],
        [("O", "A"), ("O", "B"), ("tO", "B"), ("tO", "C"),
         ("A", "beta"), ("A", "gamma"), ("B", "beta"), ("C", "gamma")],
    )
    return _drop_subscripts(sigma, delta)


@cache
def fix_idread_m() -> IndexMap:
    return IndexMap(fix_idread().source, {
        "A1": 3, "B1": 2, "B2": 1, "C1": 1, "C2": 2,
        "beta1": 2, "beta2": 1, "gamma1": 1, "gamma2": 2,
    })


@cache
def fix_simple_ext() -> PosetMorphism:
    """Identity morphism on a disconnected-domain extension example: the
    balanced map on the two arms disagrees at the bottom."""
    p = Poset(["O", "A", "B", "alpha", "beta"],
              [("O", "A"), ("A", "alpha"), ("O", "B"), ("B", "beta")])
    return PosetMorphism.identity(p)


@cache
def fix_simple_ext_m() -> IndexMap:
    return IndexMap(fix_simple_ext().source, {"alpha": 2, "A": 2, "beta": 1, "B": 1})


@cache
def fix_open() -> PosetMorphism:
    """A combinatorial morphism that is not an open map, so no balanced
    map exists for it."""
    sigma = Poset(
        ["O1", "A1", "B1", "B2", "C1", "alpha1", "beta1", "beta2"],
        [("O1", "A1"), ("O1", "B1"), ("O1", "B2"), ("O1", "C1"),
         ("A1", "alpha1"), ("B1", "alpha1"),
         ("B1", "beta1"), ("C1", "beta1"), ("B2", "beta2"), ("C1", "beta2")],
    )
    delta = Poset(
        ["O", "A", "B", "C", "alpha", "beta"],
        [("O", "A"), ("O", "B"), ("O", "C"),
         ("A", "alpha"), ("B", "alpha"), ("B", "beta"), ("C", "beta")],
    )
    return _drop_subscripts(sigma, delta)


@cache
def fix_lift() -> PosetMorphism:
    """A combinatorial morphism with an up-set whose restricted morphism is
    not combinatorial, so a downward path fails to lift."""
    sigma = Poset(
        ["O1", "A1", "A2", "B1", "B2", "C1", "alpha1", "alpha2", "beta1", "beta2"],
        [("O1", "A1"), ("O1", "A2"), ("O1", "B1"), ("O1", "B2"), ("O1", "C1"),
         ("A1", "alpha1"), ("B1", "alpha1"), ("A2", "alpha2"), ("B2", "alpha2"),
         ("B1", "beta1"), ("C1", "beta1"), ("B2", "beta2"), ("C1", "beta2")],
    )
    delta = Poset(
        ["O", "A", "B", "C", "alpha", "beta"],
        [("O", "A"), ("O", "B"), ("O", "C"),
         ("A", "alpha"), ("B", "alpha"), ("B", "beta"), ("C", "beta")],
    )
    return _drop_subscripts(sigma, delta)


FIX_LIFT_UPSET = frozenset({"B2", "C1", "alpha2", "beta1", "beta2"})


@cache
def fix_lift_m() -> IndexMap:
    values = {x: 1 for x in FIX_LIFT_UPSET}
    values["C1"] = 2
    return IndexMap(fix_lift().source, values)


@cache
def fix_graph():
    """Degree-mixing map of metric graphs whose face-poset morphism is not
    combinatorial before refinement: one source vertex sits over an
    interior point of the target edge.  The concrete lengths are a
    modelling choice; the combinatorics and the fibre counts are what
    matter."""
    # imported here, so that the poset fixtures load no metric graph code
    from fractions import Fraction

    from .metric import MetricGraph, MetricGraphMorphism, Point

    target = MetricGraph(["u", "v"], [("t", "u", "v", Fraction(3))])
    source = MetricGraph(["A", "B", "C"],
                         [("e", "A", "B", Fraction(2)), ("f", "A", "C", Fraction(3))])
    return MetricGraphMorphism(
        source, target,
        vertex_images={
            "A": Point.at_vertex("u"),
            "B": Point.interior("t", Fraction(2)),
            "C": Point.at_vertex("v"),
        },
        edge_images={
            "e": ("t", Fraction(0), Fraction(2), 1),
            "f": ("t", Fraction(0), Fraction(3), 1),
        },
    )


FIXTURES = {
    "FIX-TROP": fix_trop,
    "FIX-TROP-M": fix_trop_m,
    "FIX-CE1": fix_ce1,
    "FIX-CE1-M": fix_ce1_m,
    "FIX-CE2": fix_ce2,
    "FIX-CE2-M": fix_ce2_m,
    "FIX-IDREAD": fix_idread,
    "FIX-IDREAD-M": fix_idread_m,
    "FIX-SIMPLE-EXT": fix_simple_ext,
    "FIX-SIMPLE-EXT-M": fix_simple_ext_m,
    "FIX-OPEN": fix_open,
    "FIX-LIFT": fix_lift,
    "FIX-LIFT-M": fix_lift_m,
    "FIX-GRAPH": fix_graph,
}


def load_fixture(name: str):
    return FIXTURES[name]()


# ----- expected CLI outcomes -------------------------------------------------


def _indexed(name: str) -> list[str]:
    return ["--morphism", name, "--index", f"{name}-M"]


# `fixtures run` replays each row (label, argv, exit code, expected values)
# through the CLI's dispatch; values sit at dotted paths of the machine
# report ("witnesses.0.alpha").  Rows sharing a label check one statement.
FIXTURE_ROWS = {
    "FIX-TROP": [
        ("balanced", ["cover", "balanced", *_indexed("FIX-TROP")], 0, {}),
        # is_ibc reports every branch-locus defect, so this row also checks
        # that the fibres over maximal target elements are maximal
        ("ibc", ["cover", "ibc", *_indexed("FIX-TROP")], 0, {}),
        ("ibc-oracle", ["cover", "ibc-oracle", *_indexed("FIX-TROP")], 0, {}),
        ("degree 3", ["cover", "degree", *_indexed("FIX-TROP")], 0, {"data.degree": 3}),
    ],
    "FIX-CE1": [
        ("not combinatorial at B1", ["morphism", "check", "--morphism", "FIX-CE1"], 1,
         {"data.combinatorial": False, "witnesses.0.alpha": "B1"}),
        ("balanced", ["cover", "balanced", *_indexed("FIX-CE1")], 0, {}),
        ("not ibc", ["cover", "ibc-oracle", *_indexed("FIX-CE1")], 1, {}),
    ],
    "FIX-CE2": [
        ("unbalanced with witness (A1,B,2,3)", ["cover", "balanced", *_indexed("FIX-CE2")], 1,
         {"witnesses.0": {"kind": "BalanceViolation", "alpha": "A1", "beta": "B",
                          "lhs": 2, "rhs": 3}}),
        ("ibc of degree 4", ["cover", "ibc", *_indexed("FIX-CE2")], 0, {}),
        ("ibc of degree 4", ["cover", "degree", *_indexed("FIX-CE2")], 0, {"data.degree": 4}),
    ],
    "FIX-IDREAD": [
        ("O1 gets 3", ["extend", *_indexed("FIX-IDREAD")], 1, {"data.assigned.O1": 3}),
        ("tO1 conflict", ["extend", *_indexed("FIX-IDREAD")], 1,
         {"witnesses.0": {"kind": "ExtensionConflict", "alpha": "tO1", "beta1": "B",
                          "beta2": "C", "sum1": 2, "sum2": 1}}),
        ("tO2 conflict", ["extend", *_indexed("FIX-IDREAD")], 1,
         {"witnesses.1": {"kind": "ExtensionConflict", "alpha": "tO2", "beta1": "B",
                          "beta2": "C", "sum1": 1, "sum2": 2}}),
        ("target not strongly connected at tO",
         ["connect", "strong", "--poset", "FIX-IDREAD/target"], 1,
         {"witnesses.0.witness": "tO"}),
    ],
    "FIX-SIMPLE-EXT": [
        ("conflict at O with sums 2,1", ["extend", *_indexed("FIX-SIMPLE-EXT")], 1,
         {"witnesses.0": {"kind": "ExtensionConflict", "alpha": "O", "beta1": "A",
                          "beta2": "B", "sum1": 2, "sum2": 1}}),
    ],
    "FIX-OPEN": [
        ("not open at B2", ["morphism", "check", "--morphism", "FIX-OPEN"], 1,
         {"data.open": False, "witnesses.0.alpha": "B2"}),
        ("no balanced map below bound 4",
         ["cover", "search", "--morphism", "FIX-OPEN", "--bound", "4"], 1,
         {"witnesses.0.result": "NoneFound"}),
    ],
    "FIX-LIFT": [
        ("balanced on the up-set", ["cover", "balanced", *_indexed("FIX-LIFT")], 0, {}),
        # the lift stops at the restricted morphism's first non-combinatorial
        # element
        ("psi not combinatorial at beta1",
         ["lift", "path", *_indexed("FIX-LIFT"), "--start", "beta1", "--path", "beta,B"], 1,
         {"witnesses.0": {"error": "CorestrictionNotCombinatorial", "detail": "beta1"}}),
    ],
    "FIX-GRAPH": [
        ("mismatch 2 vs 3 at 1", ["graph", "sample", "--morphism", "FIX-GRAPH", "--point", "t:1"],
         1, {"witnesses.0": {"point": "Point(t @ 1)", "geometric": 2, "poset": 3, "match": False}}),
        ("one new target vertex at t@2", ["graph", "refine", "--morphism", "FIX-GRAPH"], 0,
         {"data.new_target_vertices": {"t@2": ["t", "2"]}}),
        ("one new source vertex on f", ["graph", "refine", "--morphism", "FIX-GRAPH"], 0,
         {"data.new_source_vertices": {"f@2": ["f", "2"]}}),
    ],
}
