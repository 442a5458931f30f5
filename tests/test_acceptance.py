"""Acceptance suite: one test per criterion, one printed pass/fail line
per criterion, everything exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from fractions import Fraction
from random import Random

from posetcover.covers import (
    IndexMap,
    branch_locus_check,
    global_degree,
    is_balanced,
    is_ibc,
    is_ibc_oracle,
    search_balanced,
)
from posetcover.errors import CorestrictionNotCombinatorial
from posetcover.extend import extend_balanced, lift_path
from posetcover.fixtures import (
    FIX_LIFT_UPSET,
    fix_ce1,
    fix_ce1_m,
    fix_ce2,
    fix_ce2_m,
    fix_graph,
    fix_idread,
    fix_idread_m,
    fix_lift,
    fix_lift_m,
    fix_open,
    fix_simple_ext,
    fix_simple_ext_m,
    fix_trop,
    fix_trop_m,
)
from posetcover.metric import Point, refine_to_combinatorial, sample_fibre
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset, connectivity, rank_check
from posetcover.subdivision import (
    SimplicialComplex,
    bcs_morphism,
    chain_poset,
    simplicial_face_poset,
    stellar_subdivide,
)

from generators import (
    random_balanced_map,
    random_index_map,
    random_sheaf_morphism,
    random_strongly_connected_poset,
)
from oracles import brute_chains

INSTANCES = 200


def _verdict(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:2d} [{status}] {label}")
    assert not failures, f"criterion {number} ({label}): {failures}"


def _expect(failures, label, condition):
    if not condition:
        failures.append(label)


def _small_sheaf(rng, max_source=10):
    """Sheaf morphism with both posets within the 10-element budget."""
    from generators import random_connected_graded_poset

    for _ in range(50):
        target = random_connected_graded_poset(rng, max_elements=6)
        phi = random_sheaf_morphism(rng, target=target, max_sheets=2)
        if len(phi.source.elements) <= max_source:
            return phi
    raise RuntimeError("no small instance found")


def test_criterion_1_trop():
    failures = []
    phi, m = fix_trop(), fix_trop_m()
    _expect(failures, "balanced", is_balanced(phi, m).ok)
    _expect(failures, "ibc", is_ibc(phi, m).ok)
    _expect(failures, "ibc oracle", is_ibc_oracle(phi, m).ok)
    degree = global_degree(phi, m)
    _expect(failures, "degree 3 everywhere",
            degree.constant and degree.degree == 3
            and all(v == 3 for v in degree.per_target_value.values())
            and set(degree.per_target_value) == set(phi.target.elements))
    _expect(failures, "branch locus check", branch_locus_check(phi).ok)
    _verdict(1, "FIX-TROP degree-3 indexed branched cover", failures)


def test_criterion_2_ce1():
    failures = []
    phi, m = fix_ce1(), fix_ce1_m()
    comb = phi.is_combinatorial()
    _expect(failures, "not combinatorial with witness B1",
            not comb.ok and comb.witnesses[0].alpha == "B1")
    _expect(failures, "balanced", is_balanced(phi, m).ok)
    oracle = is_ibc_oracle(phi, m)
    _expect(failures, "oracle rejects with degrees 2 vs 1",
            not oracle.ok and any({w.d1, w.d2} == {2, 1} for w in oracle.witnesses))
    _verdict(2, "FIX-CE1 balanced but not an indexed branched cover", failures)


def test_criterion_3_ce2():
    failures = []
    phi, m = fix_ce2(), fix_ce2_m()
    balance = is_balanced(phi, m)
    _expect(failures, "balance witness (A1, B, 2, 3)",
            not balance.ok and ("A1", "B", 2, 3) in balance.witnesses)
    degree = global_degree(phi, m)
    _expect(failures, "ibc with degree 4",
            is_ibc(phi, m).ok and degree.constant and degree.degree == 4)
    _verdict(3, "FIX-CE2 indexed branched cover but not balanced", failures)


def test_criterion_4_idread():
    failures = []
    phi, m = fix_idread(), fix_idread_m()
    report = extend_balanced(phi, m, phi.source.elements)
    _expect(failures, "O1 extends to 3", report.extended.values.get("O1") == 3)
    conflicts = set(report.conflicts)
    _expect(failures, "conflict at tO1 with sums 2 vs 1",
            ("tO1", "B", "C", 2, 1) in conflicts)
    _expect(failures, "conflict at tO2 with sums 1 vs 2",
            ("tO2", "B", "C", 1, 2) in conflicts)
    strong = connectivity(phi.target, "strong")
    _expect(failures, "target not strongly connected, witness tO",
            not strong.connected and strong.witness == "tO")
    _verdict(4, "FIX-IDREAD extension conflicts and strong connectivity", failures)


def test_criterion_5_simple_ext():
    failures = []
    phi, m = fix_simple_ext(), fix_simple_ext_m()
    report = extend_balanced(phi, m, phi.source.elements)
    _expect(failures, "conflict at O with sums (2, 1)",
            any(c.alpha == "O" and (c.sum1, c.sum2) == (2, 1)
                for c in report.conflicts))
    _verdict(5, "FIX-SIMPLE-EXT conflict at the bottom element", failures)


def test_criterion_6_open():
    failures = []
    phi = fix_open()
    opened = phi.is_open()
    _expect(failures, "not open with witness B2",
            not opened.ok and any(w.alpha == "B2" for w in opened.witnesses))
    _expect(failures, "no balanced map with values <= 4",
            search_balanced(phi, bound=4) is None)
    _verdict(6, "FIX-OPEN not open, balanced search empty", failures)


def test_criterion_7_lift():
    failures = []
    phi, m = fix_lift(), fix_lift_m()
    _expect(failures, "balanced on the up-set", is_balanced(phi, m).ok)
    psi = phi.restrict_corestrict(FIX_LIFT_UPSET)
    comb = psi.is_combinatorial()
    _expect(failures, "psi not combinatorial with witness beta1",
            not comb.ok and comb.witnesses[0].alpha == "beta1")
    try:
        lift_path(phi, m, "beta1", ["beta", "B"])
        failures.append("lift unexpectedly succeeded")
    except CorestrictionNotCombinatorial as exc:
        _expect(failures, "lift refusal cites beta1", exc.witness == "beta1")
    psi_m = IndexMap.total(psi.source, m.values)
    degrees = global_degree(psi, psi_m).per_target_value
    _expect(failures, "fibre over C counts 2, over B counts 1",
            degrees.get("C") == 2 and degrees.get("B") == 1)
    _verdict(7, "FIX-LIFT restricted morphism and failing lift", failures)


def test_criterion_8_stellar():
    failures = []
    simplex = SimplicialComplex.from_maximal("1234", ["1234"])
    after = stellar_subdivide(simplex, {"1", "2", "3"}, "p")
    added = after.faces - simplex.faces
    by_dim = {}
    for f in added:
        by_dim[len(f) - 1] = by_dim.get(len(f) - 1, 0) + 1
    _expect(failures, "added face counts (1, 4, 6, 3)",
            by_dim == {0: 1, 1: 4, 2: 6, 3: 3})
    _expect(failures, "27 faces total", len(after) == 27)
    _verdict(8, "stellar subdivision of the 3-simplex", failures)


def test_criterion_9_chains():
    failures = []
    poset = simplicial_face_poset(SimplicialComplex.from_maximal("1234", ["1234"]))
    chains = chain_poset(poset)
    _expect(failures, "149 chains", len(chains.poset.elements) == 149)
    _expect(failures, "matches brute-force enumeration",
            len(brute_chains(poset.elements, poset.covers)) == 149)
    _verdict(9, "barycentric subdivision size of the 3-simplex", failures)


def test_criterion_10_graph():
    failures = []
    phi = fix_graph()
    pre1 = sample_fibre(phi, Point.interior("t", Fraction(1)))
    pre2 = sample_fibre(phi, Point.interior("t", Fraction(5, 2)))
    _expect(failures, "mismatch 2 vs 3 at position 1",
            (pre1.geometric, pre1.poset, pre1.match) == (2, 3, False))
    _expect(failures, "mismatch 1 vs 3 at position 5/2",
            (pre2.geometric, pre2.poset, pre2.match) == (1, 3, False))
    ref = refine_to_combinatorial(phi)
    _expect(failures, "exactly one new target vertex at position 2 of t",
            list(ref.new_target_vertices.values()) == [("t", Fraction(2))])
    _expect(failures, "exactly one new source vertex on f at distance 2",
            list(ref.new_source_vertices.values()) == [("f", Fraction(2))])
    _expect(failures, "refined face-poset morphism combinatorial",
            ref.poset_morphism.is_combinatorial().ok)
    rng = Random(100)
    edges = sorted(ref.target.edges)
    for _ in range(100):
        eid = rng.choice(edges)
        length = ref.target.edges[eid].length
        den = rng.randint(2, 60)
        num = rng.randint(1, den - 1)
        y = Point.interior(eid, Fraction(num, den) * length)
        if not sample_fibre(ref.morphism, y).match:
            failures.append(f"post-refinement mismatch at {y}")
            break
    _verdict(10, "FIX-GRAPH refinement and fibre sampling", failures)


def test_criterion_11a_ibc_agreement():
    failures = []
    rng = Random(111)
    for i in range(INSTANCES):
        phi = _small_sheaf(rng)
        m = random_index_map(rng, phi.source)
        if is_ibc(phi, m).ok != is_ibc_oracle(phi, m).ok:
            failures.append(f"instance {i}")
    _verdict(11, f"fast ibc test agrees with the oracle ({INSTANCES} instances)",
             failures)


def test_criterion_11b_balanced_iff_ibc():
    failures = []
    rng = Random(112)
    for i in range(INSTANCES):
        phi = _small_sheaf(rng)
        m = random_balanced_map(rng, phi) if i % 3 == 0 else None
        if m is None:
            m = random_index_map(rng, phi.source)
        if is_balanced(phi, m).ok != is_ibc(phi, m).ok:
            failures.append(f"instance {i}")
    _verdict(11, f"balanced iff indexed branched cover ({INSTANCES} instances)",
             failures)


def test_criterion_11c_preimage_components():
    failures = []
    rng = Random(113)
    for i in range(INSTANCES):
        phi = _small_sheaf(rng)
        for beta in phi.target.elements:
            expected = sorted(
                (phi.source.up_set([alpha]) for alpha in phi.fibre(beta)), key=min)
            if phi.source.components(phi.preimage(phi.target.up_set([beta]))) != expected:
                failures.append(f"instance {i} at {beta}")
    _verdict(11, f"preimage components are principal up-sets ({INSTANCES} instances)",
             failures)


def test_criterion_11d_forest():
    failures = []
    from oracles import is_forest

    rng = Random(114)
    for i in range(INSTANCES):
        phi = _small_sheaf(rng)
        start = rng.choice(sorted(phi.target.elements))
        path = [start]
        while phi.target.covers_of(path[-1]):
            path.append(rng.choice(sorted(phi.target.covers_of(path[-1]))))
        induced = phi.source.induced(phi.preimage(path))
        if not is_forest(induced.elements, sorted(induced.covers)):
            failures.append(f"instance {i}")
    _verdict(11, f"preimages of saturated paths are forests ({INSTANCES} instances)",
             failures)


def test_criterion_11e_strong_connectivity():
    failures = []
    rng = Random(115)
    for i in range(INSTANCES):
        p = random_strongly_connected_poset(rng)
        report = rank_check(p)
        if not report.pure:
            failures.append(f"instance {i} impure")
            continue
        for k in range(1, report.dim + 1):
            if not connectivity(p, "codim", k).connected:
                failures.append(f"instance {i} codim {k}")
    _verdict(11, f"strongly connected implies pure and codim-connected "
                 f"({INSTANCES} instances)", failures)


def test_criterion_11f_bcs_combinatorial():
    failures = []
    rng = Random(116)
    for i in range(INSTANCES):
        phi = _small_sheaf(rng)
        if not bcs_morphism(phi).is_combinatorial().ok:
            failures.append(f"instance {i}")
    _verdict(11, f"barycentric morphism of combinatorial stays combinatorial "
                 f"({INSTANCES} instances)", failures)


def test_criterion_11g_guaranteed_extension():
    failures = []
    rng = Random(117)
    produced = 0
    attempts = 0
    while produced < INSTANCES and attempts < 40 * INSTANCES:
        attempts += 1
        outcome = _guaranteed_instance(rng)
        if outcome is None:
            continue
        produced += 1
        phi, m = outcome
        report = extend_balanced(phi, m, phi.source.elements)
        if report.mode != "guaranteed":
            failures.append(f"instance {produced} not guaranteed")
        elif report.conflicts:
            failures.append(f"instance {produced} conflicted")
        elif not is_balanced(phi, report.extended).ok:
            failures.append(f"instance {produced} not balanced after extension")
    if produced < INSTANCES:
        failures.append(f"only {produced} guaranteed-mode instances generated")
    _verdict(11, f"guaranteed-mode extension never conflicts ({INSTANCES} instances)",
             failures)


def _guaranteed_instance(rng):
    """A sheaf morphism plus a balanced map whose extension to the whole
    source satisfies the extension theorem's step-by-step hypotheses."""
    phi = _small_sheaf(rng)
    ranks = rank_check(phi.source)
    if ranks.dim < 1:
        return None
    k = rng.randint(0, ranks.dim - 1)
    domain = phi.source.up_set(ranks.level(k + 1))
    if not domain or domain == frozenset(phi.source.elements):
        return None
    if any(x not in domain for x in phi.source.max_elements()):
        return None
    values = {}
    for alpha in sorted(domain, key=lambda x: -ranks.rank[x]):
        covers = phi.target.covers_of(phi(alpha))
        if not covers:
            values[alpha] = rng.randint(1, 3)
            continue
        sums = {sum(values[g] for g in phi.source.covers_of(alpha) if phi(g) == b)
                for b in covers}
        if len(sums) != 1 or min(sums) < 1:
            return None
        values[alpha] = sums.pop()
    m = IndexMap(phi.source, values)
    # step-by-step hypothesis check, independent of the implementation
    missing = sorted(frozenset(phi.source.elements) - domain,
                     key=lambda x: (-ranks.rank[x], x))
    current = set(domain)
    for alpha in missing:
        punctured = phi.target.up_set([phi(alpha)]) - {phi(alpha)}
        if not phi.target.is_connected(punctured):
            return None
        if not phi.preimage(punctured) <= current:
            return None
        current.add(alpha)
    return phi, m
