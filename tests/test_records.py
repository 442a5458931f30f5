"""The result records are named tuples: their truth values, their reprs
(which witnesses and exception texts print), their use as dict keys, and
the command that dispatch writes into a CLI report."""

from fractions import Fraction

import pytest

from posetcover import cli, covers, extend, fixtures, posets
from posetcover.checks import Check
from posetcover.metric import Point
from posetcover.morphisms import PosetMorphism
from posetcover.posets import Poset


def _fixture(name):
    return fixtures.load_fixture(name), fixtures.load_fixture(name + "-M")


def _collapsed_chain():
    """A two-chain onto one point, so the chain's bottom lies over a
    maximal point."""
    chain = Poset(["a", "b"], [("a", "b")])
    return PosetMorphism(chain, Poset(["X"], []), {"a": "X", "b": "X"})


def _extension(name):
    phi, m = _fixture(name)
    return extend.extend_balanced(phi, m, phi.source.elements)


def _command(argv):
    report, _ = cli.dispatch(cli.shared_parser().parse_args(argv))
    return report.command


CASES = {
    "passing Check is true": (lambda: bool(Check.passed()), True),
    "failing Check is false": (lambda: bool(Check.failed(["w"])), False),
    "passing branch locus check is true": (
        lambda: bool(covers.branch_locus_check(fixtures.load_fixture("FIX-TROP"))), True),
    "failing branch locus check is false": (
        lambda: bool(covers.branch_locus_check(_collapsed_chain())), False),
    "passing ExtensionReport is true": (lambda: bool(_extension("FIX-TROP")), True),
    "failing ExtensionReport is false": (lambda: bool(_extension("FIX-SIMPLE-EXT")), False),
    "Check repr": (
        lambda: repr(covers.is_balanced(*_fixture("FIX-CE2"))),
        "Check(ok=False, witnesses=(BalanceViolation(alpha='A1', beta='B', lhs=2, rhs=3), "
        "BalanceViolation(alpha='A2', beta='B', lhs=2, rhs=3)))"),
    "vertex Point repr": (lambda: repr(Point.at_vertex("a")), "Point(a)"),
    "interior Point repr": (lambda: repr(Point.interior("t", "5/2")), "Point(t @ 5/2)"),
    "ConnectivityReport repr": (
        lambda: repr(posets.connectivity(Poset(["a", "b"], []), "connected")),
        "ConnectivityReport(mode='connected', connected=False, "
        "components=[frozenset({'a'}), frozenset({'b'})], witness=None)"),
    "Point as dict key": (
        lambda: {Point.interior("t", Fraction(5, 2)): 1, Point.at_vertex("t"): 2}[
            Point.interior("t", "5/2")], 1),
    "dispatch names the command and action": (
        lambda: _command(["poset", "stats", "FIX-TROP/target"]), "poset stats"),
    "dispatch names a command without an action": (
        lambda: _command(["extend", "--morphism", "FIX-IDREAD", "--index", "FIX-IDREAD-M"]),
        "extend"),
    "dispatch names the command of an error": (
        lambda: _command(["cover", "ibc", "--morphism", "FIX-TROP"]), "cover ibc"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_record(case):
    make, expected = CASES[case]
    assert make() == expected
