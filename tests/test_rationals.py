"""fileio.parse_rational reads the form format_rational writes (an
optional "-", ASCII digits, and optionally "/" and a nonzero denominator)
with integer arithmetic.  Every input must give the value, or the exception
type and message, that reading it with Fraction(text) gives, with two
deliberate differences, both refused with FormatError: a decimal exponent
above 4300 in magnitude, which Fraction would expand for as long as it
takes, and a value whose numerator or denominator has more than 4300
digits, which Fraction reads but str() cannot write."""

import time
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from posetcover.errors import FormatError  # noqa: E402
from posetcover.fileio import format_rational, parse_rational  # noqa: E402


def fraction_parse(text):
    """parse_rational through Fraction's own parser for every string."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {text!r}: {exc}") from None
    raise FormatError(f"rationals must be strings like '3' or '5/2', got {text!r}")


def outcome(parse, text):
    try:
        value = parse(text)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(value), value


def assert_same(text):
    assert outcome(parse_rational, text) == outcome(fraction_parse, text)


@pytest.mark.parametrize("text", [
    "-0", "3/6", "1/0", "0/0", "1/00", "-0/5", "007/010", " 3", "3\n", "+3", "1.5", "1e3",
    "1_0", "٣", "1/٣", "²", "−5", "-", "--1", "", "/", "1/", "/2", "1/-2", "1/2/3",
    "9" * 5000, "-" + "9" * 5000, "1/" + "9" * 5000, True, False, None, 3, -7, 1.5, ["1"],
    "1e4299", "1e-4299", "1.e5", "٣e٣", "1e4301/2", "x1e99999"])
def test_parse_rational_matches_the_fraction_parser(text):
    assert_same(text)


@pytest.mark.parametrize("text", [
    "1e10000000", "1e999999999", "1e-999999999", "1E4301", "-.5e+4301", " 2.5e-4_301\n",
    "1e" + "9" * 4300])
def test_exponents_above_the_limit_are_refused(text):
    """The first deliberate difference from the Fraction reference."""
    start = time.monotonic()
    with pytest.raises(FormatError) as raised:
        parse_rational(text)
    assert time.monotonic() - start < 1
    assert str(raised.value) == f"bad rational {text!r}: exponent above 4300 in magnitude"


@pytest.mark.parametrize("text", ["1e4300", "-1E-4300", "12.5e4299"])
def test_values_with_too_many_digits_are_refused(text):
    """The second deliberate difference: 10^4300 has 4301 digits."""
    with pytest.raises(FormatError) as raised:
        parse_rational(text)
    assert str(raised.value) == (f"bad rational {text!r}: more than 4300 digits "
                                 "in its numerator or denominator")


@settings(max_examples=500, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.from_regex(r"-?[0-9]{1,8}(/[0-9]{1,8})?", fullmatch=True)
       | st.text("0123456789-+/._e ٣²", max_size=8) | st.text(max_size=6))
def test_generated_text_parses_as_the_fraction_parser_reads_it(text):
    assert_same(text)


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(st.fractions())
def test_format_rational_round_trips(q):
    assert outcome(parse_rational, format_rational(q)) == ("returned", Fraction, q)
