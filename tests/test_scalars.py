import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gzlie.scalars import ZERO, ONE, I, rat, parse_scalar, format_scalar
import qi_reference
from qi_reference import Jet, qi, is_rational, as_fraction

rationals = st.fractions(max_denominator=50)
scalars = st.builds(qi, rationals, rationals)


def test_parse_basic_forms():
    assert parse_scalar("3") == qi(3)
    assert parse_scalar("-1/2") == qi(Fraction(-1, 2))
    assert parse_scalar("1/2+3*i") == qi(Fraction(1, 2), 3)
    assert parse_scalar("-1/2*i") == qi(0, Fraction(-1, 2))
    assert parse_scalar("2-1/3*i") == qi(2, Fraction(-1, 3))
    assert parse_scalar("0") == ZERO
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I


@pytest.mark.parametrize("text", ["0", "-0", "+0", "0/7", "-0/3", "0*i",
                                  "-0*i", "0+0*i", "0-0/5*i", "+000/007",
                                  "+0+0*i", "-00/1-0/03*i"])
def test_parse_zero_is_shared_zero(text):
    # parsed matrices then take the `is ZERO` fast paths of the kernels
    assert parse_scalar(text) is ZERO


@pytest.mark.parametrize("bad", ["", "x", "1/2/3", "2i+3", "1 + ", "/3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("text", ["\u0663", "\uff13", "1/\u0662",
                                  "\u0663*i", "1+\uff12*i", "\u0661/2",
                                  "2-1/\u0663*i"])
def test_parse_refuses_non_ascii_digits(text):
    # Arabic-Indic and fullwidth digits, in the numerator, the denominator
    # and the imaginary part alike
    with pytest.raises(ValueError):
        parse_scalar(text)


# Pieces of the scalar grammar: a sign (a leading '+' too), zero padding,
# numerators that are zero in a third of the draws, optional spaces
_SIGN = st.sampled_from(["", "+", "-"])
_PAD = st.sampled_from(["", "0", "000"])
_SPACE = st.sampled_from(["", " "])


@st.composite
def _rat_text(draw, sign=_SIGN):
    big = st.integers(1, 10 ** 30)
    num = draw(st.one_of(st.just(0), big, big))
    text = draw(sign) + draw(_PAD) + str(num)
    if draw(st.booleans()):
        text += "/" + draw(_PAD) + str(draw(st.integers(1, 10 ** 30)))
    return text


@st.composite
def _scalar_text(draw):
    """A string of the grammar: a rational part, an imaginary part c*i or
    a bare i, or both joined by a sign."""
    re = draw(_rat_text()) if draw(st.booleans()) else ""
    joined = st.sampled_from(["+", "-"]) if re else _SIGN
    im = draw(st.sampled_from(["part", "unit", "none" if re else "unit"]))
    if im == "part":
        im = (draw(_SPACE) + draw(_rat_text(joined)) + draw(_SPACE) + "*"
              + draw(_SPACE) + "i")
    elif im == "unit":
        im = draw(_SPACE) + draw(joined) + "i"
    else:
        im = ""
    return draw(_SPACE) + re + im + draw(_SPACE)


@given(_scalar_text())
@settings(max_examples=300)
def test_parse_matches_fraction_reference(text):
    # the parse that read each part through Fraction(text)
    got, want = parse_scalar(text), qi_reference.parse_scalar(text)
    assert (got.re, got.im) == (want.re, want.im)
    assert type(got.re) is type(want.re) and type(got.im) is type(want.im)
    assert (got is ZERO) == (not want)


@pytest.mark.parametrize("text", [
    "1" * 5000, "-" + "1" * 5000, "+" + "0" * 5000, "1/" + "3" * 5000,
    "1+" + "7" * 5000 + "*i", "2/3-1/" + "9" * 5000 + "*i"])
def test_parse_refuses_parts_beyond_the_digit_limit(text):
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("no integer-from-string limit in this interpreter")
    for parse in (parse_scalar, qi_reference.parse_scalar):
        with pytest.raises(ValueError):
            parse(text)


@given(scalars)
def test_format_parse_round_trip(z):
    assert parse_scalar(format_scalar(z)) == z


def test_format_canonical():
    assert format_scalar(ZERO) == "0"
    assert format_scalar(qi(3)) == "3"
    assert format_scalar(qi(0, 1)) == "1*i"
    assert format_scalar(qi(Fraction(1, 2), 3)) == "1/2+3*i"
    assert format_scalar(qi(1, Fraction(-1, 2))) == "1-1/2*i"


@given(scalars, scalars, scalars)
@settings(max_examples=50)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    if b:
        assert (a / b) * b == a


# (re, im) pairs whose imaginary part is 0 in half the draws, so that both
# the real and the Gaussian branches of the arithmetic run
pairs = st.tuples(rationals, rationals, st.booleans()).map(
    lambda t: (t[0], t[1] if t[2] else Fraction(0)))


@given(pairs, pairs)
@settings(max_examples=100)
def test_arithmetic_matches_pair_formulas(p, q):
    (a, b), (c, d) = p, q
    z, w = qi(a, b), qi(c, d)
    for got, want in [(z + w, (a + c, b + d)), (z - w, (a - c, b - d)),
                      (z * w, (a * c - b * d, a * d + b * c)),
                      (-z, (-a, -b))]:
        assert (got.re, got.im) == want
    if not (b or d):
        # a real result reuses an operand's zero
        assert (z + w).im is z.im and (z - w).im is z.im
        assert (z * w).im is z.im and (-z).im is z.im


def test_division_and_conjugate():
    z = qi(1, 2)
    assert z * z.conj() == qi(5)
    assert (ONE / z) * z == ONE
    assert I * I == -ONE
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_powers():
    assert qi(1, 1) ** 2 == qi(0, 2)
    assert I ** 4 == ONE
    assert qi(2) ** 0 == ONE


def test_jet_derivative_of_product_and_quotient():
    # f(t) = (2+t)(3-t) at t=0: value 6, derivative 1
    a = Jet(qi(2), ONE)
    b = Jet(qi(3), -ONE)
    p = a * b
    assert p.val == qi(6) and p.eps == ONE
    q = a / b
    assert q.val == qi(2) / qi(3)
    # (a/b)' = (a'b - ab')/b^2 = (3 + 2)/9
    assert q.eps == qi(5) / qi(9)


def test_jet_matches_symbolic_two_by_two_determinant():
    # d/dt det(x + t v) at t=0 expanded by hand for 2x2
    x = [[qi(1), qi(2)], [qi(3), qi(4)]]
    v = [[qi(5), qi(-1)], [qi(2), qi(7)]]
    jets = [[Jet(x[i][j], v[i][j]) for j in range(2)] for i in range(2)]
    detj = jets[0][0] * jets[1][1] - jets[0][1] * jets[1][0]
    hand = (x[0][0] * v[1][1] + v[0][0] * x[1][1]
            - x[0][1] * v[1][0] - v[0][1] * x[1][0])
    assert detj.val == x[0][0] * x[1][1] - x[0][1] * x[1][0]
    assert detj.eps == hand


def test_rational_helpers():
    assert rat(1, 2) + rat(1, 2) == ONE
    assert is_rational(qi(1, 1)) is False
    assert as_fraction(rat(7)) == Fraction(7)
    with pytest.raises(ValueError):
        as_fraction(qi(0, 1))
