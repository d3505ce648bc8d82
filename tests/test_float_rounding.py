"""float(x) is the double nearest the exact value x, and a function of x.

The reference is mpmath: the value at 400 bits, rounded to 53 bits to
nearest.  The values are the hard cases for a float taken from an
enclosure: a + b lambda and sqrt(D) - a/b with a/b a convergent of lambda or
of sqrt(D), which cancel to about 1/b^2, and rationals on and near a
rounding tie.
"""

from fractions import Fraction

import mpmath
import pytest

from trianglecf.field import NumberField
from trianglecf.quadratic import QuadExt

NS = (5, 8, 13)


def _mp_lambda(n):
    return 2 * mpmath.cos(mpmath.pi / n)


def _mp_value(x, n):
    """x, a FieldElement or QuadExt, at the working precision."""
    if isinstance(x, QuadExt):
        return _mp_value(x.u, n) + _mp_value(x.v, n) * mpmath.sqrt(_mp_value(x.disc, n))
    lam = _mp_lambda(n)
    return sum(mpmath.mpf(c) * lam ** i for i, c in enumerate(x.num)) / x.den


def _nearest_double(x, n):
    with mpmath.workprec(400):
        value = _mp_value(x, n)
    with mpmath.workprec(53):
        # rounds to nearest; a 53-bit mpf converts to float exactly
        return float(+value)


def _convergents(value, max_den):
    """The continued-fraction convergents p/q of an mpf, q <= max_den."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    x = value
    out = []
    while True:
        a = int(mpmath.floor(x))
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_den:
            return out
        out.append(Fraction(p1, q1))
        x = 1 / (x - a)


def _values(F):
    n = F.n
    with mpmath.workprec(400):
        lam_convergents = _convergents(_mp_lambda(n), 10 ** 40)
        root_convergents = _convergents(2 * mpmath.cos(mpmath.pi / (2 * n)), 10 ** 40)
    values = []
    for c in lam_convergents[1:]:
        values += [F.lam - c, c.denominator * F.lam - c.numerator, 3 * F.lam + 7 - 3 * c]
    # D = 2 + lambda = (2cos(pi/2n))^2 is no square in K
    for c in root_convergents[1:]:
        values += [QuadExt(F, -c, 1, 2 + F.lam), QuadExt(F, c, -1, 2 + F.lam)]
    for q in (Fraction(1, 3), Fraction(-7391, 10000), Fraction(2 ** 53 + 1, 2 ** 53),
              Fraction(2 ** 53 + 3, 2 ** 53), Fraction(-(2 ** 54 + 1), 2 ** 54 * 3 ** 40),
              Fraction(10 ** 30 + 1, 7), Fraction(0)):
        values.append(F.from_fraction(q))
    return values


@pytest.mark.parametrize("n", NS)
def test_float_is_the_nearest_double(n):
    for x in _values(NumberField(n)):
        assert float(x).hex() == _nearest_double(x, n).hex(), x


def test_a_near_cancelling_value_keeps_its_sign():
    # lambda - p/q for the best p/q with q <= 10^12 at n = 5 is 4.9e-25;
    # the midpoint of a 53-bit enclosure read -8.4e-21
    F = NumberField(5)
    with mpmath.workprec(400):
        best = _convergents(_mp_lambda(5), 10 ** 12)[-1]
    assert float(F.lam - best) == 4.885887384858275e-25


@pytest.mark.parametrize("n", NS)
def test_float_does_not_depend_on_earlier_refinements(n):
    fresh = [repr(float(x)) for x in _values(NumberField(n))]
    refined = NumberField(n)
    refined.lambda_enclosure(4096)
    assert [repr(float(x)) for x in _values(refined)] == fresh


def test_an_enclosure_wider_than_the_double_range_is_refined():
    # q lambda - p for a convergent p/q of lambda with q > 2^1100 has
    # coefficients so large that its 64-bit enclosure reaches past the
    # double range on both sides; the value, in [-tau, 0), still converts
    F = NumberField(5)
    with mpmath.workprec(3000):
        c = next(c for c in _convergents(_mp_lambda(5), 2 ** 1200) if c.denominator > 2 ** 1100)
    x = c.numerator - c.denominator * F.lam - Fraction(1, 3)
    enc = x.embed_raw(64)
    with pytest.raises(OverflowError):
        enc.lo_num / enc.den
    with mpmath.workprec(3000):
        expected = _mp_value(x, 5)
    with mpmath.workprec(53):
        expected = float(+expected)
    assert float(x).hex() == expected.hex()
    # beyond the double range on one side the value itself overflows, as
    # float(2**1100) does
    with pytest.raises(OverflowError):
        float(2 ** 1100 * F.lam)
    with pytest.raises(OverflowError):
        float(-(2 ** 1100) * F.lam)
