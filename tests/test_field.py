import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trianglecf import field as field_mod
from trianglecf.errors import DomainError, PrecisionExhausted
from trianglecf.field import (
    Enclosure,
    FieldElement,
    NumberField,
    build_field,
    cyclotomic_polynomial,
    galois_conjugate_values,
    set_precision_cap,
    trace_min_poly,
)
from trianglecf.dynamics import eps0
from trianglecf.quadratic import QuadExt, compare_numeric


def test_min_poly_frozen_small_n():
    # oracle: substitute y = x + 1/x into the 2n-th cyclotomic polynomial;
    # n=4: Phi_8 = x^4+1 -> y^2-2; n=5: Phi_10 -> y^2-y-1; n=6: Phi_12 -> y^2-3
    assert trace_min_poly(4) == (-2, 0, 1)
    assert trace_min_poly(5) == (-1, -1, 1)
    assert trace_min_poly(6) == (-3, 0, 1)


def test_min_poly_against_sympy():
    # independent oracle: sympy computes the minimal polynomial of 2cos(pi/n)
    import sympy

    x = sympy.Symbol("x")
    for n in range(4, 17):
        ours = trace_min_poly(n)
        theirs = sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / n), x)
        coeffs = list(reversed(theirs.as_poly(x).all_coeffs()))
        assert [int(c) for c in coeffs] == list(ours), n


def test_min_poly_degree_and_root():
    for n in range(4, 17):
        F = build_field(n)
        assert F.degree == len(trace_min_poly(n)) - 1
        if n in (4, 5, 6):
            assert F.degree == 2
        if n in (7, 9):
            assert F.degree == 3
        lam = 2 * math.cos(math.pi / n)
        val = sum(c * lam ** i for i, c in enumerate(F.min_poly))
        assert abs(val) < 1e-9
        # the minimal polynomial evaluates to the exact zero element
        acc = F.zero
        for i, c in enumerate(F.min_poly):
            acc = acc + F.lam ** i * c
        assert acc.is_zero()


def test_cyclotomic_palindrome():
    for m in (8, 10, 12, 14, 18, 32):
        p = cyclotomic_polynomial(m)
        assert p == tuple(reversed(p))


def test_build_field_rejects_small_n():
    with pytest.raises(DomainError):
        build_field(3)


def test_mul_lambda_lambda_n4_is_two():
    F = build_field(4)
    assert F.lam * F.lam == F.from_fraction(2)


def test_inverse_tau_n5():
    # solve (a + b lam)(1 + lam) = 1 with lam^2 = lam + 1: a=2, b=-1
    F = build_field(5)
    inv = F.tau.inverse()
    assert inv == F.element([2, -1])
    assert (F.tau * inv - 1).is_zero()


def test_additive_inverse_and_field_axioms():
    F = build_field(7)
    x = F.element([Fraction(3, 5), Fraction(-1, 2), Fraction(7, 3)])
    assert (x + (-x)).is_zero()
    assert (x * x.inverse() - 1).is_zero()


@st.composite
def field_elements(draw, n=5):
    F = build_field(n)
    coeffs = [
        Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 20)))
        for _ in range(F.degree)
    ]
    return F.element(coeffs)


@settings(max_examples=60, deadline=None)
@given(field_elements())
def test_multiplicative_inverse_property(x):
    if x.is_zero():
        return
    assert (x * x.inverse() - 1).is_zero()


@settings(max_examples=60, deadline=None)
@given(field_elements(), field_elements())
def test_ring_axioms(a, b):
    assert a * b == b * a
    assert (a + b) - b == a
    F = a.field
    assert a * (b + F.one) == a * b + a


@settings(max_examples=60, deadline=None)
@given(field_elements(), field_elements())
def test_equality_and_order_are_the_sign_of_the_difference(a, b):
    # (a, a + b - b) is an equal pair with distinct coefficient tuples
    for x, y in ((a, b), (a, (a + b) - b)):
        s = (x - y).sign()
        assert (x == y) == (x - y).is_zero()
        assert (x != y) == (not (x - y).is_zero())
        assert (x < y, x <= y, x > y, x >= y) == (s < 0, s <= 0, s > 0, s >= 0)
    assert abs(a).sign() >= 0
    assert a.ceil() == -(-a).floor()


def test_hash_agrees_with_equality():
    F = build_field(5)
    assert F.one in {1}
    assert 1 in {F.one}
    assert hash(F.from_fraction(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert F.lam in {F.element([0, 1])}
    assert hash(F.tau * F.tau.inverse()) == hash(1)
    # rationals of two fields are equal values with equal hashes
    G = build_field(7)
    assert F.one == G.one and F.lam != G.lam
    assert len({F.one, G.one, F.lam, G.lam, 1}) == 3


def test_equal_fields_mix():
    # NumberField(5) is a second object equal to build_field(5); the
    # field-keyed caches hand out elements of whichever was built first
    F, G = build_field(5), NumberField(5)
    assert F is not G and F == G
    assert F.lam == G.lam and G.lam == F.lam
    assert F.lam + G.lam == 2 * F.lam
    assert G.tau * F.tau.inverse() == 1
    assert G.coerce(F.lam) == G.lam
    assert len({F.lam, G.lam}) == 1
    assert eps0(F) < G.zero and eps0(G) < G.zero
    assert eps0(G) == -(G.tau ** 3) / (G.tau * G.tau + 1)
    # fields with a different n still refuse to mix
    H = build_field(7)
    with pytest.raises(ValueError):
        F.lam + H.lam
    with pytest.raises(ValueError):
        H.coerce(F.lam)


# -- the integer kernel: degrees 2 to 8, coefficients up to 260 bits --------

KERNEL_NS = (4, 5, 7, 8, 13, 16)
_rationals = st.builds(
    Fraction,
    st.one_of(st.integers(-50, 50), st.integers(-2 ** 260, 2 ** 260)),
    st.one_of(st.integers(1, 20), st.integers(1, 2 ** 240)),
)


@st.composite
def kernel_pairs(draw):
    F = build_field(draw(st.sampled_from(KERNEL_NS)))
    vector = st.lists(_rationals, min_size=F.degree, max_size=F.degree)
    return F.element(draw(vector)), F.element(draw(vector))


def _assert_reduced(x):
    assert len(x.num) == x.field.degree
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1


def _horner(coeffs, box):
    lo = hi = Fraction(0)
    for c in reversed(coeffs):
        ps = (lo * box.lo, lo * box.hi, hi * box.lo, hi * box.hi)
        lo, hi = min(ps) + c, max(ps) + c
    return lo, hi


def _check_kernel(a, b):
    F = a.field
    assert (a - b) + b == a and a + b == b + a and a - a == 0
    assert a * (b + 1) == a * b + a
    for x in (a, b, a + b, a - b, -a, a * b, a * 3, a / 7):
        _assert_reduced(x)
        assert FieldElement(F, x.coeffs) == x
        assert x.to_json() == [str(c) for c in x.coeffs]
        assert all(c == Fraction(n, x.den) for c, n in zip(x.coeffs, x.num))
    for x in (a, b):
        if x.is_zero():
            continue
        inv = x.inverse()
        _assert_reduced(inv)
        assert x * inv == 1
    if not (a.is_zero() or b.is_zero()):
        assert (a * b).inverse() == a.inverse() * b.inverse()
    for p in (64, 128):
        enc = a.embed_raw(p)
        assert (enc.lo, enc.hi) == _horner(a.coeffs, F.lambda_enclosure(p))


@settings(max_examples=80, deadline=None)
@given(kernel_pairs())
def test_integer_kernel(pair):
    _check_kernel(*pair)


@pytest.mark.parametrize("n", KERNEL_NS)
def test_integer_kernel_large_coefficients(n):
    F = build_field(n)
    rng = random.Random(n)

    def big():
        return F.element([Fraction(rng.getrandbits(256) - 2 ** 255, rng.getrandbits(224) + 1)
                          for _ in range(F.degree)])

    a, b = big(), big()
    assert max(abs(c).bit_length() for c in a.num) > 200
    _check_kernel(a, b)


def test_product_matches_polynomial_remainder():
    # independent oracle: sympy's remainder of the product by the minimal polynomial
    import sympy

    y = sympy.Symbol("y")
    for n in KERNEL_NS:
        F = build_field(n)
        rng = random.Random(100 + n)
        a, b = (F.element([Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 999))
                           for _ in range(F.degree)]) for _ in range(2))

        def poly(x):
            return sympy.Poly(list(reversed(x.coeffs)), y, domain="QQ")

        rem = sympy.rem(poly(a) * poly(b), sympy.Poly(list(reversed(F.min_poly)), y))
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(rem.all_coeffs())]
        want += [Fraction(0)] * (F.degree - len(want))
        assert list((a * b).coeffs) == want


def test_sign_examples():
    for n in range(4, 17):
        F = build_field(n)
        assert F.zero.sign() == 0
        assert (F.one - F.tau).sign() == -1  # tau > 2
    F5 = build_field(5)
    assert (F5.tau - 2).sign() == 1  # tau = (3+sqrt5)/2 > 2


def test_sign_consistent_with_embedding():
    F = build_field(6)
    x = F.element([Fraction(-17, 10), Fraction(1)])  # sqrt(3) - 1.7 > 0
    assert x.sign() == 1
    enc = x.embed(64)
    assert enc.lo > 0


def test_embed_examples():
    F4 = build_field(4)
    enc = F4.tau.embed(53)
    # tau = 1 + sqrt(2) at n=4, and both ends exceed 1
    assert 1 < enc.lo and (enc.lo - 1) ** 2 <= 2 <= (enc.hi - 1) ** 2
    assert enc.width() <= Fraction(2) ** -52 * enc.hi
    assert abs(float(enc) - (1 + math.sqrt(2))) < 1e-12
    F6 = build_field(6)
    assert abs(float(F6.lam.embed(53)) - math.sqrt(3)) < 1e-12
    z = F6.zero.embed(200)
    assert z.lo == 0 and z.hi == 0


def test_embed_width_contract():
    F = build_field(9)
    x = F.element([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)])
    for precision in (16, 53, 100, 200):
        enc = x.embed(precision)
        scale = max(Fraction(1), abs(enc.lo), abs(enc.hi))
        assert enc.width() <= Fraction(2) ** (1 - precision) * scale


def test_embed_rejects_low_precision():
    F = build_field(4)
    with pytest.raises(DomainError):
        F.tau.embed(8)


def test_galois_conjugates_n5():
    F = build_field(5)
    vals = sorted(float(e) for e in galois_conjugate_values(F.lam))
    assert abs(vals[0] - 2 * math.cos(3 * math.pi / 5)) < 1e-9
    assert abs(vals[1] - 2 * math.cos(math.pi / 5)) < 1e-9


def test_galois_conjugates_rational_constant():
    F = build_field(7)
    c = F.from_fraction(Fraction(5, 3))
    vals = [float(e) for e in galois_conjugate_values(c)]
    assert len(vals) == F.degree
    assert all(abs(v - 5 / 3) < 1e-12 for v in vals)


def test_galois_conjugates_tau_n4():
    F = build_field(4)
    vals = sorted(float(e) for e in galois_conjugate_values(F.tau))
    assert abs(vals[0] - (1 - math.sqrt(2))) < 1e-9
    assert abs(vals[1] - (1 + math.sqrt(2))) < 1e-9


def test_galois_conjugates_isolate_no_second_root(monkeypatch):
    # the conjugates come from the conjugation matrices, evaluated on
    # lambda's one bracket, so no root of the minimal polynomial is
    # bracketed again
    F = NumberField(13)
    built = 0
    init = field_mod._RootBracket.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(field_mod._RootBracket, "__init__", counted)
    galois_conjugate_values(F.lam / 3 + F.tau ** 4)
    assert built == 0


@pytest.mark.parametrize("n", (5, 7, 12, 13, 16, 20))
def test_galois_conjugates_contain_the_embeddings(n):
    # sigma_k(a) = sum_i a_i (2cos(k pi/n))^i at 300 bits, k in the order
    # of _embedding_indices, identity first; the Galois group is not
    # cyclic at n = 12 and 20
    import mpmath

    F = NumberField(n)
    rng = random.Random(n)
    elements = [F.lam, F.tau.inverse()] + [
        F.element([Fraction(rng.randint(-2 ** 40, 2 ** 40), rng.randint(1, 2 ** 20))
                   for _ in range(F.degree)])
        for _ in range(4)]
    with mpmath.workprec(300):
        for a in elements:
            for precision in (53, 120):
                encs = galois_conjugate_values(a, precision)
                assert len(encs) == F.degree
                for k, enc in zip(field_mod._embedding_indices(n), encs):
                    lam_k = 2 * mpmath.cos(mpmath.pi * k / n)
                    value = sum(mpmath.mpf(c.numerator) / c.denominator * lam_k ** i
                                for i, c in enumerate(a.coeffs))
                    lo = mpmath.mpf(enc.lo.numerator) / enc.lo.denominator
                    hi = mpmath.mpf(enc.hi.numerator) / enc.hi.denominator
                    assert lo <= value <= hi
                    assert field_mod._is_tight(enc, precision)


def test_floor_and_ceil():
    F = build_field(4)
    assert F.tau.floor() == 2
    assert F.tau.ceil() == 3
    assert (-F.tau).floor() == -3
    assert F.from_fraction(Fraction(7, 2)).floor() == 3


def test_total_order():
    F = build_field(5)
    vals = [F.zero, F.one, F.lam, F.tau, -F.tau, F.from_fraction(Fraction(8, 5))]
    floats = [float(v) for v in vals]
    order = sorted(range(len(vals)), key=lambda i: floats[i])
    for a, b in zip(order, order[1:]):
        assert vals[a] < vals[b]


@st.composite
def _quotients(draw):
    """(N, D, want): D a FieldElement or a QuadExt over K(sqrt(tau)) with
    small coefficients and either sign, and N with N / D an integer i, or
    i -+ tau 2^-e / D for e in 40 .. 200; want is i when N / D = i, else
    None."""
    F = build_field(draw(st.sampled_from((4, 5, 8, 13))))
    small = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                     min_size=F.degree, max_size=F.degree)
    D = F.element(draw(small.filter(any)))
    if draw(st.booleans()):
        D = QuadExt(F, D, F.element(draw(small)), F.tau)
    i = draw(st.integers(-50, 50) | st.integers(-2 ** 70, 2 ** 70))
    e = draw(st.none() | st.integers(40, 200))
    if e is None:
        return D * i, D, i
    return D * i + F.tau * Fraction(draw(st.sampled_from((-1, 1))), 2 ** e), D, None


@settings(max_examples=200, deadline=None)
@given(case=_quotients())
def test_floor_division_against_the_enclosures(case):
    # the floor of N / D against the corners of 2000-bit enclosures, read as
    # Fractions; at an integer quotient, against the integer itself
    N, D, want = case
    if want is None:
        en, ed = N.embed_raw(2000), D.embed_raw(2000)
        corners = [Fraction(a, en.den) / Fraction(b, ed.den)
                   for a in (en.lo_num, en.hi_num) for b in (ed.lo_num, ed.hi_num)]
        want = math.floor(min(corners))
        assert math.floor(max(corners)) == want
    assert N // D == want
    assert (-N) // (-D) == want


def test_serialization_roundtrip():
    F = build_field(7)
    x = F.element([Fraction(1), Fraction(-2, 3), Fraction(5, 7)])
    data = x.to_json()
    assert data == ["1", "-2/3", "5/7"]
    assert F.element([Fraction(c) for c in data]) == x


def test_division_by_zero():
    F = build_field(5)
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_precision_exhausted_with_tiny_cap():
    # an element within 2^-200 of zero cannot be signed with a 64-bit cap
    F = build_field(5)
    lam_enc = F.lam.embed(220)
    approx = F.from_fraction(lam_enc.lo)
    tiny = approx - F.lam  # nonzero, magnitude below 2^-200
    assert not tiny.is_zero()
    set_precision_cap(64)
    try:
        with pytest.raises(PrecisionExhausted) as info:
            tiny._sign_exact()
    finally:
        set_precision_cap(None)
    assert info.value.bits == 64
    assert tiny.sign() in (-1, 1)  # default cap decides it


def _near_lambda(F):
    """A rational within 2^-300 below lambda = 2cos(pi/n)."""
    import mpmath

    with mpmath.workprec(400):
        lam = 2 * mpmath.cos(mpmath.pi / F.n)
        return Fraction(int(mpmath.floor(lam * 2 ** 300)), 2 ** 300)


# Each refinement entry point on an input it cannot decide with 64 bits:
# d = lambda - q is positive and below 2^-300, and 2^200 d has large
# coefficients but a value far below one.
# The third entry is the last precision tried: the first p >= 64 of the
# entry point's doubling sequence.
CAP_CASES = {
    "FieldElement.sign": (lambda F, d: (d * 2 ** 200).sign(), "sign undecided at 64 bits", 64),
    "FieldElement.embed": (lambda F, d: (d * 2 ** 200).embed(),
                           "embedding did not converge at 64", 64),
    "FieldElement.floor": (lambda F, d: d.floor(), "floor undecided", 64),
    "FieldElement //": (lambda F, d: (1 + d) // F.one, "floor undecided at 64", 64),
    "QuadExt //": (lambda F, d: QuadExt(F, 1, 1, 1 + d) // QuadExt(F, 0, 1, 1 + d),
                   "floor undecided at 64", 64),
    "galois_conjugate_values": (
        lambda F, d: galois_conjugate_values(d * 2 ** 200), "conjugate embeddings", 106),
    "QuadExt.embed": (lambda F, d: QuadExt(F, 0, 1, d).embed(),
                      "embedding did not converge at 64", 64),
    "QuadExt.floor": (lambda F, d: QuadExt(F, 0, 1, 1 + d).floor(), "floor undecided", 64),
    "compare_numeric": (
        lambda F, d: compare_numeric(QuadExt(F, 0, 1, 1 + d), F.one), "comparison undecided",
        80),
}


@pytest.mark.parametrize("entry", sorted(CAP_CASES))
def test_every_refinement_respects_the_cap(entry):
    # the shared field, with lambda's brackets already refined past the cap
    # by a sign of d at the default cap: an enclosure at p bits depends on p
    # alone, so the refinements below still cannot decide
    F = build_field(5)
    d = F.lam - _near_lambda(F)
    assert d.sign() == 1
    call, message, bits = CAP_CASES[entry]
    set_precision_cap(64)
    try:
        with pytest.raises(PrecisionExhausted, match=message) as info:
            call(F, d)
    finally:
        set_precision_cap(None)
    assert info.value.bits == bits


def test_trace_domination_of_conjugates():
    # hyperbolic group elements dominate their Galois conjugates in trace:
    # |tr M| >= |sigma(tr M)| for every real embedding sigma, sampled over
    # 1000 random generator words
    import random

    from test_group import random_group_word

    for n in (5, 7):
        F = build_field(n)
        rng = random.Random(100 + n)
        hyperbolic = 0
        attempts = 0
        while hyperbolic < 500 and attempts < 5000:
            attempts += 1
            M = random_group_word(F, rng, rng.randrange(2, 9))
            tr = M.trace()
            t0 = abs(float(tr))
            if t0 <= 2.0:
                continue
            hyperbolic += 1
            for enc in galois_conjugate_values(tr, 60):
                assert t0 + 1e-9 >= abs(float(enc))
        assert hyperbolic == 500


def test_enclosure_invariants():
    e = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert e.sign() == 1
    assert not e.lo <= 0 <= e.hi
    with pytest.raises(ValueError):
        Enclosure(Fraction(1), Fraction(0))


def test_enclosure_repr_beyond_the_double_range():
    # finite ends print as floats; an end past the double range prints as
    # its exact reduced ratio instead of raising OverflowError
    assert repr(Enclosure(Fraction(1, 3), Fraction(1, 2))) == "Enclosure(0.3333333333333333, 0.5)"
    assert repr(Enclosure(2 ** 2000, 2 ** 2001)) == f"Enclosure({2 ** 2000}, {2 ** 2001})"
    assert repr(Enclosure(-1, Fraction(3 ** 1300, 2))) == f"Enclosure(-1.0, {3 ** 1300}/2)"
    # past the int-to-str digit limit the ratio prints in hexadecimal
    big = Fraction(3 ** 9500, 2 ** 3)
    assert repr(Enclosure(0, big)) == f"Enclosure(0.0, {3 ** 9500:#x}/0x8)"
    # a nonzero end below the double range would print as 0.0
    tiny = Fraction(1, 2 ** 2000)
    assert repr(Enclosure(-tiny, 0)) == f"Enclosure(-1/{2 ** 2000}, 0.0)"


def _convergents(x: Fraction):
    """The continued-fraction convergents (a, b), a/b -> x, of a rational."""
    out, (a0, a1), (b0, b1) = [], (1, x.numerator // x.denominator), (0, 1)
    out.append((a1, b1))
    x = x - a1
    while x:
        x = 1 / x
        c = x.numerator // x.denominator
        x -= c
        a0, a1 = a1, c * a1 + a0
        b0, b1 = b1, c * b1 + b0
        out.append((a1, b1))
    return out


def _minus_lambda_convergents(n):
    # convergents with b below 2^200 agree with those of -lambda itself,
    # whose 600-bit enclosure is far narrower than 1/b^2
    enc = build_field(n).lam.embed(600)
    return [(a, b) for a, b in _convergents(-enc.mid()) if b < 2 ** 200]


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([5, 8, 13]), data=st.data())
def test_float_estimate_bound_holds_on_near_cancelling_elements(n, data):
    # a + b lambda with a/b a convergent of -lambda is about 1/b, while its
    # terms are about b: the filter decides the large ones and leaves the
    # rest to _sign_exact, and its bound holds on both
    F = build_field(n)
    convergents = _minus_lambda_convergents(n)
    a, b = data.draw(st.sampled_from(convergents))
    scale = data.draw(st.integers(1, 2 ** 64))
    nudge = data.draw(st.sampled_from((-1, 0, 0, 1)))
    den = data.draw(st.sampled_from((1, 3, 10 ** 20, 2 ** 300, 7 ** 40)))
    x = F.element([Fraction(scale * a + nudge, den), Fraction(scale * b, den)]
                  + [0] * (F.degree - 2))
    if x.is_zero():
        return
    # the 53-bit ball, or one read off lambda's 64- or 128-bit bracket
    p = data.draw(st.sampled_from((0, 0, 64, 128)))
    val, bound = x.ball(p)
    enc = x.embed_raw(1200)
    assert Fraction(val) - Fraction(bound) <= enc.lo
    assert enc.hi <= Fraction(val) + Fraction(bound)
    assert x.sign() == x._sign_exact()


@pytest.mark.parametrize("offset", [0, 300, -200])
def test_quadratic_float_estimate_bound_holds_at_its_scale(offset):
    # u + v sqrt(D) with parts near 2^(500 + offset), whose norm form passes
    # the double range at offset 300; sqrt(D)'s error is first order in
    # D's, so the bound is relative to the float precision
    F = build_field(8)
    scale = Fraction(2) ** (500 + offset)
    q = QuadExt(F, F.element([Fraction(-7, 3), 5]) * scale,
                F.element([1, Fraction(2, 9)]) * scale, F.tau)
    val, bound = q._float_estimate()
    enc = q.embed_raw(600)
    assert Fraction(val) - Fraction(bound) <= enc.lo
    assert enc.hi <= Fraction(val) + Fraction(bound)
    assert bound < abs(val) * 2 ** -48


@pytest.mark.parametrize("n", [5, 13])
def test_exact_decisions_build_no_fraction(n, monkeypatch):
    F = NumberField(n)
    x = F.element([Fraction(-7, 3), Fraction(2 ** 300 + 1, 5 ** 90)])
    q = QuadExt(F, x, 1, F.tau)
    built = 0
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    float(x)
    enc = x.embed(53)
    x._sign_exact()
    x.floor()
    float(q)
    # a floor past the floats, and one whose two candidates a sign decides
    x // F.tau
    q // x
    assert built == 0
    enc.lo, enc.hi
    assert built == 2
