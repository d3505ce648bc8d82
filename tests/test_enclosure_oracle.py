"""The integer enclosures against the Fraction enclosures they replaced.

The oracles below are the Fraction implementations of Enclosure,
_int_poly_sign_at, _RootBracket, _bracket_root_near, _eval_interval,
_is_tight, _sqrt_enclosure, QuadExt.embed_raw, compare_numeric and
_ExactReal.embed/floor/__float__, kept verbatim apart from taking their
lambda brackets and embed_raw from an oracle object.  Each decision must
give the same result and the same enclosure endpoints, and leave lambda's
bracket with the same history, so every printed float and every
precision-exhausted report stays byte for byte what it was.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trianglecf import NumberField, PrecisionExhausted, galois_conjugate_values
from trianglecf.errors import DomainError
from trianglecf import field as integer
from trianglecf.field import (
    _bracket_root_near,
    _embedding_indices,
    _iv_mul,
    _refine,
    set_precision_cap,
)
from trianglecf.quadratic import QuadExt, compare_numeric

DEGREES = (4, 5, 7, 8, 13, 16)


# ---------------------------------------------------------------------------
# oracles: the Fraction implementation
# ---------------------------------------------------------------------------

def _is_tight(enc, precision: int) -> bool:
    """Width at most 2^(1-precision) * max(1, |value|)."""
    scale = max(Fraction(1), abs(enc.lo), abs(enc.hi))
    return enc.width() <= Fraction(2) ** (1 - precision) * scale


def _int_poly_sign_at(poly, x: Fraction) -> int:
    """Exact sign of an integer polynomial at a rational point."""
    num, den = x.numerator, x.denominator
    acc = 0
    powd = 1
    # evaluate sum c_i num^i den^(d-i) by Horner from the top
    for c in reversed(poly):
        acc = acc * num + c * powd
        powd *= den
    # powd overshoots by one factor; sign unaffected (den > 0)
    if acc > 0:
        return 1
    if acc < 0:
        return -1
    return 0


class Enclosure:
    """Exact rational interval [lo, hi] certified to contain a real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("inverted enclosure")
        self.lo = lo
        self.hi = hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def sign(self):
        """+1/-1 when the interval excludes zero, else None."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None

    def __float__(self):
        return float(self.mid())

    def __repr__(self):
        return f"Enclosure({float(self.lo)!r}, {float(self.hi)!r})"


class _RootBracket:
    """A sign-change bracket around one real root of an integer polynomial,
    refined on demand by exact dyadic bisection."""

    __slots__ = ("poly", "lo", "hi", "sign_lo")

    def __init__(self, poly, lo: Fraction, hi: Fraction):
        self.poly = poly
        s_lo = _int_poly_sign_at(poly, lo)
        s_hi = _int_poly_sign_at(poly, hi)
        if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
            raise ArithmeticError("bracket does not isolate a simple root")
        self.lo, self.hi, self.sign_lo = lo, hi, s_lo

    def refine_to(self, width: Fraction) -> Enclosure:
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            s = _int_poly_sign_at(self.poly, mid)
            if s == 0:
                # rational root: collapse to a point
                self.lo = self.hi = mid
                break
            if s == self.sign_lo:
                self.lo = mid
            else:
                self.hi = mid
        return Enclosure(self.lo, self.hi)


def _oracle_bracket_root_near(poly, approx: float, slack: float = 3e-9) -> _RootBracket:
    lo = Fraction(approx - slack)
    hi = Fraction(approx + slack)
    for _ in range(60):
        try:
            return _RootBracket(poly, lo, hi)
        except ArithmeticError:
            spread = (hi - lo)
            lo -= spread
            hi += spread
    raise ArithmeticError("failed to isolate root near %r" % approx)


def _eval_interval(num, den: int, box: Enclosure) -> Enclosure:
    q = math.lcm(box.lo.denominator, box.hi.denominator)
    b_lo = box.lo.numerator * (q // box.lo.denominator)
    b_hi = box.hi.numerator * (q // box.hi.denominator)
    lo = hi = 0
    scale = 1
    for c in reversed(num):
        lo, hi = _iv_mul(lo, hi, b_lo, b_hi)
        scale *= q
        lo += c * scale
        hi += c * scale
    return Enclosure(Fraction(lo, scale * den), Fraction(hi, scale * den))


def _sqrt_enclosure(x: Enclosure, precision: int) -> Enclosure:
    """Certified rational enclosure of sqrt over [max(x.lo, 0), x.hi], so
    of sqrt(D) for any D >= 0 in x."""
    if x.hi < 0:
        raise DomainError("negative discriminant has no real embedding")
    scale = 1 << (2 * precision)

    def lower(q: Fraction) -> Fraction:
        m = max(q.numerator * scale // q.denominator, 0)
        return Fraction(math.isqrt(m), 1 << precision)

    def upper(q: Fraction) -> Fraction:
        m = -((-q.numerator * scale) // q.denominator)  # ceil
        r = math.isqrt(m)
        if r * r < m:
            r += 1
        return Fraction(r, 1 << precision)

    return Enclosure(lower(x.lo), upper(x.hi))


class OracleField:
    """The Fraction brackets of lambda and its conjugates for one field."""

    def __init__(self, field):
        self.field = field
        approx = 2.0 * math.cos(math.pi / field.n)
        self.lambda_bracket = _oracle_bracket_root_near(field.min_poly, approx)
        self.conjugate_brackets = None

    def lambda_enclosure(self, precision):
        return self.lambda_bracket.refine_to(Fraction(1, 2 ** precision))

    def conjugate_enclosures(self, precision):
        if self.conjugate_brackets is None:
            n = self.field.n
            self.conjugate_brackets = [
                _oracle_bracket_root_near(self.field.min_poly, 2.0 * math.cos(math.pi * k / n))
                for k in _embedding_indices(n)
            ]
        w = Fraction(1, 2 ** precision)
        return [b.refine_to(w) for b in self.conjugate_brackets]


class OracleReal:
    """_ExactReal's embed, floor and float, and the sign decision, over an
    oracle embed_raw of a FieldElement or QuadExt."""

    def __init__(self, oracle, x):
        self.oracle = oracle
        self.x = x

    def embed_raw(self, precision):
        x = self.x
        if isinstance(x, QuadExt):
            eu = OracleReal(self.oracle, x.u).embed_raw(precision)
            ev = OracleReal(self.oracle, x.v).embed_raw(precision)
            sq = _sqrt_enclosure(OracleReal(self.oracle, x.disc).embed_raw(precision), precision)
            lo, hi = _iv_mul(ev.lo, ev.hi, sq.lo, sq.hi)
            return Enclosure(eu.lo + lo, eu.hi + hi)
        if x.is_rational():
            c = Fraction(x.num[0], x.den)
            return Enclosure(c, c)
        return _eval_interval(x.num, x.den, self.oracle.lambda_enclosure(precision))

    def embed(self, precision: int = 53) -> Enclosure:
        """Enclosure of width <= 2^(1-precision) * max(1, |value|)."""
        if precision < 16:
            raise DomainError("precision must be at least 16 bits")

        def decide(p):
            enc = self.embed_raw(p)
            return (enc if _is_tight(enc, precision) else None), enc

        return _refine(decide, max(precision + 8, 64),
                       "embedding did not converge at {bits} bits")

    def __float__(self):
        return float(self.embed(53))

    def floor(self) -> int:
        def decide(p):
            enc = self.embed_raw(p)
            f_lo = math.floor(enc.lo)
            return (f_lo if f_lo == math.floor(enc.hi) else None), enc

        return _refine(decide, 64, "floor undecided")

    def _sign_exact(self):
        def decide(p):
            enc = self.embed_raw(p)
            return enc.sign(), enc

        return _refine(decide, 64, "sign undecided at {bits} bits")


def oracle_galois_conjugate_values(oracle, a, precision: int = 53):
    def decide(p):
        encs = [_eval_interval(a.num, a.den, box) for box in oracle.conjugate_enclosures(p)]
        return (encs if all(_is_tight(e, precision) for e in encs) else None), None

    return _refine(decide, max(precision, 53), "conjugate embeddings did not converge")


def oracle_compare_numeric(oracle, a, b):
    def decide(p):
        ea, eb = OracleReal(oracle, a).embed_raw(p), OracleReal(oracle, b).embed_raw(p)
        if ea.hi < eb.lo:
            order = -1
        elif eb.hi < ea.lo:
            order = 1
        else:
            order = None
        return order, (ea, eb)

    return _refine(decide, 80, "comparison undecided")


# ---------------------------------------------------------------------------
# drawing elements
# ---------------------------------------------------------------------------

_LAMBDA_LO = {}


def _below_lambda(n, bits):
    """floor(2^bits lambda) / 2^bits, from a field of its own, so no tested
    field's bracket moves."""
    if n not in _LAMBDA_LO:
        _LAMBDA_LO[n] = NumberField(n).lambda_enclosure(700).lo
    lo = _LAMBDA_LO[n]
    return Fraction(lo.numerator * 2 ** bits // lo.denominator, 2 ** bits)


def _big_int(draw, max_bits=1500):
    bits = draw(st.integers(1, max_bits))
    return draw(st.integers(-(2 ** bits), 2 ** bits))


@st.composite
def element_specs(draw, max_bits=1500):
    """A recipe for an element, built later in a fresh field: a random
    vector, a rational, zero, a near-integer or a value next to a float
    rounding midpoint."""
    kind = draw(st.sampled_from(["vector", "vector", "rational", "zero", "near-int", "midpoint"]))
    if kind == "vector":
        coeffs = [draw(st.integers(-3, 3)) if draw(st.booleans()) else _big_int(draw, max_bits)
                  for _ in range(16)]
        den = abs(_big_int(draw, max_bits)) or 1
        return kind, (coeffs, den)
    if kind == "rational":
        return kind, Fraction(_big_int(draw, max_bits), abs(_big_int(draw, max_bits)) or 1)
    if kind == "zero":
        return kind, None
    # a tiny +-2^j (lambda - r) offset, r the bits-bit truncation of lambda
    offset = (draw(st.integers(60, 600)), draw(st.integers(-40, 40)), draw(st.sampled_from([-1, 1])))
    if kind == "near-int":
        return kind, (draw(st.integers(-(2 ** 70), 2 ** 70)), offset)
    # one ulp of the double f either side of the midpoint to its successor
    f = draw(st.floats(min_value=-1e30, max_value=1e30, allow_nan=False, allow_infinity=False))
    return kind, (f, draw(st.sampled_from([-1, 0, 1])), offset)


def build(field, spec):
    kind, data = spec
    if kind == "vector":
        coeffs, den = data
        return field.element([Fraction(c, den) for c in coeffs[: field.degree]])
    if kind == "rational":
        return field.from_fraction(data)
    if kind == "zero":
        return field.zero
    bits, j, s = data[-1]
    tiny = (field.lam - _below_lambda(field.n, bits)) * Fraction(s * 2) ** j
    if kind == "near-int":
        return tiny + data[0]
    f, ulps, _ = data
    g = math.nextafter(f, math.inf)
    mid = (Fraction(f) + Fraction(g)) / 2 + ulps * (Fraction(g) - Fraction(f))
    return tiny + mid


def endpoints(enc):
    """The exact ends of an enclosure, of a tuple of them, or None."""
    if enc is None:
        return None
    if isinstance(enc, tuple):
        return tuple(map(endpoints, enc))
    return enc.lo, enc.hi


def outcome(call):
    """The result of a decision, or what it raised, as comparable data."""
    try:
        return "ok", call()
    except PrecisionExhausted as exc:
        return "exhausted", str(exc), endpoints(exc.boundary), exc.bits
    except OverflowError as exc:  # a float beyond the double range
        return "overflow", str(exc)


def same_fields(n, warm):
    """A fresh field and its oracle, with lambda's bracket first narrowed
    to each precision in warm on both."""
    field = NumberField(n)
    oracle = OracleField(field)
    for p in warm:
        assert endpoints(field.lambda_enclosure(p)) == endpoints(oracle.lambda_enclosure(p))
    return field, oracle


warm_ups = st.lists(st.sampled_from([16, 40, 64, 100, 128, 300, 1024]), max_size=3)


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(lo=st.integers(-(2 ** 300), 2 ** 300), den=st.integers(1, 2 ** 300),
       precision=st.integers(16, 300), delta=st.integers(-2, 2))
@example(lo=0, den=1 << 52, precision=53, delta=0)  # width exactly 2^(1-precision)
def test_enclosure_matches_the_fraction_oracle(lo, den, precision, delta):
    # widths around the tightness threshold max(den, |lo|) / 2^(precision-1)
    hi = lo + max(0, (max(den, abs(lo)) >> (precision - 1)) + delta)
    new = integer.Enclosure(Fraction(lo, den), Fraction(hi, den))
    old = Enclosure(Fraction(lo, den), Fraction(hi, den))
    raw = integer._enclosure(lo, hi, den)
    for enc in (new, raw):
        assert (enc.lo, enc.hi, enc.width(), enc.mid()) == (old.lo, old.hi, old.width(), old.mid())
        assert (enc.sign(), enc.contains_zero()) == (old.sign(), old.contains_zero())
        assert float(enc).hex() == float(old).hex() and repr(enc) == repr(old)
        assert integer._is_tight(enc, precision) == _is_tight(old, precision)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(DEGREES), spec=element_specs(), warm=warm_ups,
       precision=st.sampled_from([16, 53, 100, 200]))
def test_field_element_decisions_match_the_fraction_oracle(n, spec, warm, precision):
    field, oracle = same_fields(n, warm)
    x = build(field, spec)
    ox = OracleReal(oracle, x)

    def both(new, old):
        assert outcome(new) == outcome(old)

    both(lambda: float(x).hex(), lambda: float(ox).hex())
    both(lambda: endpoints(x.embed(precision)), lambda: endpoints(ox.embed(precision)))
    both(lambda: endpoints(x.embed_raw(precision)), lambda: endpoints(ox.embed_raw(precision)))
    both(x.floor, ox.floor)
    both(x._sign_exact, ox._sign_exact)
    both(lambda: [endpoints(e) for e in galois_conjugate_values(x, precision)],
         lambda: [endpoints(e) for e in oracle_galois_conjugate_values(oracle, x, precision)])
    both(lambda: repr(x.embed(precision)), lambda: repr(ox.embed(precision)))
    assert endpoints(field.lambda_enclosure(8)) == endpoints(oracle.lambda_enclosure(8))


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from(DEGREES), specs=st.tuples(*[element_specs(max_bits=400)] * 3),
       warm=warm_ups, precision=st.sampled_from([16, 53, 100]))
def test_quadratic_decisions_match_the_fraction_oracle(n, specs, warm, precision):
    field, oracle = same_fields(n, warm)
    u, v, w = (build(field, s) for s in specs)
    if v.is_zero():  # so that q != u, and comparing them terminates
        v = field.one
    q = QuadExt(field, u, v, w * w + field.tau)  # D >= tau > 1
    oq = OracleReal(oracle, q)
    assert outcome(lambda: float(q).hex()) == outcome(lambda: float(oq).hex())
    assert endpoints(q.embed(precision)) == endpoints(oq.embed(precision))
    assert endpoints(q.embed_raw(precision)) == endpoints(oq.embed_raw(precision))
    assert outcome(q.floor) == outcome(oq.floor)
    assert outcome(lambda: compare_numeric(q, u)) == outcome(
        lambda: oracle_compare_numeric(oracle, q, u))
    assert endpoints(field.lambda_enclosure(8)) == endpoints(oracle.lambda_enclosure(8))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(DEGREES),
       widths=st.lists(st.none() | st.fractions(min_value=Fraction(1, 2 ** 400),
                                                 max_value=Fraction(1, 10),
                                                 max_denominator=2 ** 420),
                       min_size=1, max_size=12))
def test_root_bracket_replays_the_fraction_bisection(n, widths):
    poly = NumberField(n).min_poly
    approx = 2.0 * math.cos(math.pi / n)
    new = _bracket_root_near(poly, approx)
    old = _oracle_bracket_root_near(poly, approx)
    assert (new.lo, new.hi) == (old.lo, old.hi)
    for w in widths:
        if w is None:  # exactly half the current width, which one bisection meets
            w = (old.hi - old.lo) / 2
        assert endpoints(new.refine_to(w)) == endpoints(old.refine_to(w))
        assert (new.lo, new.hi) == (old.lo, old.hi)


CAP_DECISIONS = {
    "sign": (lambda F, d: (d * 2 ** 200)._sign_exact(),
             lambda O, d: OracleReal(O, d * 2 ** 200)._sign_exact()),
    "embed": (lambda F, d: (d * 2 ** 200).embed(),
              lambda O, d: OracleReal(O, d * 2 ** 200).embed()),
    "floor": (lambda F, d: d.floor(), lambda O, d: OracleReal(O, d).floor()),
    "QuadExt.embed": (lambda F, d: QuadExt(F, 0, 1, d).embed(),
                      lambda O, d: OracleReal(O, QuadExt(O.field, 0, 1, d)).embed()),
    "compare_numeric": (
        lambda F, d: compare_numeric(QuadExt(F, 0, 1, 1 + d), F.one),
        lambda O, d: oracle_compare_numeric(O, QuadExt(O.field, 0, 1, 1 + d), O.field.one)),
}


@pytest.mark.parametrize("n", DEGREES)
@pytest.mark.parametrize("entry", sorted(CAP_DECISIONS))
def test_precision_exhausted_report_matches_the_fraction_oracle(entry, n):
    field, oracle = same_fields(n, [])
    d = field.lam - _below_lambda(n, 300)
    new, old = CAP_DECISIONS[entry]
    set_precision_cap(64)
    try:
        with pytest.raises(PrecisionExhausted) as got:
            new(field, d)
        with pytest.raises(PrecisionExhausted) as want:
            old(oracle, d)
    finally:
        set_precision_cap(None)
    got, want = got.value, want.value
    assert (str(got), str(got.boundary), got.bits) == (str(want), str(want.boundary), want.bits)
    assert endpoints(got.boundary) == endpoints(want.boundary)
