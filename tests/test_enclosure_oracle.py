"""The integer enclosures against the Fraction enclosures they replaced.

The oracles below are the Fraction implementations of Enclosure,
_int_poly_sign_at, _RootBracket, _bracket_root_near, _eval_interval,
_is_tight, _sqrt_enclosure, QuadExt.embed_raw, compare_numeric and
_ExactReal.embed/floor, kept verbatim apart from taking their lambda
brackets and embed_raw from an oracle object, and apart from
Enclosure.__repr__, which prints an end beyond the double range as its
exact ratio where the Fraction implementation raised OverflowError.  The
oracle's lambda bracket keeps every bracket of its bisection sequence and
answers a precision with the first one narrow enough, and the oracle's
float is the double both ends of an enclosure round to, so neither has a
history.  The oracle of galois_conjugate_values builds its own conjugate
vectors, by polynomial arithmetic modulo the minimal polynomial, and
evaluates them on lambda's one bracket, as the library does.  Each
decision must give the same result and the same enclosure endpoints, and
every lambda bracket the library keeps must be the oracle's at the same
precision, whatever the library was asked before, so every printed float
and every precision-exhausted report is a function of the value alone.
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
        return f"Enclosure({_end_repr(self.lo)}, {_end_repr(self.hi)})"


def _end_repr(q: Fraction) -> str:
    # the float, or past the double range, above it or so far below it that
    # a nonzero end would print as 0.0, the exact ratio, in hexadecimal
    # where decimal would pass the int-to-str digit limit
    try:
        f = float(q)
        if f or not q:
            return repr(f)
    except OverflowError:
        pass
    try:
        return str(q)
    except ValueError:
        return f"{q.numerator:#x}/{q.denominator:#x}"


class _RootBracket:
    """A sign-change bracket around one real root of an integer polynomial
    and every bracket of its exact dyadic bisection sequence so far."""

    __slots__ = ("poly", "sequence", "sign_lo")

    def __init__(self, poly, lo: Fraction, hi: Fraction):
        self.poly = poly
        s_lo = _int_poly_sign_at(poly, lo)
        s_hi = _int_poly_sign_at(poly, hi)
        if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
            raise ArithmeticError("bracket does not isolate a simple root")
        self.sequence, self.sign_lo = [Enclosure(lo, hi)], s_lo

    def refine_to(self, width: Fraction) -> Enclosure:
        """The first bracket of the sequence of width at most `width`."""
        for enc in self.sequence:
            if enc.width() <= width:
                return enc
        while True:
            lo, hi = self.sequence[-1].lo, self.sequence[-1].hi
            mid = (lo + hi) / 2
            s = _int_poly_sign_at(self.poly, mid)
            if s == 0:
                # rational root: collapse to a point
                lo = hi = mid
            elif s == self.sign_lo:
                lo = mid
            else:
                hi = mid
            self.sequence.append(Enclosure(lo, hi))
            if hi - lo <= width:
                return self.sequence[-1]


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
    """The Fraction bracket of lambda for one field."""

    def __init__(self, field):
        self.field = field
        approx = 2.0 * math.cos(math.pi / field.n)
        self.lambda_bracket = _oracle_bracket_root_near(field.min_poly, approx)

    def lambda_enclosure(self, precision):
        return self.lambda_bracket.refine_to(Fraction(1, 2 ** precision))


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
        """The double both ends of an enclosure round to, with one sign; an
        end past the double range rounds to an infinity, and a value whose
        ends both round to one infinity overflows."""
        def rounded(q):
            try:
                return float(q)
            except OverflowError:
                return math.inf if q > 0 else -math.inf

        def decide(p):
            enc = self.embed_raw(p)
            lo, hi = rounded(enc.lo), rounded(enc.hi)
            same = lo.hex() == hi.hex()
            if same and math.isinf(lo):
                raise OverflowError("exact real too large to convert to float")
            return (lo if same else None), enc

        return _refine(decide, 64, "embedding did not converge at {bits} bits")

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


def _poly_mulmod(p, q, mod):
    """p * q modulo the monic integer polynomial mod, all ascending lists."""
    d = len(mod) - 1
    out = [0] * (2 * d - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    for m in range(2 * d - 2, d - 1, -1):
        c = out[m]
        for j in range(d + 1):
            out[m - d + j] -= c * mod[j]
    return out[:d]


def oracle_conjugate_vectors(a):
    """sigma_k(a) for k in _embedding_indices(n), identity first: a's
    coefficients as a polynomial in V_k(lambda) = 2cos(k pi/n), by Horner
    modulo the minimal polynomial, with V_0 = 2, V_1 = lambda and
    V_{k+1} = lambda V_k - V_{k-1}."""
    field = a.field
    d, mod = field.degree, field.min_poly
    lam = [0, 1] + [0] * (d - 2)
    vs = [[2] + [0] * (d - 1), lam]
    while len(vs) < field.n:
        vs.append([x - y for x, y in zip(_poly_mulmod(lam, vs[-1], mod), vs[-2])])
    vectors = []
    for k in _embedding_indices(field.n):
        acc = [0] * d
        for c in reversed(a.num):
            acc = _poly_mulmod(acc, vs[k], mod)
            acc[0] += c
        vectors.append(acc)
    return vectors


def oracle_galois_conjugate_values(oracle, a, precision: int = 53):
    vectors = oracle_conjugate_vectors(a)

    def decide(p):
        box = oracle.lambda_enclosure(p)
        encs = [_eval_interval(v, a.den, box) for v in vectors]
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
    """floor(2^bits lambda) / 2^bits."""
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
    """A fresh field, with lambda first refined to each precision in warm,
    and its oracle, asked nothing yet."""
    field = NumberField(n)
    for p in warm:
        field.lambda_enclosure(p)
    return field, OracleField(field)


def assert_same_brackets(field, oracle):
    """Every lambda bracket the field keeps is the oracle's at its precision."""
    for p, enc in field._lambda_bracket._kept.items():
        assert endpoints(enc) == endpoints(oracle.lambda_enclosure(p))


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
        assert (enc.sign(), enc.lo <= 0 <= enc.hi) == (old.sign(), old.contains_zero())
        assert float(enc).hex() == float(old).hex() and repr(enc) == repr(old)
        assert integer._is_tight(enc, precision) == _is_tight(old, precision)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from(DEGREES), spec=element_specs(), warm=warm_ups,
       precision=st.sampled_from([16, 53, 100, 200]))
# about 2^500 with a 2^1100 coefficient: the 64-bit enclosure's ends lie
# past the double range, and float() refines; then a value past it
@example(n=5, spec=("near-int", (0, (600, 1100, 1))), warm=[], precision=53)
@example(n=5, spec=("vector", ([2 ** 1100, 2 ** 1100], 1)), warm=[], precision=53)
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
    assert_same_brackets(field, oracle)


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
    assert_same_brackets(field, oracle)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(DEGREES), precisions=st.lists(st.integers(0, 420), min_size=1,
                                                       max_size=12))
def test_root_bracket_replays_the_fraction_bisection(n, precisions):
    poly = NumberField(n).min_poly
    approx = 2.0 * math.cos(math.pi / n)
    new = _bracket_root_near(poly, approx)
    assert endpoints(new.first) == endpoints(_oracle_bracket_root_near(poly, approx).sequence[0])
    for p in precisions:
        # a new oracle each time: the answer may not depend on the requests before
        old = _oracle_bracket_root_near(poly, approx)
        assert endpoints(new.enclosure(p)) == endpoints(old.refine_to(Fraction(1, 2 ** p)))


def test_root_bracket_width_exactly_two_to_the_minus_p():
    # sqrt(2) in [1, 2]: the k-th bisection has width exactly 2^-k, which
    # answers precision k, and no wider bracket does
    poly = NumberField(4).min_poly
    new = integer._RootBracket(poly, 1, 2, 1)
    for p in (5, 0, 3, 40, 1, 12):
        want = _RootBracket(poly, Fraction(1), Fraction(2)).refine_to(Fraction(1, 2 ** p))
        got = new.enclosure(p)
        assert endpoints(got) == endpoints(want) and got.width() == Fraction(1, 2 ** p)


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
