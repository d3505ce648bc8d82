"""Exact arithmetic in the real cyclotomic field K = Q(lambda), lambda = 2cos(pi/n).

An element is an integer coefficient vector in the power basis of lambda,
reduced modulo its minimal polynomial, over one positive denominator, with
no common factor left between them; ring operations run on Python ints and
divide out one content gcd per result.  The inverse is the product of the
d - 1 nontrivial Galois conjugates divided by the norm (Cohen, A Course in
Computational Algebraic Number Theory, sections 4.2-4.3).  Every comparison
against the real line goes through a certified rational enclosure of lambda
that is refined by exact bisection, so branch decisions are never silently
wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, PrecisionExhausted

DEFAULT_PRECISION_CAP = 4096

_precision_cap = None


def get_precision_cap() -> int:
    return DEFAULT_PRECISION_CAP if _precision_cap is None else _precision_cap


def set_precision_cap(bits) -> None:
    """Override the adaptive-precision cap (None restores the default)."""
    global _precision_cap
    _precision_cap = bits


def _refine(decide, start_bits: int, message: str):
    """The one adaptive-precision loop of the exact lane.

    Calls decide(p) at p = start_bits, 2*start_bits, ...; decide returns
    (result, boundary) with result None while the enclosures at p bits
    cannot decide.  Returns the first result that is not None.  Once some
    p >= get_precision_cap() is still undecided, raises PrecisionExhausted
    with the message ("{bits}" becomes p), that try's boundary and bits=p.
    """
    cap = get_precision_cap()
    p = start_bits
    while True:
        result, boundary = decide(p)
        if result is not None:
            return result
        if p >= cap:
            raise PrecisionExhausted(message.format(bits=p), boundary=boundary, bits=p)
        p *= 2


def _is_tight(enc, precision: int) -> bool:
    """Width at most 2^(1-precision) * max(1, |lo|, |hi|), decided on the
    integers of enc: both sides are multiplied by den * 2^(precision-1)."""
    lo, hi = enc.lo_num, enc.hi_num
    return (hi - lo) << (precision - 1) <= max(enc.den, abs(lo), abs(hi))


# ---------------------------------------------------------------------------
# integer polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _poly_divmod_exact(p, q):
    # exact division of integer polynomials, q monic-leading not required
    p = list(p)
    out = [0] * (len(p) - len(q) + 1)
    for i in range(len(out) - 1, -1, -1):
        c, r = divmod(p[i + len(q) - 1], q[-1])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i] = c
        for j, b in enumerate(q):
            p[i + j] -= c * b
    if any(p[: len(q) - 1]):
        raise ArithmeticError("non-zero remainder in exact division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple:
    """Integer coefficients (ascending) of the m-th cyclotomic polynomial."""
    if m < 1:
        raise DomainError("cyclotomic index must be positive")
    p = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            p = _poly_divmod_exact(p, list(cyclotomic_polynomial(d)))
    return tuple(p)


def _chebyshev_v(count: int) -> list:
    """V_0, ..., V_{count-1} with x^k + x^-k = V_k(x + 1/x):
    V_0 = 2, V_1 = y, V_{k+1} = y V_k - V_{k-1}."""
    vs = [[2], [0, 1]]
    while len(vs) < count:
        nxt = [0] + vs[-1]
        for i, c in enumerate(vs[-2]):
            nxt[i] -= c
        vs.append(nxt)
    return vs[:count]


def _embedding_indices(n: int) -> list:
    """The k with gcd(k, 2n) = 1, 1 <= k < n: lambda -> 2cos(k pi/n) are the
    real embeddings of K, k = 1 the identity first."""
    return [k for k in range(1, n) if math.gcd(k, 2 * n) == 1]


@lru_cache(maxsize=None)
def trace_min_poly(n: int) -> tuple:
    """Minimal polynomial of 2cos(pi/n), derived from the 2n-th cyclotomic
    polynomial by the substitution y = x + 1/x."""
    if n < 2:
        raise DomainError("need n >= 2")
    phi = list(cyclotomic_polynomial(2 * n))
    deg = len(phi) - 1
    if deg % 2 != 0 or phi != phi[::-1]:
        raise ArithmeticError("cyclotomic polynomial not palindromic of even degree")
    d = deg // 2
    psi = [phi[d]] + [0] * d
    for k, v in enumerate(_chebyshev_v(d + 1)[1:], 1):
        for i, c in enumerate(v):
            psi[i] += phi[d + k] * c
    if psi[-1] != 1:
        raise ArithmeticError("trace minimal polynomial is not monic")
    return tuple(psi)


def _int_poly_sign_at(poly, num: int, den: int) -> int:
    """Exact sign of an integer polynomial at the rational num / den, den > 0."""
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
    """Exact rational interval [lo_num / den, hi_num / den] certified to
    contain a real value: two integers over one positive denominator, not
    reduced.  Every decision runs on the integers; lo, hi, width and mid
    build Fractions only when read.

    Enclosure(lo, hi) takes two Fractions or ints.
    """

    __slots__ = ("lo_num", "hi_num", "den")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("inverted enclosure")
        den = math.lcm(lo.denominator, hi.denominator)
        self.lo_num = lo.numerator * (den // lo.denominator)
        self.hi_num = hi.numerator * (den // hi.denominator)
        self.den = den

    @property
    def lo(self) -> Fraction:
        return Fraction(self.lo_num, self.den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self.hi_num, self.den)

    def width(self) -> Fraction:
        return Fraction(self.hi_num - self.lo_num, self.den)

    def mid(self) -> Fraction:
        return Fraction(self.lo_num + self.hi_num, 2 * self.den)

    def contains_zero(self) -> bool:
        return self.lo_num <= 0 <= self.hi_num

    def sign(self):
        """+1/-1 when the interval excludes zero, else None."""
        if self.lo_num > 0:
            return 1
        if self.hi_num < 0:
            return -1
        return None

    def __float__(self):
        # int true division is correctly rounded, so this is float(mid())
        return (self.lo_num + self.hi_num) / (2 * self.den)

    def __repr__(self):
        return f"Enclosure({self.lo_num / self.den!r}, {self.hi_num / self.den!r})"


def _enclosure(lo_num: int, hi_num: int, den: int) -> Enclosure:
    """The enclosure [lo_num / den, hi_num / den], with lo_num <= hi_num and
    den > 0 already."""
    e = object.__new__(Enclosure)
    e.lo_num, e.hi_num, e.den = lo_num, hi_num, den
    return e


class _RootBracket:
    """A sign-change bracket [lo, hi] / den around one real root of an
    integer polynomial, den a power of two, refined on demand by exact
    dyadic bisection."""

    __slots__ = ("poly", "_lo", "_hi", "_den", "sign_lo")

    def __init__(self, poly, lo: int, hi: int, den: int):
        self.poly = poly
        s_lo = _int_poly_sign_at(poly, lo, den)
        s_hi = _int_poly_sign_at(poly, hi, den)
        if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
            raise ArithmeticError("bracket does not isolate a simple root")
        self._lo, self._hi, self._den, self.sign_lo = lo, hi, den, s_lo

    @property
    def lo(self) -> Fraction:
        return Fraction(self._lo, self._den)

    @property
    def hi(self) -> Fraction:
        return Fraction(self._hi, self._den)

    def refine_to(self, width) -> Enclosure:
        """Bisect until the bracket is at most width wide, a Fraction or int."""
        return self._narrow(width.numerator, width.denominator)

    def _narrow(self, w_num: int, w_den: int) -> Enclosure:
        # bisect while (hi - lo) / den > w_num / w_den
        lo, hi, den = self._lo, self._hi, self._den
        sign_lo = self.sign_lo
        while (hi - lo) * w_den > w_num * den:
            mid = lo + hi
            lo, hi, den = lo << 1, hi << 1, den << 1
            s = _int_poly_sign_at(self.poly, mid, den)
            if s == 0:
                # rational root: collapse to a point
                lo = hi = mid
                break
            if s == sign_lo:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi, self._den = lo, hi, den
        return _enclosure(lo, hi, den)


def _bracket_root_near(poly, approx: float, slack: float = 3e-9) -> _RootBracket:
    # the floats approx -+ slack are dyadic rationals; put them over one
    # power-of-two denominator and widen symmetrically until they bracket
    lo, lo_den = (approx - slack).as_integer_ratio()
    hi, hi_den = (approx + slack).as_integer_ratio()
    den = max(lo_den, hi_den)
    lo *= den // lo_den
    hi *= den // hi_den
    for _ in range(60):
        try:
            return _RootBracket(poly, lo, hi, den)
        except ArithmeticError:
            spread = hi - lo
            lo -= spread
            hi += spread
    raise ArithmeticError("failed to isolate root near %r" % approx)


def _iv_mul(a_lo, a_hi, b_lo, b_hi):
    p1 = a_lo * b_lo
    p2 = a_lo * b_hi
    p3 = a_hi * b_lo
    p4 = a_hi * b_hi
    return min(p1, p2, p3, p4), max(p1, p2, p3, p4)


def _eval_interval(num, den: int, box: Enclosure) -> Enclosure:
    """Interval Horner evaluation of (sum_i num[i] x^i) / den over box.

    Runs on integers: with box = [b_lo, b_hi] / q, the accumulator after k
    steps is q^k times the rational one.  Scaling by q > 0 and den > 0
    keeps every min and max, so the result, the accumulator over
    q^d * den, equals as rationals Horner evaluation of the coefficients
    num[i] / den.
    """
    b_lo, b_hi, q = box.lo_num, box.hi_num, box.den
    lo = hi = 0
    scale = 1
    for c in reversed(num):
        lo, hi = _iv_mul(lo, hi, b_lo, b_hi)
        scale *= q
        lo += c * scale
        hi += c * scale
    return _enclosure(lo, hi, scale * den)


class NumberField:
    """Descriptor of K = Q(lambda), lambda = 2cos(pi/n), n >= 4."""

    def __init__(self, n: int):
        if n < 4:
            raise DomainError("triangle group parameter n must be >= 4")
        self.n = n
        self.min_poly = trace_min_poly(n)
        self.degree = len(self.min_poly) - 1
        # lambda^d = -sum_j min_poly[j] lambda^j, over the nonzero terms
        self._red_terms = [(j, c) for j, c in enumerate(self.min_poly[:-1]) if c]
        approx = 2.0 * math.cos(math.pi / n)
        self._lambda_bracket = _bracket_root_near(self.min_poly, approx)
        self._lambda_pows_float = [approx ** i for i in range(self.degree)]
        self._conjugate_brackets = None
        self._conjugation_rows = None
        self.zero = self.from_fraction(0)
        self.one = self.from_fraction(1)
        self.lam = self.element([0, 1])
        self.tau = self.one + self.lam

    def __repr__(self):
        return f"NumberField(n={self.n}, degree={self.degree})"

    def __hash__(self):
        return hash(("NumberField", self.n))

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.n == self.n

    def element(self, coeffs) -> FieldElement:
        cs = list(coeffs)
        if len(cs) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        cs += [0] * (self.degree - len(cs))
        return FieldElement(self, cs)

    def from_fraction(self, q) -> FieldElement:
        """The rational q, an int or a Fraction, as an element."""
        return _new(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValueError("element from a different field")
            return value
        if isinstance(value, (int, Fraction)):
            return self.from_fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} into {self!r}")

    def lambda_enclosure(self, precision: int) -> Enclosure:
        """Enclosure of lambda of width at most 2^-precision.

        The bracket is narrowed in place and never widened again, so the
        result is the narrowest bracket any earlier call on this field asked
        for: it depends on the calls made before it in the process.
        """
        return self._lambda_bracket._narrow(1, 1 << precision)

    def conjugate_enclosures(self, precision: int):
        """Enclosures of all real embeddings of lambda: 2cos(k pi/n),
        gcd(k, 2n) = 1, 1 <= k < n."""
        if self._conjugate_brackets is None:
            ks = _embedding_indices(self.n)
            if len(ks) != self.degree:
                raise ArithmeticError("embedding count does not match degree")
            self._conjugate_brackets = [
                _bracket_root_near(self.min_poly, 2.0 * math.cos(math.pi * k / self.n))
                for k in ks
            ]
        w_den = 1 << precision
        return [b._narrow(1, w_den) for b in self._conjugate_brackets]

    def _reduce(self, poly) -> list:
        """Reduce an integer polynomial in lambda (ascending list, consumed)
        modulo the minimal polynomial, to d coefficients."""
        d = self.degree
        for i in range(len(poly) - 1, d - 1, -1):
            c = poly[i]
            if c:
                base = i - d
                for j, m in self._red_terms:
                    poly[base + j] -= c * m
        del poly[d:]
        poly += [0] * (d - len(poly))
        return poly

    def _mul(self, a, b) -> list:
        """Product of two integer coefficient vectors in K."""
        conv = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return self._reduce(conv)

    def _conjugations(self):
        """The d - 1 embeddings lambda -> 2cos(k pi/n), k > 1, as integer
        matrices in rows: sigma_k(a)[j] = sum_i rows[j][i] a[i].  Built on
        the first call, since only inverse() needs them."""
        if self._conjugation_rows is None:
            vs = _chebyshev_v(self.n)
            mats = []
            for k in _embedding_indices(self.n)[1:]:
                image = self._reduce(list(vs[k]))  # sigma_k(lambda) = V_k(lambda)
                cols = [[1] + [0] * (self.degree - 1)]
                for _ in range(self.degree - 1):
                    cols.append(self._mul(cols[-1], image))
                mats.append(tuple(zip(*cols)))
            self._conjugation_rows = mats
        return self._conjugation_rows


@lru_cache(maxsize=None)
def build_field(n: int) -> NumberField:
    """Field descriptor for the (3, n, oo) triangle group's trace field."""
    return NumberField(n)


class _ExactReal:
    """Order, real embedding and derived operations shared by exact reals.

    A subclass supplies _coerce (the operand as its own type, or None when
    it does not handle that type), the ring operations, inverse, sign and
    embed_raw(p), a certified enclosure whose width shrinks as p grows.
    The order is the one pulled back from the real embedding, decided by
    the exact sign of the difference.  embed, floor and float refine
    embed_raw in one _refine run each.
    """

    __slots__ = ()

    def _sign_of_difference(self, other):
        o = self._coerce(other)
        return None if o is None else (self - o).sign()

    def __lt__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._sign_of_difference(other)
        return NotImplemented if s is None else s >= 0

    def __rsub__(self, other):
        return (-self) + other

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __abs__(self):
        return -self if self.sign() < 0 else self

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
        # the value is an integer only if it is rational, and then
        # embed_raw is a point, so this terminates
        def decide(p):
            enc = self.embed_raw(p)
            f_lo = enc.lo_num // enc.den
            return (f_lo if f_lo == enc.hi_num // enc.den else None), enc

        return _refine(decide, 64, "floor undecided")

    def ceil(self) -> int:
        return -((-self).floor())


class FieldElement(_ExactReal):
    """Immutable element num / den of K: an integer coefficient vector num
    in the power basis of lambda over one denominator den, with den > 0
    and gcd(num..., den) == 1, so (num, den) is unique for each value.

    FieldElement(field, coeffs) builds one from d rationals.
    """

    __slots__ = ("field", "num", "den", "_sign")

    def __init__(self, field: NumberField, coeffs):
        qs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(q.denominator for q in qs))
        self.field = field
        self.num = tuple(q.numerator * (den // q.denominator) for q in qs)
        self.den = den
        self._sign = None

    # -- basic structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as reduced Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __hash__(self):
        # a rational element hashes as its Fraction, which it equals
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.field.n, self.num, self.den))

    def __repr__(self):
        return f"FieldElement(n={self.field.n}, {self.to_json()})"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            # fields with the same n are equal; field-keyed caches mix them
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixing elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def _add(self, o, sign: int):
        """self + sign * o over the common denominator."""
        g = math.gcd(self.den, o.den)
        sa, sb = o.den // g, self.den // g * sign
        return _element(self.field, tuple(a * sa + b * sb for a, b in zip(self.num, o.num)),
                        self.den * sa)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._add(o, -1)

    def __neg__(self):
        return _new(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _element(self.field, self.field._mul(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        """1 / self from the norm: with self = a / den and a an integer
        vector, a * prod_(sigma != id) sigma(a) = N(a), a nonzero integer, so
        1 / self = den * prod_(sigma != id) sigma(a) / N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if self.is_rational():
            return _element(field, (self.den,) + (0,) * (field.degree - 1), self.num[0])
        a = self.num
        prod = None
        for rows in field._conjugations():
            conj = [sum(r * x for r, x in zip(row, a)) for row in rows]
            prod = conj if prod is None else field._mul(prod, conj)
        norm = field._mul(a, prod)
        if any(norm[1:]):
            raise ArithmeticError("norm is not rational")
        return _element(field, tuple(c * self.den for c in prod), norm[0])

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- order and embedding --------------------------------------------------

    def sign(self) -> int:
        """Exact sign under lambda -> 2cos(pi/n); 0 iff the element is zero."""
        if self._sign is not None:
            return self._sign
        if self.is_rational():
            c = self.num[0]
            self._sign = (c > 0) - (c < 0)
            return self._sign
        s = self._sign_fast_float()
        if s is None:
            s = self._sign_exact()
        self._sign = s
        return s

    def _float_estimate(self):
        """(value, error bound) in floats: the coefficients times the float
        powers of lambda, or None when a term overflows.  It reads neither
        lambda's bracket nor any enclosure."""
        # c / den is the correctly rounded value of the coefficient
        lam_pows = self.field._lambda_pows_float
        den = self.den
        try:
            val = 0.0
            mag = 0.0
            for c, lp in zip(self.num, lam_pows):
                t = (c / den) * lp
                val += t
                mag += abs(t)
        except OverflowError:
            return None
        return val, mag * 2.0 ** -45 * (self.field.degree + 2) + 5e-300

    def _sign_fast_float(self):
        est = self._float_estimate()
        if est is None:
            return None
        val, tol = est
        if val > tol:
            return 1
        if val < -tol:
            return -1
        return None

    def _sign_exact(self):
        def decide(p):
            enc = self.embed_raw(p)
            return enc.sign(), enc

        return _refine(decide, 64, "sign undecided at {bits} bits")

    def embed_raw(self, precision: int) -> Enclosure:
        """Evaluate at a lambda-enclosure of the given width exponent, as
        integers over one positive denominator (see _eval_interval); a
        rational is its own point enclosure and leaves lambda untouched.

        The result width scales with the coefficients.  The lambda
        enclosure is shared and narrowed in place (see lambda_enclosure),
        so the result for a given precision depends on earlier calls on
        this field in the process.
        """
        if self.is_rational():
            c = self.num[0]
            return _enclosure(c, c, self.den)
        return _eval_interval(self.num, self.den, self.field.lambda_enclosure(precision))

    def __eq__(self, other):
        if isinstance(other, FieldElement) and other.field.n != self.field.n:
            # across fields only rationals, which hash as Fractions, are equal
            return (self.is_rational() and other.is_rational()
                    and self.as_fraction() == other.as_fraction())
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(field: NumberField, data) -> FieldElement:
        return field.element([Fraction(s) for s in data])


def _element(field: NumberField, num, den: int) -> FieldElement:
    """The element num / den for d ints num and any nonzero den, divided by
    its content gcd(num..., den) with the sign that makes den positive."""
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return _new(field, tuple(num), den)


def _new(field: NumberField, num: tuple, den: int) -> FieldElement:
    """The element num / den, with den > 0 and content gcd 1 already."""
    e = object.__new__(FieldElement)
    e.field, e.num, e.den, e._sign = field, num, den, None
    return e


def galois_conjugate_values(a: FieldElement, precision: int = 53):
    """Values of an element under all d real embeddings, as enclosures."""
    def decide(p):
        encs = [_eval_interval(a.num, a.den, box) for box in a.field.conjugate_enclosures(p)]
        return (encs if all(_is_tight(e, precision) for e in encs) else None), None

    return _refine(decide, max(precision, 53), "conjugate embeddings did not converge")


def random_interval_point(field: NumberField, rng, bits: int = 256) -> FieldElement:
    """Uniform point of [-tau, 0) as an exact dyadic multiple of tau."""
    q = Fraction(rng.getrandbits(bits), 1 << bits)
    return field.tau * (-q)
