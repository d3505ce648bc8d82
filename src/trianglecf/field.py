"""Exact arithmetic in the real cyclotomic field K = Q(lambda), lambda = 2cos(pi/n).

An element is an integer coefficient vector in the power basis of lambda,
reduced modulo its minimal polynomial, over one positive denominator, with
no common factor left between them; ring operations run on Python ints and
divide out one content gcd per result that is not already integral.  Each
field multiplies coefficient vectors with one straight-line kernel,
generated for its minimal polynomial on the first product: the
convolution, then the reduction of lambda^(2d-2) ... lambda^d with the
polynomial's constants written in (the multiplication table of Cohen, A
Course in Computational Algebraic Number Theory, section 4.2).  The
inverse is the product of the d - 1 nontrivial Galois conjugates divided
by the norm (section 4.3).  Every comparison against the real line is
decided by a certified ball of doubles or by a certified rational enclosure
of lambda on a fixed ladder of brackets, so branch decisions are never
silently wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub

from .errors import DomainError, PrecisionExhausted

DEFAULT_PRECISION_CAP = 4096
# most inverses a field keeps (FieldElement.inverse); a full table is emptied
INVERSE_TABLE_SIZE = 4096

_precision_cap = None


def get_precision_cap() -> int:
    return DEFAULT_PRECISION_CAP if _precision_cap is None else _precision_cap


def set_precision_cap(bits) -> None:
    """Set the adaptive-precision cap, >= 64 bits; None restores the default."""
    global _precision_cap
    if bits is not None and bits < 64:
        raise DomainError(f"the precision cap must be at least 64 bits, got {bits}")
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


def _round(num: int, den: int, toward: int = 0):
    """num / den, den > 0, as a double: the nearest one (toward = 0), or the
    nearest on the side of toward (-1 or +1), so that two ends rounded
    outward bracket what lies between them; None past the double range."""
    try:
        # int true division rounds correctly
        f = num / den
    except OverflowError:
        return None
    if toward:
        a, b = f.as_integer_ratio()
        # the sign of f - num/den, cross-multiplied by b, den > 0
        gap = a * den - num * b
        if gap and (gap > 0) == (toward < 0):
            f = math.nextafter(f, toward * math.inf)
    return f if math.isfinite(f) else None


def _ratio_span(num_ball, den_ball):
    """A ball (center, radius) around N/D from balls (n, e_n) and (d, e_d)
    of N and D (_ExactReal.ball), or None when a ball is missing, d's does
    not exclude 0 or the span leaves the double range.  With c the rounded
    n/d and u = 2^-53,

        |N/D - c| <= (e_n + |c| e_d) / (|d| - e_d) + 2u |c|:

    the propagated error and the rounding of c, with |c| for |n/d|, which
    is at most |c| (1 + 2u); the factor 1 + 2^-48 covers that and the
    rounding of the radius.  The ends c -+ radius still need widening for
    their own rounding."""
    if num_ball is None or den_ball is None:
        return None
    (n, e_n), (d, e_d) = num_ball, den_ball
    if abs(d) <= e_d:
        return None
    c = n / d
    radius = ((e_n + abs(c) * e_d) / (abs(d) - e_d) + abs(c) * 2.0 ** -52) * (1 + 2.0 ** -48)
    return (c, radius) if math.isfinite(radius) else None


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


def _int_poly_value(poly, num: int, den: int) -> int:
    """den^d times the integer polynomial of degree d at num / den: the sum
    of c_i num^i den^(d-i), by Horner from the top."""
    acc = 0
    powd = 1
    for c in reversed(poly):
        acc = acc * num + c * powd
        powd *= den
    return acc


def _int_poly_sign_at(poly, num: int, den: int) -> int:
    """Exact sign of an integer polynomial at the rational num / den, den > 0."""
    acc = _int_poly_value(poly, num, den)
    return (acc > 0) - (acc < 0)


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
        lo, hi = _end_repr(self.lo_num, self.den), _end_repr(self.hi_num, self.den)
        return f"Enclosure({lo}, {hi})"


def _end_repr(num: int, den: int) -> str:
    """An enclosure end as its float, or as its exact reduced ratio when it
    lies beyond the double range, above it or so far below it that a nonzero
    end would print as 0.0: in decimal, or in hexadecimal where the decimal
    digits would pass Python's int-to-str conversion limit."""
    try:
        f = num / den
        if f or not num:
            return repr(f)
    except OverflowError:
        pass
    q = Fraction(num, den)
    try:
        return str(q)
    except ValueError:
        return f"{q.numerator:#x}/{q.denominator:#x}"


def _enclosure(lo_num: int, hi_num: int, den: int) -> Enclosure:
    """The enclosure [lo_num / den, hi_num / den], with lo_num <= hi_num and
    den > 0 already."""
    e = object.__new__(Enclosure)
    e.lo_num, e.hi_num, e.den = lo_num, hi_num, den
    return e


class _RootBracket:
    """A sign-change bracket [lo, hi] / den around one real root of an
    integer polynomial and the fixed sequence of its exact bisections: each
    bracket is the half of the one before that keeps the sign change, so
    the k-th is the cell of the first bracket's grid of width
    (hi - lo) / (den 2^k) that holds the root, or the root itself once it
    is a point of that grid.

    enclosure(p) is the first bracket of the sequence whose width is at
    most 2^-p, so it depends on p alone.  It is found by Newton's
    iteration in integers, in O(log p) polynomial evaluations, and
    confirmed by the exact signs at its two ends; each one returned is
    kept."""

    __slots__ = ("poly", "sign_lo", "first", "_kept")

    def __init__(self, poly, lo: int, hi: int, den: int):
        self.poly = poly
        s_lo = _int_poly_sign_at(poly, lo, den)
        s_hi = _int_poly_sign_at(poly, hi, den)
        if s_lo == 0 or s_hi == 0 or s_lo == s_hi:
            raise ArithmeticError("bracket does not isolate a simple root")
        self.sign_lo = s_lo
        self.first = _enclosure(lo, hi, den)
        self._kept = {}

    def enclosure(self, p: int) -> Enclosure:
        enc = self._kept.get(p)
        if enc is None:
            enc = self._kept[p] = self._cell(p)
        return enc

    def _cell(self, p: int) -> Enclosure:
        first = self.first
        lo, width, den = first.lo_num, first.hi_num - first.lo_num, first.den
        # the first k with width / (den 2^k) <= 2^-p
        k = (-(-(width << p) // den) - 1).bit_length()
        den_k = den << k
        # the root as x / 2^m, m 16 bits past the cell width, by Newton
        # steps x - f(x)/f'(x) from the middle of the narrowest kept bracket
        m = k + den.bit_length() - width.bit_length() + 16
        start = self._kept[max(self._kept)] if self._kept else first
        x = ((start.lo_num + start.hi_num) << m) // (2 * start.den)
        deriv = [i * c for i, c in enumerate(self.poly)][1:]
        for _ in range(64):
            g = _int_poly_value(deriv, x, 1 << m)
            step = _int_poly_value(self.poly, x, 1 << m) // g if g else 0
            x -= step
            if abs(step) <= 1:
                break
        # the cell j that holds x, confirmed by the exact signs at its ends
        # or walked to the neighbour that keeps the sign change
        j = ((x * den - (lo << m)) << k) // (width << m)
        while True:
            a = (lo << k) + j * width
            s_a = _int_poly_sign_at(self.poly, a, den_k)
            s_b = _int_poly_sign_at(self.poly, a + width, den_k)
            if s_a == 0 or s_b == 0:
                # a rational root is a point of the grid: collapse to it
                a = a if s_a == 0 else a + width
                return _enclosure(a, a, den_k)
            if s_a != s_b:
                return _enclosure(a, a + width, den_k)
            j += 1 if s_a == self.sign_lo else -1


def _bracket_root_near(poly, approx: float) -> _RootBracket:
    # the floats approx -+ slack are dyadic rationals; put them over one
    # power-of-two denominator and widen symmetrically until they bracket
    slack = 3e-9
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
        approx = 2.0 * math.cos(math.pi / n)
        self._lambda_bracket = _bracket_root_near(self.min_poly, approx)
        # (float powers of lambda, relative and absolute error terms), built
        # from their balls by the first FieldElement._float_estimate
        self._lambda_pows_float = None
        self._conjugation_rows = None
        self._inverses = {}
        self.zero = self.from_fraction(0)
        self.one = self.from_fraction(1)
        self.lam = self.element([0, 1])
        self.tau = self.one + self.lam

    @cached_property
    def tau_squared(self) -> FieldElement:
        """tau^2, built on first use (dynamics._exact_digit) and kept on
        this field object."""
        return self.tau * self.tau

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
        """The first bracket of lambda's fixed bisection sequence whose
        width is at most 2^-precision: a function of precision alone,
        whatever was asked of the field before."""
        return self._lambda_bracket.enclosure(precision)

    def __getstate__(self):
        # the generated kernel cannot be pickled; the first product after
        # unpickling generates it again.  The inverse table stays behind
        state = dict(self.__dict__)
        state.pop("_mul", None)
        state["_inverses"] = {}
        return state

    def _mul(self, a, b) -> tuple:
        """Product of two integer coefficient vectors in K.  The first call
        generates the field's kernel (see _product_kernel), which then
        takes this method's place on the instance."""
        self._mul = _product_kernel(self.min_poly)
        return self._mul(a, b)

    def _conjugations(self):
        """The d - 1 embeddings lambda -> 2cos(k pi/n), k > 1, as integer
        matrices in rows: sigma_k(a)[j] = sum_i rows[j][i] a[i], k in the
        order of _embedding_indices.  Built on the first call, since only
        inverse() and galois_conjugate_values need them."""
        if self._conjugation_rows is None:
            d = self.degree
            # sigma_k(lambda) = V_k(lambda), by the Chebyshev recurrence in K
            lam = (0, 1) + (0,) * (d - 2)
            vs = [(2,) + (0,) * (d - 1), lam]
            while len(vs) < self.n:
                vs.append(tuple(x - y for x, y in zip(self._mul(lam, vs[-1]), vs[-2])))
            mats = []
            for k in _embedding_indices(self.n)[1:]:
                cols = [(1,) + (0,) * (d - 1)]
                for _ in range(d - 1):
                    cols.append(self._mul(cols[-1], vs[k]))
                mats.append(tuple(zip(*cols)))
            self._conjugation_rows = mats
        return self._conjugation_rows


@lru_cache(maxsize=None)
def _product_kernel(min_poly: tuple):
    """The straight-line product of two coefficient vectors modulo the monic
    min_poly of degree d: the convolution t_m = sum_i a_i b_(m-i), then
    t_(2d-2), ..., t_d folded into the lower terms by
    lambda^m = -sum_j min_poly[j] lambda^(m-d+j), each fold an in-place
    update with the polynomial's constant written in."""
    d = len(min_poly) - 1
    lines = ["def product(a, b):",
             f"    {', '.join(f'a{i}' for i in range(d))}, = a",
             f"    {', '.join(f'b{i}' for i in range(d))}, = b"]
    for m in range(2 * d - 1):
        terms = [f"a{i} * b{m - i}" for i in range(max(0, m - d + 1), min(m, d - 1) + 1)]
        lines.append(f"    t{m} = {' + '.join(terms)}")
    for m in range(2 * d - 2, d - 1, -1):
        for j, c in enumerate(min_poly[:-1]):
            if c:
                op = "-=" if c > 0 else "+="
                factor = "" if abs(c) == 1 else f" * {abs(c)}"
                lines.append(f"    t{m - d + j} {op} t{m}{factor}")
    lines.append(f"    return ({', '.join(f't{i}' for i in range(d))},)")
    namespace = {}
    exec(compile("\n".join(lines), f"<product kernel of degree {d}>", "exec"), namespace)
    return namespace["product"]


@lru_cache(maxsize=None)
def build_field(n: int) -> NumberField:
    """Field descriptor for the (3, n, oo) triangle group's trace field."""
    return NumberField(n)


class _ExactReal:
    """Order, real embedding and derived operations shared by exact reals.

    A subclass supplies _coerce (the operand as its own type, or None when
    it does not handle that type), the ring operations, inverse,
    is_zero, _scale_bits() (its coefficients' bit length less its
    denominator's), embed_raw(p), a certified enclosure whose width shrinks
    as p grows, _float_estimate(), its 53-bit ball, and a _ball slot.  The
    order is the one pulled back from the real embedding, decided by the
    exact sign of the difference.  sign, embed, floor, float and // refine
    in one _refine run each, so each is a function of the value.
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

    def sign(self) -> int:
        """The exact sign: the kept ball's where it excludes 0, else 0 for
        zero, else one _refine run of embed_raw from _first_rung."""
        b = self.ball()
        if b is not None and abs(b[0]) > b[1]:
            return 1 if b[0] > 0 else -1
        return 0 if self.is_zero() else self._sign_exact()

    def _sign_exact(self):
        def decide(p):
            enc = self.embed_raw(p)
            return enc.sign(), enc

        return _refine(decide, _first_rung(self.field, self._scale_bits()),
                       "sign undecided at {bits} bits")

    def embed(self, precision: int = 53) -> Enclosure:
        """Enclosure of width <= 2^(1-precision) * max(1, |value|)."""
        if precision < 16:
            raise DomainError("precision must be at least 16 bits")

        def decide(p):
            enc = self.embed_raw(p)
            return (enc if _is_tight(enc, precision) else None), enc

        return _refine(decide, max(precision + 8, 64),
                       "embedding did not converge at {bits} bits")

    def ball(self, p: int = 0):
        """A certified ball (mid, rad) of doubles, |value - mid| <= rad, at
        rung p of lambda's ladder, or None past the double range: at p = 0
        the float estimate, at p >= 64 embed_raw(p) with its ends rounded
        outward to lo and hi, mid = fl(lo/2 + hi/2) and rad the larger
        distance to an end, widened by 2^-50 for its rounding and by the
        smallest subnormal for the halving of a subnormal end.  The tightest
        ball made is kept and returned for every rung up to the highest
        asked."""
        kept = self._ball
        if kept is not None and kept[0] >= p:
            return kept[1]
        if p:
            enc = self.embed_raw(p)
            lo, hi = _round(enc.lo_num, enc.den, -1), _round(enc.hi_num, enc.den, 1)
            b = None
            if lo is not None and hi is not None:
                mid = lo / 2 + hi / 2
                b = mid, max(hi - mid, mid - lo) * (1 + 2.0 ** -50) + 5e-324
        else:
            b = self._float_estimate()
        if kept is not None and kept[1] is not None and (b is None or kept[1][1] <= b[1]):
            b = kept[1]
        self._ball = (max(p, kept[0]) if kept else p), b
        return b

    def _box(self, p: int):
        """embed_raw(p), or at p = 0 the kept ball as an exact dyadic
        enclosure; None where there is no ball."""
        if p:
            return self.embed_raw(p)
        b = self.ball()
        if b is None:
            return None
        (m, m_den), (r, r_den) = b[0].as_integer_ratio(), b[1].as_integer_ratio()
        # both denominators are powers of two
        den = max(m_den, r_den)
        m, r = m * (den // m_den), r * (den // r_den)
        return _enclosure(m - r, m + r, den)

    def __float__(self):
        """The double nearest the value, found when both ends of
        embed_raw(p) round to it; a rational is a point and rounds at once.
        An end past the double range leaves p undecided; when both ends lie
        past it on one side, the value itself overflows, as float(10**400)
        does."""
        def decide(p):
            enc = self.embed_raw(p)
            lo, hi = _round(enc.lo_num, enc.den), _round(enc.hi_num, enc.den)
            if lo is None and hi is None and (enc.lo_num > 0) == (enc.hi_num > 0):
                raise OverflowError("exact real too large to convert to float")
            # -0.0 == 0.0, so a zero needs both ends on one side
            same = lo is not None and lo == hi and (enc.lo_num < 0) == (enc.hi_num < 0)
            return (lo if same else None), enc

        return _refine(decide, 64, "embedding did not converge at {bits} bits")

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

    def __floordiv__(self, other) -> int:
        """The exact floor of self / other, with no inversion: the corners
        of both operands' enclosures bound the quotient, as integers, first
        of the balls they keep (_box(0)), then on one _refine run.  One
        candidate is the floor; of two, i - 1 and i, the sign of self -
        other i at the same rung decides, and 0 gives i; more are refined."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("floor division by zero")

        def decide(p):
            en, ed = self._box(p), o._box(p)
            s_d = None if ed is None else ed.sign()
            if s_d is None or en is None:
                return None, (en, ed)
            # the corners (a / en.den) / (b / ed.den), floored
            floors = [a * ed.den // (b * en.den) for a in (en.lo_num, en.hi_num)
                      for b in (ed.lo_num, ed.hi_num)]
            lo, hi = min(floors), max(floors)
            if hi - lo != 1:
                return (lo if lo == hi else None), (en, ed)
            # self / other >= hi exactly when (self - other hi) / other >= 0
            gap = self - o * hi
            if gap.is_zero():
                return hi, gap
            enc = gap._box(p)
            s = None if enc is None else enc.sign()
            return (None if s is None else hi if s == s_d else lo), enc

        q = decide(0)[0]
        if q is not None:
            return q
        bits = max(self._scale_bits(), o._scale_bits())
        return _refine(decide, _first_rung(self.field, bits), "floor undecided at {bits} bits")


def _first_rung(field: NumberField, bits: int) -> int:
    """The rung 64 * 2^i of lambda's ladder at which an exact decision on
    values with coefficients near 2^bits starts once their balls fail: the
    highest at or below the finest bracket the field has built, which the
    decisions before it needed, bits + 64 and the precision cap."""
    reach = min(max(field._lambda_bracket._kept, default=64), bits + 64, get_precision_cap())
    return 64 << max(0, (reach // 64).bit_length() - 1)


class FieldElement(_ExactReal):
    """Immutable element num / den of K: an integer coefficient vector num
    in the power basis of lambda over one denominator den, with den > 0
    and gcd(num..., den) == 1, so (num, den) is unique for each value.

    FieldElement(field, coeffs) builds one from d rationals.
    """

    __slots__ = ("field", "num", "den", "_sign", "_ball")

    def __init__(self, field: NumberField, coeffs):
        qs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(q.denominator for q in qs))
        self.field = field
        self.num = tuple(q.numerator * (den // q.denominator) for q in qs)
        self.den = den
        self._sign = self._ball = None

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
        if self.den == o.den:
            return _element(self.field, tuple(map(add if sign > 0 else sub, self.num, o.num)),
                            self.den)
        g = math.gcd(self.den, o.den)
        sa, sb = o.den // g, self.den // g * sign
        return _element(self.field, tuple(a * sa + b * sb for a, b in zip(self.num, o.num)),
                        self.den * sa)

    def __add__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._add(other, -1)

    def __neg__(self):
        return _new(self.field, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _element(self.field, self.field._mul(self.num, other.num),
                        self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        """1 / self from the norm: with self = a / den and a an integer
        vector, a * prod_(sigma != id) sigma(a) = N(a), a nonzero integer, so
        1 / self = den * prod_(sigma != id) sigma(a) / N(a).  The field keeps
        the inverse of each value, up to INVERSE_TABLE_SIZE of them, so a
        value that comes back in another object is not inverted again."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if self.is_rational():
            return _element(field, (self.den,) + (0,) * (field.degree - 1), self.num[0])
        table = field._inverses
        inv = table.get((self.num, self.den))
        if inv is None:
            a = self.num
            prod = None
            for conj in _conjugate_vectors(field, a):
                prod = conj if prod is None else field._mul(prod, conj)
            norm = field._mul(a, prod)
            if any(norm[1:]):
                raise ArithmeticError("norm is not rational")
            if len(table) >= INVERSE_TABLE_SIZE:
                table.clear()
            inv = table[self.num, self.den] = _element(field, tuple(c * self.den for c in prod),
                                                       norm[0])
            inv._sign = self._sign
        return inv

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        return _power(self, k, self.field.one)

    # -- order and embedding --------------------------------------------------

    def _sign_of_difference(self, other):
        """Sign of self - other from the unreduced difference
        (a.num * b.den - b.num * a.den) / (a.den * b.den): the float filter
        and the exact enclosure read only its rational value, so every
        decision is the one the reduced difference would give."""
        if type(other) is not FieldElement or other.field is not self.field:
            other = self._coerce(other)
            if other is None:
                return None
        if self.den == other.den:
            num, den = tuple(a - b for a, b in zip(self.num, other.num)), self.den
        else:
            sa, sb = other.den, self.den
            num, den = tuple(a * sa - b * sb for a, b in zip(self.num, other.num)), sa * sb
        return _new(self.field, num, den).sign()

    def sign(self) -> int:
        """Exact sign under lambda -> 2cos(pi/n), kept on the element."""
        if self._sign is None:
            c = self.num[0]
            self._sign = (c > 0) - (c < 0) if self.is_rational() else super().sign()
        return self._sign

    def _scale_bits(self) -> int:
        return max(map(abs, self.num)).bit_length() - self.den.bit_length()

    def _float_estimate(self):
        """(val, bound) in floats with |value - val| <= bound, or None when
        a coefficient passes the double range.

        val = fl(sum_i fl(c_i f_i)) for c_i the correctly rounded value of
        coefficient i and f_i a double with |f_i - lambda^i| <= rho f_i: the
        mid of lambda^i's ball at rung 64, once per field, with rho, the
        largest radius over mid widened by 2^-50 for its rounding, below
        2^-50 at any degree up to 80.  With u = 2^-53, d the degree and
        mag = fl(sum_i |fl(c_i f_i)|), the error is at most

            bound = ((d + 3) u + rho) (1 + 2^-30) mag + (d + 1) 2^(d - 1074):

        u from each coefficient's rounding, rho from each power, u from
        each product and (d - 1) u from the sum, whose recursive summation
        error is at most (d - 1) u (1 + O(u)) times the sum of the |terms|
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        section 4.2).  The factor 1 + 2^-30 covers the second-order terms
        and the rounding of mag and bound; the last term covers the
        roundings of subnormal results, each at most 2^-1075 times a power
        of lambda, which is below 2^(d - 1)."""
        field = self.field
        table = field._lambda_pows_float
        if table is None:
            d = field.degree
            balls = [_new(field, tuple(int(i == j) for j in range(d)), 1).ball(64)
                     for i in range(d)]
            rho = max(r / m for m, r in balls) * (1 + 2.0 ** -50)
            rel = ((d + 3) * 2.0 ** -53 + rho) * (1 + 2.0 ** -30)
            table = field._lambda_pows_float = ([m for m, _ in balls], rel,
                                                math.ldexp(d + 1, d - 1074))
        pows, rel, floor = table
        den = self.den
        val = 0.0
        mag = 0.0
        try:
            for c, lp in zip(self.num, pows):
                # int true division rounds correctly
                t = (c / den) * lp
                val += t
                mag += abs(t)
        except OverflowError:
            return None
        return None if mag == math.inf else (val, mag * rel + floor)

    def embed_raw(self, precision: int) -> Enclosure:
        """Evaluate at lambda_enclosure(precision), as integers over one
        positive denominator (see _eval_interval); a rational is its own
        point enclosure.  The result width scales with the coefficients,
        and the result depends on the element and precision alone.
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


def _power(x, k: int, one):
    """x^k by square and multiply, for a FieldElement or a Moebius matrix x
    with unit one; x^-k is (x^-1)^k."""
    if k < 0:
        x, k = x.inverse(), -k
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _element(field: NumberField, num: tuple, den: int) -> FieldElement:
    """The element num / den for d ints num and any nonzero den, divided by
    its content gcd(num..., den) with the sign that makes den positive."""
    if den == 1:
        return _new(field, num, 1)
    g = math.gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return _new(field, num, den)


def _new(field: NumberField, num: tuple, den: int) -> FieldElement:
    """The element num / den, with den > 0 and content gcd 1 already."""
    e = object.__new__(FieldElement)
    e.field, e.num, e.den, e._sign, e._ball = field, num, den, None, None
    return e


def _conjugate_vectors(field: NumberField, a: tuple):
    """sigma_k(a) for each nontrivial embedding, as integer coefficient
    vectors: the rows of field._conjugations() times a."""
    for rows in field._conjugations():
        yield tuple(sum(map(mul, row, a)) for row in rows)


def galois_conjugate_values(a: FieldElement, precision: int = 53):
    """Values of an element under all d real embeddings, as enclosures,
    identity first: each conjugate vector sigma_k(a) evaluated on lambda's
    one bracket."""
    vectors = [a.num, *_conjugate_vectors(a.field, a.num)]

    def decide(p):
        box = a.field.lambda_enclosure(p)
        encs = [_eval_interval(v, a.den, box) for v in vectors]
        return (encs if all(_is_tight(e, precision) for e in encs) else None), None

    return _refine(decide, max(precision, 53), "conjugate embeddings did not converge")


def random_interval_point(field: NumberField, rng, bits: int = 256) -> FieldElement:
    """Uniform point of [-tau, 0) as an exact dyadic multiple of tau."""
    q = Fraction(rng.getrandbits(bits), 1 << bits)
    return field.tau * (-q)
