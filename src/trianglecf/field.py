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
by the norm (section 4.3).  Every comparison against the real line goes
through a certified rational enclosure of lambda that is refined by exact
bisection, so branch decisions are never silently wrong.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import add, mul, sub

from .errors import DomainError, PrecisionExhausted

DEFAULT_PRECISION_CAP = 4096

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


def _round_outward(num: int, den: int, toward: float) -> float:
    """num / den, den > 0, as the nearest double on the side of toward
    (-inf or +inf), so that lo and hi rounded this way bracket the value."""
    f = num / den
    a, b = f.as_integer_ratio()
    # the sign of f - num/den, cross-multiplied by b, den > 0
    gap = a * den - num * b
    if gap and (gap > 0) == (toward < 0):
        f = math.nextafter(f, toward)
    return f


def _ratio_span(num_est, den_est):
    """(center, radius) around N/D from certified float estimates (n, e_n)
    and (d, e_d) of N and D (_ExactReal._float_estimate at one shift), or
    None when an estimate is missing, d's does not exclude 0 or the span
    leaves the double range.  With c the rounded n/d and u = 2^-53,

        |N/D - c| <= (e_n + |c| e_d) / (|d| - e_d) + 2u |c|:

    the propagated error and the rounding of c, with |c| for |n/d|, which
    is at most |c| (1 + 2u); the factor 1 + 2^-48 covers that and the
    rounding of the radius.  The ends c -+ radius still need widening for
    their own rounding."""
    if num_est is None or den_est is None:
        return None
    (n, e_n), (d, e_d) = num_est, den_est
    if abs(d) <= e_d:
        return None
    c = n / d
    radius = ((e_n + abs(c) * e_d) / (abs(d) - e_d) + abs(c) * 2.0 ** -52) * (1 + 2.0 ** -48)
    return (c, radius) if math.isfinite(radius) else None


def _estimate_of(enc):
    """A certified float estimate (val, bound), as _ExactReal._float_estimate
    gives at shift 0, of any value in the enclosure enc, or None when an end
    lies beyond the double range.  The ends are rounded outward to lo and
    hi, val = fl(lo/2 + hi/2) lies between them, and the larger distance
    from val to an end, rounded with relative error at most 2^-53, is
    widened by 2^-50 and by the smallest subnormal, which covers the
    halving of a subnormal end."""
    try:
        lo = _round_outward(enc.lo_num, enc.den, -math.inf)
        hi = _round_outward(enc.hi_num, enc.den, math.inf)
    except OverflowError:
        return None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return None
    val = lo / 2 + hi / 2
    return val, max(hi - val, val - lo) * (1 + 2.0 ** -50) + 5e-324


def _bits_lost(est) -> int:
    """About how many bits of the certified estimate est = (val, bound)
    cancellation has cost: a bound near 2^-50 of the value, as
    _ExactReal._float_estimate gives for terms that do not cancel, reads 0,
    and each doubling of bound/|val| one more; a bound that swallows the
    value reads 50.  None reads 0."""
    if est is None:
        return 0
    val, bound = est
    return math.frexp(bound)[1] - math.frexp(max(abs(val), bound))[1] + 50


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
    integer polynomial, den a power of two, and the fixed sequence of its
    exact dyadic bisections: each bracket is the half of the one before
    that keeps the sign change.

    enclosure(p) is the first bracket of the sequence whose width is at
    most 2^-p, so it depends on p alone.  Each one returned is kept, and a
    later request bisects on from the kept one of the largest p below its
    own, which is a bracket of the same sequence."""

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
        if enc is not None:
            return enc
        below = [q for q in self._kept if q < p]
        start = self._kept[max(below)] if below else self.first
        lo, hi, den = start.lo_num, start.hi_num, start.den
        sign_lo = self.sign_lo
        # bisect while (hi - lo) / den > 2^-p
        while (hi - lo) << p > den:
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
        enc = self._kept[p] = _enclosure(lo, hi, den)
        return enc


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
        # from the exact bracket by the first FieldElement._float_estimate
        self._lambda_pows_float = None
        self._conjugation_rows = None
        self.zero = self.from_fraction(0)
        self.one = self.from_fraction(1)
        self.lam = self.element([0, 1])
        self.tau = self.one + self.lam

    @cached_property
    def tau_squared(self) -> FieldElement:
        """tau^2, built on first use (dynamics.digit_of) and kept on this
        field object."""
        return self.tau * self.tau

    @cached_property
    def tau_bounds(self) -> tuple:
        """Doubles tau_lo <= tau <= tau_hi: 1 + lambda's 64-bit bracket,
        each end rounded outward; built on first use (dynamics.digit_of)."""
        enc = self.lambda_enclosure(64)
        return (_round_outward(enc.lo_num + enc.den, enc.den, -math.inf),
                _round_outward(enc.hi_num + enc.den, enc.den, math.inf))

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
        # unpickling generates it again
        state = dict(self.__dict__)
        state.pop("_mul", None)
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
    it does not handle that type), the ring operations, inverse, sign,
    is_zero, embed_raw(p), a certified enclosure whose width shrinks as p
    grows, and _float_estimate(shift) with _scale_bits(), a certified float
    estimate of the value times 2^-shift and the shift that keeps it in
    the double range.  The order is the one pulled back from the real
    embedding, decided by the exact sign of the difference.  embed, floor,
    float and // refine embed_raw in one _refine run each, so each is a
    function of the value.
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
        """The double nearest the value, found when both ends of
        embed_raw(p) round to it; a rational is a point and rounds at once.
        An end beyond the double range rounds to an infinity, which leaves
        p undecided; when both ends round to one infinity, the value itself
        overflows, as float(10**400) does."""
        def rounded(num, den):
            # int true division rounds correctly
            try:
                return num / den
            except OverflowError:
                return math.inf if num > 0 else -math.inf

        def decide(p):
            enc = self.embed_raw(p)
            # -0.0 == 0.0, so a zero needs both ends on one side
            lo, hi = rounded(enc.lo_num, enc.den), rounded(enc.hi_num, enc.den)
            same = lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi)
            if same and math.isinf(lo):
                raise OverflowError("exact real too large to convert to float")
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

    def _refreshed_estimate(self, p: int):
        """The certified float estimate of the value read from one
        enclosure, embed_raw(p) (_estimate_of), or None past the double
        range: the estimate of an element whose float bound cancellation
        has widened, restored from lambda's p-bit bracket."""
        return _estimate_of(self.embed_raw(p))

    def __floordiv__(self, other) -> int:
        """The exact floor of self / other, with no inversion.

        First from the certified float estimates of both operands at one
        shift: when both ends of the span around the quotient (_ratio_span)
        floor to one integer, that is the floor.  Otherwise one _refine run
        bounds the quotient by the corners of embed_raw of both operands,
        as integers: one candidate is the floor; of two, i - 1 and i, the
        sign of self - other i at the same precision decides, and 0 gives
        i; more are refined."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num, den = self._float_estimate(), o._float_estimate()
        if num is None or den is None:
            shift = (self._scale_bits() + o._scale_bits()) // 2
            num, den = self._float_estimate(shift), o._float_estimate(shift)
        span = _ratio_span(num, den)
        if span is not None:
            c, r = span
            # widened for the rounding of c -+ r
            r += (abs(c) + r) * 2.0 ** -50
            if math.isfinite(abs(c) + r) and math.floor(c - r) == math.floor(c + r):
                return math.floor(c)
        if o.is_zero():
            raise ZeroDivisionError("floor division by zero")

        def decide(p):
            en, ed = self.embed_raw(p), o.embed_raw(p)
            s_d = ed.sign()
            if s_d is None:
                return None, ed
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
            enc = gap.embed_raw(p)
            s = enc.sign()
            return (None if s is None else hi if s == s_d else lo), enc

        return _refine(decide, 64, "floor undecided at {bits} bits")


class FieldElement(_ExactReal):
    """Immutable element num / den of K: an integer coefficient vector num
    in the power basis of lambda over one denominator den, with den > 0
    and gcd(num..., den) == 1, so (num, den) is unique for each value.

    FieldElement(field, coeffs) builds one from d rationals.
    """

    __slots__ = ("field", "num", "den", "_sign", "_est")

    def __init__(self, field: NumberField, coeffs):
        qs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(q.denominator for q in qs))
        self.field = field
        self.num = tuple(q.numerator * (den // q.denominator) for q in qs)
        self.den = den
        self._sign = self._est = None

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
        1 / self = den * prod_(sigma != id) sigma(a) / N(a)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        if self.is_rational():
            return _element(field, (self.den,) + (0,) * (field.degree - 1), self.num[0])
        a = self.num
        prod = None
        for conj in _conjugate_vectors(field, a):
            prod = conj if prod is None else field._mul(prod, conj)
        norm = field._mul(a, prod)
        if any(norm[1:]):
            raise ArithmeticError("norm is not rational")
        return _element(field, tuple(c * self.den for c in prod), norm[0])

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

    def _scale_bits(self) -> int:
        """Bit length of the largest coefficient less that of the
        denominator: value * 2^-_scale_bits() has coefficients below 2 in
        absolute value."""
        return max(map(abs, self.num)).bit_length() - self.den.bit_length()

    def _float_estimate(self, shift: int = 0):
        """(val, bound) in floats with |value * 2^-shift - val| <= bound, or
        None when a coefficient times 2^-shift passes the double range.
        shift = _scale_bits() never overflows.  The estimate at shift 0 is
        kept on the element.

        val = fl(sum_i fl(c_i f_i)) for c_i the correctly rounded value of
        coefficient i times 2^-shift and f_i a double with
        |f_i - lambda^i| <= rho f_i.  The f_i are lambda's powers rounded
        outward from its 64-bit bracket, once per field, and rho, their
        largest relative spread, is below 2^-50 at any degree up to 80.
        With u = 2^-53, d the degree and mag = fl(sum_i |fl(c_i f_i)|), the
        error is at most

            bound = ((d + 3) u + rho) (1 + 2^-30) mag + (d + 1) 2^(d - 1074):

        u from each coefficient's rounding, rho from each power, u from
        each product and (d - 1) u from the sum, whose recursive summation
        error is at most (d - 1) u (1 + O(u)) times the sum of the |terms|
        (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
        section 4.2).  The factor 1 + 2^-30 covers the second-order terms
        and the rounding of mag and bound; the last term covers the
        roundings of subnormal results, each at most 2^-1075 times a power
        of lambda, which is below 2^(d - 1)."""
        if not shift and self._est is not None:
            return self._est
        field = self.field
        table = field._lambda_pows_float
        if table is None:
            enc, d = field.lambda_enclosure(64), field.degree
            pows, rho = [], 0.0
            for i in range(d):
                lo = _round_outward(enc.lo_num ** i, enc.den ** i, -math.inf)
                hi = _round_outward(enc.hi_num ** i, enc.den ** i, math.inf)
                pows.append(lo)
                rho = max(rho, (hi - lo) / lo * (1 + 2.0 ** -50))
            rel = ((d + 3) * 2.0 ** -53 + rho) * (1 + 2.0 ** -30)
            table = field._lambda_pows_float = (pows, rel, math.ldexp(d + 1, d - 1074))
        pows, rel, floor = table
        num, den = self.num, self.den
        if shift > 0:
            den <<= shift
        elif shift < 0:
            num = [c << -shift for c in num]
        val = 0.0
        mag = 0.0
        try:
            for c, lp in zip(num, pows):
                # int true division rounds correctly
                t = (c / den) * lp
                val += t
                mag += abs(t)
        except OverflowError:
            return None
        if mag == math.inf:
            return None
        est = (val, mag * rel + floor)
        if not shift:
            self._est = est
        return est

    def _refreshed_estimate(self, p: int):
        """As _ExactReal._refreshed_estimate, and kept as the element's
        estimate at shift 0 where it is the tighter one."""
        est = super()._refreshed_estimate(p)
        if est is not None and (self._est is None or est[1] < self._est[1]):
            self._est = est
        return est

    def _sign_fast_float(self):
        est = self._float_estimate()
        if est is None:
            # a coefficient beyond the double range: estimate at its scale
            est = self._float_estimate(self._scale_bits())
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
    e.field, e.num, e.den, e._sign, e._est = field, num, den, None, None
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
