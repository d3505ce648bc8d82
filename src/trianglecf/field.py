"""Exact arithmetic in the real cyclotomic field K = Q(lambda), lambda = 2cos(pi/n).

Elements are rational coefficient vectors in the power basis of lambda,
reduced modulo its minimal polynomial.  Every comparison against the real
line goes through a certified rational enclosure of lambda that is refined
by exact bisection, so branch decisions are never silently wrong.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, PrecisionExhausted

DEFAULT_PRECISION_CAP = 4096

_precision_cap = None


def get_precision_cap() -> int:
    if _precision_cap is not None:
        return _precision_cap
    env = os.environ.get("TRIANGLECF_PRECISION_CAP")
    if env:
        return int(env)
    return DEFAULT_PRECISION_CAP


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
    with the message ("{bits}" becomes p) and that try's boundary.
    """
    cap = get_precision_cap()
    p = start_bits
    while True:
        result, boundary = decide(p)
        if result is not None:
            return result
        if p >= cap:
            raise PrecisionExhausted(message.format(bits=p), boundary=boundary)
        p *= 2


def _is_tight(enc, precision: int) -> bool:
    """Width at most 2^(1-precision) * max(1, |value|)."""
    scale = max(Fraction(1), abs(enc.lo), abs(enc.hi))
    return enc.width() <= Fraction(2) ** (1 - precision) * scale


# ---------------------------------------------------------------------------
# integer / rational polynomial helpers (ascending coefficient lists)
# ---------------------------------------------------------------------------

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


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
    # x^k + x^-k expressed in y: V_0 = 2, V_1 = y, V_{k+1} = y V_k - V_{k-1}
    v_prev, v_cur = [2], [0, 1]
    psi = [phi[d]]
    for k in range(1, d + 1):
        coef = phi[d + k]
        if coef:
            while len(psi) < len(v_cur):
                psi.append(0)
            for i, c in enumerate(v_cur):
                psi[i] += coef * c
        nxt = [0] + v_cur
        for i, c in enumerate(v_prev):
            nxt[i] -= c
        v_prev, v_cur = v_cur, nxt
    if psi[-1] != 1:
        raise ArithmeticError("trace minimal polynomial is not monic")
    return tuple(psi)


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

    def enclosure(self) -> Enclosure:
        return Enclosure(self.lo, self.hi)


def _bracket_root_near(poly, approx: float, slack: float = 3e-9) -> _RootBracket:
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


def _iv_mul(a_lo, a_hi, b_lo, b_hi):
    p1 = a_lo * b_lo
    p2 = a_lo * b_hi
    p3 = a_hi * b_lo
    p4 = a_hi * b_hi
    return min(p1, p2, p3, p4), max(p1, p2, p3, p4)


def _eval_interval(coeffs, box: Enclosure):
    """Interval Horner evaluation of a rational-coefficient polynomial."""
    lo = hi = Fraction(0)
    for c in reversed(coeffs):
        lo, hi = _iv_mul(lo, hi, box.lo, box.hi)
        lo, hi = lo + c, hi + c
    return Enclosure(lo, hi)


class NumberField:
    """Descriptor of K = Q(lambda), lambda = 2cos(pi/n), n >= 4."""

    def __init__(self, n: int):
        if n < 4:
            raise DomainError("triangle group parameter n must be >= 4")
        self.n = n
        self.min_poly = trace_min_poly(n)
        self.degree = len(self.min_poly) - 1
        # reduction rows: lambda^(degree+i) as integer vectors, i = 0..degree-2
        rows = []
        cur = [-c for c in self.min_poly[:-1]]
        rows.append(tuple(cur))
        for _ in range(self.degree - 2):
            shifted = [0] + list(cur)
            top = shifted.pop()  # coefficient of lambda^degree
            if top:
                shifted = [s + top * r for s, r in zip(shifted, rows[0])]
            cur = shifted
            rows.append(tuple(cur))
        self._red_rows = rows
        approx = 2.0 * math.cos(math.pi / n)
        self._lambda_bracket = _bracket_root_near(self.min_poly, approx)
        self._lambda_float = approx
        self._lambda_pows_float = [approx ** i for i in range(self.degree)]
        self._conjugate_brackets = None
        self.zero = FieldElement(self, (Fraction(0),) * self.degree)
        self.one = self.from_fraction(Fraction(1))
        lam_coeffs = [Fraction(0)] * self.degree
        if self.degree >= 2:
            lam_coeffs[1] = Fraction(1)
        else:  # degree-1 field cannot occur for n >= 4, guarded anyway
            lam_coeffs[0] = Fraction(self._lambda_bracket.lo)
        self.lam = FieldElement(self, tuple(lam_coeffs))
        self.tau = self.one + self.lam

    def __repr__(self):
        return f"NumberField(n={self.n}, degree={self.degree})"

    def __hash__(self):
        return hash(("NumberField", self.n))

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.n == self.n

    def element(self, coeffs) -> FieldElement:
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, tuple(cs))

    def from_fraction(self, q) -> FieldElement:
        cs = [Fraction(0)] * self.degree
        cs[0] = Fraction(q)
        return FieldElement(self, tuple(cs))

    def coerce(self, value) -> FieldElement:
        if isinstance(value, FieldElement):
            if value.field is not self:
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
        return self._lambda_bracket.refine_to(Fraction(1, 2 ** precision))

    def conjugate_enclosures(self, precision: int):
        """Enclosures of all real embeddings of lambda: 2cos(k pi/n),
        gcd(k, 2n) = 1, 1 <= k < n."""
        if self._conjugate_brackets is None:
            ks = [k for k in range(1, self.n) if math.gcd(k, 2 * self.n) == 1]
            if len(ks) != self.degree:
                raise ArithmeticError("embedding count does not match degree")
            self._conjugate_brackets = [
                _bracket_root_near(self.min_poly, 2.0 * math.cos(math.pi * k / self.n))
                for k in ks
            ]
        w = Fraction(1, 2 ** precision)
        return [b.refine_to(w) for b in self._conjugate_brackets]

    def _reduce(self, conv):
        """Reduce a convolution (length <= 2d-1) modulo the minimal polynomial."""
        d = self.degree
        out = list(conv[:d])
        while len(out) < d:
            out.append(Fraction(0))
        for i, c in enumerate(conv[d:]):
            if c:
                row = self._red_rows[i]
                for j, r in enumerate(row):
                    if r:
                        out[j] += c * r
        return tuple(out)


@lru_cache(maxsize=None)
def build_field(n: int) -> NumberField:
    """Field descriptor for the (3, n, oo) triangle group's trace field."""
    return NumberField(n)


class _ExactReal:
    """Order and derived operations shared by exact real values.

    A subclass supplies _coerce (the operand as its own type, or None when
    it does not handle that type), the ring operations, inverse, sign and
    floor.  The order is the one pulled back from the real embedding,
    decided by the exact sign of the difference.
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

    def ceil(self) -> int:
        return -((-self).floor())


class FieldElement(_ExactReal):
    """Immutable element of K as a length-d rational coefficient vector."""

    __slots__ = ("field", "coeffs", "_sign")

    def __init__(self, field: NumberField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs
        self._sign = None

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise DomainError("element is not rational")
        return self.coeffs[0]

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __repr__(self):
        return f"FieldElement(n={self.field.n}, {self.to_json()})"

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("mixing elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(
            self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs))
        )

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        conv = [Fraction(0)] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        return FieldElement(self.field, self.field._reduce(conv))

    __rmul__ = __mul__

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        if self.is_rational():
            return self.field.from_fraction(1 / self.coeffs[0])
        # extended Euclid in Q[x] against the minimal polynomial
        m = [Fraction(c) for c in self.field.min_poly]
        a = list(self.coeffs)
        _poly_trim(a)
        r0, r1 = m, a
        s0, s1 = [], [Fraction(1)]
        while True:
            q, r = _frac_poly_divmod(r0, r1)
            if not r:
                break
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
            r0, r1 = r1, r
        if len(r1) != 1:
            raise ArithmeticError("minimal polynomial is not irreducible")
        inv_coeffs = [c / r1[0] for c in s1]
        inv_coeffs += [Fraction(0)] * (self.field.degree - len(inv_coeffs))
        return FieldElement(self.field, tuple(inv_coeffs[: self.field.degree]))

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
        if self.is_zero():
            self._sign = 0
            return 0
        if self.is_rational():
            c = self.coeffs[0]
            self._sign = 1 if c > 0 else -1
            return self._sign
        s = self._sign_fast_float()
        if s is None:
            s = self._sign_exact()
        self._sign = s
        return s

    def _sign_fast_float(self):
        lam_pows = self.field._lambda_pows_float
        try:
            val = 0.0
            mag = 0.0
            for c, lp in zip(self.coeffs, lam_pows):
                t = float(c) * lp
                val += t
                mag += abs(t)
        except OverflowError:
            return None
        tol = mag * 2.0 ** -45 * (self.field.degree + 2) + 5e-300
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
        """Evaluate at a lambda-enclosure of the given width exponent.

        The result width scales with the coefficients; embed(), floor() and
        the sign test refine this primitive through _refine().  The lambda
        enclosure is shared and narrowed in place (see lambda_enclosure),
        so the result for a given precision depends on earlier calls on
        this field in the process.
        """
        box = self.field.lambda_enclosure(precision)
        enc = _eval_interval(self.coeffs, box)
        return enc

    def embed(self, precision: int = 53) -> Enclosure:
        """Enclosure of width <= 2^(1-precision) * max(1, |value|)."""
        if precision < 16:
            raise DomainError("precision must be at least 16 bits")
        if self.is_rational():
            c = self.coeffs[0]
            return Enclosure(c, c)

        def decide(p):
            enc = self.embed_raw(p)
            return (enc if _is_tight(enc, precision) else None), enc

        return _refine(decide, max(precision + 8, 64),
                       "embedding did not converge at {bits} bits")

    def __float__(self):
        if self.is_rational():
            return float(self.coeffs[0])
        return float(self.embed(53))

    def floor(self) -> int:
        if self.is_rational():
            return math.floor(self.coeffs[0])

        # a non-rational element is never an integer, so this terminates
        def decide(p):
            enc = self.embed_raw(p)
            f_lo = math.floor(enc.lo)
            return (f_lo if f_lo == math.floor(enc.hi) else None), enc

        return _refine(decide, 64, "floor undecided")

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_json(field: NumberField, data) -> FieldElement:
        return field.element([Fraction(s) for s in data])


def _frac_poly_divmod(a, b):
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [Fraction(0)] * max(len(a) - db, 0)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db] / lb
        q[i] = c
        if c:
            for j, bc in enumerate(b):
                a[i + j] -= c * bc
    r = _poly_trim(a[:db])
    return q, r


def _frac_poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _frac_poly_sub(a, b):
    out = list(a) + [Fraction(0)] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def galois_conjugate_values(a: FieldElement, precision: int = 53):
    """Values of an element under all d real embeddings, as enclosures."""
    def decide(p):
        encs = [_eval_interval(a.coeffs, box) for box in a.field.conjugate_enclosures(p)]
        return (encs if all(_is_tight(e, precision) for e in encs) else None), None

    return _refine(decide, max(precision, 53), "conjugate embeddings did not converge")


def random_interval_point(field: NumberField, rng, bits: int = 256) -> FieldElement:
    """Uniform point of [-tau, 0) as an exact dyadic multiple of tau."""
    q = Fraction(rng.getrandbits(bits), 1 << bits)
    return field.tau * (-q)
