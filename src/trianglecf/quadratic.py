"""Real quadratic extensions K(sqrt(D)) over the trace field.

Fixed points of hyperbolic group elements live here; the arithmetic stays
exact so periodicity checks need no tolerance at all.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .field import (Enclosure, FieldElement, NumberField, _enclosure, _ExactReal, _iv_mul,
                    _ratio_span, _refine)


def _sqrt_enclosure(x: Enclosure, precision: int) -> Enclosure:
    """Certified enclosure over 2^precision of sqrt over [max(x.lo, 0), x.hi],
    so of sqrt(D) for any D >= 0 in x."""
    if x.hi_num < 0:
        raise DomainError("negative discriminant has no real embedding")
    shift = 2 * precision
    # floor and ceil of 2^(2 precision) x.lo and x.hi
    lo = max((x.lo_num << shift) // x.den, 0)
    hi = -((-x.hi_num << shift) // x.den)
    r = math.isqrt(hi)
    if r * r < hi:
        r += 1
    return _enclosure(math.isqrt(lo), r, 1 << precision)


class QuadExt(_ExactReal):
    """Element u + v*sqrt(D) with u, v, D in K and D > 0 not a square."""

    __slots__ = ("field", "u", "v", "disc", "_ball")

    def __init__(self, field: NumberField, u, v, disc):
        self.field = field
        self.u = field.coerce(u)
        self.v = field.coerce(v)
        self.disc = field.coerce(disc)
        self._ball = None

    def is_zero(self) -> bool:
        # D is not a square in K, so u + v sqrt(D) = 0 iff u = v = 0
        return self.u.is_zero() and self.v.is_zero()

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.disc != self.disc:
                raise ValueError("mixing different quadratic extensions")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return QuadExt(self.field, other, 0, self.disc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.field, self.u + o.u, self.v + o.v, self.disc)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.field, self.u - o.u, self.v - o.v, self.disc)

    def __neg__(self):
        return QuadExt(self.field, -self.u, -self.v, self.disc)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.field,
            self.u * o.u + self.v * o.v * self.disc,
            self.u * o.v + self.v * o.u,
            self.disc,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        norm = self.u * self.u - self.v * self.v * self.disc
        if norm.is_zero():
            raise ZeroDivisionError("inverse of zero in quadratic extension")
        ninv = norm.inverse()
        return QuadExt(self.field, self.u * ninv, -self.v * ninv, self.disc)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.u == o.u and self.v == o.v

    def __hash__(self):
        # a value with v == 0 equals, and so hashes as, its part u
        if self.v == 0:
            return hash(self.u)
        return hash((self.u, self.v, self.disc))

    def _scale_bits(self) -> int:
        """A binary exponent near the scale of u and v sqrt(D)."""
        return max(self.u._scale_bits(), self.v._scale_bits() + self.disc._scale_bits() // 2)

    def _float_estimate(self):
        """The ball (value, error bound) of u + v sqrt(D) in floats, from the
        balls of u, v and D (FieldElement.ball); None when one is missing.
        For |D - d| <= e, |sqrt(D) - sqrt(d)| is at most
        e/(sqrt(d) + sqrt(d - e)) when d > e, and at most sqrt(e) otherwise.
        Where u and v sqrt(D) cancel, the value is also estimated as the
        norm u^2 - v^2 D, an element of K with a ball of its own, over
        u - v sqrt(D), whose terms add, and the smaller ball is returned."""
        parts = [self.u.ball(), self.v.ball(), self.disc.ball()]
        if None in parts:
            return None
        (u, eu), (v, ev), (d, ed) = parts
        r = math.sqrt(max(d, 0.0))
        if d > ed:
            r_err = ed / (r + math.sqrt(d - ed)) * (1 + 2.0 ** -50)
        else:
            r_err = math.sqrt(ed)
        val = u + v * r
        # the error of v sqrt(D), and of the roundings of u -+ v r
        e_vr = ev * (r + r_err) + abs(v) * r_err + 2.0 ** -50 * (abs(u) + abs(v * r))
        bound = eu + e_vr
        if 2 * abs(val) < abs(u):
            norm = self.u * self.u - self.v * self.v * self.disc
            span = _ratio_span(norm.ball(), (u - v * r, eu + e_vr))
            if span is not None and span[1] < bound:
                return span
        return val, bound

    def embed_raw(self, precision: int) -> Enclosure:
        """u + v sqrt(D) over p-bit enclosures of u, v and D, as integers
        over the product of their denominators.  While D's enclosure
        straddles zero, sqrt(D) is enclosed in [0, sqrt(D_hi)]."""
        eu = self.u.embed_raw(precision)
        ev = self.v.embed_raw(precision)
        sq = _sqrt_enclosure(self.disc.embed_raw(precision), precision)
        # v sqrt(D) over vs = ev.den * sq.den, then u + v sqrt(D) over eu.den * vs
        lo, hi = _iv_mul(ev.lo_num, ev.hi_num, sq.lo_num, sq.hi_num)
        vs = ev.den * sq.den
        return _enclosure(eu.lo_num * vs + lo * eu.den, eu.hi_num * vs + hi * eu.den,
                          eu.den * vs)

    def __repr__(self):
        return (
            f"QuadExt(n={self.field.n}, u={self.u.to_json()}, "
            f"v={self.v.to_json()}, D={self.disc.to_json()})"
        )


def solve_fixed_points(M) -> tuple:
    """Both fixed points of a hyperbolic Moebius matrix as QuadExt values.

    Solves c x^2 + (d - a) x - b = 0; returns (root_plus, root_minus, disc)
    where root_plus carries +sqrt(disc) of the trace discriminant and
    disc = tr^2 - 4.
    """
    field = M.field
    a, b, c, d = M.entries()
    if c.is_zero():
        raise DomainError("fixed points at infinity are not represented")
    disc = (d - a) * (d - a) + 4 * b * c
    if disc.sign() <= 0:
        raise DomainError("matrix is not hyperbolic over the reals")
    inv2c = (c + c).inverse()
    u = (a - d) * inv2c
    v = inv2c
    return (
        QuadExt(field, u, v, disc),
        QuadExt(field, u, -v, disc),
        disc,
    )


def compare_numeric(a, b):
    """Order two real algebraic values living in different extensions.

    a and b are FieldElement or QuadExt values.  Returns -1 or +1, refining
    both enclosures from 80 bits until they separate.  Equal values never
    separate, so they raise PrecisionExhausted at the precision cap, as
    does any pair closer than the cap can resolve.
    """
    def decide(p):
        ea, eb = a.embed_raw(p), b.embed_raw(p)
        # cross-multiplied by the positive denominators
        if ea.hi_num * eb.den < eb.lo_num * ea.den:
            order = -1
        elif eb.hi_num * ea.den < ea.lo_num * eb.den:
            order = 1
        else:
            order = None
        return order, (ea, eb)

    return _refine(decide, 80, "comparison undecided")
