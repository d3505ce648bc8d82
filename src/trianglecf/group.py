"""Moebius matrices over the trace field and the triangle-group generators.

The group is generated by a parabolic translation A of width tau = 1 + lambda,
an order-n elliptic B, and the order-3 elliptic C = -AB; the parabolic
W = A^-1 B^-2 A^-1 B^-1 fixes -tau and drives the accelerated interval map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .field import FieldElement, NumberField, _power
from .quadratic import QuadExt


class _Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


class Mobius:
    """2x2 matrix over K or K(sqrt(D)) acting projectively on R u {oo}; ints
    and Fractions become elements of K, other entries are kept as given."""

    __slots__ = ("field", "a", "b", "c", "d")

    def __init__(self, field: NumberField, a, b, c, d):
        self.field = field
        self.a, self.b, self.c, self.d = [
            field.from_fraction(e) if isinstance(e, (int, Fraction)) else e
            for e in (a, b, c, d)]

    @staticmethod
    def identity(field: NumberField) -> "Mobius":
        return Mobius(field, 1, 0, 0, 1)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return (
            f"Mobius(n={self.field.n}, [[{self.a.to_json()}, {self.b.to_json()}], "
            f"[{self.c.to_json()}, {self.d.to_json()}]])"
        )

    def __mul__(self, other: "Mobius") -> "Mobius":
        if not isinstance(other, Mobius):
            return NotImplemented
        return Mobius(
            self.field,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mobius":
        return Mobius(self.field, -self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Mobius":
        # adjugate; valid because det = 1
        return Mobius(self.field, self.d, -self.b, -self.c, self.a)

    def __pow__(self, k: int) -> "Mobius":
        if not isinstance(k, int):
            return NotImplemented
        return _power(self, k, Mobius.identity(self.field))

    def trace(self) -> FieldElement:
        return self.a + self.d

    def det(self) -> FieldElement:
        return self.a * self.d - self.b * self.c

    def proj_eq(self, other: "Mobius") -> bool:
        """Equal in PSL(2): the same matrix up to a sign."""
        return self == other or self == -other

    def __eq__(self, other):
        if not isinstance(other, Mobius):
            return NotImplemented
        return self.entries() == other.entries()

    def __hash__(self):
        return hash(self.entries())

    def apply(self, x):
        """Projective action (ax+b)/(cx+d); exact on field-like values."""
        if x is INFINITY:
            if self.c.is_zero():
                return INFINITY
            return self.a / self.c
        num = self.a * x + self.b
        den = self.c * x + self.d
        if den.is_zero():
            return INFINITY
        return num / den

    def conjugate_by_rotation(self) -> "Mobius":
        """Conjugation by [[0,-1],[1,0]], used to pair x- and y-matrices:
        [[d, -c], [-b, a]], which is (M^T)^-1 when det M = 1.
        planar._check_branch_measure checks N_k against it for each digit."""
        return Mobius(self.field, self.d, -self.c, -self.b, self.a)

    def to_json(self):
        return [
            [self.a.to_json(), self.b.to_json()],
            [self.c.to_json(), self.d.to_json()],
        ]


class Generators(NamedTuple):
    A: Mobius
    B: Mobius
    C: Mobius
    W: Mobius


def check_sl2(M: Mobius, name: str) -> None:
    """Decide that M lies in SL2(Z[lambda]): every entry an integral
    vector (den == 1) and det M = 1.  Z[lambda] is the ring of integers of
    K (Washington, GTM 83, Prop. 2.16), so this is the Hilbert modular
    group of K.  Raises ConsistencyError naming the matrix otherwise."""
    if any(e.den != 1 for e in M.entries()):
        raise ConsistencyError(f"{name} has an entry outside Z[lambda]")
    if M.det() != 1:
        raise ConsistencyError(f"{name} has determinant other than 1")


@lru_cache(maxsize=None)
def generators(field: NumberField) -> Generators:
    """Standard-form generators: cusps at 0, 1 and infinity.

    A = [[1, tau], [0, 1]], B = [[lambda, 1], [-1, 0]], C = [[1, -1], [1, 0]],
    and the parabolic W = [[tau^2+1, tau^3], [-tau, -tau^2+1]] fixing -tau.
    """
    tau = field.tau
    A = Mobius(field, 1, tau, 0, 1)
    B = Mobius(field, field.lam, 1, -1, 0)
    C = Mobius(field, 1, -1, 1, 0)
    t2 = tau * tau
    W = Mobius(field, t2 + 1, t2 * tau, -tau, -t2 + 1)
    for name, M in zip("ABCW", (A, B, C, W)):
        check_sl2(M, name)
    return Generators(A, B, C, W)


def digit_matrix(field: NumberField, k: int) -> Mobius:
    """Branch matrix of the accelerated map: A^-k C for k >= 1, W^j for k = -j."""
    if k == 0:
        raise DomainError("digit 0 does not exist")
    if k >= 1:
        # A^-k C = [[1 - k tau, -1], [1, 0]]
        return Mobius(field, 1 - field.tau * k, -1, 1, 0)
    j = -k
    # W^j = [[1 + j tau^2, j tau^3], [-j tau, 1 - j tau^2]]
    tau = field.tau
    t2 = tau * tau
    return Mobius(field, 1 + t2 * j, t2 * tau * j, -tau * j, 1 - t2 * j)


def y_matrix(field: NumberField, k: int) -> Mobius:
    """Second-coordinate matrix: the rotation conjugate of digit_matrix.

    For k >= 1 this is N_k = [[0, -1], [1, 1 - k tau]].
    """
    if k >= 1:
        return Mobius(field, 0, -1, 1, 1 - field.tau * k)
    j = -k
    tau = field.tau
    t2 = tau * tau
    # conjugate of W^j by [[0,-1],[1,0]]
    return Mobius(field, 1 - t2 * j, tau * j, -t2 * tau * j, 1 + t2 * j)


def b_sequence(field: NumberField, k: int) -> FieldElement:
    """Recurrence B_0 = 0, B_1 = 1, B_{k+1} = lambda B_k - B_{k-1}.

    Equals sin(k pi/n)/sin(pi/n) under the real embedding; B^j has entries
    [[B_{j+1}, B_j], [-B_j, -B_{j-1}]].
    """
    if k < 0:
        raise DomainError("b_sequence index must be >= 0")
    b, b_next = field.zero, field.one
    for _ in range(k):
        b, b_next = b_next, field.lam * b_next - b
    return b


def rotation_conjugation_check(field: NumberField) -> dict:
    """Exactly confirm that P = [[1, cos(pi/n)], [0, sin(pi/n)]] conjugates
    the rotation-form generators to A and B: P A = sigma P and P B = beta P,
    where sigma translates by cot(pi/2n) + cot(pi/n) and beta rotates by pi/n.

    The entries live in K(sqrt(D)), D = 4 - lambda^2: cos(pi/n) = lambda/2,
    sin(pi/n) = sqrt(D)/2 and cot(pi/2n) + cot(pi/n) = tau/sin(pi/n).  For
    even n, D is a square in K, so a QuadExt here is an element of the ring
    K[X]/(X^2 - D), not of a field.  The check uses only ring operations,
    the inverse of sin(pi/n) (norm -D/4 != 0) and equality of the parts
    (u, v); X -> sqrt(D) is a ring map into R, so formal equality implies
    real equality for any D != 0.  No sign, zero test or order is taken on
    these values.  Raises ConsistencyError on a mismatch.
    """
    disc = 4 - field.lam * field.lam

    def q(u, v=0):
        return QuadExt(field, u, v, disc)

    c = q(field.lam * Fraction(1, 2))
    s = q(0, Fraction(1, 2))
    P = Mobius(field, q(1), c, q(0), s)
    sigma = Mobius(field, q(1), s.inverse() * field.tau, q(0), q(1))
    beta = Mobius(field, c, s, -s, c)
    g = generators(field)
    if P * g.A != sigma * P:
        raise ConsistencyError("P A != sigma P: A is not the conjugate translation")
    if P * g.B != beta * P:
        raise ConsistencyError("P B != beta P: B is not the conjugate rotation")
    return {"n": field.n, "ok": True}
