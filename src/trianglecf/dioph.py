"""Approximants, Diophantine approximation coefficients, and the region of
persistently poor approximation.

The running product of branch matrices encodes the approximants p_m/q_m;
theta(x, y) = -x/(1+xy) evaluated along the planar orbit of (x, 0) gives the
coefficient sequence q_m^2 |x - p_m/q_m| without any subtraction, which keeps
the exact lane exact and the float lane free of cancellation.

Every result here is exact.  The float reports read from these results
(log q_m, the growth screen, the periodic family's gaps to tau) live in
`measure`.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import add, neg

# the planar layer is reached through the package, which imports it on
# first use: an expansion without the natural-extension check never loads
# planar
import trianglecf
from .errors import ConsistencyError, DomainError
from .field import FieldElement, NumberField, _element, _new
from .dynamics import branch, cylinder_of_f, digit_of
from .group import Mobius
from .quadratic import QuadExt, solve_fixed_points


class ConvergentState:
    """Running product M_{k_m} ... M_{k_1}, read as [[q, -p], [-q_prev, p_prev]]."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Mobius):
        self.matrix = matrix

    @staticmethod
    def initial(field: NumberField) -> "ConvergentState":
        return ConvergentState(Mobius.identity(field))

    @property
    def q(self):
        return self.matrix.a

    @property
    def p(self):
        return -self.matrix.b

    @property
    def q_prev(self):
        return -self.matrix.c

    @property
    def p_prev(self):
        return self.matrix.d

    def det(self):
        return self.matrix.det()

    def v(self):
        """q_{m-1}/q_m, the second natural-extension coordinate."""
        return self.q_prev / self.q

    def approximant(self):
        return self.p / self.q


def theta_fn(x, y):
    """theta(x, y) = -x/(1 + xy); DomainError on the hyperbola."""
    den = 1 + x * y
    if den.is_zero():
        raise DomainError("theta undefined on 1 + xy = 0")
    return -x / den


class ExpansionResult:
    def __init__(self, x0, digits: list, thetas: list, states: list,
                 f_rational: bool = False):
        self.x0 = x0
        self.digits = digits
        self.thetas = thetas            # Theta_0 .. Theta_M  (exact absolute values)
        self.states = states            # ConvergentState per index
        self.f_rational = f_rational

    @cached_property
    def ts(self) -> list:
        """t_0 .. t_M, t_m = P_m x0, built on the first read with one
        inversion per step."""
        return [st.matrix.apply(self.x0) for st in self.states]

    @cached_property
    def vs(self) -> list:
        """v_0 .. v_M, v_m = q_{m-1}/q_m, built on the first read with one
        inversion of q_m per step."""
        return [st.v() for st in self.states]


# Integer vectors: a coefficient vector of Z[lambda] is a tuple of d ints.  A
# start point x = X / delta has X integral and delta a positive integer; X
# and every value linear in it (an "X-form") is a tuple of vectors, one for
# x in K and two, the parts u and v of u + v sqrt(D), for x in K(sqrt(D)).

def _vadd(a, b):
    return tuple(map(add, a, b))


def _vneg(a):
    return tuple(map(neg, a))


def _vscale(k: int, a):
    return tuple([k * c for c in a])


def _integral(M: Mobius) -> tuple:
    """The entries of a branch matrix as integer vectors."""
    a, b, c, d = M.a, M.b, M.c, M.d
    if not a.den == b.den == c.den == d.den == 1:
        raise ConsistencyError("branch matrix has an entry outside Z[lambda]")
    return a.num, b.num, c.num, d.num


def _clear_denominator(x) -> tuple:
    """(X, delta) with x = X / delta, X an X-form and delta > 0 an integer."""
    if isinstance(x, QuadExt):
        delta = math.lcm(x.u.den, x.v.den)
        return tuple(_vscale(delta // e.den, e.num) for e in (x.u, x.v)), delta
    return (x.num,), x.den


def expand(
    field: NumberField,
    x,
    steps: int,
    check_natural_extension: bool = False,
) -> ExpansionResult:
    """Exact accelerated expansion with the full theta cross-check.

    x is an element of K, or of K(sqrt D) for a quadratic point.  With
    P_m = [[q, -p], [-q_prev, p_prev]] the running product, t_m = P_m x =
    A/B for A = q x - p and B = p_prev - q_prev x.  Every branch matrix,
    and so P_m, has entries in Z[lambda], so with x = X/delta for X
    integral and delta a positive integer the loop runs on integer
    coefficient vectors through the field's product kernel: it carries
    P_m and the scaled forms A^ = delta q A and B^ = delta q B, which are
    integral and linear in X.  |A^|/delta is Theta_m, and the next digit
    is decided from the signs of linear combinations of A^ and B^
    (dynamics.digit_of), so no step divides and the only content gcd is
    the one that reduces Theta_m.  With D^ = q B^ + q_prev A^ the
    identities are asserted cross-multiplied: det P_m = 1 as D^ = delta q,
    the successor form of Theta_(m-1) as |A^_(m-1)| D^ = +-delta q_prev B^
    (A^_0 = X), the reconstruction of x as X D^ = delta (p_prev A^ + p B^),
    and the v-recurrence; any disagreement raises ConsistencyError.  t_m
    and v_m are built only when read (ExpansionResult.ts, .vs).
    DomainError unless steps >= 0 and -tau <= x < 0.
    """
    if steps < 0:
        raise DomainError(f"steps must be at least 0, got {steps}")
    if not (-field.tau <= x and x < field.zero):
        raise DomainError("x outside the interval [-tau, 0)")
    mul = field._mul
    X, delta = _clear_denominator(x)
    disc = x.disc if isinstance(x, QuadExt) else None

    def real(F, den=None):
        """The X-form F as an exact real: F/1 built as it is, or F/den
        divided by its content gcd."""
        parts = [_new(field, f, 1) if den is None else _element(field, f, den) for f in F]
        return parts[0] if disc is None else QuadExt(field, *parts, disc)

    if disc is None:
        def times(s, F):
            return (mul(s, F[0]),)
    else:
        def times(s, F):
            return (mul(s, F[0]), mul(s, F[1]))

    def affine(s, t, F):
        """s F + delta t for vectors s, t: t enters the rational part."""
        sF = times(s, F)
        return (_vadd(sF[0], _vscale(delta, t)),) + sF[1:]

    def constant(c):
        """The vector c of Z[lambda] as an X-form."""
        return (c,) + (zero,) * (len(X) - 1)

    one, zero = field.one.num, field.zero.num
    state = ConvergentState.initial(field)
    res = ExpansionResult(x0=x, digits=[], thetas=[abs(x)], states=[state])
    gamma = trianglecf.planar.build_gamma(field) if check_natural_extension else None
    a, b, c, d = one, zero, zero, one
    abs_A = X if x.sign() >= 0 else tuple(map(_vneg, X))
    A_hat, B_hat = X, constant(_vscale(delta, one))
    A_real, B_real = real(A_hat), real(B_hat)
    for m in range(1, steps + 1):
        k = digit_of(field, A_real, B_real)
        if k is None:
            res.f_rational = True
            break
        br = branch(field, k)
        ma, mb, mc, md = _integral(br.M)
        na, nb, nc, nd = _integral(br.N)
        q0, q0_prev = a, _vneg(c)
        a, b, c, d = (_vadd(mul(ma, a), mul(mb, c)), _vadd(mul(ma, b), mul(mb, d)),
                      _vadd(mul(mc, a), mul(md, c)), _vadd(mul(mc, b), mul(md, d)))
        q, q_prev, p, p_prev = a, _vneg(c), _vneg(b), d
        A_hat, B_hat = times(q, affine(a, b, X)), times(q, affine(c, d, X))
        # v = q_prev/q must follow the second-coordinate action N v
        if (mul(_vadd(mul(na, q0_prev), mul(nb, q0)), q)
                != mul(q_prev, _vadd(mul(nc, q0_prev), mul(nd, q0)))):
            raise ConsistencyError("v-recurrence disagrees with matrix action")
        # with t = A/B and v = q_prev/q, 1 + t v = D / (q qB) for
        # D = q qB + q_prev qA = q det P_m, so Theta_m = |t/(1 + t v)| =
        # |q qA / D| is the direct |qA| exactly when det P_m = 1; scaled by
        # delta, D^ = delta D
        D_hat = tuple(map(_vadd, times(q, B_hat), times(q_prev, A_hat)))
        if D_hat != constant(_vscale(delta, q)):
            raise ConsistencyError("det P_m != 1: direct and planar theta disagree")
        D = D_hat[0]
        # successor form of Theta_{m-1} where the new branch is A^-k C:
        # |v/(1 + t v)| = |q_prev qB / D|
        if k >= 1:
            lhs, rhs = times(D, abs_A), times(_vscale(delta, q_prev), B_hat)
            if lhs != rhs and lhs != tuple(map(_vneg, rhs)):
                raise ConsistencyError("successor theta form disagrees")
        # reconstruction: x = (p_prev t + p)/(q_prev t + q) = (p_prev qA + p qB) / D
        if times(D, X) != tuple(_vscale(delta, _vadd(f, g)) for f, g in
                                zip(times(p_prev, A_hat), times(p, B_hat))):
            raise ConsistencyError("reconstruction identity failed")
        state = ConvergentState(Mobius(field, *(_new(field, e, 1) for e in (a, b, c, d)),
                                       check=False))
        if gamma is not None:
            t_new, v_new = state.matrix.apply(x), state.v()
            if not gamma.contains(t_new, v_new):
                raise ConsistencyError("(t, v) left the natural-extension domain")
        A_real, B_real = real(A_hat), real(B_hat)
        abs_A = A_hat if A_real.sign() >= 0 else tuple(map(_vneg, A_hat))
        res.digits.append(k)
        res.thetas.append(real(abs_A, delta))
        res.states.append(state)
    return res


def danger_region_contains(field: NumberField, point) -> bool:
    """Both theta(P) > tau and theta(T^-1 P) > tau.

    Where the predecessor is a continued-fraction branch this is equivalent
    to lying above both curves y = -1/x - 1/tau and y = tau/(1 - tau x).
    """
    x, y = point
    if not trianglecf.planar.build_gamma(field).contains(x, y):
        raise DomainError("point outside Gamma")
    tau = field.tau
    if not theta_fn(x, y) > tau:
        return False
    pre = trianglecf.planar._preimage(field, x, y)
    return theta_fn(pre[0], pre[1]) > tau


def danger_curves_exceeded(field: NumberField, point) -> bool:
    """Curve form of the danger test, valid off the acceleration bands."""
    x, y = point
    tau = field.tau
    above_first = y > (-1 / x) - tau.inverse()
    above_second = y > tau / (1 - tau * x)
    return bool(above_first and above_second)


def sup_theta_gamma(field: NumberField) -> FieldElement:
    """Exact supremum of theta over Gamma.

    theta decreases in x and increases in y, so the sup over a rectangle
    sits at its upper-left corner."""
    best = None
    for r in trianglecf.planar.build_gamma(field).rects():
        v = theta_fn(r.x_lo, r.y_hi)
        if best is None or best < v:
            best = v
    return best


class PeriodicPoint:
    def __init__(self, j: int, x: QuadExt, y: QuadExt, disc: FieldElement,
                 quad_coeffs: tuple, digits: tuple, theta_min: QuadExt,
                 theta_orbit: tuple, full_run_above_tau: bool = False):
        self.j = j
        self.x = x
        self.y = y
        self.disc = disc
        self.quad_coeffs = quad_coeffs  # (c, d - a, -b): c x^2 + (d-a) x - b = 0 over K
        self.digits = digits            # T-digit word along one period
        self.theta_min = theta_min      # theta at the point itself
        self.theta_orbit = theta_orbit
        self.full_run_above_tau = full_run_above_tau  # all n-2 other orbit thetas exceed tau


def periodic_point(field: NumberField, j: int) -> PeriodicPoint:
    """The period-(n-1) T-orbit threading the j-th acceleration cylinder.

    x_j is the fixed point of M_1^{n-3} W^j M_2 lying in the digit-2
    cylinder; the companion y_j is -1/x* for the conjugate fixed point x*,
    and the whole orbit is verified exactly in K(sqrt(disc))."""
    if j < 1:
        raise DomainError("periodic family starts at j = 1")
    n = field.n
    b2, bj = branch(field, 2), branch(field, -j)
    M = (branch(field, 1).M ** (n - 3)) * bj.M * b2.M
    r_plus, r_minus, disc = solve_fixed_points(M)

    chosen = None
    other = None
    for cand, alt in ((r_plus, r_minus), (r_minus, r_plus)):
        if b2.lo <= cand and cand < b2.hi:
            img = b2.M.apply(cand)
            if bj.lo <= img and img < bj.hi:
                chosen, other = cand, alt
                break
    if chosen is None:
        raise ConsistencyError("no fixed point found in the digit-2 cylinder")
    y = -(other.inverse())

    gamma = trianglecf.planar.build_gamma(field)
    if not gamma.contains(chosen, y):
        raise ConsistencyError("periodic point escaped Gamma")

    # verify exact T-periodicity with the expected digit word, and take
    # theta along the orbit: minimal at the point itself, below tau there
    digits, thetas = [], []
    pt = (chosen, y)
    for _ in range(n - 1):
        thetas.append(theta_fn(pt[0], pt[1]))
        k = cylinder_of_f(field, pt[0])
        digits.append(k)
        pt = trianglecf.planar.branch_step(field, k, pt)
    if pt != (chosen, y):
        raise ConsistencyError("orbit failed to close after n-1 steps")
    if digits != [2, -j] + [1] * (n - 3):
        raise ConsistencyError(f"unexpected periodic digit word {digits}")
    tau = field.tau
    if not thetas[0] < tau:
        raise ConsistencyError("theta at the periodic point is not below tau")
    for th in thetas[1:]:
        if not thetas[0] < th:
            raise ConsistencyError("theta minimum not at the periodic point")

    a, b, c, d = M.entries()
    return PeriodicPoint(
        j=j,
        x=chosen,
        y=y,
        disc=disc,
        quad_coeffs=(c, d - a, -b),
        digits=tuple(digits),
        theta_min=thetas[0],
        theta_orbit=tuple(thetas),
        full_run_above_tau=all(th > tau for th in thetas[1:]),
    )
