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
from operator import add, neg, sub

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
    """An exact expansion of x0 by expand: its digits, f_rational, and per
    index m = 0 .. M what the loop keeps, the running matrix P_m as four
    integer vectors (a, b, c, d) = (q, -p, -q_prev, p_prev) and A^_m, the
    exact real delta q_m A_m, with Theta_m = |A^_m| / delta.  The lists
    states, thetas, ts and vs are built on their first read; state(m) and
    theta(m) build one entry."""

    def __init__(self, x0, digits: list, matrices: list, a_hats: list, delta: int,
                 f_rational: bool = False):
        self.x0 = x0
        self.digits = digits
        self.matrices = matrices
        self.a_hats = a_hats
        self.delta = delta
        self.f_rational = f_rational

    def state(self, m: int) -> ConvergentState:
        """The ConvergentState of index m, built from P_m's vectors."""
        field = self.x0.field
        return ConvergentState(Mobius(field, *(_new(field, e, 1) for e in self.matrices[m])))

    def qs(self, m: int) -> tuple:
        """(q_prev, q) of index m, elements of K with v_m = q_prev/q."""
        field = self.x0.field
        a, _, c, _ = self.matrices[m]
        return _new(field, _vneg(c), 1), _new(field, a, 1)

    def theta(self, m: int):
        """Theta_m, exact: |x0| at m = 0, else |A^_m| / delta divided by
        its content gcd."""
        if m == 0:
            return abs(self.x0)
        A = self.a_hats[m]
        if A.sign() < 0:
            A = -A
        if isinstance(A, QuadExt):
            return QuadExt(A.field, *(_element(A.field, e.num, self.delta) for e in (A.u, A.v)),
                           A.disc)
        return _element(A.field, A.num, self.delta)

    @cached_property
    def states(self) -> list:
        """The ConvergentState of each index, P_0 = 1 first."""
        return [self.state(m) for m in range(len(self.matrices))]

    @cached_property
    def thetas(self) -> list:
        """Theta_0 .. Theta_M, exact absolute values."""
        return [self.theta(m) for m in range(len(self.matrices))]

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


def _vsub(a, b):
    return tuple(map(sub, a, b))


def _vscale(k: int, a):
    return tuple([k * c for c in a])


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
    A/B for A = q x - p and B = p_prev - q_prev x.  dynamics.branch decides
    that every branch matrix lies in SL2(Z[lambda]), so the loop reads
    their entries' integer vectors, and with x = X/delta for X integral
    and delta a positive integer it runs on integer coefficient vectors
    through the field's product kernel: it carries
    P_m and the scaled forms A^ = delta q A and B^ = delta q B, which are
    integral and linear in X.  |A^|/delta is Theta_m, and the next digit
    is decided from A^ and B^ (dynamics.digit_of, from their balls), so no
    step divides or takes a content gcd.  The step reads each branch matrix's form once per
    expansion: for M = [[s, -1], [1, 0]] = A^-k C and N = [[0, -1], [1, s]],
    found in the entries themselves, P_m is updated as (a, b, c, d) <-
    (s a - c, s b - d, a, b) in 2 kernel products and the v-recurrence
    checked as -q0 q = q_prev (q0_prev + s q0) in 3, and the new second
    row's a X + delta b is the old first row's; a W^j step takes the
    general 8 and 6 products.  A continued-fraction step so makes 15
    products in all, and a W^j step 23.  With
    D^ = q B^ + q_prev A^ the identities are asserted cross-multiplied:
    det P_m = 1 as D^ = delta q, the successor form of Theta_(m-1) as
    A^_(m-1) D^ = +-delta q_prev B^ (A^_0 = X), the reconstruction of x as
    X D^ = delta (p_prev A^ + p B^), and the v-recurrence; any
    disagreement raises ConsistencyError.  The result keeps P_m and A^_m;
    Theta_m, reduced by one content gcd, the states, t_m and v_m are built
    only when read (see ExpansionResult).
    DomainError unless steps >= 0 and -tau <= x < 0.
    """
    if steps < 0:
        raise DomainError(f"steps must be at least 0, got {steps}")
    if not (-field.tau <= x and x < field.zero):
        raise DomainError("x outside the interval [-tau, 0)")
    mul = field._mul
    X, delta = _clear_denominator(x)
    disc = x.disc if isinstance(x, QuadExt) else None

    def real(F):
        """The X-form F as an exact real, F/1 built as it is."""
        parts = [_new(field, f, 1) for f in F]
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
    gamma = trianglecf.planar.build_gamma(field) if check_natural_extension else None
    a, b, c, d = one, zero, zero, one
    A_hat, B_hat = X, constant(_vscale(delta, one))
    A_real, B_real = real(A_hat), real(B_hat)
    res = ExpansionResult(x0=x, digits=[], matrices=[(a, b, c, d)], a_hats=[A_real],
                          delta=delta)
    minus_one = _vneg(one)
    # digit -> (s, M's and N's entries) of its branch, decided once per
    # entry: s = 1 - k tau where M = [[s, -1], [1, 0]] = A^-k C and
    # N = [[0, -1], [1, s]], read from the entries themselves, else None
    forms = {}
    # a X + delta b of P_m's first row, which is P_(m+1)'s second row
    # after an A^-k C step
    first_row = affine(a, b, X)
    for m in range(1, steps + 1):
        k = digit_of(field, A_real, B_real)
        if k is None:
            res.f_rational = True
            break
        form = forms.get(k)
        if form is None:
            br = branch(field, k)
            M, N = [tuple(e.num for e in T.entries()) for T in (br.M, br.N)]
            a_k_c = M[1:] == (minus_one, one, zero) and N == (zero, minus_one, one, M[0])
            s = M[0] if a_k_c else None
            form = forms[k] = (s, M, N)
        s, (ma, mb, mc, md), (na, nb, nc, nd) = form
        q0, q0_prev = a, _vneg(c)
        if s is not None:
            a, b, c, d = _vadd(mul(s, a), q0_prev), _vsub(mul(s, b), d), a, b
            second_row = first_row
        else:
            a, b, c, d = (_vadd(mul(ma, a), mul(mb, c)), _vadd(mul(ma, b), mul(mb, d)),
                          _vadd(mul(mc, a), mul(md, c)), _vadd(mul(mc, b), mul(md, d)))
            second_row = affine(c, d, X)
        q, q_prev, p, p_prev = a, _vneg(c), _vneg(b), d
        A_prev = A_hat
        first_row = affine(a, b, X)
        A_hat, B_hat = times(q, first_row), times(q, second_row)
        # v = q_prev/q must follow the second-coordinate action N v; for
        # N = [[0, -1], [1, s]] that is -q0 q = q_prev (q0_prev + s q0)
        if s is not None:
            v_ok = _vneg(mul(q0, q)) == mul(q_prev, _vadd(q0_prev, mul(s, q0)))
        else:
            v_ok = (mul(_vadd(mul(na, q0_prev), mul(nb, q0)), q)
                    == mul(q_prev, _vadd(mul(nc, q0_prev), mul(nd, q0))))
        if not v_ok:
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
        # |v/(1 + t v)| = |q_prev qB / D|, asserted up to sign
        if k >= 1:
            lhs, rhs = times(D, A_prev), times(_vscale(delta, q_prev), B_hat)
            if lhs != rhs and lhs != tuple(map(_vneg, rhs)):
                raise ConsistencyError("successor theta form disagrees")
        # reconstruction: x = (p_prev t + p)/(q_prev t + q) = (p_prev qA + p qB) / D
        if times(D, X) != tuple(_vscale(delta, _vadd(f, g)) for f, g in
                                zip(times(p_prev, A_hat), times(p, B_hat))):
            raise ConsistencyError("reconstruction identity failed")
        res.matrices.append((a, b, c, d))
        if gamma is not None:
            state = res.state(m)
            if not gamma.contains(state.matrix.apply(x), state.v()):
                raise ConsistencyError("(t, v) left the natural-extension domain")
        A_real, B_real = real(A_hat), real(B_hat)
        res.digits.append(k)
        res.a_hats.append(A_real)
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
