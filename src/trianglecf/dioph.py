"""Approximants, Diophantine approximation coefficients, and the region of
persistently poor approximation.

The running product of branch matrices encodes the approximants p_m/q_m;
theta(x, y) = -x/(1+xy) evaluated along the planar orbit of (x, 0) gives the
coefficient sequence q_m^2 |x - p_m/q_m| without any subtraction, which keeps
the exact lane exact and the float lane free of cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ConsistencyError, DomainError
from .field import FieldElement, NumberField
from .dynamics import branch, cylinder_of_f, digit_of
from .group import Mobius
from .planar import (
    T_inverse,
    _log_big_fraction,
    branch_step,
    build_gamma,
    build_heights,
    gamma_hyperbola_gap,
)
from .quadratic import QuadExt, compare_numeric, solve_fixed_points


class ConvergentState:
    """Running product M_{k_m} ... M_{k_1}, read as [[q, -p], [-q_prev, p_prev]]."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Mobius):
        self.matrix = matrix

    @staticmethod
    def initial(field: NumberField) -> "ConvergentState":
        return ConvergentState(Mobius.identity(field))

    def advance(self, M: Mobius) -> "ConvergentState":
        return ConvergentState(M * self.matrix)

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

    def reconstruct(self, t):
        """x from t = f^m(x): (p_prev t + p)/(q_prev t + q)."""
        return (self.p_prev * t + self.p) / (self.q_prev * t + self.q)


def theta_fn(x, y):
    """theta(x, y) = -x/(1 + xy); DomainError on the hyperbola."""
    den = 1 + x * y
    if den.is_zero():
        raise DomainError("theta undefined on 1 + xy = 0")
    return -x / den


@dataclass
class ExpansionResult:
    x0: object
    digits: list
    thetas: list      # Theta_0 .. Theta_M  (exact absolute values)
    states: list      # ConvergentState per index
    f_rational: bool = False

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

    def theta_floats(self):
        return [float(t) for t in self.thetas]

    def window_mins(self, n: int):
        """min over Theta_{m-1..m+n-1} for m = 1..M-n+1 (n+1 values each)."""
        th = self.theta_floats()
        out = []
        for m in range(1, len(th) - n):
            out.append(min(th[m - 1 : m + n]))
        return out


def _equal_up_to_sign(a, b) -> bool:
    return a == b or a == -b


def expand(
    field: NumberField,
    x,
    steps: int,
    check_natural_extension: bool = False,
) -> ExpansionResult:
    """Exact accelerated expansion with the full theta cross-check.

    x is an element of K, or of K(sqrt D) for a quadratic point.  With
    P_m = [[q, -p], [-q_prev, p_prev]] the running product, t_m = P_m x =
    A/B for A = q x - p and B = p_prev - q_prev x.  The loop carries the
    q-scaled forms qA and qB, of size about 1: |qA| is Theta_m, and the
    next digit is decided from the signs of linear combinations of qA and
    qB (dynamics.digit_of), so no step divides.  The v-recurrence, the
    (t, v) and successor forms of Theta and the reconstruction of x are
    asserted as cross-multiplied identities; any disagreement raises
    ConsistencyError.  t_m and v_m are built only when read
    (ExpansionResult.ts, .vs).
    """
    state = ConvergentState.initial(field)
    res = ExpansionResult(x0=x, digits=[], thetas=[abs(x)], states=[state])
    gamma = build_gamma(field) if check_natural_extension else None
    qA, qB = x, field.one
    for m in range(1, steps + 1):
        k = digit_of(field, qA, qB)
        if k is None:
            res.f_rational = True
            break
        b = branch(field, k)
        state_new = state.advance(b.M)
        P = state_new.matrix
        q, q_prev, p, p_prev = P.a, -P.c, -P.b, P.d
        qA, qB = q * (P.a * x + P.b), q * (P.c * x + P.d)
        theta = abs(qA)
        # v = q_prev/q must follow the second-coordinate action N v
        N, q0, q0_prev = b.N, state.q, state.q_prev
        if (N.a * q0_prev + N.b * q0) * q != q_prev * (N.c * q0_prev + N.d * q0):
            raise ConsistencyError("v-recurrence disagrees with matrix action")
        # with t = A/B and v = q_prev/q, 1 + t v = D / (q qB) for
        # D = q qB + q_prev qA = q det P_m, so Theta_m = |t/(1 + t v)| =
        # |q qA / D| is the direct |qA| exactly when det P_m = 1
        D = q * qB + q_prev * qA
        if D != q:
            raise ConsistencyError("det P_m != 1: direct and planar theta disagree")
        # successor form of Theta_{m-1} where the new branch is A^-k C:
        # |v/(1 + t v)| = |q_prev qB / D|
        if k >= 1 and not _equal_up_to_sign(res.thetas[-1] * D, q_prev * qB):
            raise ConsistencyError("successor theta form disagrees")
        # reconstruction: x = (p_prev t + p)/(q_prev t + q) = (p_prev qA + p qB) / D
        if x * D != p_prev * qA + p * qB:
            raise ConsistencyError("reconstruction identity failed")
        if gamma is not None:
            t_new, v_new = P.apply(x), state_new.v()
            if not gamma.contains(t_new, v_new):
                raise ConsistencyError("(t, v) left the natural-extension domain")
        state = state_new
        res.digits.append(k)
        res.thetas.append(theta)
        res.states.append(state)
    return res


def danger_region_contains(field: NumberField, point, validate: bool = True) -> bool:
    """Both theta(P) > tau and theta(T^-1 P) > tau.

    Where the predecessor is a continued-fraction branch this is equivalent
    to lying above both curves y = -1/x - 1/tau and y = tau/(1 - tau x).
    """
    x, y = point
    if validate and not build_gamma(field).contains(x, y):
        raise DomainError("point outside Gamma")
    tau = field.tau
    if not theta_fn(x, y) > tau:
        return False
    pre = T_inverse(field, point, validate=False)
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
    for r in build_gamma(field).rects():
        v = theta_fn(r.x_lo, r.y_hi)
        if best is None or best < v:
            best = v
    return best


@dataclass
class PeriodicPoint:
    j: int
    x: QuadExt
    y: QuadExt
    disc: FieldElement
    quad_coeffs: tuple        # (c, d - a, -b): c x^2 + (d-a) x - b = 0 over K
    digits: tuple             # T-digit word along one period
    theta_min: QuadExt        # theta at the point itself
    theta_orbit: tuple
    full_run_above_tau: bool = False  # all n-2 other orbit thetas exceed tau


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

    gamma = build_gamma(field)
    if not gamma.contains(chosen, y):
        raise ConsistencyError("periodic point escaped Gamma")

    # verify exact T-periodicity with the expected digit word
    digits = []
    pt = (chosen, y)
    for _ in range(n - 1):
        k = cylinder_of_f(field, pt[0])
        digits.append(k)
        pt = branch_step(field, k, pt)
    if pt != (chosen, y):
        raise ConsistencyError("orbit failed to close after n-1 steps")
    if digits != [2, -j] + [1] * (n - 3):
        raise ConsistencyError(f"unexpected periodic digit word {digits}")

    # theta along the orbit: minimal at the point itself, below tau there
    thetas = []
    pt = (chosen, y)
    for k in [None] + digits[:-1]:
        if k is not None:
            pt = branch_step(field, k, pt)
        thetas.append(theta_fn(pt[0], pt[1]))
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


def periodic_family_report(field: NumberField, j_max: int = 10) -> dict:
    """theta(P_j) increases strictly towards tau along the family."""
    pts = [periodic_point(field, j) for j in range(1, j_max + 1)]
    for a, b in zip(pts, pts[1:]):
        if compare_numeric(a.theta_min, b.theta_min) >= 0:
            raise ConsistencyError("theta(P_j) failed to increase in j")
    tau = field.tau
    gaps = [float(tau.embed(60).mid() - p.theta_min.embed(60).mid()) for p in pts]
    limit_x = branch(field, 1).hi
    limit_y = build_heights(field).level(2 * field.n - 5)
    last = pts[-1]
    dist = abs(float(last.x) - float(limit_x)) + abs(float(last.y) - float(limit_y))
    return {
        "n": field.n,
        "j_max": j_max,
        "theta_values": [float(p.theta_min) for p in pts],
        "tau_gaps": gaps,
        "limit_distance": dist,
        "ok": all(g > 0 for g in gaps) and gaps[-1] < gaps[0],
    }


def convergence_witness_exact(field: NumberField, x, steps: int = 40) -> dict:
    """Exact spot-check of the q-ratio bound and the hyperbola-gap estimate."""
    res = expand(field, x, steps)
    tau = field.tau
    gap = gamma_hyperbola_gap(field)
    max_v = field.zero
    min_one_plus_tv = None
    for t, v in zip(res.ts[1:], res.vs[1:]):
        if v > max_v:
            max_v = v
        opv = 1 + t * v
        if min_one_plus_tv is None or opv < min_one_plus_tv:
            min_one_plus_tv = opv
    if not max_v <= tau:
        raise ConsistencyError("q-ratio bound q_m/q_{m+1} <= tau failed")
    if min_one_plus_tv is not None and not min_one_plus_tv >= gap:
        raise ConsistencyError("orbit came closer to the hyperbola than Gamma allows")
    return {
        "steps": len(res.digits),
        "max_v": float(max_v),
        "min_one_plus_tv": float(min_one_plus_tv) if min_one_plus_tv is not None else None,
        "hyperbola_gap": float(gap),
        "f_rational": res.f_rational,
    }


def log_q_sequence(field: NumberField, x, steps: int) -> list:
    """log |q_m| along an exact expansion (for the growth statistic)."""
    res = expand(field, x, steps)
    logs = []
    for st in res.states[1:]:
        val = abs(st.q.embed(60).mid())
        if val == 0:
            raise ConsistencyError("vanishing q along an expansion")
        logs.append(_log_big_fraction(val))
    return logs


def transcendence_indicator(
    log_qs,
    degree: int,
    margin: float = 0.05,
    tail_fraction: float = 0.5,
) -> dict:
    """Growth screen: flags limsup (log log q_m)/m above log(2d - 1).

    A finite sample cannot certify a strict limsup inequality, so the
    verdict requires clearing the threshold by `margin` on the tail window.
    """
    if len(log_qs) < 10:
        raise DomainError("need at least 10 convergents")
    stats = []
    for m, lq in enumerate(log_qs, start=1):
        if lq > 1.0:
            stats.append((m, math.log(lq) / m))
    if not stats:
        statistic = 0.0
    else:
        tail_start = stats[-1][0] * (1 - tail_fraction)
        tail = [s for m, s in stats if m >= tail_start] or [stats[-1][1]]
        statistic = max(tail)
    threshold = math.log(2 * degree - 1)
    return {
        "statistic": statistic,
        "threshold": threshold,
        "margin": margin,
        "flagged": statistic > threshold + margin,
        "count": len(log_qs),
    }
