"""The interval maps on [-tau, 0): the slow map g and the accelerated map f.

g applies A^-k C on the cylinder containing x; f additionally collapses the
whole excursion through the parabolic region (-tau, eps0) into a single
W^j step, which is what makes the invariant measure finite.  The digit
words of f are decided here too: which words the published restrictions
admit, and the exact cylinder of a word.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .field import (FieldElement, NumberField, _first_rung, _ratio_span, _refine,
                    get_precision_cap)
from .group import Mobius, check_sl2, digit_matrix, generators, y_matrix

# most (field, digit) entries the branch and cylinder-end tables keep; an
# evicted entry is rebuilt on its next use
BRANCH_CACHE_SIZE = 1024


@lru_cache(maxsize=None)
def eps0(field: NumberField) -> FieldElement:
    """Left endpoint of the non-accelerated region: W^-1 . 0 = -tau^3/(1+tau^2),
    the second form decided as a numerator identity (_sends)."""
    tau = field.tau
    value = -(tau ** 3) / (tau * tau + 1)
    if not _sends(generators(field).W.inverse(), field.zero, value):
        raise ConsistencyError("two expressions for eps0 disagree")
    return value


class Branch(NamedTuple):
    """Digit k of the accelerated map: the cylinder [lo, hi) of [-tau, 0),
    the matrices M (on x) and N (on y), and the image [image_lo, 0) = M [lo, hi)."""

    digit: int
    M: Mobius
    N: Mobius
    lo: FieldElement
    hi: FieldElement
    image_lo: FieldElement


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def cylinder_lo(field: NumberField, k: int) -> FieldElement:
    """Left end of the accelerated map's cylinder with digit k:
    1/(1 - (k - 1) tau) for k >= 2, eps0 for k = 1, and
    -tau + tau/((j + 1) tau^2 + 1) for k = -j.  branch reads it; digit_of
    decides the digit without building it."""
    if k >= 2:
        return (field.one - field.tau * (k - 1)).inverse()
    if k == 1:
        return eps0(field)
    tau = field.tau
    return -tau + tau / (tau * tau * (1 - k) + 1)


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def branch(field: NumberField, k: int) -> Branch:
    """The branch table of the accelerated map, one entry per digit.

    The slow map shares every entry except digit 1, whose cylinder starts
    at -tau instead of eps0.  M and N are decided to lie in SL2(Z[lambda])."""
    M, N = digit_matrix(field, k), y_matrix(field, k)
    check_sl2(M, f"branch {k} matrix M")
    check_sl2(N, f"branch {k} matrix N")
    # the cylinders tile [-tau, 0): each ends where the next one to the
    # right, digit k + 1 (or 1 after -1), starts
    lo, hi = cylinder_lo(field, k), cylinder_lo(field, k + 1 or 1)
    if not _sends(M, hi, field.zero):
        raise ConsistencyError(f"branch {k} does not send its right end to 0")
    if k == 1:
        return Branch(k, M, N, lo, hi, M.apply(lo))
    # M_k x = 1 - k tau - 1/x for k >= 2 sends lo = 1/(1 - (k - 1) tau)
    # to -tau; W^j sends the left end of its cylinder to eps0
    image_lo = -field.tau if k >= 2 else eps0(field)
    if not _sends(M, lo, image_lo):
        raise ConsistencyError(f"branch {k} does not send its left end to "
                               + ("-tau" if k >= 2 else "eps0"))
    return Branch(k, M, N, lo, hi, image_lo)


def _sends(M: Mobius, x: FieldElement, y: FieldElement) -> bool:
    """M x = y for M with integral entries, decided with no division: for
    x = X/D and y = Y/E, the integer vectors E (a X + b D) and
    Y (c X + d D) agree, and c X + d D is not zero."""
    mul = M.field._mul
    a, b, c, d = (e.num for e in M.entries())
    X, D = x.num, x.den
    top = [u + D * v for u, v in zip(mul(a, X), b)]
    bottom = tuple(u + D * v for u, v in zip(mul(c, X), d))
    return any(bottom) and [y.den * t for t in top] == list(mul(y.num, bottom))


def _span_digit(field: NumberField, A, B, p: int = 0):
    """The digit at t = A/B from the balls of A and B (_ExactReal.ball),
    each one known to fewer than 32 bits first made again at rung p when
    p > 0.  None when such a loose ball leaves the digit undecided, 0 when
    no rung can help: a ball is missing or below 2^-1000, or both are known
    to 32 bits and t lies too near a cylinder end or -tau for doubles.

    The span c -+ r of t (field._ratio_span), widened by (|c| + r) 2^-50
    for the rounding of its ends lo and hi, must lie in (-tau_lo, 0), with
    tau_lo <= tau <= tau_hi the ends of tau's ball at rung 64 rounded once
    more outward; that decides the three signs of the exact path.  Both of
    its closed forms, k - 1 = floor((1 - 1/t)/tau) and j - 1 =
    floor(t/(tau^2 (t + tau))), increase in t on (-tau, 0), so lo and hi,
    each with the end of tau that makes it outer, bound them.  In floats
    the first has three roundings and the second four, none cancelling
    (1 - 1/t adds two positive terms, lo + tau_lo is a positive sum of two
    doubles), so widening each bound by 2^-50 relative covers them and its
    own rounding.  When both ends give one digit, it is the digit."""
    balls, undecided = [], 0
    for E in (A, B):
        b = E.ball()
        if p and b is not None and not abs(b[0]) * 2.0 ** -32 > b[1]:
            b = E.ball(p)
        # no rung tightens a ball that is missing or below 2^-1000
        if b is None or not abs(b[0]) + b[1] > 2.0 ** -1000:
            return 0
        if not abs(b[0]) * 2.0 ** -32 > b[1]:
            undecided = None
        balls.append(b)
    span = _ratio_span(*balls)
    if span is None:
        return undecided
    c, r = span
    r += (abs(c) + r) * 2.0 ** -50
    lo, hi = c - r, c + r
    tau, tau_r = field.tau.ball(64)
    tau_lo, tau_hi = math.nextafter(tau - tau_r, -math.inf), math.nextafter(tau + tau_r, math.inf)
    if not (-tau_lo < lo and hi < 0):
        return undecided
    k_lo = (1 - 1 / lo) / tau_hi * (1 - 2.0 ** -50)
    k_hi = (1 - 1 / hi) / tau_lo * (1 + 2.0 ** -50)
    # past 2^52 the two bounds never floor alike; an infinity stops here too
    if not k_hi < 2.0 ** 52 or math.floor(k_lo) != math.floor(k_hi):
        return undecided
    k = math.floor(k_lo) + 1
    if k != 1:
        return k
    j_lo = lo / (tau_lo * tau_lo * (lo + tau_lo)) * (1 + 2.0 ** -50)
    j_hi = hi / (tau_hi * tau_hi * (hi + tau_hi)) * (1 - 2.0 ** -50)
    # the digit is j where it is at most -1, else 1
    ends = [j if j <= -1 else 1 for j in (math.floor(j_lo) + 1, math.floor(j_hi) + 1)]
    return ends[0] if ends[0] == ends[1] else undecided


def _exact_digit(field: NumberField, A, B):
    """The digit by exact signs and floors: the signs of B, of the cusp
    form C = A + tau B and of A, then (A - B) // (tau A) + 1 and, where that
    is 1, A // (tau^2 C) + 1 (see digit_of)."""
    s_b = B.sign()
    if s_b == 0:
        raise DomainError("zero denominator")
    tau = field.tau
    C = A + tau * B
    s_left = C.sign() * s_b
    if s_left < 0 or A.sign() * s_b >= 0:
        raise DomainError(f"point {A!r} / {B!r} outside [-tau, 0)")
    if s_left == 0:
        return None
    k = (A - B) // (tau * A) + 1
    if k == 1:
        j = A // (field.tau_squared * C) + 1
        if j <= -1:
            return j
    return k


def digit_of(field: NumberField, A, B):
    """Digit k of the accelerated map at t = A/B.

    A and B are exact reals (FieldElement or QuadExt) with B != 0, and k
    is the digit with branch(field, k).lo <= t < branch(field, k).hi.
    Returns None at the parabolic fixed point t = -tau, which lies in no
    cylinder; raises DomainError unless -tau <= t < 0.

    t is never formed and nothing is inverted.  The digit is the closed
    form of the float lane (numeric.step_scalar): k = floor((1 - 1/t)/tau)
    + 1, which is 1 on all of (-tau, 1/(1 - tau)), and there
    j = floor(t/(tau^2 (t + tau))) + 1, which is at most -1 exactly when
    t < eps0, and then the digit.  At a cylinder end, lo_k =
    1/(1 - (k - 1) tau) puts the first form at k - 1 and lo_-j = -tau +
    tau/((j + 1) tau^2 + 1) the second at -j - 1, so each end falls in its
    own cylinder.

    Cost.  The span of t between the balls that A and B keep decides most
    digits with a few float operations and no element built (_span_digit).
    A long orbit's coefficients grow while its values do not, so in the
    power basis its 53-bit balls lose about a third of a bit per step; once
    they have lost the digit, one _refine run makes the loose balls again
    up lambda's ladder from _first_rung, the rung the orbit has reached.
    Only a t that no span places, too near a cylinder end or -tau, beyond
    the double range or outside the interval, goes to the exact signs and
    floors of _exact_digit, each undecided one a _refine run; a digit past
    the floats, such as the first digit near 10^400 of x = -10^-400, is
    one run of its floor.
    """
    k = _span_digit(field, A, B)
    if k is None:
        cap = get_precision_cap()

        def decide(p):
            k = _span_digit(field, A, B, p)
            return (0 if k is None and p >= cap else k), None

        bits = max(A._scale_bits(), B._scale_bits())
        k = _refine(decide, _first_rung(field, bits), "digit undecided at {bits} bits")
    return k or _exact_digit(field, A, B)


def cylinder_of_g(field: NumberField, x) -> int:
    """Digit k >= 1 with x in the half-open cylinder of the slow map: the
    accelerated digit, or 1 on [-tau, eps0), the slow map's first cylinder."""
    k = digit_of(field, x, field.one)
    return 1 if k is None or k < 1 else k


def g_step(field: NumberField, x):
    """One slow-map step: returns (x', digit, matrix) with x' = M x =
    -k tau + 1 - 1/x."""
    k = cylinder_of_g(field, x)
    M = branch(field, k).M
    x_new = M.apply(x)
    if not (-field.tau <= x_new and x_new < 0):
        raise ConsistencyError("slow map left the interval")
    return x_new, k, M


def j_of(field: NumberField, x) -> int:
    """Number of W-steps needed to leave the parabolic region from x.

    Defined on (-tau, eps0); equals -1 + ceil(-1/tau^2 + 1/(tau (tau + x))).
    """
    tau = field.tau
    if not (-tau < x and x < eps0(field)):
        raise DomainError("point outside the accelerated region")
    k = digit_of(field, x, field.one)
    if k is None or k >= 0:
        raise ConsistencyError("acceleration exponent below 1")
    return -k


def cylinder_of_f(field: NumberField, x) -> int:
    """Digit of the accelerated map: k >= 1 above eps0, -j inside the
    parabolic region.  The fixed point -tau itself is treated as a digit-1
    point (W fixes it, so acceleration would never terminate there)."""
    k = digit_of(field, x, field.one)
    return 1 if k is None else k


def f_step(field: NumberField, x):
    """One accelerated step: (x', digit, matrix); W^j branch lands in [eps0, 0)."""
    k = cylinder_of_f(field, x)
    M = branch(field, k).M
    x_new = M.apply(x)
    if k < 0 and not (eps0(field) <= x_new and x_new < 0):
        raise ConsistencyError("accelerated branch missed [eps0, 0)")
    if not (-field.tau <= x_new and x_new < 0):
        raise ConsistencyError("accelerated map left the interval")
    return x_new, k, M


class OrbitTables(NamedTuple):
    """Exact forward orbits of -tau (slow map) and eps0 (accelerated map),
    plus the backwards orbit from 1/(1-2 tau), with their digit words."""

    field: NumberField
    phi: tuple            # phi_0 .. phi_{2n-4}
    phi_digits: tuple     # digit of the step phi_i -> phi_{i+1}, cyclic
    eps: tuple            # eps_0 .. eps_{2n-4}
    eps_digits: tuple
    alpha: tuple          # alpha_1 .. alpha_{2n-3} = eps_{2n-4} .. eps_0


def orbit_x_order(phi) -> list:
    """The -tau orbit phi_0 .. phi_{2n-4} in increasing x:
    phi_0 < phi_{n-1} < phi_1 < phi_n < ... < phi_{2n-4} < phi_{n-2}."""
    n = (len(phi) + 3) // 2
    chain = []
    for i in range(n - 2):
        chain += (phi[i], phi[n - 1 + i])
    chain.append(phi[n - 2])
    return chain


@lru_cache(maxsize=None)
def build_orbit_tables(field: NumberField) -> OrbitTables:
    """The -tau and eps0 orbits with their digit words, each identity of
    the tables decided exactly.  alpha, the walk back from 1/(1 - 2 tau)
    through the inverse branches of the reversed eps digit word, is the eps
    orbit reversed: f stepped each eps_i to eps_{i+1} exactly, by the branch
    of the digit word checked here, and an inverse branch undoes its step."""
    n = field.n
    tau = field.tau

    # forward orbit of -tau under g, one full cycle of length 2n-3
    phi = [-tau]
    digits = []
    for _ in range(2 * n - 3):
        x_new, k, _ = g_step(field, phi[-1])
        phi.append(x_new)
        digits.append(k)
    if phi[2 * n - 3] != phi[0]:
        raise ConsistencyError("orbit of -tau did not close up")
    phi = phi[: 2 * n - 3]

    expected = [1] * (n - 2) + [2] + [1] * (n - 3) + [2]
    if digits != expected:
        raise ConsistencyError(f"unexpected digit word {digits} for the -tau orbit")

    chain = orbit_x_order(phi)
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            raise ConsistencyError("ordering chain of the -tau orbit failed")

    # parity landmark: the orbit passes through -1
    if n % 2 == 0:
        landmark = phi[n // 2 - 1]
    else:
        m = (n - 3) // 2
        landmark = phi[3 * m + 2]
    if landmark != -1:
        raise ConsistencyError("orbit landmark is not exactly -1")
    if phi[n - 1] != 1 - tau:
        raise ConsistencyError("phi_{n-1} != 1 - tau")

    # forward orbit of eps0 under f
    eps = [eps0(field)]
    eps_digits = []
    for _ in range(2 * n - 4):
        x_new, k, _ = f_step(field, eps[-1])
        eps.append(x_new)
        eps_digits.append(k)
    if eps_digits != [1] * (n - 2) + [2] + [1] * (n - 3):
        raise ConsistencyError(f"unexpected digit word {eps_digits} for the eps orbit")
    if eps[2 * n - 4] * (1 - 2 * tau) != 1:
        raise ConsistencyError("eps_{2n-4} != 1/(1-2 tau)")

    # interleaving phi_l < eps_l < eps_{n-2+l} < phi_{n-1+l}
    if not (phi[0] < eps[0] and eps[0] < phi[n - 1]):
        raise ConsistencyError("eps0 not between phi_0 and phi_{n-1}")
    for ell in range(1, n - 2):
        ok = (
            phi[ell] < eps[ell]
            and eps[ell] < eps[n - 2 + ell]
            and eps[n - 2 + ell] < phi[n - 1 + ell]
        )
        if not ok:
            raise ConsistencyError(f"interleaving failed at l = {ell}")

    return OrbitTables(
        field=field,
        phi=tuple(phi),
        phi_digits=tuple(digits),
        eps=tuple(eps),
        eps_digits=tuple(eps_digits),
        alpha=tuple(reversed(eps)),
    )


def product_relations_check(field: NumberField) -> dict:
    """Exact pairwise products of orbit points equal to one.

    Even n pairs symmetrically around phi_{n/2-1} = -1; odd n = 2m+3 pairs
    around phi_{3m+2} = -1 together with the family phi_j phi_{n-2-j} = 1
    (the index-sum form is forced by exact computation).
    """
    n = field.n
    tables = build_orbit_tables(field)
    phi = tables.phi
    relations = []
    if n % 2 == 0:
        c = n // 2 - 1
        relations.append((f"phi_{c} = -1", phi[c] == -1))
        for j in range(n // 2):
            prod = phi[c - j] * phi[c + j]
            relations.append((f"phi_{c-j} * phi_{c+j} = 1", prod == 1))
    else:
        m = (n - 3) // 2
        c = 3 * m + 2
        relations.append((f"phi_{c} = -1", phi[c] == -1))
        for j in range(m + 1):
            prod = phi[c - j] * phi[c + j]
            relations.append((f"phi_{c-j} * phi_{c+j} = 1", prod == 1))
        for j in range(m + 1):
            prod = phi[j] * phi[n - 2 - j]
            relations.append((f"phi_{j} * phi_{n-2-j} = 1", prod == 1))
    ok = all(flag for _, flag in relations)
    if not ok:
        raise ConsistencyError(
            "product relations failed: "
            + ", ".join(name for name, flag in relations if not flag)
        )
    return {"n": n, "relations": [name for name, _ in relations], "ok": ok}


def full_cylinder_check(field: NumberField) -> dict:
    """g maps each Delta_k, 2 <= k <= 10, onto the whole interval: the left
    endpoint goes to -tau and the right endpoint to 0 (which branch checks
    when it builds the entry), exactly."""
    k_max = 10
    if any(branch(field, k).image_lo != -field.tau for k in range(2, k_max + 1)):
        raise ConsistencyError("full cylinder check failed")
    return {"n": field.n, "k_max": k_max, "ok": True}


# ---------------------------------------------------------------------------
# digit words
# ---------------------------------------------------------------------------
#
# The four published digit restrictions are implemented verbatim; exact
# cylinder construction shows they are necessary but allow one extra
# pattern (a jump digit straight after a maximal-run-closing 2) that never
# occurs, so a fifth rule is provided separately for the exact
# characterization.

class AdmissibilityResult(NamedTuple):
    ok: bool
    rule: int | None = None       # 1..4 published rules, 5 = realizability refinement
    position: int | None = None

    def __bool__(self):
        return self.ok


def _scan_word(word, n: int, with_refinement: bool) -> AdmissibilityResult:
    run1 = 0              # length of the current run of 1s
    window = -1           # >= 0: ones seen since a maximal-run-closing 2
    for i, a in enumerate(word):
        if a == 0:
            raise DomainError("digit 0 does not exist")
        if a < 0 and i > 0 and word[i - 1] <= 1:
            return AdmissibilityResult(False, 1, i)
        if a == 1:
            run1 += 1
            if window >= 0:
                window += 1
                if window > n - 3:
                    return AdmissibilityResult(False, 3, i)
            if run1 > n - 2:
                return AdmissibilityResult(False, 2, i)
        else:
            if window >= 0:
                if window == n - 3 and a < 3:
                    return AdmissibilityResult(False, 4, i)
                if with_refinement and a < 0 and window == 0:
                    return AdmissibilityResult(False, 5, i)
            if a == 2 and run1 == n - 2:
                window = 0
            else:
                window = -1
            run1 = 0
    return AdmissibilityResult(True)


def is_admissible(word, n: int) -> AdmissibilityResult:
    """The four published digit restrictions:

    (1) a negative digit is preceded by a digit > 1;
    (2) at most n-2 consecutive 1s;
    (3) a maximal (n-2)-run of 1s followed by a 2 admits at most n-3
        further consecutive 1s;
    (4) the full pattern 1^(n-2) 2 1^(n-3) must be followed by >= 3.
    """
    return _scan_word(word, n, with_refinement=False)


def is_realizable(word, n: int) -> AdmissibilityResult:
    """Rules (1)-(4) plus the cylinder-forced rule (5): a negative digit
    cannot directly follow a 2 that closes a maximal (n-2)-run of 1s
    (the image of that pattern lies right of the accelerated region)."""
    return _scan_word(word, n, with_refinement=True)


def cylinder_interval(field: NumberField, word):
    """Exact half-open x-interval of a digit word, or None if empty.

    Built by pulling the final cylinder back through the branch inverses and
    intersecting with each branch image [image_lo, 0); every cylinder ends
    left of 0, so only the left ends need clipping.  All comparisons are
    exact."""
    if not word:
        return -field.tau, field.zero
    last = branch(field, word[-1])
    lo, hi = last.lo, last.hi
    for a in reversed(word[:-1]):
        b = branch(field, a)
        u = max(b.image_lo, lo)
        if not u < hi:
            return None
        M_inv = b.M.inverse()
        lo = max(b.lo, M_inv.apply(u))
        hi = min(b.hi, M_inv.apply(hi))
        if not lo < hi:
            return None
    return lo, hi
