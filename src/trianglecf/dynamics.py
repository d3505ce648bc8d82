"""The interval maps on [-tau, 0): the slow map g and the accelerated map f.

g applies A^-k C on the cylinder containing x; f additionally collapses the
whole excursion through the parabolic region (-tau, eps0) into a single
W^j step, which is what makes the invariant measure finite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .field import FieldElement, NumberField, _new
from .group import Mobius, digit_matrix, generators, y_matrix

# most (field, digit) entries the branch and cylinder-end tables keep; an
# evicted entry is rebuilt on its next use
BRANCH_CACHE_SIZE = 1024


def cylinder_right_endpoint(field: NumberField, k: int) -> FieldElement:
    """Right endpoint 1/(1 - k tau) of the slow-map cylinder with digit k."""
    if k < 1:
        raise DomainError("slow-map cylinders have positive digits")
    return (field.one - field.tau * k).inverse()


@lru_cache(maxsize=None)
def eps0(field: NumberField) -> FieldElement:
    """Left endpoint of the non-accelerated region: W^-1 . 0 = -tau^3/(1+tau^2)."""
    tau = field.tau
    value = -(tau ** 3) / (tau * tau + 1)
    w_inv_zero = generators(field).W.inverse().apply(field.zero)
    if value != w_inv_zero:
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
    """Left end of the accelerated map's cylinder with digit k."""
    if k >= 2:
        return cylinder_right_endpoint(field, k - 1)
    if k == 1:
        return eps0(field)
    return acceleration_cylinder_bounds(field, -k)[0]


@lru_cache(maxsize=BRANCH_CACHE_SIZE)
def branch(field: NumberField, k: int) -> Branch:
    """The branch table of the accelerated map, one entry per digit.

    The slow map shares every entry except digit 1, whose cylinder starts
    at -tau instead of eps0."""
    M = digit_matrix(field, k)
    # the cylinders tile [-tau, 0): each ends where the next one to the
    # right, digit k + 1 (or 1 after -1), starts
    lo, hi = cylinder_lo(field, k), cylinder_lo(field, k + 1 or 1)
    if M.apply(hi) != 0:
        raise ConsistencyError(f"branch {k} does not send its right end to 0")
    return Branch(k, M, y_matrix(field, k), lo, hi, M.apply(lo))


def _digit_at(s: int) -> int:
    """The digit at position s when the accelerated map's cylinders are
    numbered left to right on [-tau, 0): ..., -2, -1, 1, 2, ... sit at
    positions ..., -1, 0, 1, 2, ..."""
    return s if s >= 1 else s - 1


def _guess_position(field: NumberField, A, B) -> int:
    """Position of the cylinder that holds the float estimate of A/B, or
    that of digit 1 when the estimate cannot be trusted.

    The estimates are the coefficients times the float powers of lambda
    (_float_estimate), so the guess reads no enclosure of lambda."""
    ea, eb = A._float_estimate(), B._float_estimate()
    if ea is None or eb is None or abs(ea[0]) <= ea[1] or abs(eb[0]) <= eb[1]:
        return 1
    t = ea[0] / eb[0]
    tau = field.tau._float_estimate()[0]
    try:
        if t >= eps0(field)._float_estimate()[0]:
            # (1 - 1/t)/tau = (t - 1)/(t tau) lies in [k - 1, k)
            return math.floor((t - 1.0) / (t * tau)) + 1
        # j = ceil(-t/(tau^2 (tau + t))) - 1 sits at position 1 - j
        return 2 - math.ceil(-t / (tau * tau * (tau + t)))
    except (ArithmeticError, ValueError):
        return 1


def _sign_of_gap(A, B, e: FieldElement) -> int:
    """Sign of A - e B for exact reals A, B and an element e = E/eps of K.

    For elements A = a/alpha and B = b/beta of K the sign is read from
    (eps beta a - alpha E b) / (alpha eps beta), built unreduced: one
    kernel product, E b, and no content gcd.  The sign reads only the
    rational value of each coefficient, so it is the sign of the reduced
    difference."""
    if type(A) is FieldElement and type(B) is FieldElement:
        field = e.field
        eb = field._mul(e.num, B.num)
        sa, sb = e.den * B.den, A.den
        return _new(field, tuple(x * sa - y * sb for x, y in zip(A.num, eb)),
                    A.den * sa).sign()
    return (A - e * B).sign()


def digit_of(field: NumberField, A, B):
    """Digit k of the accelerated map at t = A/B, decided by signs alone.

    A and B are exact reals (FieldElement or QuadExt) with B != 0, and k
    is the digit with branch(field, k).lo <= t < branch(field, k).hi.
    Returns None at the parabolic fixed point t = -tau, which lies in no
    cylinder; raises DomainError unless -tau <= t < 0.

    t is never formed.  Its float estimate names a first cylinder, and the
    exact sign of A - e B, for a cylinder end e, tells on which side of e
    the point t lies.  The search walks to the neighbouring cylinder until
    both ends of one hold t, doubling its stride while it keeps walking
    one way and then bisecting, so a poor guess costs a logarithmic
    number of tests (Gosper, HAKMEM item 101B; Vuillemin, IEEE Trans.
    Computers 39(8), 1990).
    """
    s_b = B.sign()
    if s_b == 0:
        raise DomainError("zero denominator")
    s_left = _sign_of_gap(A, B, -field.tau) * s_b
    if s_left < 0 or A.sign() * s_b >= 0:
        raise DomainError(f"point {A!r} / {B!r} outside [-tau, 0)")
    if s_left == 0:
        return None

    def at_or_right_of(pos):
        # lo <= t for the cylinder at this position
        return _sign_of_gap(A, B, cylinder_lo(field, _digit_at(pos))) * s_b >= 0

    # lo_pos holds a cylinder whose lo is <= t, hi_pos one whose lo is > t
    pos = _guess_position(field, A, B)
    stride = 1
    if at_or_right_of(pos):
        lo_pos = pos
        while at_or_right_of(lo_pos + stride):
            lo_pos += stride
            stride *= 2
        hi_pos = lo_pos + stride
    else:
        hi_pos = pos
        while not at_or_right_of(hi_pos - stride):
            hi_pos -= stride
            stride *= 2
        lo_pos = hi_pos - stride
    while hi_pos - lo_pos > 1:
        mid = (lo_pos + hi_pos) // 2
        if at_or_right_of(mid):
            lo_pos = mid
        else:
            hi_pos = mid
    return _digit_at(lo_pos)


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
    alpha: tuple          # alpha_1 .. alpha_{2n-3}, backwards orbit


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
    delta2_right = (field.one - 2 * tau).inverse()
    if eps[2 * n - 4] != delta2_right:
        raise ConsistencyError("eps_{2n-4} != 1/(1-2 tau)")

    # backwards orbit from 1/(1-2 tau); digit pattern reversed
    alpha = [delta2_right]
    back_digits = [1] * (n - 3) + [2] + [1] * (n - 2)
    for d in back_digits:
        alpha.append(branch(field, d).M.inverse().apply(alpha[-1]))
    alpha = alpha[: 2 * n - 3]
    for j in range(2 * n - 3):
        if alpha[j] != eps[2 * n - 4 - j]:
            raise ConsistencyError("backwards orbit disagrees with the eps orbit")

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
        alpha=tuple(alpha),
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


def acceleration_cylinder_bounds(field: NumberField, j: int):
    """Half-open x-range of the j-th acceleration cylinder (digit -j):
    [-tau + tau/((j+1) tau^2 + 1), -tau + tau/(j tau^2 + 1))."""
    if j < 1:
        raise DomainError("acceleration index must be >= 1")
    tau = field.tau
    t2 = tau * tau
    lo = -tau + tau / (t2 * (j + 1) + 1)
    hi = -tau + tau / (t2 * j + 1)
    return lo, hi


def orbit(field: NumberField, x, steps: int, accelerated: bool = True):
    """Exact orbit with digits; stops early if the parabolic point is hit."""
    step = f_step if accelerated else g_step
    xs, ds = [x], []
    for _ in range(steps):
        cur = xs[-1]
        if accelerated and cur == -field.tau:
            break
        x_new, k, _ = step(field, cur)
        xs.append(x_new)
        ds.append(k)
    return xs, ds
