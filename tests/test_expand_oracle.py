"""Differential test of dioph.expand's integer-vector loop.

The oracle is the element-operation loop that the integer-vector loop
replaced, with dynamics.digit_of and its float guess as they were, kept
here verbatim apart from ConvergentState.advance(M), since deleted,
written out as ConvergentState(M * state.matrix), and the result, a plain
namespace: every value is a reduced FieldElement or QuadExt, every product
divides out its content gcd, and each digit is decided on the reduced
q-scaled forms qA and qB, each probe inverting to its cylinder end.  Both
loops run from cold caches on fresh fields, so the lambda brackets a field
keeps afterwards, one per precision asked for, record every exact
refinement either of them made.  A decision of the integer-vector loop may
take one doubling more than the oracle's; it must take no more than that.
"""

import math
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import trianglecf.field as field_module
import trianglecf.quadratic as quadratic_module
from trianglecf import dioph, dynamics, group, planar, verify
from trianglecf.dioph import ConvergentState, expand, periodic_point
from trianglecf.dynamics import branch, eps0
from trianglecf.errors import ConsistencyError, DomainError
from trianglecf.field import NumberField, _new, build_field
from trianglecf.group import Mobius
from trianglecf.planar import build_gamma
from trianglecf.quadratic import QuadExt

NS = (4, 5, 7, 8, 13, 16)


# -- the oracle -----------------------------------------------------------------

def _digit_at(s: int) -> int:
    """The digit at position s when the accelerated map's cylinders are
    numbered left to right on [-tau, 0): ..., -2, -1, 1, 2, ... sit at
    positions ..., -1, 0, 1, 2, ..."""
    return s if s >= 1 else s - 1


def _guess_position(field, A, B):
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


def digit_of(field, A, B):
    s_b = B.sign()
    if s_b == 0:
        raise DomainError("zero denominator")
    s_left = (A + field.tau * B).sign() * s_b
    if s_left < 0 or A.sign() * s_b >= 0:
        raise DomainError(f"point {A!r} / {B!r} outside [-tau, 0)")
    if s_left == 0:
        return None

    def at_or_right_of(pos):
        # lo <= t for the cylinder at this position
        return (A - branch(field, _digit_at(pos)).lo * B).sign() * s_b >= 0

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


def _equal_up_to_sign(a, b) -> bool:
    return a == b or a == -b


def oracle_expand(field, x, steps, check_natural_extension=False):
    state = ConvergentState(Mobius.identity(field))
    res = SimpleNamespace(digits=[], thetas=[abs(x)], states=[state], f_rational=False)
    gamma = build_gamma(field) if check_natural_extension else None
    qA, qB = x, field.one
    for m in range(1, steps + 1):
        k = digit_of(field, qA, qB)
        if k is None:
            res.f_rational = True
            break
        b = branch(field, k)
        state_new = ConvergentState(b.M * state.matrix)
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


# -- start points, as field-free data ----------------------------------------

def _data(e):
    """An exact real as plain ints: (num, den), or one such pair for each of
    u, v and D of a QuadExt."""
    if isinstance(e, QuadExt):
        return tuple(_data(part) for part in (e.u, e.v, e.disc))
    return e.num, e.den


def _on(field, data):
    """The exact real that _data recorded, built on the given field."""
    if isinstance(data[1], tuple):
        return QuadExt(field, *(_new(field, num, den) for num, den in data))
    return _new(field, *data)


@lru_cache(maxsize=None)
def _periodic_x(n, j):
    return _data(periodic_point(NumberField(n), j).x)


def _in_interval(n, data):
    F = NumberField(n)
    x = _on(F, data)
    return -F.tau <= x and x < 0


@st.composite
def start_points(draw, n):
    """A start point in [-tau, 0): a dyadic 256-bit multiple of tau, a
    decimal or odd-denominator rational, a point with a lambda part, or a
    quadratic periodic point."""
    d = build_field(n).degree
    kind = draw(st.sampled_from(("dyadic", "decimal", "odd", "lambda", "periodic")))
    if kind == "dyadic":
        # -tau r for r in [2^-16, 1] over 2^256, as random_interval_point
        # draws it; the bound keeps the first digit, a far cylinder whose
        # ends are costly to build at degree 8, below 2^16
        r = Fraction(draw(st.integers(1 << 240, 1 << 256)), 1 << 256)
        return ((-r.numerator, -r.numerator) + (0,) * (d - 2), r.denominator)
    if kind == "periodic":
        return _periodic_x(n, draw(st.integers(1, 3)))
    if kind == "lambda":
        # |c1| <= 1/4 and 1/2 < -c0 < 3/2 put c0 + c1 lambda in (-2, 0)
        b = draw(st.integers(4, 60))
        c1 = Fraction(draw(st.integers(1, b // 4)) * draw(st.sampled_from((-1, 1))), b)
        f = draw(st.integers(2, 60))
        c0 = Fraction(-draw(st.integers(f // 2 + 1, (3 * f - 1) // 2)), f)
        x = build_field(n).element([c0, c1])
        return x.num, x.den
    # tau > 2 for every n >= 4, so (-2, 0) lies in the interval
    den = 10 ** draw(st.integers(1, 12)) if kind == "decimal" else \
        2 * draw(st.integers(0, 10 ** 12)) + 3
    q = Fraction(-draw(st.integers(den >> 16 or 1, 2 * den - 1)), den)
    return ((q.numerator,) + (0,) * (d - 1), q.denominator)


def _clear_caches():
    for mod in (field_module, dynamics, group, planar, dioph, verify, quadratic_module):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _run(expander, n, data, steps, check_ne):
    """Run expander on a fresh field from cold caches; return what it found
    as plain data and the lambda brackets the field keeps afterwards."""
    _clear_caches()
    try:
        F = NumberField(n)
        res = expander(F, _on(F, data), steps, check_natural_extension=check_ne)
        found = {
            "digits": res.digits,
            "thetas": [_data(th) for th in res.thetas],
            "states": [tuple(_data(e) for e in st.matrix.entries()) for st in res.states],
            "f_rational": res.f_rational,
        }
    finally:
        _clear_caches()
    return found, _kept_brackets(F)


def _kept_brackets(F):
    """{precision: (lo_num, hi_num, den)} of each lambda bracket F keeps."""
    return {p: (e.lo_num, e.hi_num, e.den) for p, e in F._lambda_bracket._kept.items()}


def _within_one_doubling(brackets, oracle_brackets):
    """The finest bracket the loop kept is at most twice as fine as the
    oracle's.  Every float estimate keeps the 64-bit one."""
    return max(brackets, default=64) <= 2 * max(oracle_brackets, default=64)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n=st.sampled_from(NS), steps=st.integers(0, 40),
       check_ne=st.booleans())
def test_expand_matches_the_element_loop(data, n, steps, check_ne):
    x = data.draw(start_points(n))
    want, oracle_brackets = _run(oracle_expand, n, x, steps, check_ne)
    found, brackets = _run(expand, n, x, steps, check_ne)
    assert found == want
    assert _within_one_doubling(brackets, oracle_brackets)


@pytest.mark.parametrize("n", NS)
def test_expand_matches_the_element_loop_on_long_orbits(n):
    # one start point of each kind, 300 steps: points of K end at a cusp
    # after a few dozen steps, while the dyadic and periodic orbits run on
    # until some signs need the exact lane
    d = build_field(n).degree
    points = [
        ((-(3 ** 150), 5 ** 100) + (0,) * (d - 2), 1 << 256),
        ((-7391,) + (0,) * (d - 1), 10000),
        ((-7,) + (0,) * (d - 1), 13),
        ((-7, -3) + (0,) * (d - 2), 21),
        _periodic_x(n, 2),
    ]
    narrowed = False
    for x in points:
        assert _in_interval(n, x)
        found, brackets = _run(expand, n, x, 300, False)
        want, oracle_brackets = _run(oracle_expand, n, x, 300, False)
        assert found == want
        assert _within_one_doubling(brackets, oracle_brackets)
        narrowed |= max(brackets, default=0) > 64
    # the orbits refined lambda, or the brackets would show nothing
    assert narrowed
