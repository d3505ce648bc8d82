"""The sign-test digit decision and the division-free expansion against a
reduced-t oracle.

The oracle steps the reduced value t = M t with Mobius.apply and finds each
digit by scanning the branch table with exact lo <= t < hi, so it shares
neither the float guess nor the q-scaled forms of dynamics.digit_of and
dioph.expand.
"""

import itertools
import math
import random
import types
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import trianglecf.field as field_module
from trianglecf.dioph import expand, periodic_point
from trianglecf.dynamics import branch, cylinder_lo, cylinder_of_f, digit_of, eps0
from trianglecf.errors import DomainError
from trianglecf.field import (
    FieldElement,
    NumberField,
    _ExactReal,
    build_field,
    random_interval_point,
)

NS = (4, 5, 7, 8, 13)


def oracle_digit(F, t):
    """Scan the cylinders outward from eps0 until lo <= t < hi."""
    if t >= eps0(F):
        digits = itertools.count(1)
    else:
        digits = (-j for j in itertools.count(1))
    for k in digits:
        b = branch(F, k)
        if b.lo <= t and t < b.hi:
            return k


def oracle_expand(F, x, steps):
    t, v = x, F.zero
    out = {"digits": [], "ts": [t], "vs": [v], "thetas": [abs(x)], "f_rational": False}
    for _ in range(steps):
        if t == -F.tau:
            out["f_rational"] = True
            break
        k = oracle_digit(F, t)
        b = branch(F, k)
        t, v = b.M.apply(t), b.N.apply(v)
        out["digits"].append(k)
        out["ts"].append(t)
        out["vs"].append(v)
        out["thetas"].append(abs(t / (1 + t * v)))
    return out


@lru_cache(maxsize=None)
def _periodic_x(n, j):
    return periodic_point(build_field(n), j).x


@st.composite
def points(draw, n):
    """A point of [-tau, 0): a dyadic rational, an exact branch end of a
    digit in -6..8, -tau itself, or a quadratic periodic point."""
    F = build_field(n)
    kind = draw(st.sampled_from(("dyadic", "dyadic", "end", "cusp", "periodic")))
    if kind == "dyadic":
        bits = draw(st.integers(8, 64))
        # tau > 2 for every n >= 4, so [-2, -2^-8] lies in the interval; the
        # bound keeps the first digit, and so the oracle's scan, below 300
        a = draw(st.integers(1 << (bits - 8), 2 << bits))
        return F.from_fraction(Fraction(-a, 1 << bits))
    if kind == "end":
        k = draw(st.integers(-6, 8).filter(bool))
        b = branch(F, k)
        return b.lo if draw(st.booleans()) else b.hi
    if kind == "cusp":
        return -F.tau
    return _periodic_x(n, draw(st.integers(2, 3)))


@st.composite
def denominators(draw, n):
    """A nonzero element of K with small coefficients and either sign."""
    F = build_field(n)
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=F.degree, max_size=F.degree)
                  .filter(any))
    return F.element(coeffs)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from(NS))
def test_digit_of_matches_the_scan(data, n):
    F = build_field(n)
    t = data.draw(points(n))
    B = data.draw(denominators(n))
    if t == -F.tau:
        assert digit_of(F, t * B, B) is None
        assert cylinder_of_f(F, t) == 1
    else:
        k = oracle_digit(F, t)
        assert digit_of(F, t * B, B) == k
        assert cylinder_of_f(F, t) == k


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from(NS), steps=st.integers(0, 12))
def test_expand_matches_the_reduced_stepper(data, n, steps):
    F = build_field(n)
    x = data.draw(points(n))
    res = expand(F, x, steps)
    want = oracle_expand(F, x, steps)
    assert res.digits == want["digits"]
    assert res.thetas == want["thetas"]
    assert res.vs == want["vs"]
    assert res.ts == want["ts"]
    assert res.f_rational == want["f_rational"]


def test_digit_of_domain():
    F = build_field(5)
    for t in (F.zero, F.one, -F.tau - Fraction(1, 3)):
        with pytest.raises(DomainError):
            digit_of(F, t, F.one)
        with pytest.raises(DomainError):
            digit_of(F, -t, -F.one)
    with pytest.raises(DomainError):
        digit_of(F, F.one, F.zero)


def test_digit_of_far_cylinders():
    # a float guess off by many cylinders still lands: gallop, then bisect
    F = build_field(5)
    for k in (40, 333, -57):
        b = branch(F, k)
        mid = (b.lo + b.hi) / 2
        assert digit_of(F, mid, F.one) == k
        assert digit_of(F, b.lo, F.one) == k


def test_gallop_probes_build_no_branch_entry():
    # a point near 0 has a first digit near 2^256; the gallop reads only
    # the left end of each probed cylinder, never a whole branch entry
    F = build_field(16)
    x = -F.tau * Fraction(1, 2 ** 256)
    before = branch.cache_info().misses
    k = digit_of(F, x, F.one)
    assert branch.cache_info().misses == before
    assert k > 2 ** 250
    assert cylinder_lo(F, k) <= x and x < cylinder_lo(F, k + 1)


@pytest.fixture
def fresh_branch_tables():
    """Branch tables rebuilt on the test's own field objects, and dropped
    afterwards, so λ's bracket of a fresh field sees every decision."""
    tables = (branch, cylinder_lo, eps0)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()


@pytest.mark.parametrize("n,steps", [(5, 60), (13, 20)])
def test_expand_neither_embeds_nor_divides(n, steps, monkeypatch, fresh_branch_tables):
    F = NumberField(n)
    rng = random.Random(n)
    xs = [random_interval_point(F, rng, 256) for _ in range(3)]
    # build the branch entries these orbits use, which invert small elements
    warm = [expand(F, x, steps) for x in xs]

    def refused(*args, **kwargs):
        raise AssertionError("expand read a float or an embedding")

    monkeypatch.setattr(_ExactReal, "embed", refused)
    monkeypatch.setattr(_ExactReal, "__float__", refused)
    inversions = 0
    inverse = FieldElement.inverse

    def counted(self):
        nonlocal inversions
        inversions += 1
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    # the content gcds the field module takes: one per step, the one that
    # reduces Theta_m
    gcds = 0

    def counted_gcd(*args):
        nonlocal gcds
        gcds += 1
        return math.gcd(*args)

    counting_math = types.ModuleType("math")
    counting_math.__dict__.update(vars(math))
    counting_math.gcd = counted_gcd
    monkeypatch.setattr(field_module, "math", counting_math)
    for x, before in zip(xs, warm):
        gcds = 0
        res = expand(F, x, steps)
        assert res.digits == before.digits and res.thetas == before.thetas
        assert inversions == 0
        assert 0 < gcds <= len(res.digits)
        # v_m = q_{m-1}/q_m: one inversion of q_m per index, on first read
        res.vs
        res.vs
        assert inversions == len(res.states)
        inversions = 0
    # every sign went through the float filter or a 64-bit enclosure
    bracket = F._lambda_bracket
    reference = NumberField(n)._lambda_bracket.refine_to(Fraction(1, 2 ** 64))
    assert bracket.hi - bracket.lo >= reference.width()
