"""The digit decision by exact floors and the division-free expansion
against a reduced-t oracle.

The oracle steps the reduced value t = M t with Mobius.apply and finds each
digit by scanning the branch table with exact lo <= t < hi, so it shares
neither the closed-form floors of dynamics.digit_of nor the q-scaled forms
of dioph.expand.
"""

import itertools
import math
import random
import sys
import types
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import trianglecf.field as field_module
from trianglecf import dioph
from trianglecf.dioph import expand, periodic_point
from trianglecf.dynamics import (
    _exact_digit,
    _span_digit,
    branch,
    cylinder_lo,
    cylinder_of_f,
    digit_of,
    eps0,
)
from trianglecf.errors import DomainError
from trianglecf.field import (
    FieldElement,
    NumberField,
    _ExactReal,
    _new,
    build_field,
    random_interval_point,
)
from trianglecf.quadratic import QuadExt

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


def near_end(F, k, right_end, side, e):
    """A cylinder end of digit k, moved by side * tau * 2^-e."""
    b = branch(F, k)
    return (b.hi if right_end else b.lo) + F.tau * Fraction(side, 1 << e)


@st.composite
def points(draw, n, near=False):
    """A point of [-tau, 0): a dyadic rational, an exact branch end of a
    digit in -6..8, -tau itself, or a quadratic periodic point; with near,
    also a point tau 2^-40 .. tau 2^-200 from a branch end.  The orbit of
    such a point next lands that close to 0 or to -tau, in a cylinder far
    beyond the oracle's scan."""
    F = build_field(n)
    kinds = ("dyadic", "dyadic", "end", "cusp", "periodic") + (("near",) * 2 if near else ())
    kind = draw(st.sampled_from(kinds))
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
    if kind == "near":
        return near_end(F, draw(st.integers(-6, 8).filter(bool)), draw(st.booleans()),
                        draw(st.sampled_from((-1, 1))), draw(st.integers(40, 200)))
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
    t = data.draw(points(n, near=True))
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
    # far cylinders, in the middle and at their left ends
    F = build_field(5)
    for k in (40, 333, -57):
        b = branch(F, k)
        mid = (b.lo + b.hi) / 2
        assert digit_of(F, mid, F.one) == k
        assert digit_of(F, b.lo, F.one) == k


def test_gallop_probes_build_no_branch_entry(monkeypatch):
    # a point near 0 has a first digit near 2^256; the digit is a floor of
    # an exact quotient, so it inverts nothing and builds neither a branch
    # entry nor a cylinder end
    F = build_field(16)
    x = -F.tau * Fraction(1, 2 ** 256)
    inversions = 0
    inverse = FieldElement.inverse

    def counted(self):
        nonlocal inversions
        inversions += 1
        return inverse(self)

    branches, ends = branch.cache_info().misses, cylinder_lo.cache_info().misses
    with monkeypatch.context() as m:
        m.setattr(FieldElement, "inverse", counted)
        k = digit_of(F, x, F.one)
    assert inversions == 0
    assert branch.cache_info().misses == branches
    assert cylinder_lo.cache_info().misses == ends
    assert k > 2 ** 250
    assert cylinder_lo(F, k) <= x and x < cylinder_lo(F, k + 1)


def _count_refine_runs(monkeypatch):
    """A list whose length is the number of field._refine runs made after
    the call, in every module of the package that binds it."""
    runs = []
    refine = field_module._refine

    def counted(*args):
        runs.append(args[-1])
        return refine(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("trianglecf") and getattr(module, "_refine", None) is refine:
            monkeypatch.setattr(module, "_refine", counted)
    return runs


@pytest.mark.parametrize("n", NS)
def test_near_ends_take_both_outcomes_of_the_filter(n, monkeypatch):
    # tau 2^-40 and tau 2^-200 from a cylinder end the balls decide every
    # sign and floor, at 2^-200 the floor at that end through the ball of
    # the exact gap A - B i, whose terms cancel in the exact coefficients;
    # a point below 2^-1000 has no ball that tightens, and its sign and
    # floor fall to exact refinements
    F = build_field(n)
    runs = _count_refine_runs(monkeypatch)
    for e in (40, 200):
        for k in (-3, 1, 2, 5):
            for right_end, side in ((False, 1), (True, -1)):
                t = near_end(F, k, right_end, side, e)
                runs.clear()
                assert digit_of(F, t, F.one) == k
                assert runs == [], (e, k, right_end)
    x = F.tau * Fraction(-1, 1 << 1100)
    k = digit_of(F, x, F.one)
    assert runs
    assert cylinder_lo(F, k) <= x and x < cylinder_lo(F, k + 1)


@pytest.mark.parametrize("n", (5, 8, 16))
@pytest.mark.parametrize("k", (64, 256, 1024))
def test_a_far_digit_is_one_refinement_run(n, k, monkeypatch):
    # x = -tau 2^-k has a first digit near 2^k / tau^2, past the float
    # estimates; its floor is decided in one _refine run, whose tries climb
    # to about k bits, and no other decision refines
    F = build_field(n)
    x = F.tau * Fraction(-1, 1 << k)
    runs = _count_refine_runs(monkeypatch)
    digit = digit_of(F, x, F.one)
    assert len(runs) <= 1
    assert cylinder_lo(F, digit) <= x and x < cylinder_lo(F, digit + 1)


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
    # build the branch entries these orbits use, which invert small elements,
    # and the thetas to compare with, which are built when first read
    warm = [expand(F, x, steps) for x in xs]
    for before in warm:
        before.thetas

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
    # reduces Theta_m when the thetas are read
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
    assert max(F._lambda_bracket._kept, default=0) <= 64


# -- the span path against the exact floors -------------------------------------

SPAN_NS = (4, 5, 8, 13, 16)


def _fresh(E):
    """A copy of the exact real E with no estimate or sign kept."""
    if isinstance(E, QuadExt):
        return QuadExt(E.field, _fresh(E.u), _fresh(E.v), E.disc)
    return _new(E.field, E.num, E.den)


def _captured(n, x, steps):
    """The operands (A, B) that expand hands digit_of along the orbit of x."""
    F = build_field(n)
    seen = []

    def capture(field, A, B):
        seen.append((A, B))
        return digit_of(field, A, B)

    orig = dioph.digit_of
    dioph.digit_of = capture
    try:
        expand(F, x, steps)
    finally:
        dioph.digit_of = orig
    return seen


@lru_cache(maxsize=None)
def _long_orbit_operands(n):
    """Every 20th pair of operands of a 1 000-step orbit from a random
    256-bit point, past step 100, where the float bounds lose the digit."""
    F = build_field(n)
    x = random_interval_point(F, random.Random(n), 256)
    return _captured(n, x, 1000)[100::20]


@lru_cache(maxsize=None)
def _quadratic_operands(n):
    """The QuadExt operands along 40 steps of a periodic point's orbit."""
    return _captured(n, _periodic_x(n, 2), 40)


@st.composite
def operands(draw, n):
    """(A, B) with A/B in [-tau, 0): a point tau 2^-40, 2^-60 or 2^-200 from
    either side of a cylinder end, over a denominator of either sign, or
    the operands of a periodic (QuadExt) orbit or of a 1 000-step orbit."""
    kind = draw(st.sampled_from(("near", "near", "quadratic", "long")))
    if kind == "near":
        F = build_field(n)
        k = draw(st.integers(-6, 8).filter(bool))
        t = near_end(F, k, draw(st.booleans()), draw(st.sampled_from((-1, 1))),
                     draw(st.sampled_from((40, 60, 200))))
        B = draw(denominators(n))
        return t * B, B
    pool = _quadratic_operands(n) if kind == "quadratic" else _long_orbit_operands(n)
    return draw(st.sampled_from(pool))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.sampled_from(SPAN_NS))
def test_span_path_agrees_with_the_exact_floors(data, n):
    F = build_field(n)
    A, B = data.draw(operands(n))
    want = _exact_digit(F, _fresh(A), _fresh(B))
    A, B = _fresh(A), _fresh(B)
    # the span of the 53-bit balls, then of balls made again up lambda's
    # ladder, as digit_of climbs it
    k, p = _span_digit(F, A, B), 64
    assert not k or k == want
    while k is None and p <= 4096:
        k, p = _span_digit(F, A, B, p), 2 * p
        assert not k or k == want
    assert digit_of(F, _fresh(A), _fresh(B)) == want


@pytest.mark.parametrize("n", SPAN_NS)
def test_each_kind_of_operand_reaches_the_span_path(n):
    # the property above would test nothing if the span never decided
    F = build_field(n)
    t = near_end(F, 2, False, 1, 40)
    assert _span_digit(F, t, F.one) == 2
    quadratic = _quadratic_operands(n)
    assert isinstance(quadratic[0][0], QuadExt)
    assert any(_span_digit(F, A, B) for A, B in map(lambda ab: map(_fresh, ab), quadratic))
    # late in a long orbit the 53-bit balls have lost the digit, and balls
    # made again up lambda's ladder decide it
    refreshed = 0
    for A, B in _long_orbit_operands(n)[-10:]:
        A, B = _fresh(A), _fresh(B)
        k, p = _span_digit(F, A, B), 64
        assert k is None
        while k is None and p <= 4096:
            k, p = _span_digit(F, A, B, p), 2 * p
        refreshed += bool(k)
    assert refreshed >= 8


# -- deterministic counts ------------------------------------------------------------

def _benchmark_operands():
    """The 980 operands of the exact-expand benchmark's two commands:
    expand --n 5 --x random:16 --steps 60 and --n 13 --x random:1 --steps 20,
    both with seed 0."""
    pairs = []
    for n, count, steps in ((5, 16, 60), (13, 1, 20)):
        rng = random.Random(0)
        for _ in range(count):
            x = random_interval_point(build_field(n), rng, 256)
            pairs += [(build_field(n), A, B) for A, B in _captured(n, x, steps)]
    return pairs


def test_benchmark_operands_build_nothing_and_refine_nothing(monkeypatch):
    pairs = [(F, _fresh(A), _fresh(B)) for F, A, B in _benchmark_operands()]
    assert len(pairs) == 980
    runs = _count_refine_runs(monkeypatch)
    built = 0
    new = field_module._new

    def counted(*args):
        nonlocal built
        built += 1
        return new(*args)

    monkeypatch.setattr(field_module, "_new", counted)
    digits = [digit_of(F, A, B) for F, A, B in pairs]
    assert runs == [] and built == 0
    monkeypatch.undo()
    assert digits == [_exact_digit(F, _fresh(A), _fresh(B)) for F, A, B in pairs]


# _refine runs per digit at 300 and 1 000 steps before the span and the
# refreshed estimates; at n=5, whose three orbits end at a cusp after 752
# to 807 digits, 2.56 counts the runs over 1 000 digits, a stricter bound
# than the 3.31 per digit made
PARENT_RUNS_PER_DIGIT = {5: (1.17, 2.56), 8: (3.23, 4.34), 13: (3.15, 4.37)}


@pytest.mark.parametrize("n", sorted(PARENT_RUNS_PER_DIGIT))
def test_long_orbits_refine_at_most_half_as_often(n, monkeypatch):
    # three 256-bit random points, seed 7, 1 000 steps: the _refine runs per
    # digit over the first 60, 300 and 1 000 digits
    F = build_field(n)
    rng = random.Random(7)
    xs = [random_interval_point(F, rng, 256) for _ in range(3)]
    expand(F, xs[0], 10)
    runs = _count_refine_runs(monkeypatch)
    after = []

    def counted(*args):
        k = digit_of(*args)
        after[-1].append(len(runs))
        return k

    monkeypatch.setattr(dioph, "digit_of", counted)
    for x in xs:
        runs.clear()
        after.append([])
        expand(F, x, 1000)

    def per_digit(steps):
        return (sum(counts[min(steps, len(counts)) - 1] for counts in after)
                / sum(min(steps, len(counts)) for counts in after))

    assert per_digit(60) == 0
    for steps, parent in zip((300, 1000), PARENT_RUNS_PER_DIGIT[n]):
        assert per_digit(steps) <= parent / 2, steps


@pytest.mark.parametrize("n", (8, 13))
def test_long_orbits_embed_at_most_twice_per_digit(n, monkeypatch):
    # three 256-bit random points, seed 7, 1 000 steps: the balls made
    # again up lambda's ladder start at the rung the orbit has reached, so
    # a digit whose 53-bit balls are lost reads about one enclosure each of
    # A and B; climbing each time from 128 read 4.25 (n=8) and 4.17 (n=13)
    F = build_field(n)
    rng = random.Random(7)
    xs = [random_interval_point(F, rng, 256) for _ in range(3)]
    expand(F, xs[0], 10)
    calls = 0
    embed_raw = FieldElement.embed_raw

    def counted(self, precision):
        nonlocal calls
        calls += 1
        return embed_raw(self, precision)

    monkeypatch.setattr(FieldElement, "embed_raw", counted)
    digits = sum(len(expand(F, x, 1000).digits) for x in xs)
    assert digits == 3000
    assert calls <= 2 * digits


def test_a_far_point_brackets_lambda_by_newton_steps(monkeypatch, fresh_branch_tables):
    # expand --n 16 --x=-1e-400 --steps 10 needs lambda to 2 048 bits; one
    # evaluation of the minimal polynomial per bit made 2 023 of them
    F = NumberField(16)
    calls = 0
    sign_at = field_module._int_poly_sign_at

    def counted(*args):
        nonlocal calls
        calls += 1
        return sign_at(*args)

    monkeypatch.setattr(field_module, "_int_poly_sign_at", counted)
    res = expand(F, F.from_fraction(Fraction(-1, 10 ** 400)), 10)
    rows = [(float(res.ts[m]), float(res.vs[m]), float(res.thetas[m])) for m in range(11)]
    assert len(rows) == 11 and max(F._lambda_bracket._kept) >= 2048
    assert calls <= 64
