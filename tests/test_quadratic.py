from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trianglecf import field as field_module, quadratic as quadratic_module
from trianglecf.errors import DomainError
from trianglecf.field import build_field
from trianglecf.group import digit_matrix
from trianglecf.quadratic import QuadExt, compare_numeric, solve_fixed_points


def test_arithmetic_and_inverse():
    F = build_field(5)
    D = F.from_fraction(5)
    a = QuadExt(F, Fraction(1, 2), Fraction(-1, 3), D)
    b = QuadExt(F, 2, 1, D)
    assert ((a + b) - b - a).is_zero()
    assert ((a * b) * b.inverse() - a).is_zero()
    assert (a * a.inverse() - 1).is_zero()


def test_sign_cases():
    F = build_field(5)
    D = F.from_fraction(2)
    # u, v same sign
    assert QuadExt(F, 1, 1, D).sign() == 1
    assert QuadExt(F, -1, -1, D).sign() == -1
    # pure radical part
    assert QuadExt(F, 0, 3, D).sign() == 1
    assert QuadExt(F, 0, -3, D).sign() == -1
    # opposite signs decided by u^2 vs v^2 D: 1 - sqrt2 < 0, 2 - sqrt2 > 0
    assert QuadExt(F, 1, -1, D).sign() == -1
    assert QuadExt(F, 2, -1, D).sign() == 1
    assert QuadExt(F, -1, 1, D).sign() == 1
    assert QuadExt(F, F.zero, F.zero, D).sign() == 0


def test_embedding_and_floor():
    F = build_field(4)
    D = F.from_fraction(2)
    x = QuadExt(F, 1, 1, D)  # 1 + sqrt2
    assert abs(float(x) - 2.414213562373095) < 1e-12
    assert x.floor() == 2
    assert (-x).floor() == -3
    y = QuadExt(F, 3, F.zero, D)
    assert y.floor() == 3
    assert y.ceil() == 3
    with pytest.raises(DomainError):
        x.embed(8)
    with pytest.raises(DomainError):
        float(QuadExt(F, 1, 1, -2))  # no real embedding


def test_comparisons_mixed_with_field():
    F = build_field(5)
    D = F.from_fraction(5)
    half_sqrt5 = QuadExt(F, 0, Fraction(1, 2), D)  # sqrt5/2 = 1.118
    assert half_sqrt5 > F.one
    assert F.tau > half_sqrt5
    assert half_sqrt5 < Fraction(9, 8)
    assert half_sqrt5 >= half_sqrt5
    assert half_sqrt5 / 2 == QuadExt(F, 0, Fraction(1, 4), D)
    assert 1 / half_sqrt5 == QuadExt(F, 0, Fraction(2, 5), D)  # 2/sqrt5
    assert F.tau / half_sqrt5 == QuadExt(F, 0, F.tau * Fraction(2, 5), D)
    assert abs(-half_sqrt5) == half_sqrt5 == abs(half_sqrt5)
    assert half_sqrt5.ceil() == 2
    assert (-half_sqrt5).ceil() == -1
    assert QuadExt(F, 1, 0, D) == F.one
    assert F.one == QuadExt(F, 1, 0, D)
    assert F.zero != half_sqrt5 and half_sqrt5 != 0  # equal u, distinct v


def test_hash_agrees_with_equality():
    F = build_field(5)
    D = F.from_fraction(5)
    assert QuadExt(F, 1, 0, D) in {F.one}
    assert QuadExt(F, F.lam, 0, D) in {F.lam}
    assert QuadExt(F, Fraction(1, 2), 0, D) in {Fraction(1, 2)}
    half_sqrt5 = QuadExt(F, 0, Fraction(1, 2), D)
    assert half_sqrt5 * 2 in {QuadExt(F, 0, 1, D)}


def test_solve_fixed_points_digit3():
    # x = M_3 x gives x^2 + (3 tau - 1) x + 1 = 0; both roots fixed exactly
    F = build_field(5)
    M = digit_matrix(F, 3)
    assert abs(float(M.trace())) > 2
    r_plus, r_minus, disc = solve_fixed_points(M)
    for r in (r_plus, r_minus):
        img = M.apply(r)
        assert (img - r).is_zero()
    # disc = tr^2 - 4
    tr = M.trace()
    assert (disc - (tr * tr - 4)).is_zero()
    assert compare_numeric(r_minus, r_plus) in (-1, 1)


def test_solve_fixed_points_rejects_elliptic():
    F = build_field(5)
    B = digit_matrix(F, 1)  # trace 1 - tau, |trace| < 2
    with pytest.raises(DomainError):
        solve_fixed_points(B)


def test_constant_digit_word_from_exact_fixed_point():
    # the Delta_3 fixed point generates the constant word (3, 3, 3, ...)
    from trianglecf.dynamics import cylinder_of_f, f_step

    F = build_field(5)
    M = digit_matrix(F, 3)
    r_plus, r_minus, _ = solve_fixed_points(M)
    root = None
    for cand in (r_plus, r_minus):
        lo = (1 - 2 * F.tau).inverse()
        hi = (1 - 3 * F.tau).inverse()
        if lo <= cand and cand < hi:
            root = cand
    assert root is not None
    x = root
    for _ in range(8):
        assert cylinder_of_f(F, x) == 3
        x, k, _ = f_step(F, x)
        assert (x - root).is_zero()


def test_mobius_apply_preserves_extension():
    F = build_field(5)
    M = digit_matrix(F, 2)
    D = F.from_fraction(5)
    x = QuadExt(F, Fraction(-1, 2), Fraction(1, 30), D)
    y = M.apply(x)
    assert isinstance(y, QuadExt)
    back = M.inverse().apply(y)
    assert (back - x).is_zero()


def test_every_exact_decision_is_one_refinement_run(monkeypatch):
    # count how deep _refine runs nest, in both modules that call it
    depth = peak = 0
    refine = field_module._refine

    def counted(*args):
        nonlocal depth, peak
        depth += 1
        peak = max(peak, depth)
        try:
            return refine(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(field_module, "_refine", counted)
    monkeypatch.setattr(quadratic_module, "_refine", counted)
    F = build_field(5)
    r_plus, r_minus, _ = solve_fixed_points(digit_matrix(F, 3))
    decisions = {
        "QuadExt.floor": r_plus.floor,
        "QuadExt.embed": r_plus.embed,
        "float(QuadExt)": lambda: float(r_minus),
        "compare_numeric": lambda: compare_numeric(r_minus, F.lam),
        "FieldElement.floor": (F.tau * 3).floor,
    }
    for name, decide in decisions.items():
        peak = 0
        decide()
        assert peak == 1, name


@st.composite
def exact_reals(draw):
    """A FieldElement with small rational coefficients, or a fixed point
    of a product of one or two slow-map digit matrices shifted by an
    integer, over a field of degree 2 to 6."""
    F = build_field(draw(st.sampled_from((4, 5, 7, 13))))
    if draw(st.booleans()):
        coeffs = st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20),
                          min_size=F.degree, max_size=F.degree)
        return F.element(draw(coeffs))
    M = digit_matrix(F, draw(st.integers(2, 6)))
    if draw(st.booleans()):
        M = M * digit_matrix(F, draw(st.integers(2, 6)))
    root = solve_fixed_points(M)[draw(st.integers(0, 1))]
    return root + draw(st.integers(-3, 3))


@settings(max_examples=80, deadline=None)
@given(exact_reals())
def test_floor_and_float_agree_with_the_exact_value(x):
    k = x.floor()
    assert k <= x and x < k + 1
    # float(x) rounds a point of x.embed(53), and rounding is monotone
    f = float(x)
    enc = x.embed(53)
    assert float(enc.lo) <= f <= float(enc.hi)
