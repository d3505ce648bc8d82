from fractions import Fraction

import pytest

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
