import math
import random
from fractions import Fraction

import pytest

from trianglecf import group
from trianglecf.errors import ConsistencyError
from trianglecf.field import build_field
from trianglecf.group import (
    INFINITY,
    Mobius,
    b_sequence,
    digit_matrix,
    generators,
    power_B,
    random_group_word,
    rotation_conjugation_check,
    y_matrix,
)

NS = (4, 5, 6, 7, 10, 13)


@pytest.mark.parametrize("n", NS)
def test_generator_matrices(n):
    F = build_field(n)
    g = generators(F)
    assert g.A.entries()[1] == F.tau
    assert g.B.entries()[0] == F.lam
    # W = [[tau^2+1, tau^3], [-tau, -tau^2+1]] exactly
    t2 = F.tau * F.tau
    assert g.W == Mobius(F, t2 + 1, t2 * F.tau, -F.tau, 1 - t2)
    for M in g:
        assert (M.det() - 1).is_zero()


@pytest.mark.parametrize("n", NS)
def test_ab_equals_minus_c(n):
    F = build_field(n)
    g = generators(F)
    assert g.A * g.B == -g.C
    assert (g.A * g.B).proj_eq(g.C)


@pytest.mark.parametrize("n", NS)
def test_parabolic_word_forms(n):
    F = build_field(n)
    g = generators(F)
    A1C = g.A.inverse() * g.C
    A2C = g.A.inverse() ** 2 * g.C
    word1 = A2C * A1C ** (n - 3) * A2C * A1C ** (n - 2)
    word2 = g.A.inverse() * g.B.inverse() ** 2 * g.A.inverse() * g.B.inverse()
    assert word1.proj_eq(g.W)
    assert word2.proj_eq(g.W)
    # as literal SL2 matrices the cylinder word is -W (B^n = -Id), while
    # the B-word equals W on the nose
    assert word1 == -g.W
    assert word2 == g.W


@pytest.mark.parametrize("n", NS)
def test_cusps_standard_form(n):
    F = build_field(n)
    g = generators(F)
    assert g.B.apply(F.zero) is INFINITY
    assert g.C.apply(INFINITY) == F.one
    assert g.A.apply(INFINITY) is INFINITY
    assert g.W.apply(-F.tau) == -F.tau


def test_identity_action():
    F = build_field(5)
    x = F.element([Fraction(3, 7), Fraction(-1, 9)])
    assert Mobius.identity(F).apply(x) == x


def test_n4_generator_entries_exact():
    # lambda = sqrt(2): A = [[1, 1+sqrt2], [0, 1]]
    F = build_field(4)
    g = generators(F)
    assert g.A.entries()[1] == F.element([1, 1])
    assert (g.A.entries()[1] * g.A.entries()[1]) == F.element([3, 2])  # (1+s2)^2 = 3+2s2


@pytest.mark.parametrize("n", NS)
def test_power_b_closed_form(n):
    F = build_field(n)
    for j in range(0, 2 * n + 1):
        Bj = power_B(F, j)
        assert Bj.a == b_sequence(F, j + 1)
        assert Bj.b == b_sequence(F, j)
        assert Bj.c == -b_sequence(F, j)
        if j >= 1:
            assert Bj.d == -b_sequence(F, j - 1)
    assert power_B(F, 0) == Mobius.identity(F)
    assert power_B(F, n).proj_eq(Mobius.identity(F))


@pytest.mark.parametrize("n", NS)
def test_b_sequence_values(n):
    F = build_field(n)
    assert b_sequence(F, 0).is_zero()
    assert b_sequence(F, 1) == F.one
    assert b_sequence(F, 2) == F.lam
    assert b_sequence(F, n).is_zero()
    # numeric law sin(k pi/n)/sin(pi/n)
    for k in range(1, 2 * n):
        expect = math.sin(k * math.pi / n) / math.sin(math.pi / n)
        assert abs(float(b_sequence(F, k)) - expect) < 1e-9


def test_b_sequence_has_period_2n_at_large_index():
    # B_{k+n} = -B_k; index 2000 is computed without one stack frame per index
    F = build_field(7)
    assert b_sequence(F, 2000) == b_sequence(F, 2000 % 14)


def test_b3_golden_identity_n5():
    F = build_field(5)
    assert b_sequence(F, 3) == F.lam * F.lam - 1
    assert b_sequence(F, 3) == F.lam  # lam^2 = lam + 1


@pytest.mark.parametrize("n", (4, 6, 8, 12))
def test_half_turn_even_n(n):
    F = build_field(n)
    Bh = power_B(F, n // 2)
    # numerically [[-cot, -csc], [csc, cot]] up to projective sign
    cot = 1 / math.tan(math.pi / n)
    csc = 1 / math.sin(math.pi / n)
    num = [[-cot, -csc], [csc, cot]]
    can = Bh.canonical()
    target = Mobius.identity(F)  # placeholder for structure
    vals = [float(e) for e in can.entries()]
    flat = [num[0][0], num[0][1], num[1][0], num[1][1]]
    sign = 1.0 if (vals[0] * flat[0] >= 0 or abs(flat[0]) < 1e-12) else -1.0
    # compare up to a global sign
    diffs = [abs(a - sign * b) for a, b in zip(vals, flat)]
    diffs_neg = [abs(a + sign * b) for a, b in zip(vals, flat)]
    assert min(max(diffs), max(diffs_neg)) < 1e-9
    # exact landmarks: B^{n/2}(-tau) = 2 - tau = B(-1), and iterating the
    # half turn closes the circle: B^{n/2}(2 - tau) = -tau again
    assert Bh.apply(-F.tau) == 2 - F.tau
    assert Bh.apply(2 - F.tau) == -F.tau
    # the height recursion rests on B^{n-2}(-tau) = -1/tau for both parities
    assert (power_B(F, n - 2).apply(-F.tau) + F.tau.inverse()).is_zero()


@pytest.mark.parametrize("n", (5, 7, 9, 11))
def test_odd_n_landmarks(n):
    F = build_field(n)
    m = (n - 3) // 2
    # B^{n-2}(-tau) = -1/tau, then A^-2 C sends it to 1 - tau,
    # and B^m(1 - tau) = -1
    Bn2 = power_B(F, n - 2)
    v = Bn2.apply(-F.tau)
    assert (v + F.tau.inverse()).is_zero()
    A2C = digit_matrix(F, 2)
    assert A2C.apply(v) == 1 - F.tau
    Bm = power_B(F, m)
    assert (Bm.apply(1 - F.tau) + 1).is_zero()


def test_inverses_action_lemma():
    # M = [[a, b], [-b, 0]] with det 1 forces b = +-1; then
    # M . x = 1/(M^-1 . (1/x)) exactly
    F = build_field(5)
    rng = random.Random(77)
    for _ in range(25):
        a = F.element(
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(2)]
        )
        for b in (1, -1):
            M = Mobius(F, a, b, -b, 0)
            x = F.element([Fraction(rng.randrange(1, 60), 7), Fraction(1, 3)])
            lhs = M.apply(x)
            rhs = M.inverse().apply(x.inverse())
            assert (lhs - rhs.inverse()).is_zero()


@pytest.mark.parametrize("n", (4, 5, 7, 8))
def test_rotation_conjugation(n):
    # even n: 4 - lambda^2 is a square in K, and the check still holds
    F = build_field(n)
    assert rotation_conjugation_check(F) == {"n": n, "ok": True}


@pytest.mark.parametrize("n", (4, 5))
def test_rotation_conjugation_rejects_wrong_rotation(n, monkeypatch):
    F = build_field(n)
    g = generators(F)
    monkeypatch.setattr(group, "generators", lambda field: g._replace(B=g.B.inverse()))
    with pytest.raises(ConsistencyError, match="P B != beta P"):
        rotation_conjugation_check(F)


def test_rotation_conjugation_n4_entry():
    # (cot pi/8 + cot pi/4) * sin pi/4 = 1 + sqrt 2 = tau
    val = (1 / math.tan(math.pi / 8) + 1) * math.sin(math.pi / 4)
    assert abs(val - (1 + math.sqrt(2))) < 1e-12


@pytest.mark.parametrize("n", (5, 8))
def test_digit_matrices(n):
    F = build_field(n)
    for k in (1, 2, 3, 7, -1, -2, -5):
        M = digit_matrix(F, k)
        assert (M.det() - 1).is_zero()
        assert y_matrix(F, k) == M.conjugate_by_rotation()
    assert digit_matrix(F, -1) == generators(F).W
    # N_k = [[0, -1], [1, 1 - k tau]]
    N2 = y_matrix(F, 2)
    assert N2 == Mobius(F, 0, -1, 1, 1 - 2 * F.tau)


def test_det_preserved_under_products():
    F = build_field(6)
    rng = random.Random(5)
    M = random_group_word(F, rng, 12)
    assert (M.det() - 1).is_zero()


def test_mobius_hash_agrees_with_equality():
    F = build_field(5)
    g = generators(F)
    assert g.B * g.B.inverse() in {Mobius(F, 1, 0, 0, 1)}
    assert hash(g.B * g.C) == hash(Mobius(F, *(g.B * g.C).entries()))


def test_canonical_projective_equality():
    F = build_field(5)
    g = generators(F)
    assert (-g.B).proj_eq(g.B)
    assert not g.B.proj_eq(g.C)
