import random
from fractions import Fraction

import pytest

from trianglecf.errors import DomainError
from trianglecf.field import build_field, random_interval_point
from trianglecf.group import digit_matrix, generators, y_matrix
from trianglecf.dynamics import (
    acceleration_cylinder_bounds,
    branch,
    build_orbit_tables,
    cylinder_of_f,
    cylinder_of_g,
    cylinder_right_endpoint,
    eps0,
    f_step,
    full_cylinder_check,
    g_step,
    j_of,
    orbit,
    product_relations_check,
)


def test_cylinder_examples():
    F = build_field(4)
    assert cylinder_of_g(F, -F.tau) == 1
    # Delta_2 for n=4 is about [-0.7071, -0.2612)
    assert cylinder_of_g(F, F.from_fraction(Fraction(-1, 2))) == 2
    # left endpoint of Delta_3 belongs to Delta_3 (half-open convention)
    assert cylinder_of_g(F, (1 - 2 * F.tau).inverse()) == 3


def test_cylinder_domain_error():
    F = build_field(5)
    with pytest.raises(DomainError):
        cylinder_of_g(F, F.one)
    with pytest.raises(DomainError):
        cylinder_of_g(F, -F.tau - 1)


def test_step_formula_matches_matrix_action():
    # -k tau + 1 - 1/x is exactly the projective action of the digit matrix
    F = build_field(6)
    rng = random.Random(44)
    for _ in range(10):
        x = random_interval_point(F, rng, 64)
        x_new, k, M = g_step(F, x)
        assert (x_new - M.apply(x)).is_zero()


def test_g_step_examples():
    F = build_field(4)
    # plug k=2 into -k tau + 1 - 1/x at x = -1/2: 3 - 2 tau = 1 - 2 sqrt2
    x_new, k, M = g_step(F, F.from_fraction(Fraction(-1, 2)))
    assert k == 2
    assert x_new == 3 - 2 * F.tau
    assert abs(float(x_new) - (1 - 2 * 2 ** 0.5)) < 1e-12
    # phi_0 -> phi_1 = 1 - tau + 1/tau with digit 1
    x_new, k, _ = g_step(F, -F.tau)
    assert k == 1
    assert x_new == 1 - F.tau + F.tau.inverse()


def test_orbit_closure_all_n():
    for n in range(4, 11):
        F = build_field(n)
        tables = build_orbit_tables(F)
        # g of the last orbit point returns to -tau
        x_new, k, _ = g_step(F, tables.phi[-1])
        assert k == 2 and x_new == tables.phi[0]
        assert len(tables.phi) == 2 * n - 3
        assert list(tables.phi_digits) == [1] * (n - 2) + [2] + [1] * (n - 3) + [2]


def test_phi_landmarks():
    # even n: phi_{n/2-1} = -1; odd n = 2m+3: phi_{3m+2} = -1; phi_{n-1} = 1-tau
    for n in (4, 6, 8):
        F = build_field(n)
        t = build_orbit_tables(F)
        assert (t.phi[n // 2 - 1] + 1).is_zero()
        assert t.phi[n - 1] == 1 - F.tau
    for n in (5, 7, 9):
        F = build_field(n)
        t = build_orbit_tables(F)
        m = (n - 3) // 2
        assert (t.phi[3 * m + 2] + 1).is_zero()
        assert t.phi[n - 1] == 1 - F.tau
    # phi_{2n-4} is the left endpoint of Delta_2
    for n in (4, 5, 6):
        F = build_field(n)
        t = build_orbit_tables(F)
        assert t.phi[2 * n - 4] == cylinder_right_endpoint(F, 1)


def test_eps_identities():
    for n in (4, 5, 6, 7):
        F = build_field(n)
        t = build_orbit_tables(F)
        assert t.eps[0] == eps0(F)
        # eps_{2n-4} = 1/(1-2tau), exactly
        assert t.eps[2 * n - 4] == (1 - 2 * F.tau).inverse()
        # backwards orbit reverses the eps orbit
        for j, a in enumerate(t.alpha, start=1):
            assert a == t.eps[2 * n - 3 - j]


def test_eps0_formula():
    F = build_field(5)
    tau = F.tau
    assert eps0(F) == -(tau ** 3) / (1 + tau * tau)
    assert eps0(F) == generators(F).W.inverse().apply(F.zero)


def test_j_of_examples():
    F = build_field(4)
    lo1, hi1 = acceleration_cylinder_bounds(F, 1)
    assert hi1 == eps0(F)
    mid = (lo1 + hi1) / 2
    assert j_of(F, mid) == 1
    W = generators(F).W
    # pulling a j=1 point back through W lands in the j=2 cylinder
    assert j_of(F, W.inverse().apply(mid)) == 2
    # monotone growth towards the fixed point
    prev = 0
    for i in range(3, 12):
        x = -F.tau + F.tau * Fraction(1, 2 ** i)
        if not x < eps0(F):
            continue
        j = j_of(F, x)
        assert j >= prev
        prev = j
    assert prev > 20


def test_j_of_domain():
    F = build_field(5)
    with pytest.raises(DomainError):
        j_of(F, eps0(F))
    with pytest.raises(DomainError):
        j_of(F, -F.tau)


def test_j_of_against_brute_force_exact():
    F = build_field(5)
    W = generators(F).W
    e0 = eps0(F)
    rng = random.Random(31)
    tested = 0
    while tested < 60:
        # bias samples towards the fixed point, keeping j small enough to
        # iterate W explicitly
        i = rng.randrange(1, 8)
        q = Fraction(rng.getrandbits(24) | 1, 1 << 24)
        x = -F.tau + F.tau * q * Fraction(1, 2 ** i)
        if not (-F.tau < x and x < e0):
            continue
        j = j_of(F, x)
        if j > 55:
            continue
        # brute force: apply W until the point leaves the accelerated region
        y = x
        count = 0
        while y < e0 and count <= j + 2:
            y = W.apply(y)
            count += 1
        assert count == j
        assert e0 <= y and y < F.zero
        tested += 1


def test_j_of_against_brute_force_float():
    import math

    F = build_field(6)
    tau = float(F.tau)
    e0 = float(eps0(F))
    t2 = tau * tau
    rng = random.Random(12)
    for _ in range(1000):
        u = math.exp(rng.uniform(math.log(1e-9), math.log(tau + e0)))
        x = -tau + u
        if not (-tau < x < e0):
            continue
        j = math.ceil(-1.0 / t2 + 1.0 / (tau * u)) - 1
        y, count = x, 0
        while y < e0 and count <= min(j + 2, 60):
            w = y + tau
            y = w / (1.0 - tau * w) - tau
            count += 1
        if j <= 50:
            assert count == j


def test_cylinder_of_f_examples():
    F = build_field(5)
    e0 = eps0(F)
    assert cylinder_of_f(F, e0) == 1
    lo1, hi1 = acceleration_cylinder_bounds(F, 1)
    mid = (lo1 + hi1) / 2
    assert cylinder_of_f(F, mid) == -1
    W = generators(F).W
    img = W.apply(mid)
    assert e0 <= img and img < F.zero
    # Delta'_k = Delta_k for k > 2
    assert cylinder_of_f(F, (1 - 2 * F.tau).inverse()) == 3
    # the fixed point is handled as a digit-1 point
    assert cylinder_of_f(F, -F.tau) == 1


def test_f_step_matches_g_above_eps0():
    F = build_field(5)
    x = F.from_fraction(Fraction(-1, 2))
    assert f_step(F, x)[0] == g_step(F, x)[0]


def test_f_step_acceleration_exact():
    F = build_field(5)
    lo, hi = acceleration_cylinder_bounds(F, 1)
    x = (lo + hi) / 2
    x_new, k, M = f_step(F, x)
    assert k == -1
    assert x_new == generators(F).W.apply(x)


def test_eps_orbit_matches_f_iteration():
    for n in (4, 6):
        F = build_field(n)
        t = build_orbit_tables(F)
        x = t.eps[0]
        for i in range(1, 2 * n - 3):
            x, k, _ = f_step(F, x)
            assert x == t.eps[i]
            assert k == t.eps_digits[i - 1]


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 9, 10))
def test_product_relations(n):
    rep = product_relations_check(build_field(n))
    assert rep["ok"]


def test_product_relations_n4_center():
    # j = 0 gives phi_1^2 = 1 with phi_1 = -1
    F = build_field(4)
    t = build_orbit_tables(F)
    assert (t.phi[1] + 1).is_zero()
    assert (t.phi[0] * t.phi[2] - 1).is_zero()


def test_product_relations_n5_families():
    # odd family around phi_5 = -1 plus the index-sum family
    F = build_field(5)
    t = build_orbit_tables(F)
    assert (t.phi[5] + 1).is_zero()
    assert (t.phi[4] * t.phi[6] - 1).is_zero()
    assert (t.phi[0] * t.phi[3] - 1).is_zero()
    assert (t.phi[1] * t.phi[2] - 1).is_zero()


@pytest.mark.parametrize("n", (4, 5, 8))
def test_full_cylinders(n):
    assert full_cylinder_check(build_field(n))["ok"]


def test_delta1_image():
    # g(Delta_1) = [1 - tau + 1/tau, 0)
    F = build_field(5)
    M1 = digit_matrix(F, 1)
    assert M1.apply(-F.tau) == 1 - F.tau + F.tau.inverse()
    assert M1.apply(cylinder_right_endpoint(F, 1)).is_zero()


def test_steps_stay_in_interval():
    F = build_field(6)
    rng = random.Random(8)
    for _ in range(15):
        x = random_interval_point(F, rng, 64)
        for _ in range(12):
            x, k, _ = f_step(F, x)
            assert -F.tau <= x and x < F.zero


def test_orbit_helper_stops_at_fixed_point():
    F = build_field(5)
    xs, ds = orbit(F, (1 - 2 * F.tau).inverse(), 10)
    # digit 3 sends it to -tau where the accelerated orbit is cut off
    assert ds == [3]
    assert xs[-1] == -F.tau


def test_acceleration_cylinders_partition():
    F = build_field(5)
    prev_hi = None
    for j in range(1, 8):
        lo, hi = acceleration_cylinder_bounds(F, j)
        assert lo < hi
        if prev_hi is not None:
            assert hi == prev_lo
        prev_lo, prev_hi = lo, hi
    assert acceleration_cylinder_bounds(F, 1)[1] == eps0(F)


@pytest.mark.parametrize("n", (4, 5, 8))
def test_branch_table(n):
    F = build_field(n)
    e0 = eps0(F)
    tables = build_orbit_tables(F)
    # the cylinders tile [-tau, 0) from the acceleration stack rightwards
    for j in range(1, 6):
        assert branch(F, -j).lo == branch(F, -(j + 1)).hi
    assert branch(F, -1).hi == e0 == branch(F, 1).lo
    for k in range(1, 8):
        assert branch(F, k).hi == branch(F, k + 1).lo
    for k in list(range(-6, 0)) + list(range(1, 9)):
        b = branch(F, k)
        assert b.digit == k
        assert b.lo < b.hi
        if k < 0:
            assert b.image_lo == e0
        elif k == 1:
            assert b.image_lo == tables.eps[1]
        else:
            assert b.image_lo == -F.tau
        assert b.M == digit_matrix(F, k)
        assert b.N == y_matrix(F, k)
        assert b.M.apply(b.hi) == 0
    with pytest.raises(DomainError):
        branch(F, 0)
