import math
import random
from fractions import Fraction

import pytest

from trianglecf import dioph
from trianglecf.errors import ConsistencyError, DomainError
from trianglecf.field import build_field, random_interval_point
from trianglecf.group import Mobius
from trianglecf.dynamics import branch, build_orbit_tables, cylinder_lo, digit_of
from trianglecf.planar import (
    PlanarRegion, T_digit_of_y, build_gamma, build_heights, gamma_hyperbola_gap,
)
from trianglecf.dioph import (
    danger_curves_exceeded,
    danger_region_contains,
    expand,
    periodic_point,
    theta_fn,
)
from trianglecf.measure import log_q_sequence, periodic_family_report, transcendence_indicator


def test_theta_examples():
    F = build_field(5)
    assert theta_fn(-F.tau, F.zero) == F.tau
    # the limit point (1/(1-tau), L_{2n-5}) sits on theta = tau
    x = cylinder_lo(F, 2)
    y = build_heights(F).level(2 * F.n - 5)
    assert (theta_fn(x, y) - F.tau).is_zero()
    with pytest.raises(DomainError):
        theta_fn(F.one * -1, F.one)  # 1 + xy = 0


def test_theta_zero_start():
    # before any step: Theta_0 = |x| since v_0 = 0
    F = build_field(5)
    x = F.from_fraction(Fraction(-7, 10))
    res = expand(F, x, 0)
    assert res.thetas[0] == abs(x)
    assert res.vs[0].is_zero()


def test_initial_state_reads_identity():
    F = build_field(5)
    st = expand(F, F.from_fraction(Fraction(-7, 10)), 0).states[0]
    assert st.q == F.one and st.p.is_zero()
    assert st.q_prev.is_zero() and st.p_prev == F.one


def test_expand_cross_checks_and_reconstruction():
    # expand() asserts exact agreement of the three theta computations and
    # the reconstruction identity internally at every step
    F = build_field(5)
    rng = random.Random(21)
    for _ in range(8):
        x = random_interval_point(F, rng, 96)
        res = expand(F, x, 30, check_natural_extension=True)
        assert res.f_rational or len(res.digits) == 30
        st = res.states[-1]
        assert (st.det() - 1).is_zero()
        # x from t = f^m(x): (p_prev t + p)/(q_prev t + q)
        t = res.ts[-1]
        assert ((st.p_prev * t + st.p) / (st.q_prev * t + st.q) - x).is_zero()


def test_expand_natural_extension_membership():
    # (t_m, v_m) lies in Gamma at every step: the operational content of the
    # planar extension
    F = build_field(6)
    rng = random.Random(5)
    x = random_interval_point(F, rng, 80)
    expand(F, x, 25, check_natural_extension=True)


def test_cusp_orbit_flagged():
    F = build_field(5)
    x = (1 - 2 * F.tau).inverse()
    res = expand(F, x, 10)
    assert res.f_rational
    assert res.digits == [3]


def test_window_mins_below_tau():
    F = build_field(5)
    rng = random.Random(33)
    x = random_interval_point(F, rng, 128)
    res = expand(F, x, 60)
    tau = float(F.tau)
    # min over Theta_{m-1..m+n-1} for m = 1..M-n+1 (n+1 values each)
    th = [float(t) for t in res.thetas]
    window_mins = [min(th[m - 1 : m + F.n]) for m in range(1, len(th) - F.n)]
    for wm in window_mins:
        assert wm <= tau + 1e-12


def test_danger_region_examples():
    F = build_field(5)
    tau = F.tau
    # theta(-tau, 0) equals tau, not strictly above: outside the region
    assert not danger_region_contains(F, (-tau, F.zero))
    # anything left of eps0 is outside
    t = build_orbit_tables(F)
    lo = -tau + (t.eps[0] + tau) * Fraction(1, 3)
    fibers = build_gamma(F).fiber_at(lo)
    y = fibers[0][1] * Fraction(1, 2)
    assert not danger_region_contains(F, (lo, y))
    # x-coordinate at or beyond 1/(1-tau) is outside
    x = cylinder_lo(F, 2) * Fraction(99, 100)
    if build_gamma(F).contains(x, F.zero):
        assert not danger_region_contains(F, (x, F.zero))


def test_danger_boundary_curves():
    F = build_field(5)
    tau = F.tau
    # (-tau, 0) and (0, tau) lie exactly on the two boundary curves
    lhs = -(-tau).inverse() - tau.inverse()  # -1/x - 1/tau at x = -tau
    assert (lhs - F.zero).is_zero()
    rhs = tau / (1 - tau * F.zero)  # tau/(1 - tau x) at x = 0
    assert (rhs - tau).is_zero()


def test_danger_curve_equivalence_on_cf_branches():
    # where the predecessor decodes to a continued-fraction branch, the
    # two-curve description matches the definition
    F = build_field(5)
    ga = build_gamma(F)
    rng = random.Random(71)
    done = 0
    while done < 60:
        q = Fraction(rng.getrandbits(34), 1 << 34)
        x = -F.tau * q
        fibers = ga.fiber_at(x)
        if not fibers:
            continue
        lo, hi = fibers[rng.randrange(len(fibers))]
        y = lo + (hi - lo) * Fraction(rng.getrandbits(30) | 1, 1 << 30)
        if T_digit_of_y(F, y) < 0:
            continue
        assert danger_region_contains(F, (x, y)) == danger_curves_exceeded(F, (x, y))
        done += 1


@pytest.mark.parametrize("n,j", [(4, 1), (4, 3), (5, 1), (5, 2), (6, 1), (6, 4)])
def test_periodic_point_exact(n, j):
    F = build_field(n)
    pp = periodic_point(F, j)
    assert pp.digits == (2, -j) + (1,) * (n - 3)
    # the quadratic it satisfies, exactly
    c, lin, const = pp.quad_coeffs
    val = c * pp.x * pp.x + lin * pp.x + const
    assert val.is_zero()
    # theta at the point is the orbit minimum and below tau
    assert pp.theta_min < F.tau
    for th in pp.theta_orbit[1:]:
        assert pp.theta_min < th


@pytest.mark.parametrize("n", (4, 5, 6))
def test_periodic_family_monotone(n):
    rep = periodic_family_report(build_field(n), j_max=6)
    assert rep["ok"]
    gaps = rep["tau_gaps"]
    assert all(g > 0 for g in gaps)
    assert gaps[-1] < gaps[0]
    # P_j approaches the limit point (1/(1-tau), L_{2n-5})
    assert rep["limit_distance"] < 0.2


def test_periodic_seeded_theta_run():
    # the periodic orbit carries exactly n-2 consecutive theta values above tau
    for n, j in ((4, 2), (5, 1), (6, 1)):
        F = build_field(n)
        pp = periodic_point(F, j)
        assert pp.full_run_above_tau
        res = expand(F, pp.x, 5 * (n - 1))
        tau = F.tau
        best = cur = 0
        for th in res.thetas:
            if (th - tau).sign() > 0:
                cur += 1
                best = max(best, cur)
            else:
                cur = 0
        assert best == n - 2


def convergence_witness_exact(field, x, steps: int = 40) -> dict:
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


def test_convergence_witness_exact():
    F = build_field(5)
    rng = random.Random(42)
    x = random_interval_point(F, rng, 128)
    rep = convergence_witness_exact(F, x, 30)
    assert rep["max_v"] <= float(F.tau) + 1e-12
    assert rep["min_one_plus_tv"] >= rep["hyperbola_gap"] - 1e-12


def test_transcendence_synthetic():
    log2 = math.log(2)
    fast = [4.0 ** m * log2 for m in range(1, 31)]       # q_m = 2^(4^m)
    at_threshold = [3.0 ** m * log2 for m in range(1, 31)]  # q_m = 2^(3^m)
    slow = [1.5 ** m * log2 for m in range(1, 31)]
    r_fast = transcendence_indicator(fast, 2)
    r_at = transcendence_indicator(at_threshold, 2)
    r_slow = transcendence_indicator(slow, 2)
    assert r_fast["flagged"]
    assert abs(r_fast["statistic"] - math.log(4)) < 0.02
    assert not r_at["flagged"]
    assert abs(r_at["statistic"] - math.log(3)) < 0.02
    assert not r_slow["flagged"]


def test_transcendence_needs_history():
    with pytest.raises(DomainError):
        transcendence_indicator([1.0] * 5, 2)


def test_transcendence_periodic_input_not_flagged():
    F = build_field(5)
    pp = periodic_point(F, 1)
    logs = log_q_sequence(F, pp.x, 100)
    rep = transcendence_indicator(logs, F.degree)
    assert rep["statistic"] < 0.1
    assert not rep["flagged"]


def test_q_ratio_bound_along_exact_orbit():
    # q_m/q_{m+1} = v_{m+1} <= tau at every step
    F = build_field(5)
    rng = random.Random(9)
    x = random_interval_point(F, rng, 100)
    res = expand(F, x, 40)
    for v in res.vs[1:]:
        assert v <= F.tau
    # non-monotone denominators do occur: some v exceeds 1
    assert any(v > 1 for v in res.vs[1:])


def test_theta_ratio_identity():
    # for a continued-fraction-shaped branch pair (M, N):
    # theta(M x, N y)/theta(x, y) = -(M x)/(N y), exactly
    from trianglecf.group import digit_matrix, y_matrix

    F = build_field(5)
    ga = build_gamma(F)
    rng = random.Random(55)
    done = 0
    while done < 40:
        q = Fraction(rng.getrandbits(34) | 1, 1 << 34)
        x = -F.tau * q
        fibers = ga.fiber_at(x)
        if not fibers:
            continue
        lo, hi = fibers[0]
        y = lo + (hi - lo) * Fraction(rng.getrandbits(30) | 1, 1 << 30)
        if y.is_zero():
            continue
        from trianglecf.dynamics import cylinder_of_f

        k = cylinder_of_f(F, x)
        if k < 1:
            continue
        M, N = digit_matrix(F, k), y_matrix(F, k)
        xn, yn = M.apply(x), N.apply(y)
        lhs = theta_fn(xn, yn) / theta_fn(x, y)
        rhs = -(xn / yn)
        assert (lhs - rhs).is_zero()
        done += 1


def test_danger_membership_matches_theta_pairs():
    # min(Theta_{m-1}, Theta_m) > tau exactly when the planar orbit point
    # lies in the large-coefficient region
    F = build_field(5)
    rng = random.Random(66)
    x = random_interval_point(F, rng, 100)
    res = expand(F, x, 50)
    tau = F.tau
    for m in range(1, len(res.thetas)):
        pair_above = (
            (res.thetas[m - 1] - tau).sign() > 0
            and (res.thetas[m] - tau).sign() > 0
        )
        point = (res.ts[m], res.vs[m])
        assert danger_region_contains(F, point) == pair_above


def test_danger_region_decides_gamma_membership_once_per_point(monkeypatch):
    # theta > tau near Gamma's upper-left corner, so the preimage is taken:
    # one membership decision for the point and one for its preimage
    F = build_field(5)
    corner = build_gamma(F).rects()[0]
    point = (corner.x_lo + Fraction(1, 1000), corner.y_hi - Fraction(1, 1000))
    assert theta_fn(*point) > F.tau
    calls = []
    contains = PlanarRegion.contains

    def counted(self, x, y):
        calls.append((x, y))
        return contains(self, x, y)

    monkeypatch.setattr(PlanarRegion, "contains", counted)
    danger_region_contains(F, point)
    assert len(calls) == 2

def test_theta_bounded_by_gamma_sup():
    from trianglecf.dioph import sup_theta_gamma

    F = build_field(5)
    sup = sup_theta_gamma(F)
    assert sup.sign() > 0
    rng = random.Random(3)
    for _ in range(5):
        x = random_interval_point(F, rng, 96)
        res = expand(F, x, 40)
        for th in res.thetas:
            assert th <= sup
            assert th.sign() > 0  # no vanishing coefficients off the cusps


def test_expand_step_products(monkeypatch):
    # an A^-k C step updates P_m in 2 kernel products and checks v in 3; a
    # W^j step takes the general 8 and 6.  With a X + delta b for A^ and
    # B^ (1, or 2 after W^j), q times each (2), D^ (2), the successor form
    # (2, A^-k C only) and the reconstruction (3), a step makes 15 or 23
    F = build_field(5)
    x = random_interval_point(F, random.Random(3), 256)
    warm = expand(F, x, 60)
    assert {k >= 1 for k in warm.digits} == {True, False}
    products, in_digit = 0, False
    kernel = F._mul

    def counted(a, b):
        nonlocal products
        products += not in_digit
        return kernel(a, b)

    def digit(*args):
        # digit_of's own products, on its exact path, are not the step's
        nonlocal in_digit
        in_digit = True
        try:
            return digit_of(*args)
        finally:
            in_digit = False

    monkeypatch.setattr(F, "_mul", counted)
    monkeypatch.setattr(dioph, "digit_of", digit)
    res = expand(F, x, 60)
    assert res.digits == warm.digits
    forward = sum(k >= 1 for k in res.digits)
    assert products == 1 + 15 * forward + 23 * (len(res.digits) - forward)


def test_expand_rejects_a_running_product_of_determinant_other_than_one(monkeypatch):
    # 2 M acts as M does, but det(2 M) = 4 breaks the (t, v) check D = q
    F = build_field(5)

    def doubled(field, k):
        b = branch(field, k)
        return b._replace(M=Mobius(field, *(2 * e for e in b.M.entries())))

    monkeypatch.setattr(dioph, "branch", doubled)
    with pytest.raises(ConsistencyError, match="det P_m != 1"):
        expand(F, F.from_fraction(Fraction(-7, 10)), 5)
