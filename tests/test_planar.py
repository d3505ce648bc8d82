import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from trianglecf import dynamics
from trianglecf import planar as planar_module
from trianglecf.errors import ConsistencyError, DomainError
from trianglecf.field import FieldElement, build_field
from trianglecf.group import INFINITY, Mobius, digit_matrix, y_matrix
from trianglecf.dynamics import branch, build_orbit_tables, eps0
from trianglecf.planar import (
    PlanarRegion,
    Rect,
    Slab,
    S_step,
    T_digit_of_y,
    T_inverse,
    T_step,
    _check_band_tiling,
    _check_branch_measure,
    _check_orientation,
    _check_gamma_in_omega,
    _cylinder_pieces,
    _distribute_bands,
    _region_images,
    acceleration_fiber_top,
    build_gamma,
    build_heights,
    build_omega,
    gamma_hyperbola_gap,
    verify_bijectivity,
)
from trianglecf.measure import (
    _log_ratio,
    mu_gamma,
    mu_rect,
    nu_band_mass,
    nu_cdf,
    nu_density,
    omega_divergence_partial_sums,
)


def test_height_base_values():
    for n in (4, 5, 6, 9):
        F = build_field(n)
        h = build_heights(F)
        assert h.level(1) == F.tau.inverse()
        assert h.level(2) == (F.tau - 1).inverse()
        assert h.R == F.tau
        assert len(h.L) == 2 * n - 4
        # top L-height is tau - 1 so the wrap-around N_2 L_{2n-4} = L_1 holds
        assert h.L[-1] == F.tau - 1
        N2 = y_matrix(F, 2)
        assert N2.apply(h.L[-1]) == h.level(1)


def test_n4_heights_frozen():
    # hand values: 1/tau = lam-1, 1/(tau-1) = lam/2, then 1, lam
    F = build_field(4)
    h = build_heights(F)
    assert h.level(1) == F.element([-1, 1])
    assert h.level(2) == F.element([0, Fraction(1, 2)])
    assert h.level(3) == F.one
    assert h.level(4) == F.lam


def test_heights_walk_the_n1_chain_once(monkeypatch):
    # the heights are -1/x for the Omega slab ends, whose inverses g_step
    # has made; the N_1 and N_2 identities are numerator identities, so
    # building them applies no matrix (the two N_1 chains made 2n - 4)
    F = build_field(16)
    # the tables and branches it reads are cached; build them beforehand
    build_orbit_tables(F), branch(F, 1), branch(F, 2)
    calls = 0
    apply = Mobius.apply

    def counted(self, x):
        nonlocal calls
        calls += 1
        return apply(self, x)

    monkeypatch.setattr(Mobius, "apply", counted)
    heights = build_heights.__wrapped__(F)
    assert calls == 0
    assert heights == build_heights(F)


@pytest.mark.parametrize("n", (4, 5, 8))
def test_heights_refuse_another_n1(n, monkeypatch):
    # digit 1's N swapped for another det-1 matrix: the heights, read off
    # the orbit, no longer satisfy N_1 L_i = L_{i+2}
    F = build_field(n)
    build_orbit_tables(F)
    swapped = branch(F, 1)._replace(N=Mobius(F, 1, 1, 0, 1))
    monkeypatch.setattr(planar_module, "branch",
                        lambda field, k: swapped if k == 1 else branch(field, k))
    with pytest.raises(ConsistencyError, match="N_1"):
        build_heights.__wrapped__(F)


def test_height_monotonicity_and_product():
    for n in (4, 5, 6, 7, 8):
        F = build_field(n)
        h = build_heights(F)
        chain = list(h.L) + [h.R]
        for a, b in zip(chain, chain[1:]):
            assert a < b
        prod = h.R
        for v in h.L:
            prod = prod * v
        assert (prod - 1).is_zero()


def test_nk_actions():
    F = build_field(5)
    tau = F.tau
    for k in (1, 2, 3, 5):
        Nk = y_matrix(F, k)
        assert Nk.apply(tau) == (tau * (k - 1) - 1).inverse()
        assert Nk.apply(F.zero) == (tau * k - 1).inverse()


def test_n1_power_identity():
    for n in (4, 5, 6, 10):
        F = build_field(n)
        N1 = y_matrix(F, 1)
        acc = F.tau.inverse()
        for _ in range(n - 2):
            acc = N1.apply(acc)
        assert acc == F.tau


def test_omega_structure():
    F = build_field(5)
    om = build_omega(F)
    assert len(om.slabs) == 2 * F.n - 3
    t = build_orbit_tables(F)
    assert om.slabs[0].x_lo == t.phi[0]
    assert om.slabs[0].fibers[0][1] == build_heights(F).level(1)
    assert om.slabs[-1].x_hi == F.zero
    assert om.slabs[-1].fibers[0][1] == F.tau


def test_gamma_structure_and_landmarks():
    F = build_field(5)
    ga = build_gamma(F)
    # leftmost slab [-tau, eps0) x [0, tau/(tau^2+1)]
    first = ga.slabs[0]
    assert first.x_lo == -F.tau
    assert first.x_hi == eps0(F)
    assert first.fibers[0][1] == acceleration_fiber_top(F)
    # rightmost slab [1/(1-2tau), 0) x [0, tau]
    last = ga.slabs[-1]
    assert last.x_lo == (1 - 2 * F.tau).inverse()
    assert last.x_hi == F.zero
    assert last.fibers[0][1] == F.tau
    # for n=5 the acceleration fiber top is exactly 1/3
    assert acceleration_fiber_top(F) == F.from_fraction(Fraction(1, 3))


def test_hyperbola_corner_excluded():
    F = build_field(5)
    t = build_orbit_tables(F)
    h = build_heights(F)
    corner_x, corner_y = t.phi[0], h.level(1)
    # the corner sits exactly on 1 + xy = 0
    assert (1 + corner_x * corner_y).is_zero()
    assert not build_gamma(F).contains(corner_x, corner_y)
    assert build_omega(F).contains(corner_x, corner_y)
    gap = gamma_hyperbola_gap(F)
    assert gap.sign() == 1


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8))
def test_bijectivity(n):
    # the tiling and every piece's measure are checked exactly inside
    rep = verify_bijectivity(build_field(n))
    assert rep["ok"]
    assert rep["omega"]["ok"] and rep["gamma"]["ok"]


def _check_measure(src, img) -> None:
    """Oracle: mu(src) == mu(img) for rectangles (x1, x2, y1, y2), decided
    exactly.  mu([x1, x2] x [y1, y2]) = log[(1+x1y1)(1+x2y2) / ((1+x1y2)(1+x2y1))],
    so the two measures agree iff the cross-multiplied products do.  A piece
    with a corner on 1 + xy = 0 (Omega's infinite-mass corner) gives 0 == 0."""
    x1, x2, y1, y2 = src
    X1, X2, Y1, Y2 = img
    if ((1 + x1 * y1) * (1 + x2 * y2) * (1 + X1 * Y2) * (1 + X2 * Y1)
            != (1 + X1 * Y1) * (1 + X2 * Y2) * (1 + x1 * y2) * (1 + x2 * y1)):
        raise ConsistencyError("a branch does not preserve the measure of a piece")


@pytest.mark.parametrize("n", (5, 16))
def test_every_finite_piece_keeps_its_measure(n):
    # the per-branch identity proves this; the per-piece oracle confirms it
    # on the very images that verify_bijectivity tiles with
    F = build_field(n)
    checked = 0
    for region, accelerated in ((build_omega(F), False), (build_gamma(F), True)):
        srcs, images = _region_images(F, region, accelerated)
        for (digit, *src), img in zip(srcs, images):
            _check_measure(src, img)
            checked += 1
    rep = verify_bijectivity(F)
    assert checked == rep["omega"]["pieces"] + rep["gamma"]["pieces"] > 0


@pytest.mark.parametrize("n, finite_pieces", ((5, 9), (16, 20)))
def test_measure_oracle_rejects_y_mapped_by_M(n, finite_pieces):
    F = build_field(n)
    checked = 0
    for region, accelerated in ((build_omega(F), False), (build_gamma(F), True)):
        for (digit, x1, x2, y1, y2) in _cylinder_pieces(F, region, accelerated):
            b = branch(F, digit)
            wrong_y = (b.M.apply(y1), b.M.apply(y2))
            if INFINITY in wrong_y:
                continue  # M_k, k >= 1, has its pole at y = 0
            src = (x1, x2, y1, y2)
            X = (b.M.apply(x1), b.M.apply(x2))
            _check_measure(src, X + (b.N.apply(y1), b.N.apply(y2)))
            with pytest.raises(ConsistencyError, match="measure"):
                _check_measure(src, X + wrong_y)
            checked += 1
    assert checked == finite_pieces


@pytest.mark.parametrize("n", (5, 16))
def test_measure_identity_rejects_y_mapped_by_M(n):
    F = build_field(n)
    for k in (*range(-6, 0), *range(1, 7)):
        b = branch(F, k)
        _check_branch_measure(b)
        with pytest.raises(ConsistencyError, match="measure"):
            _check_branch_measure(b._replace(N=b.M))


@pytest.mark.parametrize("n", (5, 16))
def test_measure_identity_rejects_det_not_one(n, monkeypatch):
    # 2M and its rotation conjugate 2N are paired, but det 2M = 4: the
    # branch table, which decides SL2(Z[lambda]) for each entry, refuses it
    F = build_field(n)
    for k in (-2, -1, 1, 2, 6):
        b = branch(F, k)
        M2 = Mobius(F, *(2 * e for e in b.M.entries()))
        assert M2.conjugate_by_rotation() == Mobius(F, *(2 * e for e in b.N.entries()))
        # the pairing holds; det M = 1 is decided where the entry is built
        _check_branch_measure(b._replace(M=M2, N=M2.conjugate_by_rotation()))
        with monkeypatch.context() as m:
            m.setattr(dynamics, "digit_matrix", lambda field, k: M2)
            m.setattr(dynamics, "y_matrix", lambda field, k: M2.conjugate_by_rotation())
            with pytest.raises(ConsistencyError, match=f"branch {k} matrix M has determinant"):
                branch.__wrapped__(F, k)


def test_mu_rect_degenerate_and_domain():
    F = build_field(5)
    a = F.from_fraction(Fraction(-1, 2))
    b = F.from_fraction(Fraction(-1, 4))
    y1 = F.zero
    y2 = F.one
    assert mu_rect(Rect(a, a, y1, y2)) == 0.0
    assert mu_rect(Rect(a, b, y1, y1)) == 0.0
    with pytest.raises(DomainError):
        # crosses 1 + xy = 0
        mu_rect(Rect(-F.tau, b, y1, F.tau))


def test_mu_positive_and_additive():
    F = build_field(5)
    a = F.from_fraction(Fraction(-3, 4))
    m = F.from_fraction(Fraction(-1, 2))
    b = F.from_fraction(Fraction(-1, 4))
    y1, y2 = F.zero, F.one
    whole = mu_rect(Rect(a, b, y1, y2))
    parts = mu_rect(Rect(a, m, y1, y2)) + mu_rect(Rect(m, b, y1, y2))
    assert whole > 0
    assert abs(whole - parts) < 1e-13


def _common_fiber_top(F, k):
    h = build_heights(F)
    if k >= 3:
        return F.tau
    if k == 2:
        return h.level(2 * F.n - 5)
    if k == 1:
        return h.level(1)
    return acceleration_fiber_top(F)


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_pushforward_invariance_random_rects(n):
    F = build_field(n)
    rng = random.Random(900 + n)
    worst = 0.0
    trials = 0
    while trials < 120:
        k = rng.choice([1, 2, 3, 4, -1, -2])
        b = branch(F, k)
        lo, hi = b.lo, b.hi
        q1, q2 = sorted(Fraction(rng.getrandbits(30), 1 << 30) for _ in range(2))
        if q1 == q2:
            continue
        x1, x2 = lo + (hi - lo) * q1, lo + (hi - lo) * q2
        top = _common_fiber_top(F, k)
        r1, r2 = sorted(Fraction(rng.getrandbits(30), 1 << 30) for _ in range(2))
        if r1 == r2:
            continue
        y1, y2 = top * r1, top * r2
        M, N = digit_matrix(F, k), y_matrix(F, k)
        src = Rect(x1, x2, y1, y2)
        img = Rect(M.apply(x1), M.apply(x2), N.apply(y1), N.apply(y2))
        worst = max(worst, abs(mu_rect(src) - mu_rect(img)))
        trials += 1
    assert worst <= 1e-12


def test_mu_gamma_finite_positive():
    for n in (4, 5, 6, 7):
        v = mu_gamma(build_field(n))
        assert 0 < v < 100


def test_omega_divergence():
    sums = omega_divergence_partial_sums(build_field(5), 30.0)
    assert sums[-1] > 30.0
    assert all(b > a for a, b in zip(sums, sums[1:]))
    # each dyadic halving towards the corner contributes exactly log 2
    assert abs(sums[0] - math.log(2)) < 1e-12


def test_nu_normalization_and_density():
    F = build_field(5)
    assert abs(nu_cdf(F, -F.tau, F.zero) - 1.0) < 1e-12
    # unnormalized density on the deep strip is tau/(1 + tau x)
    x = F.from_fraction(Fraction(-1, 10))
    expect = float(F.tau / (1 + F.tau * x))
    assert abs(nu_density(F, x) * mu_gamma(F) - expect) < 1e-12


def _simpson(f, a, b, m):
    if m % 2:
        m += 1
    h = (b - a) / m
    ys = [f(a + h * i) for i in range(m + 1)]
    return (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-2:2])) * h / 3


@lru_cache(maxsize=None)
def _float_slabs(field):
    out = []
    for slab in build_gamma(field).slabs:
        out.append(
            (
                float(slab.x_lo),
                float(slab.x_hi),
                tuple((float(a), float(b)) for a, b in slab.fibers),
            )
        )
    return out


def nu_density_float(field, x: float) -> float:
    """Float shadow of the marginal density, for quadrature sanity checks."""
    for lo, hi, fibers in _float_slabs(field):
        if lo <= x < hi:
            total = 0.0
            for (y1, y2) in fibers:
                total += (y2 - y1) / ((1 + x * y1) * (1 + x * y2))
            return total / mu_gamma(field)
    raise DomainError("abscissa outside the interval")


def test_nu_density_integrates_to_one():
    # piecewise Simpson over every slab: the density is analytic between
    # breakpoints, so the composite rule reaches the rounding floor
    F = build_field(5)
    total = 0.0
    for slab in build_gamma(F).slabs:
        a, b = float(slab.x_lo), float(slab.x_hi)
        total += _simpson(lambda x: nu_density_float(F, x), a, b - 1e-13, 2048)
    assert abs(total - 1.0) < 1e-10


def test_nu_density_float_matches_exact():
    F = build_field(5)
    for q in (Fraction(-1, 10), Fraction(-7, 9), Fraction(-2), Fraction(-22, 10)):
        exact = nu_density(F, F.from_fraction(q))
        assert abs(exact - nu_density_float(F, float(q))) < 1e-12


def _nu_interval_via_branches(field, a, b, k_fin: int = 8, j_fin: int = 8) -> float:
    """Unnormalized mass of f^-1([a, b)) summed over all branches;
    both infinite families are finished in closed form (no truncation error)."""
    tau = field.tau
    e0 = eps0(field)
    b1 = branch(field, 1)
    total = 0.0

    # digit-1 branch maps [eps0, 1/(1-tau)) onto [eps1, 0)
    a1 = max(b1.image_lo, a)
    if a1 < b:
        M1_inv = b1.M.inverse()
        total += nu_band_mass(field, M1_inv.apply(a1), M1_inv.apply(b))

    # full positive digits
    for k in range(2, k_fin + 1):
        Mk_inv = branch(field, k).M.inverse()
        total += nu_band_mass(field, Mk_inv.apply(a), Mk_inv.apply(b))

    # tail k > k_fin: preimages lie in the constant-fiber strip [0, tau];
    # the band masses telescope to log[(1 - k_fin tau - b)/(1 - k_fin tau - a)]
    ratio = (1 - tau * k_fin - b) / (1 - tau * k_fin - a)
    total += _log_ratio(ratio)

    # acceleration branches: the W^j branch maps its cylinder onto [eps0, 0)
    aj = max(e0, a)
    if aj < b:
        c = acceleration_fiber_top(field)
        u_a, u_b = aj + tau, b + tau
        for j in range(1, j_fin + 1):
            Wj_inv = branch(field, -j).M.inverse()
            x1, x2 = Wj_inv.apply(aj), Wj_inv.apply(b)
            num = 1 + c * x2
            den = 1 + c * x1
            total += _log_ratio(num / den)
        # tail j > j_fin telescopes to
        # log[(u_b/u_a) * (1 + (j_fin+1) tau u_a)/(1 + (j_fin+1) tau u_b)]
        j1 = j_fin + 1
        ratio = (u_b / u_a) * ((1 + tau * u_a * j1) / (1 + tau * u_b * j1))
        total += _log_ratio(ratio)
    return total


def nu_invariance_check(field, parts: int = 200) -> dict:
    """Max |nu(f^-1 J) - nu(J)| over an equal-width partition of [-tau, 0)."""
    tau = field.tau
    mg = mu_gamma(field)
    worst = 0.0
    for i in range(parts):
        a = -tau * Fraction(parts - i, parts)
        b = -tau * Fraction(parts - i - 1, parts)
        direct = nu_band_mass(field, a, b)
        pulled = _nu_interval_via_branches(field, a, b)
        worst = max(worst, abs(direct - pulled) / mg)
    return {"n": field.n, "parts": parts, "max_deviation": worst}


def test_nu_invariance():
    rep = nu_invariance_check(build_field(5), parts=200)
    assert rep["max_deviation"] <= 1e-6  # observed near the rounding floor
    assert rep["max_deviation"] <= 1e-10


def test_s_step_and_t_step_basic():
    F = build_field(5)
    t = build_orbit_tables(F)
    # S on the orbit base point moves along the orbit with N_1 lifting 0 to L_2
    p = S_step(F, (t.phi[0], F.zero))
    assert p[0] == t.phi[1]
    assert p[1] == build_heights(F).level(2)
    # T on a digit-2 point (x, 0): y' = N_2 . 0 = 1/(2 tau - 1)
    x = t.eps[F.n - 2]  # lies in the digit-2 cylinder
    q = T_step(F, (x, F.zero))
    assert q[1] == (2 * F.tau - 1).inverse()


def test_t_maps_deep_slab_onto_bottom_band():
    # T sends [1/(1-2tau), 0) x [0, tau] onto [-tau, 0) x (0, 1/(2tau-1)]:
    # band tops tile downward from 1/(2tau-1), k-th band = [1/(k tau -1), ...]
    F = build_field(5)
    tau = F.tau
    for k in (3, 4, 5, 6):
        b = branch(F, k)
        lo, hi, M, N = b.lo, b.hi, b.M, b.N
        assert M.apply(lo) == -tau
        assert M.apply(hi).is_zero()
        assert N.apply(F.zero) == (tau * k - 1).inverse()
        assert N.apply(tau) == (tau * (k - 1) - 1).inverse()
    assert y_matrix(F, 3).apply(tau) == (2 * tau - 1).inverse()


def test_t_inverse_roundtrip_100_random_exact_points():
    F = build_field(5)
    ga = build_gamma(F)
    rng = random.Random(11)
    done = 0
    while done < 100:
        q = Fraction(rng.getrandbits(40), 1 << 40)
        x = -F.tau * q
        if not (-F.tau <= x and x < F.zero):
            continue
        fibers = ga.fiber_at(x)
        if not fibers:
            continue
        lo, hi = fibers[rng.randrange(len(fibers))]
        y = lo + (hi - lo) * Fraction(rng.getrandbits(40) | 1, 1 << 40)
        img = T_step(F, (x, y))
        back = T_inverse(F, img)
        assert (back[0] - x).is_zero() and (back[1] - y).is_zero()
        done += 1


def test_t_digit_decode_bands():
    F = build_field(5)
    tau = F.tau
    h = build_heights(F)
    # representative y-values inside each image band
    assert T_digit_of_y(F, (3 * tau - 1).inverse() + Fraction(1, 10 ** 6)) == 3
    assert T_digit_of_y(F, (2 * tau - 1).inverse() + Fraction(1, 10 ** 6)) == 2
    acc_band_lo = acceleration_fiber_top(F)
    assert T_digit_of_y(F, acc_band_lo + Fraction(1, 10 ** 6)) == -1
    assert T_digit_of_y(F, h.level(1) + Fraction(1, 10 ** 6)) == 2
    assert T_digit_of_y(F, h.level(2) + Fraction(1, 10 ** 6)) == 1
    assert T_digit_of_y(F, tau) == 1


def test_step_domain_validation():
    F = build_field(5)
    with pytest.raises(DomainError):
        T_step(F, (F.one, F.zero))
    with pytest.raises(DomainError):
        S_step(F, (-F.tau, F.tau))  # above the first slab height


def test_region_json_dump():
    F = build_field(4)
    data = build_gamma(F).to_json()
    assert data["rect_count"] == len(data["rects"])
    first = data["rects"][0]
    # exact corners only; the CLI adds their floats
    assert set(first) == {"x_lo", "x_hi", "y_lo", "y_hi"}
    assert first["x_lo"] == (-F.tau).to_json()


def test_band_tiling_sorts_exactly():
    # bands whose ends all round to the float 0.0: a float sort key ties
    # them and keeps the input order, so the check has to sort exactly
    F = build_field(5)
    eps = F.from_fraction(Fraction(1, 2 ** 1100))
    slab = Slab(-F.tau, F.zero, ((F.zero, F.one),))
    bands = [(eps, 2 * eps), (F.zero, eps), (2 * eps, F.one)]
    _check_band_tiling(PlanarRegion("test", [slab]), {id(slab): bands})


def _sorted_band_tiling(region, bands_by_slab):
    """Oracle: the walk over each slab's bands in exact sorted order."""
    for slab in region.slabs:
        bands = sorted(bands_by_slab.get(id(slab), []))
        if not bands:
            raise ConsistencyError("slab received no image bands")
        fibers = slab.fibers
        fb = 0
        cursor = fibers[0][0]
        if cursor != bands[0][0]:
            raise ConsistencyError("lowest band does not start at the fiber bottom")
        for lo, hi in bands:
            if lo == cursor:
                cursor = hi
                continue
            # the only legal jump is across a designated fiber gap
            if fb + 1 < len(fibers) and cursor == fibers[fb][1] and lo == fibers[fb + 1][0]:
                fb += 1
                cursor = hi
                continue
            raise ConsistencyError("gap or overlap between image bands")
        if not (cursor == fibers[fb][1] and fb == len(fibers) - 1):
            raise ConsistencyError("image bands do not reach the fiber top")


def _verdict(check, slab, bands):
    try:
        check(PlanarRegion("test", [slab]), {id(slab): bands})
    except ConsistencyError as exc:
        return str(exc)
    return None


@lru_cache(maxsize=None)
def _tiling_slabs():
    # Gamma's slabs hold one or two fibers at irrational heights; the last
    # slab adds a third fiber
    out = build_gamma(build_field(5)).slabs + [
        s for s in build_gamma(build_field(8)).slabs if len(s.fibers) > 1]
    F = build_field(7)
    q = F.from_fraction
    out.append(Slab(-F.tau, F.zero, ((F.zero, q(Fraction(1, 4))),
                                     (q(Fraction(1, 3)), F.lam - 1), (F.one, F.tau))))
    return out


UNIT = st.fractions(min_value=0, max_value=1, max_denominator=64)


def _mutate(bands, fibers, op, i, q):
    """Apply one mutation; every band keeps lo < hi."""
    if not bands:
        return
    lo, hi = bands[i % len(bands)]
    gap = i % len(fibers)
    if op == "drop":
        del bands[i % len(bands)]
    elif op == "duplicate":
        bands.append((lo, hi))
    elif op == "overlap":
        bands.append((lo + (hi - lo) * (q / 2), hi))
    elif op == "shift_lo":
        bands[i % len(bands)] = (lo + (hi - lo) * (q - Fraction(1, 2)), hi)
    elif op == "shift_hi":
        bands[i % len(bands)] = (lo, hi + (hi - lo) * (q - Fraction(1, 2)))
    elif op == "bridge" and len(fibers) > 1:
        gap = i % (len(fibers) - 1)
        bands.append((fibers[gap][1], fibers[gap + 1][0]))
    elif op == "from_top":
        top = fibers[gap][1]
        bands.append((top, top + (1 + q) / 64))
    elif op == "under_bottom":
        bands.append((fibers[0][0] - (1 + q) / 64, fibers[0][0]))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_band_chain_agrees_with_the_sorted_walk(data):
    slab = data.draw(st.sampled_from(_tiling_slabs()))
    bands = []
    for lo, hi in slab.fibers:
        qs = sorted(data.draw(st.sets(UNIT.filter(lambda q: 0 < q < 1), max_size=3)))
        cuts = [lo] + [lo + (hi - lo) * q for q in qs] + [hi]
        bands.extend(zip(cuts, cuts[1:]))
    bands = data.draw(st.permutations(bands))
    ops = st.sampled_from(("drop", "duplicate", "overlap", "shift_lo", "shift_hi",
                           "bridge", "from_top", "under_bottom"))
    count = data.draw(st.integers(0, 2))
    mutation = st.tuples(ops, st.integers(0, 50), UNIT)
    mutations = data.draw(st.lists(mutation, min_size=count, max_size=count))
    for op, i, q in mutations:
        _mutate(bands, slab.fibers, op, i, q)
    expected = _verdict(_sorted_band_tiling, slab, bands)
    assert _verdict(_check_band_tiling, slab, bands) == expected
    if not mutations:
        assert expected is None


@pytest.mark.parametrize("op, i, message", (
    ("drop", 0, "lowest band does not start at the fiber bottom"),
    ("drop", 1, "gap or overlap between image bands"),
    ("drop", 3, "image bands do not reach the fiber top"),
    ("duplicate", 1, "gap or overlap between image bands"),
    ("overlap", 2, "gap or overlap between image bands"),
    ("shift_lo", 0, "lowest band does not start at the fiber bottom"),
    ("shift_hi", 1, "gap or overlap between image bands"),
    ("bridge", 0, "image bands do not reach the fiber top"),
    ("from_top", 0, "gap or overlap between image bands"),
    ("from_top", 1, "image bands do not reach the fiber top"),
    ("under_bottom", 0, "lowest band does not start at the fiber bottom"),
))
def test_band_chain_names_each_failure(op, i, message):
    # two fibers, each cut into two bands: bands 0, 1 and 2, 3
    F = build_field(5)
    q = F.from_fraction
    fibers = ((F.zero, q(Fraction(1, 4))), (q(Fraction(1, 2)), F.one))
    slab = Slab(-F.tau, F.zero, fibers)
    bands = []
    for lo, hi in fibers:
        mid = (lo + hi) / 2
        bands += [(lo, mid), (mid, hi)]
    assert _verdict(_check_band_tiling, slab, list(bands)) is None
    _mutate(bands, fibers, op, i, Fraction(1, 5))
    assert _verdict(_check_band_tiling, slab, bands) == message
    assert _verdict(_sorted_band_tiling, slab, bands) == message


def _count_signs(monkeypatch, fn):
    calls = 0
    sign = FieldElement.sign

    def counted(self):
        nonlocal calls
        calls += 1
        return sign(self)

    with monkeypatch.context() as m:
        m.setattr(FieldElement, "sign", counted)
        fn()
    return calls


@pytest.mark.parametrize("n, budget", ((8, 570), (16, 1240)))
def test_tiling_sign_budget(n, budget, monkeypatch):
    # a linear slab scan, a sorted band walk and a per-piece measure check
    # made 2 282 (n=8) and 4 973 (n=16) sign calls here; slab lookup by
    # hash or bisection and the band chain make 220 and 329
    F = build_field(n)
    omega, gamma = build_omega(F), build_gamma(F)
    build_heights(F)
    for k in range(1, 7):
        branch(F, k), branch(F, -k)
    assert _count_signs(monkeypatch, lambda: verify_bijectivity(F)) <= budget
    for region in (omega, gamma):
        cuts = [s.x_lo for s in region.slabs] + [region.slabs[-1].x_hi]
        for a in cuts:
            for b in cuts:
                assert _count_signs(monkeypatch, lambda: list(region.overlay(a, b))) == 0
    bands = _distribute_bands(gamma, _region_images(F, gamma, True)[1])
    assert _count_signs(monkeypatch, lambda: _check_band_tiling(gamma, bands)) == 0


@pytest.mark.parametrize("n, bound", ((8, 186), (16, 247)))
def test_orientation_is_one_sign_per_branch_and_fibre(n, bound, monkeypatch):
    # deciding both orientations of every piece made 220 (n=8) and 329
    # (n=16) sign calls in a warmed verify_bijectivity, 92 and 172 of them
    # the per-piece comparisons; one sign per branch on its cylinder and
    # one per fibre for N_k make 186 and 247
    F = build_field(n)
    verify_bijectivity(F)
    assert _count_signs(monkeypatch, lambda: verify_bijectivity(F)) <= bound
    for region, accelerated in ((build_omega(F), False), (build_gamma(F), True)):
        pieces = _cylinder_pieces(F, region, accelerated)
        checks = len({p[0] for p in pieces}) + len({(p[0], p[3], p[4]) for p in pieces})
        assert _count_signs(monkeypatch, lambda: _check_orientation(F, pieces)) == checks


@pytest.mark.parametrize("axis", ("x", "y"))
def test_a_piece_across_a_pole_is_refused(axis, monkeypatch):
    # digit 2's M (x) or N (y) swapped for z -> -1/(z - m), of det 1, whose
    # pole m is the middle of digit 2's first piece in Gamma
    F = build_field(5)
    gamma = build_gamma(F)
    _, x_lo, x_hi, y_lo, y_hi = next(p for p in _cylinder_pieces(F, gamma, True) if p[0] == 2)
    m = (x_lo + x_hi) / 2 if axis == "x" else (y_lo + y_hi) / 2
    swapped = branch(F, 2)._replace(**{"M" if axis == "x" else "N": Mobius(F, 0, -1, 1, -m)})
    monkeypatch.setattr(planar_module, "branch",
                        lambda field, k: swapped if k == 2 else branch(field, k))
    with pytest.raises(ConsistencyError, match=f"{axis}-orientation flipped; piece crosses a pole"):
        _region_images(F, gamma, True)


@pytest.mark.parametrize("n", (5, 8))
def test_an_image_ending_inside_a_slab_is_refused(n, monkeypatch):
    # one digit-1 image's right x-end moved to the middle of its range: the
    # image covers part of a slab only, which the band chains cannot see
    F = build_field(n)
    map_piece, moved = planar_module._map_piece, []

    def shortened(field, digit, *piece):
        x_lo, x_hi, y_lo, y_hi = map_piece(field, digit, *piece)
        if digit == 1 and not moved:
            moved.append(digit)
            x_hi = (x_lo + x_hi) / 2
        return x_lo, x_hi, y_lo, y_hi

    monkeypatch.setattr(planar_module, "_map_piece", shortened)
    with pytest.raises(ConsistencyError, match="image piece does not cover whole slabs"):
        verify_bijectivity(F)
    assert moved


def test_band_distribution_overlays_nothing(monkeypatch):
    F = build_field(8)
    gamma = build_gamma(F)
    images = _region_images(F, gamma, True)[1]
    monkeypatch.setattr(PlanarRegion, "overlay", None)
    assert sum(map(len, _distribute_bands(gamma, images).values())) >= len(images)


def test_overlay_clips_to_each_slab_in_order():
    F = build_field(5)
    gamma = build_gamma(F)
    a, b = -F.tau, F.zero
    parts = list(gamma.overlay(a, b))
    assert [s for s, _, _ in parts] == gamma.slabs
    assert all(lo == s.x_lo and hi == s.x_hi for s, lo, hi in parts)
    e0 = eps0(F)
    mid = (e0 + gamma.slabs[1].x_hi) / 2
    (s, lo, hi), = gamma.overlay(e0, mid)
    assert s is gamma.slabs[1] and lo == e0 and hi == mid
    assert list(gamma.overlay(mid, mid)) == []


def test_region_rejects_unsorted_gapped_or_empty_slabs():
    F = build_field(5)
    fib = ((F.zero, F.one),)
    half = F.from_fraction(Fraction(-1, 2))
    left, right = Slab(-F.tau, half, fib), Slab(half, F.zero, fib)
    PlanarRegion("ok", [left, right])
    with pytest.raises(ConsistencyError):
        PlanarRegion("unsorted", [right, left])
    with pytest.raises(ConsistencyError):
        PlanarRegion("gapped", [left, Slab(half / 2, F.zero, fib)])
    with pytest.raises(ConsistencyError):
        PlanarRegion("empty", [Slab(half, half, fib), right])


def _linear_overlay(region, a, b):
    # every slab compared against [a, b)
    for s in region.slabs:
        lo = max(a, s.x_lo)
        hi = min(b, s.x_hi)
        if lo < hi:
            yield s, lo, hi


@pytest.mark.parametrize("n", [5, 16])
def test_overlay_matches_a_linear_scan(n):
    F = build_field(n)
    for region in (build_omega(F), build_gamma(F)):
        cuts = [s.x_lo for s in region.slabs] + [F.zero]
        mids = [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
        cylinders = [(branch(F, k).lo, branch(F, k).hi)
                     for k in (*range(-3, 0), *range(1, 4))]
        outside = [-F.tau - 1, F.one]
        points = cuts + mids + outside
        queries = cylinders + [(a, b) for a in points[::3] for b in points[1::3]]
        for a, b in queries:
            fast = list(region.overlay(a, b))
            slow = list(_linear_overlay(region, a, b))
            assert len(fast) == len(slow)
            assert all(x is y for f, s in zip(fast, slow) for x, y in zip(f, s))


def _linear_fiber_at(region, x):
    for s in region.slabs:
        if s.x_lo <= x and x < s.x_hi:
            return s.fibers
    return ()


@pytest.mark.parametrize("n", [5, 16])
def test_fiber_at_matches_a_linear_scan(n):
    F = build_field(n)
    for region in (build_omega(F), build_gamma(F)):
        ends = [s.x_lo for s in region.slabs] + [F.zero]
        for x in ends + [-F.tau - 1]:
            assert region.fiber_at(x) is _linear_fiber_at(region, x)
        assert region.fiber_at(F.zero) == ()
        assert region.fiber_at(-F.tau - 1) == ()


def _replace_slab(region, i, **change):
    slabs = list(region.slabs)
    s = slabs[i]
    slabs[i] = Slab(**{"x_lo": s.x_lo, "x_hi": s.x_hi, "fibers": s.fibers, **change})
    return PlanarRegion("gamma", slabs)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_gamma_in_omega_rejects_a_region_outside_omega(n):
    F = build_field(n)
    gamma = build_gamma(F)
    _check_gamma_in_omega(F, gamma)
    too_high = ((F.zero, F.tau + 1),)
    with pytest.raises(ConsistencyError, match="exceeds Omega height"):
        _check_gamma_in_omega(F, _replace_slab(gamma, 0, fibers=too_high))
    with pytest.raises(ConsistencyError, match="outside Omega in x"):
        _check_gamma_in_omega(F, _replace_slab(gamma, 0, x_lo=-F.tau - 1))
    with pytest.raises(ConsistencyError, match="outside Omega in x"):
        _check_gamma_in_omega(F, _replace_slab(gamma, -1, x_hi=F.one))
