"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured quantities.

Criterion 3's literal run-length bound is kept as a strict expected failure:
the sharp bound for runs of consecutive large approximation coefficients is
n-1, not n-2 (see the analysis in the expected-failure reason and the
passing corrected assertion inside test_criterion_3).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from trianglecf.field import build_field, random_interval_point
from trianglecf.verify import verify_one
from trianglecf.dynamics import cylinder_right_endpoint, eps0
from trianglecf.dioph import expand, periodic_point
from trianglecf.planar import Rect, build_heights
from trianglecf.measure import (
    log_q_sequence,
    mu_gamma,
    mu_rect,
    omega_divergence_partial_sums,
    transcendence_indicator,
)
from trianglecf.group import digit_matrix, y_matrix
from trianglecf.quadratic import compare_numeric
from trianglecf.numeric import (
    birkhoff_experiment,
    borel_scan,
    convergence_scan,
    uniform_distribution_experiment,
)
from trianglecf.ergodic import adler_scan


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_exact_identity_suite():
    worst_time = 0.0
    for n in range(4, 17):
        t0 = time.time()
        rep = verify_one(n)
        elapsed = time.time() - t0
        worst_time = max(worst_time, elapsed)
        failed = [c["name"] for c in rep["checks"] if not c["ok"]]
        assert not failed, f"n={n}: {failed}"
        assert elapsed < 10.0, f"n={n} took {elapsed:.1f}s"
    report(1, True,
           f"exact identity suite green for n=4..16, worst runtime "
           f"{worst_time:.2f}s per n (budget 10s)")


def _random_band_rect(F, rng):
    from trianglecf.dynamics import acceleration_cylinder_bounds

    h = build_heights(F)
    k = rng.choice([1, 2, 3, 4, -1, -2])
    if k >= 2:
        lo, hi = cylinder_right_endpoint(F, k - 1), cylinder_right_endpoint(F, k)
        top = F.tau if k >= 3 else h.level(2 * F.n - 5)
    elif k == 1:
        lo, hi = eps0(F), cylinder_right_endpoint(F, 1)
        top = h.level(1)
    else:
        lo, hi = acceleration_cylinder_bounds(F, -k)
        from trianglecf.planar import acceleration_fiber_top

        top = acceleration_fiber_top(F)
    q1, q2 = sorted(Fraction(rng.getrandbits(30), 1 << 30) for _ in range(2))
    r1, r2 = sorted(Fraction(rng.getrandbits(30), 1 << 30) for _ in range(2))
    if q1 == q2 or r1 == r2:
        return None
    return k, Rect(lo + (hi - lo) * q1, lo + (hi - lo) * q2, top * r1, top * r2)


def test_criterion_2_measure_preservation():
    worst = 0.0
    for n in (4, 5, 6, 7):
        F = build_field(n)
        rng = random.Random(4000 + n)
        done = 0
        while done < 500:
            sample = _random_band_rect(F, rng)
            if sample is None:
                continue
            k, src = sample
            M, N = digit_matrix(F, k), y_matrix(F, k)
            img = Rect(M.apply(src.x_lo), M.apply(src.x_hi),
                       N.apply(src.y_lo), N.apply(src.y_hi))
            worst = max(worst, abs(mu_rect(src) - mu_rect(img)))
            done += 1
        assert 0 < mu_gamma(F) < math.inf
    sums = omega_divergence_partial_sums(build_field(5), 1.0e3)
    report(2, worst <= 1e-12 and sums[-1] > 1.0e3,
           f"500 random rectangles per n in 4..7, worst |mu(T rect) - mu(rect)| "
           f"= {worst:.2e} (tol 1e-12); mu(Gamma) finite; partial sums over the "
           f"infinite region reached {sums[-1]:.1f} > 1e3 in {len(sums)} strips")


def _seeded_theta_run(n: int) -> int:
    F = build_field(n)
    j = 2 if n == 4 else 1
    pp = periodic_point(F, j)
    res = expand(F, pp.x, 6 * (n - 1))
    tau = F.tau
    best = cur = 0
    for th in res.thetas:
        if (th - tau).sign() > 0:
            cur += 1
            best = max(best, cur)
        else:
            cur = 0
    return best


BOREL_SAMPLES = 10000
BOREL_STEPS = 1000


def _borel_reports():
    if not hasattr(_borel_reports, "cache"):
        _borel_reports.cache = {
            n: borel_scan(build_field(n), BOREL_SAMPLES, BOREL_STEPS, seed=300 + n)
            for n in range(4, 9)
        }
    return _borel_reports.cache


def test_criterion_3_borel_bound():
    t0 = time.time()
    reports = _borel_reports()
    max_runs = {}
    for n, rep in reports.items():
        assert rep["violations"] == 0, f"n={n}: window violations"
        assert rep["max_window_min"] <= rep["tau"] + 1e-10
        # sharp run bound: n-2 consecutive danger-region visits force runs
        # of n-1 consecutive theta values above tau, and no more
        assert rep["max_theta_run"] <= n - 1, f"n={n}: run {rep['max_theta_run']}"
        max_runs[n] = rep["max_theta_run"]
    seeded = {n: _seeded_theta_run(n) for n in (4, 5, 6)}
    assert all(seeded[n] == n - 2 for n in seeded)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(3, True,
           f"10^4 orbits x 10^3 steps for n=4..8: zero (n+1)-window violations "
           f"at tolerance 1e-10; max runs above tau {max_runs} within the sharp "
           f"bound n-1; periodic-seeded orbits achieve exactly n-2 "
           f"{seeded}; runtime {elapsed:.0f}s < 300s")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated as 'longest observed run of consecutive Theta > tau <= n-2', "
        "but n-2 consecutive danger-region visits exist (each requiring both "
        "its own and its predecessor's Theta to exceed tau), which forces "
        "n-1 consecutive Theta values above tau on a positive-measure set; "
        "random scans observe runs of exactly n-1, so the attainable sharp "
        "bound is n-1 and the n-2 clause cannot pass"
    ),
)
def test_criterion_3_run_bound_as_stated():
    reports = _borel_reports()
    for n, rep in reports.items():
        assert rep["max_theta_run"] <= n - 2, (
            f"n={n}: observed a run of {rep['max_theta_run']} > n-2"
        )


def test_criterion_4_convergence():
    F = build_field(5)
    rep = convergence_scan(F, samples=1000, steps=200, seed=41)
    assert rep["target"] == 1e-10
    ok = (
        rep["all_converged"]
        and rep["max_steps_to_converge"] <= 200
        and rep["max_v"] <= rep["tau"] + 1e-12
        and rep["delta"] > 0
    )
    report(4, ok,
           f"10^3 random points: |x - p_m/q_m| < 1e-10 within "
           f"{rep['max_steps_to_converge']} steps; q_m/q_(m+1) <= tau + 1e-12 "
           f"(max {rep['max_v']:.12f}); non-acceleration ratio bound "
           f"1 - |t v| >= delta = {rep['delta']:.4f} > 0; "
           f"{rep['v_above_one_count']} steps with decreasing denominators")


def test_criterion_5_periodic_points():
    for n in (4, 5, 6):
        F = build_field(n)
        points = [periodic_point(F, j) for j in range(1, 11)]
        # exact periodicity and digit words are asserted inside the builder;
        # theta increases strictly in j
        for a, b in zip(points, points[1:]):
            assert compare_numeric(a.theta_min, b.theta_min) < 0
        tau = F.tau
        # tau - theta(P_10) < tau - theta(P_1): the gaps live in different
        # quadratic extensions, so order them through certified enclosures
        gap_first = tau - points[0].theta_min
        gap_last = tau - points[9].theta_min
        assert gap_last.sign() > 0
        assert compare_numeric(gap_last, gap_first) < 0
        for p in points:
            assert p.theta_min < tau
    report(5, True,
           "j=1..10, n in {4,5,6}: T^(n-1)-periodicity exact in the quadratic "
           "extension, theta(P_j) < tau, strictly increasing in j, "
           "tau - theta(P_10) < tau - theta(P_1)")


def test_criterion_6_ergodic_proxies():
    from trianglecf.ergodic import observed_words

    F = build_field(5)
    uni = uniform_distribution_experiment(
        F, steps=1000000, cells=100, seed=61, checkpoints=(100000, 1000000)
    )
    birk = birkhoff_experiment(F, steps=300000, intervals=10, seed=62)
    adler = adler_scan(F, samples=100000, seed=63)
    words = observed_words(F, samples=10000, length=50, seed=64)
    ok = (
        uni["decreasing"]
        and uni["max_discrepancy"] < 0.01
        and birk["max_deviation"] < 0.01
        and adler["min_derivative"] > 1.0
        and words["ok"]
    )
    report(6, ok,
           f"uniform distribution: discrepancy {uni['checkpoints']} decreasing "
           f"and < 0.01 at 10^6; Birkhoff max deviation "
           f"{birk['max_deviation']:.5f} < 0.01; induced-map expansivity "
           f"min |f_Y'| = {adler['min_derivative']:.4f} > 1 on 10^5 samples; "
           f"10^4 observed digit words of length 50 all admissible")


def test_criterion_7_transcendence_screen():
    log2 = math.log(2)
    fast = transcendence_indicator([4.0 ** m * log2 for m in range(1, 31)], 2)
    at = transcendence_indicator([3.0 ** m * log2 for m in range(1, 31)], 2)
    slow = transcendence_indicator([1.7 ** m * log2 for m in range(1, 31)], 2)
    F = build_field(5)
    pp = periodic_point(F, 1)
    periodic = transcendence_indicator(log_q_sequence(F, pp.x, 100), F.degree)
    ok = (
        fast["flagged"]
        and not at["flagged"]
        and not slow["flagged"]
        and periodic["statistic"] < 0.1
        and not periodic["flagged"]
    )
    report(7, ok,
           f"doubly-exponential growth classified: above={fast['flagged']} "
           f"(stat {fast['statistic']:.3f}), at-threshold={at['flagged']} "
           f"(stat {at['statistic']:.3f}), below={slow['flagged']}; exact "
           f"eventually-periodic input: stat {periodic['statistic']:.4f} < 0.1, "
           f"not flagged")


def test_criterion_8_theta_formula_consistency():
    # the exact lane asserts the three computations agree identically at
    # every step of every expansion (ConsistencyError otherwise); run the
    # full scan and also bound the float-lane disagreement directly
    F = build_field(5)
    rng = random.Random(80)
    t0 = time.time()
    for _ in range(1000):
        x = random_interval_point(F, rng, 128)
        expand(F, x, 30)
    elapsed = time.time() - t0

    # float lane: theta via (t, v) against the successor form
    import numpy as np

    from trianglecf.numeric import FloatSystem, step_tv, sample_interval

    fs = FloatSystem.for_field(F)
    gen = np.random.default_rng(81)
    t = sample_interval(fs, gen, 2000)
    v = np.zeros_like(t)
    worst = 0.0
    prev_theta = np.abs(t / (1.0 + t * v))
    for _ in range(200):
        t, v, digit = step_tv(fs, t, v)
        theta = np.abs(t / (1.0 + t * v))
        succ = np.abs(v / (1.0 + t * v))
        mask = digit >= 1.0
        if np.any(mask):
            worst = max(worst, float(np.max(np.abs(succ[mask] - prev_theta[mask]))))
        prev_theta = theta
    ok = worst <= 1e-12
    report(8, ok,
           f"exact lane: direct, planar and successor theta forms identical on "
           f"1000 random 30-step expansions ({elapsed:.0f}s); float lane "
           f"successor-form deviation {worst:.2e} <= 1e-12")
