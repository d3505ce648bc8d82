"""The float-lane step against its reference formulas and the exact lane.

`step_tv` evaluates the acceleration branch only on the samples left of
eps0 and works in place.  The oracles below are the plain two-branch
version, which evaluates both branches on every sample and picks one with
np.where, and the scan loops written on top of it.  Every element must go
through the same IEEE operations, so t', v', digit and the scan reports
are compared bitwise, not within a tolerance.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trianglecf.dioph import expand
from trianglecf.dynamics import branch
from trianglecf.errors import PrecisionExhausted
from trianglecf.field import build_field
from trianglecf.numeric import (
    FloatSystem,
    borel_scan,
    convergence_scan,
    sample_interval,
    step_scalar,
    step_tv,
)

NS = (4, 5, 6, 7, 8, 13)


def oracle_step_tv(fs, t, v):
    tau = fs.tau
    acc = t < fs.eps0
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_t = 1.0 / t
        k = np.floor((1.0 - inv_t) / tau) + 1.0
        k = np.maximum(k, 1.0)
        t_pos = 1.0 - k * tau - inv_t
        v_pos = -1.0 / (v + 1.0 - k * tau)

        u = t + tau
        u = np.maximum(u, 1e-300)
        jj = np.ceil(-1.0 / tau ** 2 + 1.0 / (tau * u)) - 1.0
        jj = np.maximum(jj, 1.0)
        t_acc = u / (1.0 - jj * tau * u) - tau
        v_acc = ((1.0 - jj * tau ** 2) * v + jj * tau) / (
            -jj * tau ** 3 * v + 1.0 + jj * tau ** 2
        )
    t_new = np.where(acc, t_acc, t_pos)
    v_new = np.where(acc, v_acc, v_pos)
    digit = np.where(acc, -jj, k)
    t_new = np.minimum(t_new, -1e-300)
    t_new = np.maximum(t_new, -tau)
    return t_new, v_new, digit


def oracle_borel_scan(field, samples, steps, seed, tol=1e-10):
    fs = FloatSystem.for_field(field)
    n = fs.n
    rng = np.random.default_rng(seed)
    t = sample_interval(fs, rng, samples)
    v = np.zeros(samples)
    window = np.empty((n + 1, samples))
    window[0] = np.abs(t / (1.0 + t * v))
    run = (window[0] > fs.tau).astype(np.int64)
    max_run = int(run.max()) if samples else 0
    violations = 0
    max_window_min = 0.0
    worst_m = None
    for m in range(1, steps + 1):
        t, v, _ = oracle_step_tv(fs, t, v)
        theta = np.abs(t / (1.0 + t * v))
        window[m % (n + 1)] = theta
        run = np.where(theta > fs.tau, run + 1, 0)
        mr = int(run.max())
        if mr > max_run:
            max_run = mr
        if m >= n:
            wmin = window.min(axis=0)
            wm = float(wmin.max())
            if wm > max_window_min:
                max_window_min = wm
                worst_m = m - n + 1
            violations += int(np.count_nonzero(wmin > fs.tau + tol))
    return {
        "n": n,
        "samples": samples,
        "steps": steps,
        "seed": seed,
        "tolerance": tol,
        "violations": violations,
        "max_window_min": max_window_min,
        "worst_window_at": worst_m,
        "max_theta_run": max_run,
        "tau": fs.tau,
    }


def oracle_convergence_scan(field, samples, steps, seed, target=1e-10):
    fs = FloatSystem.for_field(field)
    rng = np.random.default_rng(seed)
    t = sample_interval(fs, rng, samples)
    v = np.zeros(samples)
    log_q = np.zeros(samples)
    converged_at = np.full(samples, -1, dtype=np.int64)
    max_v = 0.0
    min_one_plus_tv = np.inf
    min_margin_pos = np.inf
    max_ratio_acc = 0.0
    v_above_one = 0
    log_target = math.log(target)
    for m in range(1, steps + 1):
        t, v, digit = oracle_step_tv(fs, t, v)
        theta = np.abs(t / (1.0 + t * v))
        log_q = log_q - np.log(np.abs(v))
        err_log = np.log(theta) - 2.0 * log_q
        hit = (err_log < log_target) & (converged_at < 0)
        converged_at[hit] = m
        max_v = max(max_v, float(v.max()))
        min_one_plus_tv = min(min_one_plus_tv, float((1.0 + t * v).min()))
        pos = digit >= 1.0
        if np.any(pos):
            margin = 1.0 - np.abs(t[pos] * v[pos])
            min_margin_pos = min(min_margin_pos, float(margin.min()))
        if not np.all(pos):
            ratios = np.abs(t[~pos] * v[~pos])
            max_ratio_acc = max(max_ratio_acc, float(ratios.max()))
        v_above_one += int(np.count_nonzero(v > 1.0))
    return {
        "n": fs.n,
        "samples": samples,
        "steps": steps,
        "seed": seed,
        "target": target,
        "all_converged": bool(np.all(converged_at > 0)),
        "max_steps_to_converge": int(converged_at.max()),
        "max_v": max_v,
        "min_one_plus_tv": min_one_plus_tv,
        "delta": min_margin_pos,
        "max_acceleration_ratio": max_ratio_acc,
        "v_above_one_count": v_above_one,
        "tau": fs.tau,
    }


def _with_neighbours(x):
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def edge_arrays(fs):
    """Named t arrays on the branch switch at eps0, the clamps, the float
    cylinder ends (where the digit formulas' floor and ceil land on an
    integer up to rounding) and the all-or-nothing splits."""
    eps0, tau = fs.eps0, fs.tau
    i = np.arange(1.0, 65.0)
    return {
        "cylinder-ends": _with_neighbours(1.0 / (1.0 - i * tau)),
        "acceleration-ends": _with_neighbours(tau / (i * tau ** 2 + 1.0) - tau),
        "eps0": np.array([eps0, np.nextafter(eps0, -np.inf), np.nextafter(eps0, np.inf)]),
        "ends": np.array([-tau, -1e-300, np.nextafter(-tau, 0.0)]),
        "all-accelerated": np.linspace(-tau, np.nextafter(eps0, -np.inf), 257),
        "none-accelerated": np.linspace(eps0, -1e-300, 257),
        "single": np.array([0.5 * (eps0 - tau)]),
    }


def assert_same_step(fs, t, v):
    t_in, v_in = t.copy(), v.copy()
    got = step_tv(fs, t, v)
    want = oracle_step_tv(fs, t, v)
    for name, a, b in zip(("t", "v", "digit"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert t.tobytes() == t_in.tobytes() and v.tobytes() == v_in.tobytes()
    return got


@pytest.mark.parametrize("n", NS)
def test_step_matches_the_two_branch_formulas_on_random_orbits(n):
    fs = FloatSystem.for_field(build_field(n))
    rng = np.random.default_rng(n)
    t = sample_interval(fs, rng, 4000)
    v = np.zeros_like(t)
    for _ in range(60):
        t, v, _ = assert_same_step(fs, t, v)


@pytest.mark.parametrize("n", NS)
def test_step_matches_the_two_branch_formulas_on_edges(n):
    fs = FloatSystem.for_field(build_field(n))
    rng = np.random.default_rng(100 + n)
    edges = edge_arrays(fs)
    for t in edges.values():
        for v in (np.zeros_like(t), fs.tau * rng.random(t.size)):
            assert_same_step(fs, t, v)
    # the two splits hold what their names say
    assert np.all(edges["all-accelerated"] < fs.eps0)
    assert not np.any(edges["none-accelerated"] < fs.eps0)


@pytest.mark.parametrize("n", (5, 6, 13))
@pytest.mark.parametrize("samples,steps,seed", [(1, 40, 0), (300, 120, 7)])
def test_scans_match_the_two_branch_loops(n, samples, steps, seed):
    F = build_field(n)
    assert repr(borel_scan(F, samples, steps, seed)) == repr(
        oracle_borel_scan(F, samples, steps, seed))
    assert repr(convergence_scan(F, samples, steps, seed)) == repr(
        oracle_convergence_scan(F, samples, steps, seed))


# -- float digits against exact digits ----------------------------------------

DIFF_NS = (4, 5, 7, 8, 13)
STEPS = 12
MARGIN = 2.0 ** -20
DRIFT = 2.0 ** -30


@st.composite
def dyadics(draw):
    """A dyadic point of [-2, -2^-8] with at most 51 significant bits, so
    that the double float(x) is x itself (tau > 2 for every n >= 4)."""
    bits = draw(st.integers(8, 50))
    a = draw(st.integers(1 << (bits - 8), 2 << bits))
    return Fraction(-a, 1 << bits)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from(DIFF_NS), x=dyadics())
def test_float_steps_give_the_exact_digits(n, x):
    """`step_tv` and `step_scalar` reproduce exact `expand`'s digits.

    A double decides the digit of t as soon as it is closer to the exact
    t_m than t_m is to the ends of its cylinder (the floor and ceil of the
    digit formulas then miss an integer by far more than their own
    rounding).  So the walk compares digits while the exact t_m lies at
    least MARGIN = 2^-20 from both ends of `branch(F, k)` and the float t
    lies within DRIFT = 2^-30 of t_m.  The float t starts exact, but the
    map's derivative amplifies its rounding error each step: within 12
    steps it reached 0.04 on some orbits.  The walk also stops where
    `step_scalar` raises PrecisionExhausted.  While it runs, the vector step
    on a one-sample array is bitwise the scalar step.
    """
    F = build_field(n)
    fs = FloatSystem.for_field(F)
    res = expand(F, F.from_fraction(x), STEPS)
    t, v = float(x), 0.0
    assert Fraction(t) == x
    for m, k in enumerate(res.digits):
        t_exact = res.ts[m]
        b = branch(F, k)
        if min(float(t_exact - b.lo), float(b.hi - t_exact)) < MARGIN:
            break
        if abs(t - float(t_exact)) > DRIFT:
            break
        try:
            t_s, v_s, d_s = step_scalar(fs, t, v)
        except PrecisionExhausted:
            break
        t_v, v_v, d_v = step_tv(fs, np.array([t]), np.array([v]))
        assert d_s == k
        assert (t_v.tobytes(), v_v.tobytes(), d_v.tobytes()) == (
            np.array([t_s]).tobytes(), np.array([v_s]).tobytes(),
            np.array([d_s], dtype=float).tobytes())
        t, v = t_s, v_s
