"""The float lane's statistics loops against the loops they replaced.

`orbit_tv_arrays` and the Birkhoff orbit run `step_scalar`'s operation
sequence inlined in one loop (`_fill_orbit`), `uniform_distribution_experiment`
and `birkhoff_experiment` count their orbit block by block instead of
storing it, the first binning each block once per run of cells
(`cell_counts`), `borel_scan` takes its window minimum from block prefix and
suffix minima, and `observed_words` reads its digit words with one `tolist`.
The oracles below are the previous loops, kept as they were.  Arrays are
compared by their bytes and reports by their repr, so every float must be
bitwise the same.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trianglecf import ergodic, numeric
from trianglecf.errors import PrecisionExhausted
from trianglecf.dynamics import is_realizable
from trianglecf.ergodic import observed_words
from trianglecf.field import build_field
from trianglecf.measure import mu_gamma, nu_cdf
from trianglecf.numeric import (
    FloatSystem,
    _fill_orbit,
    birkhoff_experiment,
    borel_scan,
    build_cells,
    cell_counts,
    orbit_tv_arrays,
    sample_interval,
    step_scalar,
    step_tv,
    uniform_distribution_experiment,
)

FIELDS = {n: build_field(n) for n in range(4, 10)}
SYSTEMS = {n: FloatSystem.for_field(F) for n, F in FIELDS.items()}


# -- oracles: the previous loops ------------------------------------------------

def oracle_orbit_tv_arrays(field, steps, seed, x0=None):
    fs = FloatSystem.for_field(field)
    if x0 is None:
        rng = np.random.default_rng(seed)
        x0 = float(sample_interval(fs, rng, 1)[0])
    ts = np.empty(steps)
    vs = np.empty(steps)
    t, v = x0, 0.0
    for i in range(steps):
        t, v, _ = step_scalar(fs, t, v)
        ts[i] = t
        vs[i] = v
    return ts, vs


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
    above = np.empty(samples, dtype=bool)
    wmin = np.empty(samples)
    for m in range(1, steps + 1):
        t, v, _ = step_tv(fs, t, v)
        theta = window[m % (n + 1)]
        np.multiply(t, v, out=theta)
        np.add(theta, 1.0, out=theta)
        np.divide(t, theta, out=theta)
        np.abs(theta, out=theta)
        np.greater(theta, fs.tau, out=above)
        run += 1
        run *= above
        mr = int(run.max())
        if mr > max_run:
            max_run = mr
        if m >= n:
            np.min(window, axis=0, out=wmin)
            wm = float(wmin.max())
            if wm > max_window_min:
                max_window_min = wm
                worst_m = m - n + 1
            np.greater(wmin, fs.tau + tol, out=above)
            violations += int(np.count_nonzero(above))
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


def oracle_cell_counts(cells, ts, vs, checkpoints):
    counts = np.zeros((len(checkpoints), len(cells)), dtype=np.int64)
    for i, upto in enumerate(checkpoints):
        for j, c in enumerate(cells):
            inside = (
                (ts[:upto] >= c["x_lo"])
                & (ts[:upto] < c["x_hi"])
                & (vs[:upto] >= c["y_lo"])
                & (vs[:upto] <= c["y_hi"])
            )
            counts[i, j] = np.count_nonzero(inside)
    return counts


def oracle_uniform_distribution_experiment(field, steps, cells=100, seed=1,
                                           checkpoints=None):
    if checkpoints is None:
        checkpoints = (steps // 2, steps)
    checkpoints = sorted({min(c, steps) for c in checkpoints})
    cell_list = build_cells(field, cells)
    ts, vs = oracle_orbit_tv_arrays(field, steps, seed)
    mg = mu_gamma(field)

    def discrepancy(upto, row):
        worst = 0.0
        for c, count in zip(cell_list, row):
            freq = float(count) / upto
            worst = max(worst, abs(freq - c["mass"] / mg))
        return worst

    counts = oracle_cell_counts(cell_list, ts, vs, checkpoints).tolist()
    discrepancies = {c: discrepancy(c, row) for c, row in zip(checkpoints, counts)}
    d_first = discrepancies[checkpoints[0]]
    d_full = discrepancies[checkpoints[-1]]
    outside = int(
        np.count_nonzero(
            ~((ts >= -float(field.tau)) & (ts < 0.0) & (vs >= 0.0) & (vs <= float(field.tau) + 1e-12))
        )
    )
    return {
        "n": field.n,
        "N": steps,
        "cells": len(cell_list),
        "seed": seed,
        "checkpoints": {str(k): v for k, v in discrepancies.items()},
        "max_discrepancy_half": d_first,
        "max_discrepancy": d_full,
        "decreasing": d_full <= d_first,
        "outside_box_count": outside,
    }


def oracle_birkhoff_experiment(field, steps, intervals=10, seed=2):
    ts, _ = oracle_orbit_tv_arrays(field, steps, seed)
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    rows = []
    for _ in range(intervals):
        a, b = sorted(rng.random(2))
        if b - a < 0.05:
            b = min(1.0, a + 0.05)
        fa = Fraction(a).limit_denominator(1 << 30)
        fb = Fraction(b).limit_denominator(1 << 30)
        lo = -field.tau * fb
        hi = -field.tau * fa
        mass = nu_cdf(field, lo, hi)
        freq = float(np.count_nonzero((ts >= float(lo)) & (ts < float(hi)))) / steps
        rows.append({"nu": mass, "frequency": freq})
        worst = max(worst, abs(mass - freq))
    return {
        "n": field.n,
        "N": steps,
        "intervals": intervals,
        "seed": seed,
        "max_deviation": worst,
        "rows": rows,
    }


def oracle_witnesses(digits, n):
    bad = []
    for col in range(digits.shape[1]):
        word = [int(d) for d in digits[:, col]]
        res = is_realizable(word, n)
        if not res:
            bad.append({"word": word, "rule": res.rule, "position": res.position})
            if len(bad) >= 5:
                break
    return bad


# -- the inlined scalar orbit ---------------------------------------------------

def outcome(fn, *args):
    """(arrays as bytes) or (exception type, message, boundary)."""
    try:
        return ("ok",) + tuple(a.tobytes() for a in fn(*args) if a is not None)
    except (PrecisionExhausted, ArithmeticError) as exc:
        return ("raise", type(exc), str(exc), repr(getattr(exc, "boundary", None)))


def t_only_orbit(field, steps, seed, x0=None):
    """The Birkhoff orbit: `_fill_orbit` without v."""
    fs = FloatSystem.for_field(field)
    if x0 is None:
        x0 = float(sample_interval(fs, np.random.default_rng(seed), 1)[0])
    ts = np.empty(steps)
    _fill_orbit(fs, x0, 0.0, ts, None)
    return (ts,)


def failing_step(fs, x0, steps):
    """Index of the step at which `step_scalar` raises, or None."""
    t, v = x0, 0.0
    for i in range(steps):
        try:
            t, v, _ = step_scalar(fs, t, v)
        except (PrecisionExhausted, ArithmeticError):
            return i
    return None


@st.composite
def start_points(draw):
    """(n, x0): a point within a few ulps, or up to 1e-4, of -tau, eps0 or
    a cylinder end 1/(1 - i tau), or a negative point down to the least
    subnormal."""
    n = draw(st.integers(4, 9))
    fs = SYSTEMS[n]
    anchor = draw(st.sampled_from(("-tau", "eps0", "end", "0")))
    if anchor == "0":
        return n, -draw(st.floats(5e-324, 1e-3))
    if anchor == "end":
        x = 1.0 / (1.0 - draw(st.integers(1, 40)) * fs.tau)
    else:
        x = -fs.tau if anchor == "-tau" else fs.eps0
    x += draw(st.sampled_from((0.0, 1e-15, 1e-12, 1e-8, 1e-4))) * draw(st.floats(-1.0, 1.0))
    ulps = draw(st.integers(-8, 8))
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.copysign(np.inf, ulps)))
    return n, x


EXAMPLES = (
    (5, -SYSTEMS[5].tau),       # the parabolic fixed point
    (5, -1e-300),               # lands on a cylinder boundary
    (5, -0.1458980337503155),   # lands 1.8e-15 left of 0, inside the margin
    (6, -5e-324),               # 1/t overflows
)


@settings(max_examples=200, deadline=None)
@given(point=start_points(), steps=st.integers(0, 2000))
@example(point=EXAMPLES[0], steps=3)
@example(point=EXAMPLES[1], steps=3)
@example(point=EXAMPLES[2], steps=3)
@example(point=EXAMPLES[3], steps=3)
@example(point=(4, SYSTEMS[4].eps0), steps=2000)
def test_inlined_orbit_matches_the_step_scalar_loop(point, steps):
    n, x0 = point
    F = FIELDS[n]
    want = outcome(oracle_orbit_tv_arrays, F, steps, 0, x0)
    assert outcome(orbit_tv_arrays, F, steps, 0, x0) == want
    # birkhoff's orbit skips v and keeps t
    t_only = outcome(t_only_orbit, F, steps, 0, x0)
    assert t_only == want[:2] if want[0] == "ok" else t_only == want
    k = failing_step(SYSTEMS[n], x0, steps)
    assert (k is None) == (want[0] == "ok")
    if k is not None:
        # the same step raises: the orbit one step shorter runs through
        shorter = outcome(orbit_tv_arrays, F, k, 0, x0)
        assert shorter[0] == "ok"
        assert shorter == outcome(oracle_orbit_tv_arrays, F, k, 0, x0)


@pytest.mark.parametrize("n", (5, 8))
def test_seeded_orbit_matches_the_step_scalar_loop(n):
    F = FIELDS[n]
    want = oracle_orbit_tv_arrays(F, 20000, 3)
    got = orbit_tv_arrays(F, 20000, 3)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert t_only_orbit(F, 20000, 3)[0].tobytes() == want[0].tobytes()
    # walked in pieces, each starting from the state the last one ended in
    fs = SYSTEMS[n]
    t, v = float(sample_interval(fs, np.random.default_rng(3), 1)[0]), 0.0
    ts, vs = np.empty(20000), np.empty(20000)
    for a in range(0, 20000, 6113):
        t, v = _fill_orbit(fs, t, v, ts[a:a + 6113], vs[a:a + 6113])
    assert (t, v) == (want[0][-1], want[1][-1])
    assert [ts.tobytes(), vs.tobytes()] == [a.tobytes() for a in want]


def test_the_examples_reach_each_exception():
    got = [outcome(orbit_tv_arrays, FIELDS[n], 3, 0, x0)[1:3] for n, x0 in EXAMPLES]
    assert got == [
        (PrecisionExhausted, "float orbit reached the parabolic fixed point"),
        (PrecisionExhausted, "float orbit landed on a cylinder boundary"),
        (PrecisionExhausted, "float orbit landed on a cylinder boundary"),
        (OverflowError, "cannot convert float infinity to integer"),
    ]


# -- the constant-cost Borel window ---------------------------------------------

@pytest.mark.parametrize("n", range(4, 10))
def test_borel_window_matches_the_full_minimum(n):
    # tol = -1.5 pulls the bound below many window minima, so violations
    # are counted; the scan with 3 000 samples and 500 steps runs at even n
    F = FIELDS[n]
    for samples in (1, 7, 3000):
        for steps in (1, n - 1, n, n + 1, 2 * (n + 1), 3 * (n + 1) + 2, 500):
            if samples == 3000 and steps == 500 and n % 2:
                continue
            for tol in (1e-10, -1.5):
                got = borel_scan(F, samples, steps, n, tol)
                want = oracle_borel_scan(F, samples, steps, n, tol)
                assert repr(got) == repr(want), (samples, steps, tol)
                if samples == 3000 and steps > n and tol < 0:
                    assert got["violations"] > 0


# -- one-pass cell binning ------------------------------------------------------

def blocked_cell_counts(cells, ts, vs, checkpoints):
    """counts[i, j]: samples among ts[:c], vs[:c] in cells[j], c =
    checkpoints[i], summed from `cell_counts` over blocks cut as the
    equidistribution walk cuts them: at every checkpoint and after
    CELL_CHUNK samples."""
    counts = np.zeros((len(checkpoints), len(cells)), dtype=np.int64)
    total = np.zeros(len(cells), dtype=np.int64)
    done = 0
    for row, stop in zip(counts, checkpoints):
        while done < stop:
            m = min(numeric.CELL_CHUNK, stop - done)
            total += cell_counts(cells, ts[done:done + m], vs[done:done + m])
            done += m
        row[:] = total
    return counts


def probe_points(fs, cells, rng):
    """Points on every cell's edges and corners, points outside the box,
    and a random orbit, shuffled."""
    ts, vs = [], []
    for c in cells:
        xm = 0.5 * (c["x_lo"] + c["x_hi"])
        ym = 0.5 * (c["y_lo"] + c["y_hi"])
        for x in (c["x_lo"], xm, c["x_hi"]):
            for y in (c["y_lo"], ym, c["y_hi"]):
                ts.append(x)
                vs.append(y)
    for x, y in ((-fs.tau - 0.1, 0.1), (0.0, 0.1), (0.5, 0.1),
                 (-1.0, -0.1), (-1.0, fs.tau + 1.0), (-fs.tau, 0.0)):
        ts.append(x)
        vs.append(y)
    t = sample_interval(fs, rng, 400)
    v = np.zeros_like(t)
    for _ in range(30):
        t, v, _ = step_tv(fs, t, v)
    ts = np.concatenate([ts, t])
    vs = np.concatenate([vs, v])
    order = rng.permutation(ts.size)
    return ts[order], vs[order]


@pytest.mark.parametrize("n", (4, 5, 6, 7))
@pytest.mark.parametrize("target", (1, 37, 100, 200))
@pytest.mark.parametrize("chunk", (numeric.CELL_CHUNK, 61))
def test_cell_counts_match_the_four_mask_loop(n, target, chunk, monkeypatch):
    monkeypatch.setattr(numeric, "CELL_CHUNK", chunk)
    F = FIELDS[n]
    fs = SYSTEMS[n]
    cells = build_cells(F, target)
    ts, vs = probe_points(fs, cells, np.random.default_rng(n * 1000 + target))
    size = ts.size
    for checkpoints in ([size], [1, size // 3, size // 2, size], [7, size - 1]):
        got = blocked_cell_counts(cells, ts, vs, checkpoints)
        want = oracle_cell_counts(cells, ts, vs, checkpoints)
        assert got.dtype == want.dtype and np.array_equal(got, want), checkpoints


def test_n5_has_stacked_cells():
    # two of Gamma's fibers share an x-range at n=5, so cells of different
    # y-ranges overlap in x, and the test above bins them apart
    cells = build_cells(FIELDS[5], 100)
    stacked = [
        (a, b) for a in cells for b in cells
        if a["y_hi"] < b["y_lo"] and a["x_lo"] < b["x_hi"] and b["x_lo"] < a["x_hi"]
    ]
    assert stacked


def test_shared_edges_count_in_both_cells():
    # a y-edge shared by stacked cells counts in both; x stays half-open
    cells = [
        {"x_lo": -2.0, "x_hi": -1.0, "y_lo": 0.0, "y_hi": 0.5},
        {"x_lo": -1.0, "x_hi": -0.5, "y_lo": 0.0, "y_hi": 0.5},
        {"x_lo": -1.0, "x_hi": -1.0, "y_lo": 0.0, "y_hi": 0.5},   # empty
        {"x_lo": -1.0, "x_hi": -0.5, "y_lo": 0.0, "y_hi": 0.5},
        {"x_lo": -2.0, "x_hi": -0.5, "y_lo": 0.5, "y_hi": 1.0},
        {"x_lo": -0.5, "x_hi": -0.7, "y_lo": 0.5, "y_hi": 1.0},   # x_hi < x_lo
        {"x_lo": -0.7, "x_hi": -0.1, "y_lo": 0.5, "y_hi": 1.0},
    ]
    ts = np.array([-1.0, -1.0, -0.5, -2.0, -0.6, -0.7, -0.1, -1.5])
    vs = np.array([0.5, 0.2, 0.5, 1.0, 0.7, 0.5, 0.6, 0.5])
    got = blocked_cell_counts(cells, ts, vs, [4, 8])
    want = oracle_cell_counts(cells, ts, vs, [4, 8])
    assert np.array_equal(got, want)
    assert got.tolist() == [[0, 2, 0, 2, 2, 0, 1], [1, 3, 0, 3, 5, 0, 3]]
    assert cell_counts(cells, ts[4:], vs[4:]).tolist() == [1, 1, 0, 1, 3, 0, 2]


# -- the block walk of the equidistribution and Birkhoff experiments -------------

@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("chunk", (numeric.CELL_CHUNK, 61))
def test_block_walk_matches_the_dense_experiments(n, chunk, monkeypatch):
    # below one block, exactly one block and several; checkpoints inside a
    # block, on a block multiple, and one short of the end
    monkeypatch.setattr(numeric, "CELL_CHUNK", chunk)
    F = FIELDS[n]
    for steps in (chunk // 2 + 1, chunk, 2 * chunk + 17):
        for checkpoints in (None, (1, chunk + 3, 2 * chunk, steps - 1)):
            got = uniform_distribution_experiment(F, steps, 37, n, checkpoints)
            want = oracle_uniform_distribution_experiment(F, steps, 37, n, checkpoints)
            assert repr(got) == repr(want), (steps, checkpoints)
        got = birkhoff_experiment(F, steps, seed=n)
        want = oracle_birkhoff_experiment(F, steps, seed=n)
        assert repr(got) == repr(want), steps


@pytest.mark.parametrize("experiment, bound", (
    (uniform_distribution_experiment, 1 << 20),
    (birkhoff_experiment, 1 << 19),
))
def test_block_walk_memory_does_not_grow_with_steps(experiment, bound, monkeypatch):
    # the dense orbit of 10**6 steps alone would take 16 MB (8 MB for t);
    # a short run first fills the exact lane's caches, which do not grow
    # with the steps.  One slice: tracemalloc does not see a forked child.
    monkeypatch.setattr(numeric, "_slice_count", lambda parts, work: 1)
    F = FIELDS[5]
    experiment(F, 1000)
    tracemalloc.start()
    try:
        experiment(F, 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


# -- observed words -------------------------------------------------------------

def test_observed_words_reports_the_same_witnesses(monkeypatch):
    # float orbits that break the rules are too rare to seed (none in
    # 20 000 x 400 digits at n = 4..9 and 13), so the words are drawn from
    # a seeded digit matrix in which most words break them
    n = 5
    digits = np.random.default_rng(4).choice(
        np.array([-2, -1, 1, 1, 1, 2, 3, 4]), size=(12, 40))
    monkeypatch.setattr(ergodic, "digit_matrix_batch", lambda F, s, length, seed: digits)
    rep = observed_words(FIELDS[n], 40, 12, 0)
    want = oracle_witnesses(digits, n)
    assert len(want) == 5
    assert rep["witnesses"] == want
    assert all(type(d) is int for w in rep["witnesses"] for d in w["word"])
    assert rep["inadmissible_count"] == 5 and not rep["ok"]


def test_observed_words_match_on_real_orbits():
    F = FIELDS[6]
    digits = ergodic.digit_matrix_batch(SYSTEMS[6], 500, 40, 2)
    rep = observed_words(F, 500, 40, 2)
    assert rep["witnesses"] == oracle_witnesses(digits, 6) == []
