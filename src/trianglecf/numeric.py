"""Float-lane dynamics for the large Monte Carlo experiments.

Exact arithmetic drives every identity check in this library; this module
exists for the statistics (Borel window scans, equidistribution, Birkhoff
averages, induced-map derivatives) where millions of steps are needed and
measure-zero misclassification at cylinder boundaries is harmless.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from fractions import Fraction
from functools import partial

import numpy as np

# `planar` and `measure` are reached through the package, which imports
# them on first use: the scans never compile them
import trianglecf
from .errors import DomainError, PrecisionExhausted
from .field import NumberField
from .dynamics import eps0


# steps per block of the equidistribution and Birkhoff orbits
CELL_CHUNK = 1 << 15
# The fewest vector orbit steps worth a process of their own.  On a 2-core
# x86_64 host a fork and the reaping of its child took 3-12 ms in a CLI
# process, and a slice slows down while the other core is busy: two slices
# of a 10**6-step convergence scan ran no faster than one (median of 20
# alternating runs 0.269 -> 0.284 s), of 2 * 10**6 steps saved 11 ms, and
# of 2 * 10**7 steps of scan-borel 250 ms.
MIN_SLICE_STEPS = 1_000_000
# a scalar orbit step (`_fill_orbit`, about 340 ns with v) weighs as much
# as ten vector orbit steps (20-45 ns) against MIN_SLICE_STEPS
SCALAR_STEP_WORK = 10
# convergence_scan's bound on |x - p_m/q_m|
CONVERGENCE_TARGET = 1e-10


class FloatSystem:
    """Float shadows of the constants the maps branch on."""

    def __init__(self, n: int, tau: float, eps0: float, y_left: float):
        self.n = n
        self.tau = tau
        self.eps0 = eps0
        self.y_left = y_left    # 1/(1 - 2 tau), left endpoint of the return set Y

    @staticmethod
    def for_field(field: NumberField) -> "FloatSystem":
        return FloatSystem(
            n=field.n,
            tau=float(field.tau),
            eps0=float(eps0(field)),
            y_left=float((1 - 2 * field.tau).inverse()),
        )


def sample_interval(fs: FloatSystem, rng, count: int) -> np.ndarray:
    u = rng.random(count)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return -fs.tau * u


def step_tv(fs: FloatSystem, t: np.ndarray, v: np.ndarray):
    """One vectorized accelerated step of (t, v); returns (t', v', digit).

    The continued-fraction branch is evaluated on every sample, the
    acceleration branch (W^j, on [-tau, eps0)) only on the samples with
    t < eps0, whose results then overwrite the first.  Each element goes
    through the same IEEE operations as the per-element formulas of
    `step_scalar`, so t', v' and digit are bitwise theirs; where
    `step_scalar` raises at a boundary, this step clamps t + tau to 1e-300
    and t' into [-tau, -1e-300] instead.  The inputs are not modified.
    """
    tau = fs.tau
    acc = np.flatnonzero(t < fs.eps0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # continued-fraction branch: k = max(floor((1 - 1/t)/tau) + 1, 1)
        inv_t = np.divide(1.0, t)
        k = np.subtract(1.0, inv_t)
        np.divide(k, tau, out=k)
        np.floor(k, out=k)
        np.add(k, 1.0, out=k)
        np.maximum(k, 1.0, out=k)
        kt = np.multiply(k, tau)
        t_new = np.subtract(1.0, kt)
        np.subtract(t_new, inv_t, out=t_new)        # (1 - k tau) - 1/t
        v_new = np.add(v, 1.0)
        np.subtract(v_new, kt, out=v_new)
        np.divide(-1.0, v_new, out=v_new)           # -1/((v + 1) - k tau)
        digit = k

        if acc.size:
            # acceleration branch: j = max(ceil(-1/tau^2 + 1/(tau u)) - 1, 1)
            u = t[acc]
            np.add(u, tau, out=u)
            np.maximum(u, 1e-300, out=u)
            jj = np.multiply(u, tau)
            np.divide(1.0, jj, out=jj)
            np.add(jj, -1.0 / tau ** 2, out=jj)
            np.ceil(jj, out=jj)
            np.subtract(jj, 1.0, out=jj)
            np.maximum(jj, 1.0, out=jj)
            jt = np.multiply(jj, tau)
            den = np.multiply(jt, u)
            np.subtract(1.0, den, out=den)
            np.divide(u, den, out=u)
            np.subtract(u, tau, out=u)              # u/(1 - j tau u) - tau
            t_new[acc] = u
            # ((1 - j tau^2) v + j tau) / ((-j) tau^3 v + 1 + j tau^2)
            jt2 = np.multiply(jj, tau ** 2)
            va = v[acc]
            num = np.subtract(1.0, jt2)
            np.multiply(num, va, out=num)
            np.add(num, jt, out=num)
            np.negative(jj, out=jj)
            digit[acc] = jj
            np.multiply(jj, tau ** 3, out=den)
            np.multiply(den, va, out=den)
            np.add(den, 1.0, out=den)
            np.add(den, jt2, out=den)
            np.divide(num, den, out=num)
            v_new[acc] = num
    # keep strictly inside [-tau, 0) against rounding
    np.minimum(t_new, -1e-300, out=t_new)
    np.maximum(t_new, -tau, out=t_new)
    return t_new, v_new, digit


def step_scalar(fs: FloatSystem, t: float, v: float):
    """Scalar float step; raises PrecisionExhausted on a boundary collision
    (landing within 1e-14 of a branch point, where a double cannot decide
    the next digit reliably)."""
    tau = fs.tau
    if t < fs.eps0:
        u = t + tau
        if u < 1e-300:
            raise PrecisionExhausted(
                "float orbit reached the parabolic fixed point", boundary=-tau
            )
        j = math.ceil(-1.0 / tau ** 2 + 1.0 / (tau * u)) - 1.0
        if j < 1.0:
            j = 1.0
        t_new = u / (1.0 - j * tau * u) - tau
        v_new = ((1.0 - j * tau ** 2) * v + j * tau) / (
            -j * tau ** 3 * v + 1.0 + j * tau ** 2
        )
        digit = -j
    else:
        k = math.floor((1.0 - 1.0 / t) / tau) + 1.0
        if k < 1.0:
            k = 1.0
        t_new = 1.0 - k * tau - 1.0 / t
        v_new = -1.0 / (v + 1.0 - k * tau)
        digit = k
    if t_new > -1e-14:
        raise PrecisionExhausted(
            "float orbit landed on a cylinder boundary", boundary=t_new
        )
    if t_new < -tau:
        t_new = -tau
    return t_new, v_new, digit


def derivative_factor(fs: FloatSystem, t: float, digit: float) -> float:
    """|branch'(t)|: 1/t^2 on continued-fraction branches, the W^j formula
    on acceleration branches."""
    if digit >= 1.0:
        return 1.0 / (t * t)
    j = -digit
    u = t + fs.tau
    den = 1.0 - j * fs.tau * u
    return 1.0 / (den * den)


def _slice_count(parts: int, work: int) -> int:
    """How many processes share `work` orbit steps made of `parts`
    independent parts: one per CPU this process may run on, at most one per
    part and at most one per MIN_SLICE_STEPS steps, and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return max(1, min(cpus, parts, work // MIN_SLICE_STEPS))


def _run_jobs(jobs, work: int) -> list:
    """The results of `jobs`, zero-argument functions, in order, as if each
    ran in turn in this process: the first exception in job order is raised.

    Unless `_slice_count` gives each job a process of its own, they do run
    in turn here.  Otherwise the first runs here and each other in a forked
    child, which pickles back its result or its exception and exits with
    os._exit; every child is read and reaped, and when this process's own
    job raises, killed first.  A job may convert exact values, since every
    conversion is a function of the value alone, so a child returns what
    the job would have returned here.

    The children are forked, not spawned: a spawned worker would import
    numpy again (about 0.17 s).  numpy's import starts an idle BLAS thread,
    which a fork does not copy; the jobs run elementwise loops, no BLAS.
    """
    if _slice_count(len(jobs), work) < len(jobs):
        return [job() for job in jobs]
    children = []
    try:
        for job in jobs[1:]:
            children.append(_fork(job))
        results = [jobs[0]()]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        outcomes = [_reap(pid, fd) for pid, fd in children]
    for ok, value in outcomes:
        if not ok:
            raise value
        results.append(value)
    return results


def _fork(job):
    """Start `job` in a forked child; returns (pid, the read end of the
    pipe that carries its pickled (ok, result or exception))."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    try:
        os.close(read_fd)
        try:
            outcome = (True, job())
        except BaseException as exc:
            outcome = (False, exc)
        try:
            data = pickle.dumps(outcome)
        except Exception as exc:
            data = pickle.dumps((False, RuntimeError(f"a forked job's outcome: {exc!r}")))
        with os.fdopen(write_fd, "wb") as out:
            out.write(data)
    finally:
        os._exit(0)


def _reap(pid: int, read_fd: int):
    """Read a forked job's (ok, value) and wait for its process."""
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    os.waitpid(pid, 0)
    if not data:
        return False, RuntimeError(f"forked job {pid} ended without a result")
    return pickle.loads(data)


def _sliced(loop, t: np.ndarray, steps: int) -> list:
    """loop(part) of each contiguous part of the samples t, in order, one
    part per slice of `_slice_count` (see `_run_jobs`)."""
    k = _slice_count(t.size, t.size * steps)
    cuts = [t.size * i // k for i in range(k + 1)]
    return _run_jobs([partial(loop, t[a:b]) for a, b in zip(cuts, cuts[1:])],
                     t.size * steps)


def borel_scan(
    field: NumberField,
    samples: int,
    steps: int,
    seed: int,
    tol: float = 1e-10,
) -> dict:
    """Window minima and run lengths of the Theta sequence over random orbits.

    Checks min{Theta_{m-1}, ..., Theta_{m+n-1}} <= tau + tol for every m and
    reports the longest observed run of consecutive Theta > tau.

    The samples are drawn here and scanned in contiguous slices
    (`_borel_slice`, side by side where `_run_jobs` forks).  Each slice's
    window maximum per step is combined with np.maximum, which keeps a NaN,
    and the steps are then folded in order, so the report is the one scan
    of all samples at once would give, the first step of the largest window
    minimum included.
    """
    if samples < 1:
        raise DomainError("the scan needs at least 1 sample")
    if steps < 0:
        raise DomainError(f"steps must be at least 0, got {steps}")
    # a NaN tol makes every check vacuous, and an infinite one is not JSON
    if not math.isfinite(tol):
        raise DomainError(f"the tolerance must be a finite number, got {tol}")
    fs = FloatSystem.for_field(field)
    n = fs.n
    t = sample_interval(fs, np.random.default_rng(seed), samples)
    parts = _sliced(partial(_borel_slice, fs, steps, fs.tau + tol), t, steps)
    window_max = np.maximum.reduce([part[0] for part in parts])
    max_window_min = 0.0
    worst_m = None
    for m, wm in enumerate(window_max.tolist(), start=n):
        if wm > max_window_min:
            max_window_min = wm
            worst_m = m - n + 1
    return {
        "n": n,
        "samples": samples,
        "steps": steps,
        "seed": seed,
        "tolerance": tol,
        "violations": sum(part[1] for part in parts),
        "max_window_min": max_window_min,
        "worst_window_at": worst_m,
        "max_theta_run": max(part[2] for part in parts),
        "tau": fs.tau,
    }


def _borel_slice(fs: FloatSystem, steps: int, bound: float, t: np.ndarray):
    """Scan the orbits of (t, 0): the largest window minimum of each step
    m >= n, the windows whose minimum passes `bound` and the longest run
    of Theta > tau.

    The window minimum costs about three np.minimum calls per step whatever
    n is (van Herk 1992; Gil and Werman 1993): the steps fall into blocks
    of n + 1, `prefix` holds the running minimum of the current block, and
    when a block completes its rows are turned in place into suffix minima.
    The window ending r rows into a block is then the previous block's
    suffix from row r + 1 together with the current prefix.
    """
    n = fs.n
    tau = fs.tau
    samples = t.size
    v = np.zeros(samples)
    window = np.empty((n + 1, samples))
    window[0] = np.abs(t / (1.0 + t * v))  # Theta_0 = |x|
    prefix = window[0].copy()
    # a run is at most steps + 1 long; int32 halves the two passes per step
    run = (window[0] > tau).astype(np.int32 if steps < 2 ** 31 - 1 else np.int64)
    max_run = int(run.max())
    violations = 0
    window_max = np.empty(max(steps - n + 1, 0))
    above = np.empty(samples, dtype=bool)
    wmin_buf = np.empty(samples)
    for m in range(1, steps + 1):
        t, v, _ = step_tv(fs, t, v)
        r = m % (n + 1)
        theta = window[r]
        np.multiply(t, v, out=theta)
        np.add(theta, 1.0, out=theta)
        np.divide(t, theta, out=theta)
        np.abs(theta, out=theta)
        # run length of consecutive Theta > tau, reset to 0 where Theta <= tau
        np.greater(theta, tau, out=above)
        run += 1
        run *= above
        mr = int(run.max())
        if mr > max_run:
            max_run = mr
        if r:
            np.minimum(prefix, theta, out=prefix)
        else:
            prefix[...] = theta
        if m >= n:
            if r < n:
                wmin = np.minimum(window[r + 1], prefix, out=wmin_buf)
            else:
                wmin = prefix
            wm = window_max[m - n] = wmin.max()
            # a NaN makes wm NaN, so `not wm <= bound` still counts the rest
            if not wm <= bound:
                np.greater(wmin, bound, out=above)
                violations += int(np.count_nonzero(above))
        if r == n:
            # row 0's suffix would be the whole block, which no window reads
            for i in range(n - 1, 0, -1):
                np.minimum(window[i], window[i + 1], out=window[i])
    return window_max, violations, max_run


def convergence_scan(
    field: NumberField,
    samples: int,
    steps: int,
    seed: int,
) -> dict:
    """Approximant convergence statistics along random orbits.

    |x - p_m/q_m| = Theta_m / q_m^2 is evaluated through log q_m (the q_m
    overflow doubles), so the convergence threshold is exact in log space.
    delta, the least 1 - |t v| over continued-fraction steps, is None when
    every step taken was an acceleration step.

    The samples are scanned in contiguous slices, as in `borel_scan`: each
    slice's extremes per step are combined with np.maximum and np.minimum,
    which keep a NaN, and then folded over the steps in order.
    """
    if samples < 1:
        raise DomainError("the scan needs at least 1 sample")
    if steps < 1:
        raise DomainError("the orbit needs at least 1 step")
    fs = FloatSystem.for_field(field)
    t = sample_interval(fs, np.random.default_rng(seed), samples)
    parts = _sliced(partial(_convergence_slice, fs, steps), t, steps)
    max_v = 0.0
    min_one_plus_tv = np.inf
    min_margin_pos = np.inf      # 1 - |t v| over continued-fraction steps
    max_ratio_acc = 0.0          # |t v| over acceleration steps, bounded by 1

    def per_step(i, combine):
        return combine.reduce([part[i] for part in parts]).tolist()

    # a slice with no step of a kind reports inf or -inf there, which the
    # fold skips as it skips a NaN
    for v_max, one_plus_tv, margin_pos, ratio_acc in zip(
            per_step(0, np.maximum), per_step(1, np.minimum),
            per_step(2, np.minimum), per_step(3, np.maximum)):
        max_v = max(max_v, v_max)
        min_one_plus_tv = min(min_one_plus_tv, one_plus_tv)
        min_margin_pos = min(min_margin_pos, margin_pos)
        max_ratio_acc = max(max_ratio_acc, ratio_acc)
    return {
        "n": fs.n,
        "samples": samples,
        "steps": steps,
        "seed": seed,
        "target": CONVERGENCE_TARGET,
        "all_converged": all(part[4] for part in parts),
        "max_steps_to_converge": max(part[5] for part in parts),
        "max_v": max_v,
        "min_one_plus_tv": min_one_plus_tv,
        "delta": min_margin_pos if min_margin_pos < np.inf else None,
        "max_acceleration_ratio": max_ratio_acc,
        "v_above_one_count": sum(part[6] for part in parts),
        "tau": fs.tau,
    }


def _convergence_slice(fs: FloatSystem, steps: int, t: np.ndarray):
    """Scan the orbits of (t, 0): per step the largest v, the least 1 + t v,
    the least 1 - |t v| over continued-fraction steps (inf without one) and
    the largest |t v| over acceleration steps (-inf without one); then
    whether every orbit converged, the last step one did, and the count of
    v > 1 over all steps.  log q_m is followed only until every orbit has
    converged: after that no step can change converged_at."""
    samples = t.size
    unconverged = samples
    v = np.zeros(samples)
    log_q = np.zeros(samples)
    converged_at = np.full(samples, -1, dtype=np.int64)
    v_max, one_plus_tv_min = np.empty(steps), np.empty(steps)
    margin_min, ratio_max = np.full(steps, np.inf), np.full(steps, -np.inf)
    v_above_one = 0
    log_target = math.log(CONVERGENCE_TARGET)
    tv = np.empty(samples)
    one_plus_tv = np.empty(samples)
    for m in range(1, steps + 1):
        t, v, digit = step_tv(fs, t, v)
        np.multiply(t, v, out=tv)
        np.add(tv, 1.0, out=one_plus_tv)
        if unconverged:
            theta = np.abs(t / one_plus_tv)
            log_q -= np.log(np.abs(v))
            err_log = np.log(theta) - 2.0 * log_q
            hit = (err_log < log_target) & (converged_at < 0)
            converged_at[hit] = m
            unconverged -= int(np.count_nonzero(hit))
        v_max[m - 1] = v.max()
        one_plus_tv_min[m - 1] = one_plus_tv.min()
        pos = digit >= 1.0
        np.abs(tv, out=tv)
        if np.any(pos):
            margin = 1.0 - tv[pos]
            margin_min[m - 1] = margin.min()
        if not np.all(pos):
            ratio_max[m - 1] = tv[~pos].max()
        v_above_one += int(np.count_nonzero(v > 1.0))
    return (v_max, one_plus_tv_min, margin_min, ratio_max,
            bool(np.all(converged_at > 0)), int(converged_at.max()), v_above_one)


def _start_point(fs: FloatSystem, seed: int) -> float:
    return float(sample_interval(fs, np.random.default_rng(seed), 1)[0])


def _fill_orbit(fs: FloatSystem, t: float, v: float, ts: np.ndarray, vs):
    """Fill ts (and vs, unless it is None) with the next len(ts) iterates of
    (t, v) under `step_scalar`; returns the (t, v) it ends in.

    The step is inlined with `step_scalar`'s IEEE operation sequence, so
    every entry is bitwise its iterate, and a boundary collision raises
    PrecisionExhausted at the same step with the same message and boundary.
    t never depends on v, so without vs the loop skips the v update and
    fills the same ts.
    """
    with_v = vs is not None
    t_out = memoryview(ts)
    v_out = memoryview(vs) if with_v else None
    tau = fs.tau
    neg_tau = -tau
    eps0 = fs.eps0
    tau2 = tau ** 2
    tau3 = tau ** 3
    neg_inv_tau2 = -1.0 / tau2
    floor = math.floor
    ceil = math.ceil
    for i in range(len(t_out)):
        if t < eps0:
            u = t + tau
            if u < 1e-300:
                raise PrecisionExhausted(
                    "float orbit reached the parabolic fixed point", boundary=neg_tau
                )
            j = ceil(neg_inv_tau2 + 1.0 / (tau * u)) - 1.0
            if j < 1.0:
                j = 1.0
            jt = j * tau
            t = u / (1.0 - jt * u) - tau
            if with_v:
                jt2 = j * tau2
                v = ((1.0 - jt2) * v + jt) / (-j * tau3 * v + 1.0 + jt2)
        else:
            inv_t = 1.0 / t
            k = floor((1.0 - inv_t) / tau) + 1.0
            if k < 1.0:
                k = 1.0
            kt = k * tau
            t = 1.0 - kt - inv_t
            if with_v:
                v = -1.0 / (v + 1.0 - kt)
        if t > -1e-14:
            raise PrecisionExhausted(
                "float orbit landed on a cylinder boundary", boundary=t
            )
        if t < neg_tau:
            t = neg_tau
        t_out[i] = t
        if with_v:
            v_out[i] = v
    return t, v


def _orbit_blocks(fs: FloatSystem, seed: int, steps: int, with_v: bool, cuts=()):
    """The orbit of (x, 0), x drawn from `seed`, as (done, ts, vs) blocks:
    iterates done - len(ts) + 1 .. done, vs None without `with_v`.

    A block ends at each of `cuts` (all within 1..steps), at `steps` and
    after CELL_CHUNK steps, and every block reuses the same buffers, so a
    caller must count a block before asking for the next.
    """
    t, v = _start_point(fs, seed), 0.0
    size = min(steps, CELL_CHUNK)
    t_buf = np.empty(size)
    v_buf = np.empty(size) if with_v else None
    done = 0
    for stop in sorted({*cuts, steps}):
        while done < stop:
            m = min(CELL_CHUNK, stop - done)
            ts = t_buf[:m]
            vs = v_buf[:m] if with_v else None
            t, v = _fill_orbit(fs, t, v, ts, vs)
            done += m
            yield done, ts, vs


def orbit_tv_arrays(field: NumberField, steps: int, seed: int, x0: float = None):
    """A single (t, v) orbit of (x0, 0), stored densely for statistics;
    x0 defaults to a point drawn from `seed`."""
    fs = FloatSystem.for_field(field)
    if x0 is None:
        x0 = _start_point(fs, seed)
    ts = np.empty(steps)
    vs = np.empty(steps)
    _fill_orbit(fs, x0, 0.0, ts, vs)
    return ts, vs


def digit_matrix_batch(fs: FloatSystem, samples: int, length: int, seed: int) -> np.ndarray:
    """Digit words of random orbits, shape (length, samples)."""
    rng = np.random.default_rng(seed)
    t = sample_interval(fs, rng, samples)
    v = np.zeros(samples)
    out = np.empty((length, samples), dtype=np.int64)
    for i in range(length):
        t, v, digit = step_tv(fs, t, v)
        out[i] = digit
    return out


def build_cells(field: NumberField, target_cells: int = 100):
    """Partition Gamma into ~target_cells sub-rectangles, weighted by mass."""
    mu_rect = trianglecf.measure.mu_rect
    rects = trianglecf.planar.build_gamma(field).rects()
    masses = [mu_rect(r) for r in rects]
    total = sum(masses)
    counts = [max(1, round(target_cells * m / total)) for m in masses]
    while sum(counts) > target_cells:
        counts[counts.index(max(counts))] -= 1
    while sum(counts) < target_cells:
        counts[counts.index(max(counts))] += 1
    cells = []
    for r, parts in zip(rects, counts):
        x_lo, x_hi = r.x_lo, r.x_hi
        width = x_hi - x_lo
        for i in range(parts):
            a = x_lo + width * i / parts if i else x_lo
            b = x_lo + width * (i + 1) / parts if i + 1 < parts else x_hi
            sub = trianglecf.planar.Rect(a, b, r.y_lo, r.y_hi)
            cells.append(
                {
                    "x_lo": float(a),
                    "x_hi": float(b),
                    "y_lo": float(r.y_lo),
                    "y_hi": float(r.y_hi),
                    "mass": mu_rect(sub),
                }
            )
    return cells


def _cell_runs(cells):
    """(start, stop, y_lo, y_hi, x-cuts) for each maximal run cells[start:stop]
    of cells that share one y-range and continue each other in x."""
    runs = []
    start = 0
    while start < len(cells):
        y_lo, y_hi = cells[start]["y_lo"], cells[start]["y_hi"]
        cuts = [cells[start]["x_lo"], cells[start]["x_hi"]]
        stop = start + 1
        # the cuts must ascend for the bisection; a cell with x_hi < x_lo
        # holds no sample and stays alone
        while (stop < len(cells)
               and cells[stop]["y_lo"] == y_lo and cells[stop]["y_hi"] == y_hi
               and cuts[-2] <= cells[stop]["x_lo"] == cuts[-1] <= cells[stop]["x_hi"]):
            cuts.append(cells[stop]["x_hi"])
            stop += 1
        runs.append((start, stop, y_lo, y_hi, np.array(cuts)))
        start = stop
    return runs


def cell_counts(cells, ts: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """counts[j]: the samples of ts, vs in cells[j].

    A cell holds x_lo <= t < x_hi and y_lo <= v <= y_hi, so a sample on a
    y-edge that two stacked cells share counts in both.  Each run of cells
    that share one y-range and continue each other in x is binned in one
    pass: one y/x mask, then a bisection among the run's x-cuts.
    """
    counts = np.zeros(len(cells), dtype=np.int64)
    for start, stop, y_lo, y_hi, cuts in _cell_runs(cells):
        inside = vs >= y_lo
        inside &= vs <= y_hi
        inside &= ts >= cuts[0]
        inside &= ts < cuts[-1]
        # bins 1..stop-start: the last cut <= t
        cell = np.searchsorted(cuts, ts[inside], side="right")
        counts[start:stop] += np.bincount(cell, minlength=stop - start + 1)[1:]
    return counts


def uniform_distribution_experiment(
    field: NumberField,
    steps: int,
    cells: int = 100,
    seed: int = 1,
    checkpoints=None,
) -> dict:
    """Empirical cell frequencies of the (t, v) orbit against mu(cell)/mu(Gamma),
    reported at intermediate checkpoints to show decay.

    The orbit is counted block by block (`_orbit_blocks`), so the memory
    does not grow with `steps`.
    """
    if steps < 1:
        raise DomainError("the orbit needs at least 1 step")
    if checkpoints is None:
        if steps < 2:
            raise DomainError("the default half-way checkpoint needs at least 2 steps, "
                              f"got {steps}")
        checkpoints = (steps // 2, steps)
    checkpoints = sorted({min(c, steps) for c in checkpoints})
    if not checkpoints or checkpoints[0] < 1:
        raise DomainError("checkpoints must be at least 1")
    if cells < 1:
        raise DomainError(f"the experiment needs at least 1 cell, got {cells}")
    cell_list = build_cells(field, cells)
    fs = FloatSystem.for_field(field)
    mg = trianglecf.measure.mu_gamma(field)
    t_lo = -fs.tau
    v_hi = fs.tau + 1e-12

    def discrepancy(upto: int, row) -> float:
        worst = 0.0
        for c, count in zip(cell_list, row):
            freq = float(count) / upto
            worst = max(worst, abs(freq - c["mass"] / mg))
        return worst

    counts = np.zeros(len(cell_list), dtype=np.int64)
    discrepancies = {}
    outside = 0
    for done, ts, vs in _orbit_blocks(fs, seed, steps, True, checkpoints):
        counts += cell_counts(cell_list, ts, vs)
        outside += int(np.count_nonzero(
            ~((ts >= t_lo) & (ts < 0.0) & (vs >= 0.0) & (vs <= v_hi))))
        if done in checkpoints:
            discrepancies[done] = discrepancy(done, counts.tolist())
    d_first = discrepancies[checkpoints[0]]
    d_full = discrepancies[checkpoints[-1]]
    return {
        "n": fs.n,
        "N": steps,
        "cells": len(cell_list),
        "seed": seed,
        "checkpoints": {str(k): v for k, v in discrepancies.items()},
        "max_discrepancy_half": d_first,
        "max_discrepancy": d_full,
        "decreasing": d_full <= d_first,
        "outside_box_count": outside,
    }


def birkhoff_experiment(
    field: NumberField,
    steps: int,
    intervals: int = 10,
    seed: int = 2,
) -> dict:
    """Time averages of interval indicators along an f-orbit vs nu-masses."""
    if steps < 1:
        raise DomainError("the orbit needs at least 1 step")
    fs = FloatSystem.for_field(field)
    rng = np.random.default_rng(seed + 1)
    masses, bounds = [], []
    for _ in range(intervals):
        a, b = sorted(rng.random(2))
        if b - a < 0.05:
            b = min(1.0, a + 0.05)
        fa = Fraction(a).limit_denominator(1 << 30)
        fb = Fraction(b).limit_denominator(1 << 30)
        lo = -field.tau * fb
        hi = -field.tau * fa
        masses.append(trianglecf.measure.nu_cdf(field, lo, hi))
        bounds.append((float(lo), float(hi)))

    hits = [0] * intervals
    for _, ts, _ in _orbit_blocks(fs, seed, steps, False):
        for i, (lo, hi) in enumerate(bounds):
            hits[i] += int(np.count_nonzero((ts >= lo) & (ts < hi)))
    worst = 0.0
    rows = []
    for mass, hit in zip(masses, hits):
        freq = float(hit) / steps
        rows.append({"nu": mass, "frequency": freq})
        worst = max(worst, abs(mass - freq))
    return {
        "n": fs.n,
        "N": steps,
        "intervals": intervals,
        "seed": seed,
        "max_deviation": worst,
        "rows": rows,
    }
