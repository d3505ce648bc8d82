"""The float lane's work split over processes (`numeric._run_jobs`).

A scan's samples are cut into contiguous slices and an ergodic test's
equidistribution and Birkhoff experiments run side by side, each slice or
experiment but the first in a forked child.  The output must not depend on how many slices there are, a
child's exception must reach the caller as if the job had run in this
process, and no child may be left behind.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import test_float_step
from test_float_step import oracle_borel_scan, oracle_convergence_scan
from trianglecf import cli, numeric
from trianglecf.errors import DomainError, PrecisionExhausted
from trianglecf.field import build_field

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def force_slices(monkeypatch, cpus):
    """Give this process `cpus` CPUs and make every orbit step worth a
    slice, so a scan of s samples runs in min(cpus, s) slices."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(numeric, "MIN_SLICE_STEPS", 1)


def count_forks(monkeypatch):
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


# -- the output does not depend on the slice count --------------------------------

@pytest.mark.parametrize("n", (5, 6, 13))
@pytest.mark.parametrize("samples", (1, 3, 300))
@pytest.mark.parametrize("cpus", (1, 2, 3, 5))
def test_scans_match_the_one_loop_oracles_for_any_slice_count(n, samples, cpus, monkeypatch):
    F = build_field(n)
    force_slices(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    assert repr(numeric.borel_scan(F, samples, 90, 7)) == repr(
        oracle_borel_scan(F, samples, 90, 7))
    assert repr(numeric.convergence_scan(F, samples, 90, 7)) == repr(
        oracle_convergence_scan(F, samples, 90, 7))
    assert len(forks) == 2 * (min(cpus, samples) - 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", (np.nan, -np.inf))
@pytest.mark.parametrize("cpus", (1, 2, 3, 5))
def test_a_nan_row_is_combined_as_the_one_loop_does(cpus, bad, monkeypatch):
    # a NaN sample's orbit is NaN at every step, so every step's extremes
    # are NaN, which the fold skips; a -inf sample's Theta_0 is NaN, so
    # only the first window is
    real = numeric.sample_interval

    def sample_interval(fs, rng, count):
        t = real(fs, rng, count)
        t[count // 3] = bad
        return t

    monkeypatch.setattr(numeric, "sample_interval", sample_interval)
    monkeypatch.setattr(test_float_step, "sample_interval", sample_interval)
    force_slices(monkeypatch, cpus)
    F = build_field(6)
    got = numeric.borel_scan(F, 40, 30, 3)
    assert repr(got) == repr(oracle_borel_scan(F, 40, 30, 3))
    assert (got["worst_window_at"] is None) == (bad != bad)
    got = numeric.convergence_scan(F, 40, 30, 3)
    assert repr(got) == repr(oracle_convergence_scan(F, 40, 30, 3))


ERGODIC = ("ergodic-test", "--n", "5", "--steps", "70001", "--samples", "200", "--cells", "20")


@pytest.mark.parametrize("cpus", (1, 2))
def test_ergodic_test_prints_the_golden_bytes_side_by_side(cpus):
    # a fresh interpreter, as in test_cli_golden
    code = ("import os, sys\n"
            f"os.sched_getaffinity = lambda pid: set(range({cpus}))\n"
            "from trianglecf import cli, numeric\n"
            "numeric.MIN_SLICE_STEPS = 1\n"
            "real_fork = os.fork\n"
            "def fork():\n"
            "    sys.stderr.write('fork\\n')\n"
            "    return real_fork()\n"
            "os.fork = fork\n"
            f"raise SystemExit(cli.main({list(ERGODIC)!r}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    golden = json.loads((REPO / "tests" / "golden_cli.json").read_text())[" ".join(ERGODIC)]
    assert proc.returncode == golden["exit"]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == golden["stdout"]
    assert proc.stderr == "fork\n" * (cpus - 1)


# -- exceptions and clean-up -------------------------------------------------------

def _fails_in_the_last_slice(monkeypatch, exc):
    """Make `borel_scan`'s slice loop raise `exc` in the slice that holds
    the last sample of SCAN, a forked child's when there are several."""
    fs = numeric.FloatSystem.for_field(build_field(5))
    last = numeric.sample_interval(fs, np.random.default_rng(4), 400)[-1]
    real = numeric._borel_slice

    def loop(fs, steps, bound, t):
        if t[-1] == last:
            raise exc
        return real(fs, steps, bound, t)

    monkeypatch.setattr(numeric, "_borel_slice", loop)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


SCAN = ["scan-borel", "--n", "5", "--samples", "400", "--steps", "30", "--seed", "4"]


@pytest.mark.parametrize("cpus", (2, 3))
def test_a_child_precision_exhausted_reaches_the_caller(cpus, monkeypatch):
    exc = PrecisionExhausted("float orbit landed on a cylinder boundary",
                             boundary=-1e-15, bits=128)
    _fails_in_the_last_slice(monkeypatch, exc)
    force_slices(monkeypatch, 1)
    serial = _run_cli(SCAN)
    force_slices(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    with pytest.raises(PrecisionExhausted) as info:
        numeric.borel_scan(build_field(5), 400, 30, 4)
    assert (str(info.value), info.value.boundary, info.value.bits) == (
        str(exc), exc.boundary, exc.bits)
    assert _run_cli(SCAN) == serial
    assert serial[0] == 3 and json.loads(serial[1])["boundary"] == "-1e-15"
    assert len(forks) == 2 * (cpus - 1)


@pytest.mark.parametrize("cpus", (2, 3))
def test_a_child_domain_error_reaches_the_caller(cpus, monkeypatch):
    exc = DomainError("a slice refused its samples")
    _fails_in_the_last_slice(monkeypatch, exc)
    force_slices(monkeypatch, 1)
    serial = _run_cli(SCAN)
    force_slices(monkeypatch, cpus)
    with pytest.raises(DomainError, match="^a slice refused its samples$") as info:
        numeric.borel_scan(build_field(5), 400, 30, 4)
    assert type(info.value) is DomainError
    assert _run_cli(SCAN) == serial
    assert serial == (2, "", "usage error: a slice refused its samples\n")


def test_the_first_exception_in_job_order_is_raised(monkeypatch):
    force_slices(monkeypatch, 4)

    def fail(message):
        def job():
            raise DomainError(message)
        return job

    jobs = [lambda: 1, fail("second"), lambda: 3, fail("fourth")]
    with pytest.raises(DomainError, match="second"):
        numeric._run_jobs(jobs, 4)
    assert numeric._run_jobs([lambda: 1, lambda: "two", lambda: (3,)], 3) == [1, "two", (3,)]


def test_children_are_reaped_when_this_process_job_raises(monkeypatch):
    force_slices(monkeypatch, 3)
    forks = count_forks(monkeypatch)

    def slow():
        # killed by the parent long before it would end
        time.sleep(30)

    def fail():
        raise PrecisionExhausted("in this process", boundary=0.5)

    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match="in this process"):
        numeric._run_jobs([fail, slow, lambda: 2], 3)
    assert time.perf_counter() - start < 20
    assert len(forks) == 2


@pytest.mark.parametrize("cpus", (1, 2))
def test_ergodic_test_reports_the_equidistribution_orbit_first(cpus, monkeypatch):
    # both long orbits fail; run in turn, the equidistribution orbit (the
    # one with v) fails first, so its report is printed whether or not
    # Birkhoff's runs side by side in a forked child
    def blocks(fs, seed, steps, with_v, cuts=()):
        name = "equidistribution" if with_v else "birkhoff"
        raise PrecisionExhausted(f"the {name} orbit", boundary=-1.5 if with_v else -2.5)
        yield

    monkeypatch.setattr(numeric, "_orbit_blocks", blocks)
    force_slices(monkeypatch, cpus)
    forks = count_forks(monkeypatch)
    code, out, err = _run_cli(list(ERGODIC))
    assert code == 3
    assert err == "precision exhausted: the equidistribution orbit\n"
    report = json.loads(out)
    assert (report["detail"], report["boundary"]) == ("the equidistribution orbit", "-1.5")
    assert len(forks) == cpus - 1


def test_an_unpicklable_result_is_an_error_not_a_hang(monkeypatch):
    force_slices(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="outcome"):
        numeric._run_jobs([lambda: 1, lambda: (lambda: None)], 2)


# -- when to fork ------------------------------------------------------------------

FORK_CASES = [
    (["scan-borel", "--n", "5", "--samples", "200", "--steps", "100"], 0),
    (["convergence", "--n", "8", "--samples", "300", "--steps", "150"], 0),
    (["ergodic-test", "--n", "5", "--steps", "20000", "--samples", "200", "--cells", "20"], 0),
    (["scan-borel", "--n", "6", "--samples", "20000", "--steps", "1000"], 1),
    (["convergence", "--n", "5", "--samples", "5000", "--steps", "200"], 0),
    (["convergence", "--n", "5", "--samples", "10000", "--steps", "200"], 1),
    (["ergodic-test", "--n", "5", "--steps", "100000"], 0),
    (["ergodic-test", "--n", "5", "--steps", "300000"], 1),
]


@pytest.mark.parametrize("argv,forks", FORK_CASES, ids=[" ".join(a) for a, _ in FORK_CASES])
def test_only_scans_worth_a_process_fork(argv, forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    counted = count_forks(monkeypatch)
    code, _, err = _run_cli(argv)
    assert code == 0, err
    assert len(counted) == forks


def test_one_cpu_never_forks(monkeypatch):
    # 3 * 10**6 orbit steps: two slices' worth
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    counted = count_forks(monkeypatch)
    numeric.borel_scan(build_field(6), 20000, 150, 1)
    assert counted == []
