import random
from fractions import Fraction

import pytest

from trianglecf.errors import DomainError
from trianglecf.field import build_field
from trianglecf.group import digit_matrix
from trianglecf.dynamics import (
    branch,
    build_orbit_tables,
    cylinder_interval,
    f_step,
    is_admissible,
    is_realizable,
)
from trianglecf.ergodic import adler_scan, induced_step_Y, observed_words
from trianglecf.numeric import (
    FloatSystem,
    birkhoff_experiment,
    borel_scan,
    convergence_scan,
    uniform_distribution_experiment,
)


N = 5


def test_admissibility_rule_examples():
    assert is_admissible([1, 1, 1], N).ok
    r = is_admissible([1, 1, 1, 1], N)
    assert not r.ok and r.rule == 2
    assert is_admissible([2, -3], N).ok
    r = is_admissible([1, -2], N)
    assert not r.ok and r.rule == 1
    assert is_admissible([], N).ok
    r = is_admissible([1, 1, 1, 2, 1, 1, 1], N)
    assert not r.ok and r.rule == 3
    r = is_admissible([1, 1, 1, 2, 1, 1, 2], N)
    assert not r.ok and r.rule == 4
    r = is_admissible([1, 1, 1, 2, 1, 1, -1], N)
    assert not r.ok and r.rule == 1
    assert is_admissible([1, 1, 1, 2, 1, 1, 3], N).ok
    assert is_admissible([3, 3, 3, 3], N).ok


def test_digit_zero_rejected():
    with pytest.raises(DomainError):
        is_admissible([1, 0, 2], N)


def test_realizability_refinement():
    # the published rules allow a jump digit straight after a maximal-run 2,
    # but the cylinder of that pattern is empty
    ghost = [1, 1, 1, 2, -1]
    assert is_admissible(ghost, N).ok
    r = is_realizable(ghost, N)
    assert not r.ok and r.rule == 5
    assert cylinder_interval(build_field(N), ghost) is None
    # a short-run 2 resets the window
    ok_word = [1, 1, 2, -1]
    assert is_realizable(ok_word, N).ok
    assert cylinder_interval(build_field(N), ok_word) is not None


def test_boundary_orbit_words_realizable():
    # the eps-orbit prefix and its continuation by a 3 are realizable
    F = build_field(N)
    t = build_orbit_tables(F)
    word = list(t.eps_digits)
    assert word == [1] * (N - 2) + [2] + [1] * (N - 3)
    assert is_realizable(word, N).ok
    assert cylinder_interval(F, word) is not None
    assert is_realizable(word + [3], N).ok
    # whereas the full cycle word of the fixed point is not admissible:
    # its tail 1^{n-2} 2 1^{n-3} 2 breaks the fourth restriction
    cycle = list(build_orbit_tables(F).phi_digits)
    r = is_admissible(cycle, N)
    assert not r.ok and r.rule == 4


def test_cylinder_interval_matches_orbit_witnesses():
    F = build_field(N)
    t = build_orbit_tables(F)
    iv = cylinder_interval(F, list(t.eps_digits))
    assert iv is not None
    lo, hi = iv
    # eps_0 is the left endpoint of that cylinder
    assert (lo - t.eps[0]).is_zero()


def completeness_check(field, alphabet, max_len: int) -> dict:
    """Depth-first sweep comparing cylinder nonemptiness with the two rule
    sets, carrying the forward image interval along each prefix.

    Returns counts of words where the published rules over-generate (ghost
    words) and any mismatch of the refined rules (expected zero)."""
    n = field.n
    interval = (-field.tau, field.zero)
    ghost_words = []
    refined_mismatches = []
    checked = 0

    def recurse(word, image, depth):
        nonlocal checked
        if depth == max_len:
            return
        for a in alphabet:
            w = word + (a,)
            checked += 1
            nonempty = False
            new_image = None
            if image is not None:
                b = branch(field, a)
                lo = max(image[0], b.lo)
                hi = min(image[1], b.hi)
                if lo < hi:
                    nonempty = True
                    new_image = (b.M.apply(lo), b.M.apply(hi))
            adm = bool(is_admissible(list(w), n))
            real = bool(is_realizable(list(w), n))
            if real != nonempty:
                refined_mismatches.append(w)
            if adm and not nonempty:
                ghost_words.append(w)
            if nonempty:
                recurse(w, new_image, depth + 1)
            elif adm:
                # rule-admissible extensions of an empty cylinder stay empty
                recurse(w, None, depth + 1)

    recurse((), interval, 0)
    return {
        "n": n,
        "alphabet": list(alphabet),
        "max_len": max_len,
        "checked": checked,
        "ghost_words": ghost_words[:20],
        "ghost_count": len(ghost_words),
        "refined_mismatches": refined_mismatches[:20],
        "refined_mismatch_count": len(refined_mismatches),
        "refined_ok": not refined_mismatches,
    }


def test_completeness_small_alphabet():
    # realizability (rules 1-5) coincides with cylinder nonemptiness,
    # while the published rules over-generate exactly the ghost patterns
    rep = completeness_check(build_field(N), (-2, -1, 1, 2, 3), 6)
    assert rep["refined_ok"]
    assert rep["ghost_count"] > 0
    for w in rep["ghost_words"]:
        assert is_admissible(list(w), N).ok
        assert not is_realizable(list(w), N).ok


def test_completeness_published_length8():
    # the stated brute-force depth: every word up to length 8 over the
    # truncated alphabet has nonempty cylinder iff the refined rules admit it
    rep = completeness_check(build_field(N), (-1, 1, 2, 3), 8)
    assert rep["refined_ok"]
    assert rep["ghost_count"] > 0  # published rules over-generate the ghosts


def test_observed_words_sound():
    rep = observed_words(build_field(N), samples=600, length=50, seed=9)
    assert rep["ok"], rep["witnesses"][:2]


def test_observed_includes_full_cylinder_constant_word():
    # Delta_3 is full, so the constant word (3, 3, ...) is realizable; its
    # exact witness is the fixed point (see test_quadratic)
    F = build_field(N)
    assert cylinder_interval(F, [3] * 8) is not None


def induced_step_Y_exact(field, y, max_steps: int = 2000):
    """Exact first return; derivative as an exact field element.

    f-rational points whose orbit reaches the parabolic fixed point never
    return and raise DomainError."""
    y_left = (1 - 2 * field.tau).inverse()
    if not (y_left <= y and y < 0):
        raise DomainError("point outside the return set Y")
    t = y
    word = []
    deriv = field.one
    for m in range(1, max_steps):
        t_prev = t
        t, k, M = f_step(field, t)
        word.append(k)
        # M has determinant 1, so M'(t) = 1 / (c t + d)^2
        den = M.c * t_prev + M.d
        deriv = deriv * (den * den).inverse()
        if t == -field.tau:
            raise DomainError("f-rational point: orbit reached the parabolic fixed point")
        if y_left <= t and t < 0:
            return t, m, tuple(word), deriv
    raise DomainError(f"no exact return within {max_steps} steps")


def test_induced_step_full_cylinder_case():
    # y in Delta_k, k >= 3, returning immediately: |f_Y'(y)| = 1/y^2 > 1
    F = build_field(N)
    y_left = (1 - 2 * F.tau).inverse()
    mid_Y = y_left * Fraction(1, 2)
    target = digit_matrix(F, 4).inverse().apply(mid_Y)
    assert y_left <= target and target < F.zero
    t, m, word, deriv = induced_step_Y_exact(F, target)
    assert m == 1 and word == (4,)
    assert (deriv - (target * target).inverse()).is_zero()
    assert deriv > 1


def test_induced_word_shape():
    F = build_field(N)
    fs = FloatSystem.for_field(F)
    rng = random.Random(17)
    for _ in range(40):
        y = fs.y_left * rng.random()
        if y >= -1e-9:
            continue
        rec = induced_step_Y(F, y, fs)
        assert rec.word[0] >= 3
        assert all(d < 3 for d in rec.word[1:])
        assert rec.derivative > 1.0


def test_induced_rejects_outside_Y():
    F = build_field(N)
    with pytest.raises(DomainError):
        induced_step_Y(F, -1.0)


def test_f_rational_point_has_no_return():
    F = build_field(N)
    with pytest.raises(DomainError):
        induced_step_Y_exact(F, F.from_fraction(Fraction(-1, 10)))


def test_adler_scan():
    rep = adler_scan(build_field(N), samples=4000, seed=12)
    assert rep["ok"]
    assert rep["min_derivative"] > 1.0
    # unbounded return times in practice: a healthy spread shows up already
    assert rep["max_return_time"] >= 10


def test_uniform_distribution_small():
    rep = uniform_distribution_experiment(build_field(N), steps=120000, cells=60, seed=5)
    assert rep["outside_box_count"] == 0
    assert rep["max_discrepancy"] < 0.02
    assert rep["cells"] == 60


def test_cells_outside_gamma_unused():
    # all orbit mass lands inside Gamma cells: total frequency sums to ~1
    import numpy as np

    from trianglecf.numeric import build_cells, orbit_tv_arrays

    F = build_field(N)
    cells = build_cells(F, 40)
    ts, vs = orbit_tv_arrays(F, 50000, seed=3)
    total = 0
    for c in cells:
        inside = (
            (ts >= c["x_lo"]) & (ts < c["x_hi"]) & (vs >= c["y_lo"]) & (vs <= c["y_hi"])
        )
        total += int(np.count_nonzero(inside))
    assert total >= 49990


def test_uniform_distribution_rejects_a_single_step():
    # the default half-way checkpoint of a 1-step orbit would be 0
    with pytest.raises(DomainError):
        uniform_distribution_experiment(build_field(N), 1, cells=10)


def test_uniform_distribution_rejects_a_zero_checkpoint():
    with pytest.raises(DomainError):
        uniform_distribution_experiment(build_field(N), 100, cells=10, checkpoints=(0, 100))


def test_birkhoff_rejects_an_empty_orbit():
    with pytest.raises(DomainError):
        birkhoff_experiment(build_field(N), 0)


@pytest.mark.parametrize("scan", [borel_scan, convergence_scan])
def test_scans_reject_an_empty_sample(scan):
    # numpy would reduce an empty array: a ValueError, not a report
    for samples in (0, -1):
        with pytest.raises(DomainError, match="at least 1 sample"):
            scan(build_field(N), samples, 5, 0)


def test_birkhoff_small():
    rep = birkhoff_experiment(build_field(N), steps=120000, intervals=6, seed=6)
    assert rep["max_deviation"] < 0.02


def test_borel_scan_small():
    rep = borel_scan(build_field(N), samples=1500, steps=250, seed=3)
    assert rep["violations"] == 0
    assert rep["max_theta_run"] <= N - 1
    assert rep["max_window_min"] <= rep["tau"]


def test_convergence_scan_small():
    rep = convergence_scan(build_field(N), samples=400, steps=200, seed=4)
    assert rep["all_converged"]
    assert rep["max_v"] <= rep["tau"] + 1e-12
    assert rep["delta"] > 0
    assert rep["v_above_one_count"] > 0
    assert rep["min_one_plus_tv"] > 0
    # acceleration steps keep the error ratio at most 1
    assert rep["max_acceleration_ratio"] <= 1.0 + 1e-12
