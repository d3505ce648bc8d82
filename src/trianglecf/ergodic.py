"""Digit-string admissibility, the induced first-return map on the deep
cylinders, and the equidistribution experiments.

The four published digit restrictions are implemented verbatim; exact
cylinder construction shows they are necessary but allow one extra pattern
(a jump digit straight after a maximal-run-closing 2) that never occurs, so
a fifth rule is provided separately for the exact characterization.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionExhausted
from .field import NumberField
from .dynamics import branch, f_step
from .numeric import FloatSystem, derivative_factor, digit_matrix_batch, step_scalar

__all__ = [
    "AdmissibilityResult",
    "is_admissible",
    "is_realizable",
    "cylinder_interval",
    "observed_words",
    "InducedOrbitRecord",
    "induced_step_Y",
    "adler_scan",
]


class AdmissibilityResult(NamedTuple):
    ok: bool
    rule: int | None = None       # 1..4 published rules, 5 = realizability refinement
    position: int | None = None

    def __bool__(self):
        return self.ok


def _scan_word(word, n: int, with_refinement: bool) -> AdmissibilityResult:
    run1 = 0              # length of the current run of 1s
    window = -1           # >= 0: ones seen since a maximal-run-closing 2
    for i, a in enumerate(word):
        if a == 0:
            raise DomainError("digit 0 does not exist")
        if a < 0 and i > 0 and word[i - 1] <= 1:
            return AdmissibilityResult(False, 1, i)
        if a == 1:
            run1 += 1
            if window >= 0:
                window += 1
                if window > n - 3:
                    return AdmissibilityResult(False, 3, i)
            if run1 > n - 2:
                return AdmissibilityResult(False, 2, i)
        else:
            if window >= 0:
                if window == n - 3 and a < 3:
                    return AdmissibilityResult(False, 4, i)
                if with_refinement and a < 0 and window == 0:
                    return AdmissibilityResult(False, 5, i)
            if a == 2 and run1 == n - 2:
                window = 0
            else:
                window = -1
            run1 = 0
    return AdmissibilityResult(True)


def is_admissible(word, n: int) -> AdmissibilityResult:
    """The four published digit restrictions:

    (1) a negative digit is preceded by a digit > 1;
    (2) at most n-2 consecutive 1s;
    (3) a maximal (n-2)-run of 1s followed by a 2 admits at most n-3
        further consecutive 1s;
    (4) the full pattern 1^(n-2) 2 1^(n-3) must be followed by >= 3.
    """
    return _scan_word(word, n, with_refinement=False)


def is_realizable(word, n: int) -> AdmissibilityResult:
    """Rules (1)-(4) plus the cylinder-forced rule (5): a negative digit
    cannot directly follow a 2 that closes a maximal (n-2)-run of 1s
    (the image of that pattern lies right of the accelerated region)."""
    return _scan_word(word, n, with_refinement=True)


def cylinder_interval(field: NumberField, word):
    """Exact half-open x-interval of a digit word, or None if empty.

    Built by pulling the final cylinder back through the branch inverses and
    intersecting with each branch image [image_lo, 0); every cylinder ends
    left of 0, so only the left ends need clipping.  All comparisons are
    exact."""
    if not word:
        return -field.tau, field.zero
    last = branch(field, word[-1])
    lo, hi = last.lo, last.hi
    for a in reversed(word[:-1]):
        b = branch(field, a)
        u = max(b.image_lo, lo)
        if not u < hi:
            return None
        M_inv = b.M.inverse()
        lo = max(b.lo, M_inv.apply(u))
        hi = min(b.hi, M_inv.apply(hi))
        if not lo < hi:
            return None
    return lo, hi


def observed_words(field: NumberField, samples: int, length: int, seed: int) -> dict:
    """Soundness experiment: digit words of random orbits all pass the
    published restrictions (and the refined ones)."""
    digits = digit_matrix_batch(field, samples, length, seed)
    bad = []
    for word in digits.T.tolist():
        res = is_realizable(word, field.n)
        if not res:
            bad.append({"word": word, "rule": res.rule, "position": res.position})
            if len(bad) >= 5:
                break
    return {
        "n": field.n,
        "samples": samples,
        "length": length,
        "seed": seed,
        "inadmissible_count": len(bad),
        "witnesses": bad,
        "ok": not bad,
    }


class InducedOrbitRecord:
    def __init__(self, y0: float, return_time: int, word: tuple, derivative: float):
        self.y0 = y0
        self.return_time = return_time
        self.word = word
        self.derivative = derivative


def induced_step_Y(field: NumberField, y, fs: FloatSystem = None) -> InducedOrbitRecord:
    """First return to Y = [1/(1-2 tau), 0) with the chain-rule derivative.

    Float lane; the exact variant `induced_step_Y_exact` backs the full
    cylinders' case in the tests."""
    fs = fs or FloatSystem.for_field(field)
    if not (fs.y_left <= y < 0.0):
        raise DomainError("point outside the return set Y")
    t = y
    v = 0.0
    word = []
    deriv = 1.0
    for m in range(1, 10000):
        digit = None
        deriv_t = t
        t, v, digit = step_scalar(fs, t, v)
        word.append(int(digit))
        deriv *= derivative_factor(fs, deriv_t, digit)
        if fs.y_left <= t < 0.0:
            if m > 1 and not all(d < 3 for d in word[1:]):
                raise DomainError("intermediate digit >= 3 before the first return")
            return InducedOrbitRecord(y0=y, return_time=m, word=tuple(word), derivative=deriv)
    raise DomainError("no return within 10000 steps")


def induced_step_Y_exact(field: NumberField, y, max_steps: int = 2000):
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


def adler_scan(field: NumberField, samples: int, seed: int) -> dict:
    """Empirical expansivity of the induced map: inf |f_Y'| over samples.

    Boundary collisions of the float lane are skipped and counted; they have
    probability zero for the sampled points."""
    fs = FloatSystem.for_field(field)
    rng = np.random.default_rng(seed)
    ys = fs.y_left * rng.random(samples)
    ys = np.minimum(ys, -1e-12)
    min_deriv = math.inf
    max_return = 0
    skipped = 0
    return_hist = {}
    for y in ys:
        try:
            rec = induced_step_Y(field, float(y), fs)
        except PrecisionExhausted:
            skipped += 1
            continue
        min_deriv = min(min_deriv, rec.derivative)
        max_return = max(max_return, rec.return_time)
        return_hist[rec.return_time] = return_hist.get(rec.return_time, 0) + 1
    return {
        "n": field.n,
        "samples": samples,
        "seed": seed,
        "min_derivative": min_deriv,
        "max_return_time": max_return,
        "return_histogram": dict(sorted(return_hist.items())),
        "skipped_boundary_collisions": skipped,
        "ok": min_deriv > 1.0,
    }


def completeness_check(field: NumberField, alphabet, max_len: int) -> dict:
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
