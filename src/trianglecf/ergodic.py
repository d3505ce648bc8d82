"""Float experiments on digit words and the induced first-return map on
the deep cylinders: the soundness of the digit restrictions on random
orbits, and the expansivity of the induced map (Adler's condition).

The restrictions themselves, and the exact cylinders of digit words, are
exact combinatorics and live in `dynamics`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, PrecisionExhausted
from .field import NumberField
from .dynamics import is_realizable
from .numeric import FloatSystem, derivative_factor, digit_matrix_batch, step_scalar


def observed_words(field: NumberField, samples: int, length: int, seed: int) -> dict:
    """Soundness experiment: digit words of random orbits all pass the
    published restrictions (and the refined ones)."""
    if samples < 1:
        raise DomainError("the experiment needs at least 1 sample")
    fs = FloatSystem.for_field(field)
    digits = digit_matrix_batch(fs, samples, length, seed)
    bad = []
    for word in digits.T.tolist():
        res = is_realizable(word, fs.n)
        if not res:
            bad.append({"word": word, "rule": res.rule, "position": res.position})
            if len(bad) >= 5:
                break
    return {
        "n": fs.n,
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
    """First return to Y = [1/(1-2 tau), 0) with the chain-rule derivative."""
    fs = fs or FloatSystem.for_field(field)
    if not (fs.y_left <= y < 0.0):
        raise DomainError("point outside the return set Y")
    t = y
    v = 0.0
    word = []
    deriv = 1.0
    for m in range(1, 10000):
        deriv_t = t
        t, v, digit = step_scalar(fs, t, v)
        word.append(int(digit))
        deriv *= derivative_factor(fs, deriv_t, digit)
        if fs.y_left <= t < 0.0:
            if m > 1 and not all(d < 3 for d in word[1:]):
                raise DomainError("intermediate digit >= 3 before the first return")
            return InducedOrbitRecord(y0=y, return_time=m, word=tuple(word), derivative=deriv)
    raise DomainError("no return within 10000 steps")


def adler_scan(field: NumberField, samples: int, seed: int) -> dict:
    """Empirical expansivity of the induced map: inf |f_Y'| over samples.

    Boundary collisions of the float lane are skipped and counted; they have
    probability zero for the sampled points."""
    if samples < 1:
        raise DomainError("the scan needs at least 1 sample")
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
        "n": fs.n,
        "samples": samples,
        "seed": seed,
        "min_derivative": min_deriv,
        "max_return_time": max_return,
        "return_histogram": dict(sorted(return_hist.items())),
        "skipped_boundary_collisions": skipped,
        "ok": min_deriv > 1.0,
    }
