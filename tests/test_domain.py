"""Each library function checks the bounds of the values it reads and
raises DomainError, the one bad-input exception, outside them."""

import math
from fractions import Fraction

import pytest

from trianglecf import dioph, ergodic, measure, numeric
from trianglecf.errors import DomainError
from trianglecf.field import build_field, set_precision_cap

# twelve convergents, enough for the growth screen's minimum of ten
LOGS = [2.0 ** m for m in range(1, 13)]

CASES = {
    "precision-cap-below-64": lambda F: set_precision_cap(63),
    "expand-negative-steps": lambda F: dioph.expand(F, F.from_fraction(Fraction(-1, 2)), -1),
    "expand-x-at-zero": lambda F: dioph.expand(F, F.zero, 0),
    "expand-x-left-of-minus-tau": lambda F: dioph.expand(F, -F.tau - 1, 0),
    "borel-negative-steps": lambda F: numeric.borel_scan(F, 5, -3, 0),
    "borel-nan-tolerance": lambda F: numeric.borel_scan(F, 5, 10, 0, tol=math.nan),
    "borel-infinite-tolerance": lambda F: numeric.borel_scan(F, 5, 10, 0, tol=-math.inf),
    "convergence-zero-steps": lambda F: numeric.convergence_scan(F, 5, 0, 0),
    "adler-zero-samples": lambda F: ergodic.adler_scan(F, 0, 1),
    "observed-words-zero-samples": lambda F: ergodic.observed_words(F, 0, 50, 0),
    "uniform-zero-cells": lambda F: numeric.uniform_distribution_experiment(F, 100, 0),
    "family-of-one-point": lambda F: measure.periodic_family_report(F, 1),
    "transcendence-nan-margin":
        lambda F: measure.transcendence_indicator(LOGS, 2, margin=math.nan),
    "transcendence-infinite-margin":
        lambda F: measure.transcendence_indicator(LOGS, 2, margin=math.inf),
    "transcendence-degree-zero": lambda F: measure.transcendence_indicator(LOGS, 0),
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_out_of_domain_value_raises_domain_error(case):
    F = build_field(5)
    try:
        with pytest.raises(DomainError):
            case(F)
    finally:
        set_precision_cap(None)
