"""The invariant measure dmu = dx dy/(1+xy)^2 and its marginal nu, as floats.

The exact lane decides every region, map and identity (`planar`); this
module turns its exact rectangles into numbers at one boundary.  The mass
of a rectangle is a closed-form logarithm of a ratio of field elements, so
each float is the logarithm of an exact value.  Numpy is never loaded.

The planar layer is reached through the package, which imports it on first
use: a logarithm of a rational (`_log_big_fraction`) loads no region.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import trianglecf
from .errors import ConsistencyError, DomainError


# ---------------------------------------------------------------------------
# logarithms of exact values
# ---------------------------------------------------------------------------

def _log_big_fraction(q: Fraction) -> float:
    if q <= 0:
        raise DomainError("logarithm of a non-positive rational")

    def lg(m: int) -> float:
        b = m.bit_length()
        if b <= 512:
            return math.log(m)
        k = b - 53
        return math.log(m >> k) + k * math.log(2)

    return lg(q.numerator) - lg(q.denominator)


def _log_ratio(ratio) -> float:
    """log of a positive field element."""
    if ratio.sign() <= 0:
        raise DomainError("non-positive ratio in log")
    if ratio.is_rational():
        return _log_big_fraction(ratio.as_fraction())
    return _log_big_fraction(ratio.embed(80).mid())


# ---------------------------------------------------------------------------
# mu on rectangles and regions
# ---------------------------------------------------------------------------

def mu_rect(rect) -> float:
    """Closed-form measure log[(1+x1y1)(1+x2y2) / ((1+x1y2)(1+x2y1))].

    Raises DomainError when the rectangle touches or crosses 1 + xy = 0.
    """
    x1, x2, y1, y2 = rect.x_lo, rect.x_hi, rect.y_lo, rect.y_hi
    corners = [1 + x1 * y1, 1 + x2 * y2, 1 + x1 * y2, 1 + x2 * y1]
    if any(c.sign() <= 0 for c in corners):
        raise DomainError("rectangle meets the hyperbola 1 + xy = 0")
    return _log_ratio((corners[0] * corners[1]) / (corners[2] * corners[3]))


def mu_region(region) -> float:
    return math.fsum(mu_rect(r) for r in region.rects())


@lru_cache(maxsize=None)
def mu_gamma(field) -> float:
    return mu_region(trianglecf.planar.build_gamma(field))


def omega_divergence_partial_sums(field, bound: float = 1.0e3):
    """Partial measures of dyadic column strips approaching the hyperbola
    corner (phi_0, L_1): each halving contributes exactly log 2, so the
    partial sums exceed any bound."""
    planar = trianglecf.planar
    tables = trianglecf.dynamics.build_orbit_tables(field)
    heights = planar.build_heights(field)
    phi0 = tables.phi[0]
    top = heights.level(1)
    width = tables.phi[field.n - 1] - phi0
    total = 0.0
    sums = []
    i = 0
    while total <= bound:
        a = phi0 + width * Fraction(1, 2 ** (i + 1))
        b = phi0 + width * Fraction(1, 2 ** i)
        total += mu_rect(planar.Rect(a, b, field.zero, top))
        sums.append(total)
        i += 1
        if i > 100000:
            raise ConsistencyError("divergence check did not reach the bound")
    return sums


# ---------------------------------------------------------------------------
# the marginal measure nu on the interval
# ---------------------------------------------------------------------------

def nu_band_mass(field, a, b) -> float:
    """Unnormalized mu-mass of Gamma over the x-interval [a, b)."""
    a = field.coerce(a)
    b = field.coerce(b)
    if not a <= b:
        raise DomainError("empty band")
    Rect = trianglecf.planar.Rect
    total = 0.0
    for slab, lo, hi in trianglecf.planar.build_gamma(field).overlay(a, b):
        for (y_lo, y_hi) in slab.fibers:
            total += mu_rect(Rect(lo, hi, y_lo, y_hi))
    return total


def nu_cdf(field, a, b) -> float:
    """nu([a, b)) for the normalized marginal of mu on Gamma."""
    return nu_band_mass(field, a, b) / mu_gamma(field)


def nu_density(field, x) -> float:
    """Normalized marginal density: fiber integral of (1+xy)^-2 over Gamma."""
    try:
        x = field.coerce(x)
    except TypeError as exc:
        raise DomainError("density wants an exact abscissa") from exc
    fibers = trianglecf.planar.build_gamma(field).fiber_at(x)
    if not fibers:
        raise DomainError("abscissa outside the interval")
    total = field.zero
    for (y1, y2) in fibers:
        total = total + (y2 - y1) / ((1 + x * y1) * (1 + x * y2))
    return float(total) / mu_gamma(field)
