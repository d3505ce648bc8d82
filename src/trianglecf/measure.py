"""The exact lane's floats: the invariant measure dmu = dx dy/(1+xy)^2, its
marginal nu, log q_m, the growth screen and the periodic family's gaps.

The exact lane decides every region, map, expansion and identity; this
module turns its exact results into numbers at one boundary.  The mass of a
rectangle is a closed-form logarithm of a ratio of field elements.  Numpy
is never loaded.  Every other layer is reached through the package, which
imports it on first use: a logarithm of a rational (`_log_big_fraction`),
or the growth screen of given logarithms, loads no region and no expansion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import trianglecf
from .errors import ConsistencyError, DomainError

# the share of the growth screen's sample, from its end, that it reads
TAIL_FRACTION = 0.5


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


# ---------------------------------------------------------------------------
# reports read from exact expansions and periodic points
# ---------------------------------------------------------------------------

def periodic_family_report(field, j_max: int = 10) -> dict:
    """theta(P_j) increases strictly towards tau along the family."""
    if j_max < 2:
        raise DomainError(f"the family compares its first and last gap: j_max >= 2, got {j_max}")
    pts = [trianglecf.dioph.periodic_point(field, j) for j in range(1, j_max + 1)]
    for a, b in zip(pts, pts[1:]):
        if trianglecf.quadratic.compare_numeric(a.theta_min, b.theta_min) >= 0:
            raise ConsistencyError("theta(P_j) failed to increase in j")
    gaps = [float(field.tau.embed(60).mid() - p.theta_min.embed(60).mid()) for p in pts]
    limit_x = trianglecf.dynamics.branch(field, 1).hi
    limit_y = trianglecf.planar.build_heights(field).level(2 * field.n - 5)
    last = pts[-1]
    dist = abs(float(last.x) - float(limit_x)) + abs(float(last.y) - float(limit_y))
    return {
        "n": field.n,
        "j_max": j_max,
        "theta_values": [float(p.theta_min) for p in pts],
        "tau_gaps": gaps,
        "limit_distance": dist,
        "ok": all(g > 0 for g in gaps) and gaps[-1] < gaps[0],
    }


def log_q_sequence(field, x, steps: int) -> list:
    """log |q_m| along an exact expansion (for the growth statistic)."""
    res = trianglecf.dioph.expand(field, x, steps)
    logs = []
    for st in res.states[1:]:
        val = abs(st.q.embed(60).mid())
        if val == 0:
            raise ConsistencyError("vanishing q along an expansion")
        logs.append(_log_big_fraction(val))
    return logs


def transcendence_indicator(log_qs, degree: int, margin: float = 0.05) -> dict:
    """Growth screen: flags limsup (log log q_m)/m above log(2d - 1).

    A finite sample cannot certify a strict limsup inequality, so the
    verdict requires clearing the threshold by `margin` on the tail window,
    the last TAIL_FRACTION of the sample.
    """
    if not math.isfinite(margin):
        raise DomainError(f"the margin must be a finite number, got {margin}")
    if degree < 1:
        raise DomainError(f"the field degree must be at least 1, got {degree}")
    if len(log_qs) < 10:
        raise DomainError("need at least 10 convergents")
    stats = []
    for m, lq in enumerate(log_qs, start=1):
        if lq > 1.0:
            stats.append((m, math.log(lq) / m))
    if not stats:
        statistic = 0.0
    else:
        tail_start = stats[-1][0] * (1 - TAIL_FRACTION)
        tail = [s for m, s in stats if m >= tail_start] or [stats[-1][1]]
        statistic = max(tail)
    threshold = math.log(2 * degree - 1)
    return {
        "statistic": statistic,
        "threshold": threshold,
        "margin": margin,
        "flagged": statistic > threshold + margin,
        "count": len(log_qs),
    }
