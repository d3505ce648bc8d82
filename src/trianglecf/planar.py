"""Planar natural-extension domains, the planar maps, and the exact proof
that they preserve the measure dx dy/(1+xy)^2.

The slow system acts on Omega (infinite measure: one corner sits on the
hyperbola 1 + xy = 0); the accelerated system acts on the finite-measure
region Gamma.  All corners are exact field elements, so the bijectivity of
both maps is checked by exact corner-tiling, not numerically.  The masses
of these regions, as floats, are computed in `measure`.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from typing import NamedTuple

from .errors import ConsistencyError, DomainError
from .field import FieldElement, NumberField
from .dynamics import (
    branch,
    build_orbit_tables,
    cylinder_of_f,
    cylinder_of_g,
    eps0,
    orbit_x_order,
)
from .group import INFINITY


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------

class Heights(NamedTuple):
    """Rectangle heights above the orbit of -tau: L_1 < ... < L_{2n-4} < R."""

    field: NumberField
    L: tuple  # L[i] is the (i+1)-th height
    R: FieldElement

    def level(self, i: int) -> FieldElement:
        """1-indexed access matching the L_i naming."""
        return self.L[i - 1]


@lru_cache(maxsize=None)
def build_heights(field: NumberField) -> Heights:
    n = field.n
    tau = field.tau
    N1 = branch(field, 1).N
    odd = [tau.inverse()]                  # L_1 = 1/tau
    for _ in range(n - 3):                 # L_3, ..., L_{2n-5}
        odd.append(N1.apply(odd[-1]))
    even = [(tau - 1).inverse()]           # L_2 = 1/(tau-1)
    for _ in range(n - 3):                 # L_4, ..., L_{2n-4}
        even.append(N1.apply(even[-1]))
    L = []
    for a, b in zip(odd, even):
        L.extend((a, b))
    heights = Heights(field=field, L=tuple(L), R=tau)

    # consistency: strict monotonicity and the closed product identity
    chain = list(heights.L) + [heights.R]
    for a, b in zip(chain, chain[1:]):
        if not a < b:
            raise ConsistencyError("heights are not strictly increasing")
    prod = heights.R
    for h in heights.L:
        prod = prod * h
    if prod != 1:
        raise ConsistencyError("height product R * prod(L_j) != 1")
    # N_1^{n-2} . (1/tau) = tau, one step past odd[-1] = N_1^{n-3} . (1/tau),
    # and the wrap-around N_2 . L_{2n-4} = L_1
    if N1.apply(odd[-1]) != tau:
        raise ConsistencyError("N_1^{n-2}(1/tau) != tau")
    if heights.L[-1] != tau - 1:
        raise ConsistencyError("L_{2n-4} != tau - 1")
    N2 = branch(field, 2).N
    if N2.apply(heights.L[-1]) != heights.L[0]:
        raise ConsistencyError("N_2 L_{2n-4} != L_1")
    # every slab height is the reciprocal of |left endpoint| of its slab
    starts = orbit_x_order(build_orbit_tables(field).phi)
    for h, start in zip(chain, starts):
        if h * (-start) != 1:
            raise ConsistencyError("slab corner is not on the curve y = -1/x")
    return heights


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class Slab(NamedTuple):
    """Vertical strip [x_lo, x_hi) carrying closed fiber intervals in y."""

    x_lo: FieldElement
    x_hi: FieldElement
    fibers: tuple  # ((y_lo, y_hi), ...) in increasing order


class Rect(NamedTuple):
    """[x_lo, x_hi) x [y_lo, y_hi] with exact field-element corners."""

    x_lo: FieldElement
    x_hi: FieldElement
    y_lo: FieldElement
    y_hi: FieldElement


class PlanarRegion:
    """Finite union of slabs; membership is decided by exact sign tests.

    The slabs are nonempty and tile one x-interval from left to right: each
    slab's x_hi is the next slab's x_lo.  The cuts (every x_lo, then the
    last x_hi) are indexed by value: field elements are canonical and
    hashable, so a point on a cut is found with no sign decision."""

    def __init__(self, name: str, slabs):
        self.name = name
        self.slabs = list(slabs)
        for s in self.slabs:
            if not s.x_lo < s.x_hi:
                raise ConsistencyError(f"{name}: a slab is empty")
        for s, t in zip(self.slabs, self.slabs[1:]):
            if s.x_hi != t.x_lo:
                raise ConsistencyError(f"{name}: slabs are not contiguous in x")
        self._cuts = [s.x_lo for s in self.slabs] + [self.slabs[-1].x_hi]
        self._cut_index = {x: i for i, x in enumerate(self._cuts)}

    def rects(self):
        return [Rect(s.x_lo, s.x_hi, lo, hi) for s in self.slabs for lo, hi in s.fibers]

    def _index_at(self, x):
        """(i, on_cut): i indexes the last cut <= x, so x lies in slab i when
        0 <= i < len(slabs); -1 left of every slab.  A cut is found by one
        hash lookup, any other point by bisection."""
        i = self._cut_index.get(x)
        if i is not None:
            return i, True
        return bisect_right(self._cuts, x) - 1, False

    def contains(self, x, y) -> bool:
        return any(lo <= y and y <= hi for lo, hi in self.fiber_at(x))

    def fiber_at(self, x):
        i, _ = self._index_at(x)
        return self.slabs[i].fibers if 0 <= i < len(self.slabs) else ()

    def overlay(self, a, b):
        """(slab, lo, hi) for each slab meeting [a, b), in slab order, where
        [lo, hi) is the part of [a, b) over that slab: a in the slab holding
        a, b in the last slab starting below b, the slab's own ends
        elsewhere.  Only a < b is decided, and only when a and b fall
        strictly inside one slab."""
        i, a_on_cut = self._index_at(a)
        j, b_on_cut = self._index_at(b)
        j -= b_on_cut                        # the last cut below b
        if i == j and not (a_on_cut or b_on_cut) and not a < b:
            return
        for k in range(max(i, 0), min(j + 1, len(self.slabs))):
            s = self.slabs[k]
            yield s, a if k == i else s.x_lo, b if k == j else s.x_hi

    def to_json(self):
        rect_list = [{k: e.to_json() for k, e in r._asdict().items()}
                     for r in self.rects()]
        return {"name": self.name, "rect_count": len(rect_list), "rects": rect_list}


@lru_cache(maxsize=None)
def build_omega(field: NumberField) -> PlanarRegion:
    """Union of rectangles over the -tau orbit; heights L_1..L_{2n-4} then R."""
    heights = build_heights(field)
    starts = orbit_x_order(build_orbit_tables(field).phi)
    tops = list(heights.L) + [heights.R]
    bounds = starts + [field.zero]
    slabs = []
    for i, top in enumerate(tops):
        slabs.append(Slab(bounds[i], bounds[i + 1], ((field.zero, top),)))
    return PlanarRegion("omega", slabs)


def acceleration_fiber_top(field: NumberField) -> FieldElement:
    """Fiber height tau/(tau^2+1) over the accelerated strip [-tau, eps0)."""
    tau = field.tau
    return tau / (tau * tau + 1)


@lru_cache(maxsize=None)
def build_gamma(field: NumberField) -> PlanarRegion:
    """Finite-measure natural-extension domain of the accelerated map."""
    n = field.n
    tau = field.tau
    zero = field.zero
    tables = build_orbit_tables(field)
    heights = build_heights(field)
    eps = tables.eps
    c = acceleration_fiber_top(field)
    L = heights.level
    slabs = [
        Slab(-tau, eps[0], ((zero, c),)),
        Slab(eps[0], eps[1], ((zero, L(1)),)),
    ]
    for j in range(1, n - 2):
        slabs.append(
            Slab(
                eps[j],
                eps[n - 2 + j],
                ((zero, L(2 * j - 1)), (L(2 * j), L(2 * j + 1))),
            )
        )
        slabs.append(Slab(eps[n - 2 + j], eps[j + 1], ((zero, L(2 * j + 1)),)))
    slabs.append(
        Slab(
            eps[n - 2],
            eps[2 * n - 4],
            ((zero, L(2 * n - 5)), (L(2 * n - 4), tau)),
        )
    )
    slabs.append(Slab(eps[2 * n - 4], zero, ((zero, tau),)))

    region = PlanarRegion("gamma", slabs)
    _check_gamma_in_omega(field, region)
    return region


def _check_gamma_in_omega(field: NumberField, gamma: PlanarRegion) -> None:
    """Each Gamma slab lies under Omega: the Omega slabs over it cover its
    x-range without a gap, and each of its fibers ends below their tops."""
    omega = build_omega(field)
    for g in gamma.slabs:
        cursor = g.x_lo
        for o, lo, hi in omega.overlay(g.x_lo, g.x_hi):
            if lo != cursor:
                raise ConsistencyError("Gamma extends outside Omega in x")
            top = o.fibers[-1][1]
            for (y_lo, y_hi) in g.fibers:
                if not (field.zero <= y_lo and y_lo <= y_hi and y_hi <= top):
                    raise ConsistencyError("Gamma fiber exceeds Omega height")
            cursor = hi
        if cursor != g.x_hi:
            raise ConsistencyError("Gamma extends outside Omega in x")
    # the singular corner of Omega is excluded from Gamma
    tables = build_orbit_tables(field)
    heights = build_heights(field)
    if gamma.contains(tables.phi[0], heights.level(1)):
        raise ConsistencyError("Gamma contains the hyperbola corner point")


def gamma_hyperbola_gap(field: NumberField) -> FieldElement:
    """Exact infimum of 1 + xy over Gamma (attained at a rectangle corner)."""
    best = None
    for r in build_gamma(field).rects():
        v = 1 + r.x_lo * r.y_hi
        if best is None or v < best:
            best = v
    if best.sign() <= 0:
        raise ConsistencyError("Gamma touches the hyperbola")
    return best


# ---------------------------------------------------------------------------
# the planar maps
# ---------------------------------------------------------------------------

def branch_step(field: NumberField, k: int, point):
    """(x, y) -> (M_k x, N_k y): the planar branch of digit k."""
    x, y = point
    b = branch(field, k)
    return b.M.apply(x), b.N.apply(y)


def S_step(field: NumberField, point):
    """Slow planar map on Omega: (x, y) -> (M_k x, N_k y) by the g-digit of x."""
    x, y = point
    if not build_omega(field).contains(x, y):
        raise DomainError("point outside Omega")
    return branch_step(field, cylinder_of_g(field, x), point)


def T_step(field: NumberField, point):
    """Accelerated planar map on Gamma, including the W^j branches."""
    x, y = point
    if not build_gamma(field).contains(x, y):
        raise DomainError("point outside Gamma")
    return branch_step(field, cylinder_of_f(field, x), point)


def T_digit_of_y(field: NumberField, y) -> int:
    """Digit of the T-step that produced the second coordinate y.

    The image bands in y are disjoint across digits, so y alone decodes the
    predecessor branch; band boundaries follow the half-open convention.
    """
    tau = field.tau
    c1 = (2 * tau - 1).inverse()          # N_2 . 0
    c = acceleration_fiber_top(field)     # top of acceleration stack base
    heights = build_heights(field)
    L1, L2 = heights.level(1), heights.level(2)
    if y < c1:
        if y.sign() <= 0:
            raise DomainError("y outside the image bands")
        # y < 1/(2 tau - 1) makes (1 + 1/y)/tau > 2, so k >= 3
        return ((1 + 1 / y) / tau).ceil()
    if y < c:
        return 2
    if y < L1:
        # the ratio increases in y and is 1 at y = c, so j >= 1
        return -(y / (tau - tau * tau * y)).floor()
    if y < L2:
        return 2
    if y <= tau:
        return 1
    raise DomainError("y above every image band")


def T_inverse(field: NumberField, point):
    x, y = point
    if not build_gamma(field).contains(x, y):
        raise DomainError("point outside Gamma")
    return _preimage(field, x, y)


def _preimage(field: NumberField, x, y):
    """T^-1 of a point (x, y) already known to lie in Gamma: the digit
    decoded from y, the branch inverted, and the preimage checked."""
    b = branch(field, T_digit_of_y(field, y))
    pre = (b.M.inverse().apply(x), b.N.inverse().apply(y))
    if not build_gamma(field).contains(pre[0], pre[1]):
        raise DomainError("decoded preimage not in Gamma")
    return pre


# ---------------------------------------------------------------------------
# exact bijectivity verification
# ---------------------------------------------------------------------------

_K_FIN = _J_FIN = 6  # digits tiled piece by piece; the rest as two tails
_DIGITS = (*range(-_J_FIN, 0), *range(1, _K_FIN + 1))


def _map_piece(field, digit, x_lo, x_hi, y_lo, y_hi, ends: dict):
    """Image of one piece under (M_k, N_k); both coordinates map increasingly.
    ends memoises the image of each end per (digit, coordinate, end), as
    pieces share their ends: each distinct end costs at most one apply."""
    b = branch(field, digit)

    def image(axis, matrix, end):
        key = (digit, axis, end)
        img = ends.get(key)
        if img is None:
            img = ends[key] = matrix.apply(end)
        return img

    nx_lo, nx_hi = image("x", b.M, x_lo), image("x", b.M, x_hi)
    ny_lo, ny_hi = image("y", b.N, y_lo), image("y", b.N, y_hi)
    if nx_hi is INFINITY or nx_lo is INFINITY:
        raise ConsistencyError("piece crosses a pole of its branch")
    if not nx_lo < nx_hi:
        raise ConsistencyError("x-orientation flipped; piece crosses a pole")
    if not ny_lo < ny_hi:
        raise ConsistencyError("y-orientation flipped; piece crosses a pole")
    return (nx_lo, nx_hi, ny_lo, ny_hi)


def _check_branch_measure(b) -> None:
    """det M_k == 1 and N_k == (M_k^T)^-1, decided exactly: the pairing
    that makes (M_k, N_k) preserve dx dy/(1+xy)^2 (see verify_bijectivity)."""
    if b.M.det() != 1:
        raise ConsistencyError(f"branch {b.digit} does not preserve the measure: det M != 1")
    if b.N != b.M.conjugate_by_rotation():
        raise ConsistencyError(f"branch {b.digit} does not preserve the measure: N != (M^T)^-1")


def _cylinder_pieces(field, region: PlanarRegion, accelerated: bool):
    """Overlay of region slabs with branch cylinders; finite pieces only.
    The slow map's digit-1 cylinder starts at -tau, not at eps0."""
    pieces = []
    for digit in (d for d in _DIGITS if accelerated or d > 0):
        b = branch(field, digit)
        c_lo = -field.tau if digit == 1 and not accelerated else b.lo
        for slab, lo, hi in region.overlay(c_lo, b.hi):
            for (y_lo, y_hi) in slab.fibers:
                pieces.append((digit, lo, hi, y_lo, y_hi))
    return pieces


def _region_images(field, region: PlanarRegion, accelerated: bool):
    """(pieces, images): the finite pieces of region, the image of each
    under its branch, then the closed-form image stacks of the tails."""
    pieces = _cylinder_pieces(field, region, accelerated)
    # the branch table has decided M_k(lo) = image_lo and M_k(hi) = 0
    ends = {}
    for digit in {p[0] for p in pieces}:
        b = branch(field, digit)
        ends[digit, "x", b.lo], ends[digit, "x", b.hi] = b.image_lo, field.zero
    images = [_map_piece(field, *piece, ends) for piece in pieces]

    # tail of the full cylinders k > _K_FIN: images stack onto
    # [-tau, 0) x (0, 1/(_K_FIN tau - 1)]
    tau = field.tau
    images.append((-tau, field.zero, field.zero, (tau * _K_FIN - 1).inverse()))
    if accelerated:
        # acceleration tail j > _J_FIN stacks onto
        # [eps0, 0) x (j1 tau/(j1 tau^2 + 1), L_1] with j1 = _J_FIN + 1
        j1 = _J_FIN + 1
        lo_band = (tau * j1) / (tau * tau * j1 + 1)
        images.append((eps0(field), field.zero, lo_band, build_heights(field).level(1)))
    return pieces, images


def _check_band_tiling(region: PlanarRegion, bands_by_slab) -> None:
    """Each slab's image bands (lo < hi each) must exactly cover its fiber
    union.  The bands are chained by value from the fiber bottom, jumping
    only across a designated fiber gap, so a tiling costs no sign decision;
    a sign is read only to word a failure."""
    for slab in region.slabs:
        bands = bands_by_slab.get(id(slab))
        if not bands:
            raise ConsistencyError("slab received no image bands")
        fibers, bottom = slab.fibers, slab.fibers[0][0]
        chain = dict(bands)
        if bottom not in chain:
            raise ConsistencyError("lowest band does not start at the fiber bottom")
        broken = len(chain) != len(bands)       # two bands share a lo
        fb, cursor = 0, bottom
        while chain and not broken:
            if cursor in chain:
                cursor = chain.pop(cursor)
            elif (fb + 1 < len(fibers) and cursor == fibers[fb][1]
                    and fibers[fb + 1][0] in chain):
                fb += 1
                cursor = chain.pop(fibers[fb][0])
            else:
                broken = True
        if broken:
            if any(lo < bottom for lo, _ in bands):
                raise ConsistencyError("lowest band does not start at the fiber bottom")
            raise ConsistencyError("gap or overlap between image bands")
        if not (cursor == fibers[fb][1] and fb == len(fibers) - 1):
            raise ConsistencyError("image bands do not reach the fiber top")


def _distribute_bands(region: PlanarRegion, images) -> dict:
    """Split image x-ranges at slab boundaries and bucket the y-bands."""
    bands_by_slab = {}
    for (x_lo, x_hi, y_lo, y_hi) in images:
        slabs = [slab for slab, _, _ in region.overlay(x_lo, x_hi)]
        if not slabs:
            raise ConsistencyError("image piece fell outside the region")
        for slab in slabs:
            bands_by_slab.setdefault(id(slab), []).append((y_lo, y_hi))
    return bands_by_slab


def verify_bijectivity(field: NumberField) -> dict:
    """Exact corner-tiling proof that S permutes Omega and T permutes Gamma
    up to measure zero, and that every finite piece keeps its measure
    dx dy/(1+xy)^2.  Digits up to 6 and -6 are tiled piece by piece, the
    rest as two closed-form stacks.  The measure is one identity per branch,
    det M = 1 and N = (M^T)^-1 = [[d, -c], [-b, a]] for M = [[a, b], [c, d]]:
      1 + M(x) N(y) = (1 + xy) / ((cx + d)(a - by)),
      the Jacobian of (x, y) -> (M x, N y) is 1 / ((cx + d)^2 (a - by)^2),
      so dx dy/(1+xy)^2 is invariant pointwise, and with it every piece's mass.
    """
    report = {"n": field.n}
    for digit in _DIGITS:
        _check_branch_measure(branch(field, digit))
    for name, region, accelerated in (
        ("omega", build_omega(field), False),
        ("gamma", build_gamma(field), True),
    ):
        pieces, images = _region_images(field, region, accelerated)
        _check_band_tiling(region, _distribute_bands(region, images))
        report[name] = {"pieces": len(pieces), "ok": True}
    report["ok"] = True
    return report
