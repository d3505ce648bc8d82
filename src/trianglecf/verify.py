"""The exact identity suite for one n: every group, orbit, height, region and
tiling identity of the construction, each decided with zero tolerance.

The layers are called through their modules (dynamics.build_orbit_tables,
not a name bound here), so instrumentation that wraps a module's functions
also sees the calls made from this suite.
"""

from __future__ import annotations

from . import dynamics, group, planar
from .errors import ConsistencyError, DomainError
from .field import build_field
from .group import INFINITY, Mobius


def verify_one(n: int) -> dict:
    """Run every check for K = Q(2cos(pi/n)); returns {"checks", "ok"}.

    A check that raises ConsistencyError, DomainError or AssertionError is
    recorded as failed with its message; other exceptions propagate.
    """
    field = build_field(n)
    checks = []

    def run(name, fn):
        try:
            fn()
            checks.append({"name": name, "ok": True})
        except (ConsistencyError, DomainError, AssertionError) as exc:
            checks.append({"name": name, "ok": False, "detail": str(exc)})

    g = group.generators(field)

    def check_relations():
        if not (g.A * g.B) == -g.C:
            raise ConsistencyError("AB != -C")
        if not (g.B ** n).proj_eq(Mobius.identity(field)):
            raise ConsistencyError("B^n not projectively the identity")
        A1C = g.A.inverse() * g.C
        A2C = g.A.inverse() ** 2 * g.C
        word1 = A2C * A1C ** (n - 3) * A2C * A1C ** (n - 2)
        word2 = g.A.inverse() * g.B.inverse() ** 2 * g.A.inverse() * g.B.inverse()
        if not (word1.proj_eq(g.W) and word2.proj_eq(g.W)):
            raise ConsistencyError("parabolic word forms disagree with W")
        if g.W.apply(-field.tau) != -field.tau:
            raise ConsistencyError("W does not fix -tau")
        if g.B.apply(field.zero) is not INFINITY:
            raise ConsistencyError("B does not send 0 to infinity")
        if g.C.apply(INFINITY) != field.one:
            raise ConsistencyError("C does not send infinity to 1")
        if g.A.apply(INFINITY) is not INFINITY:
            raise ConsistencyError("A does not fix infinity")
        if not group.b_sequence(field, n).is_zero():
            raise ConsistencyError("recurrence value at index n is not 0")

    run("generator relations and cusps", check_relations)
    run("orbit tables, digit words, ordering, interleaving",
        lambda: dynamics.build_orbit_tables(field))
    run("pairwise orbit products equal 1",
        lambda: dynamics.product_relations_check(field))
    run("full cylinders map onto the interval",
        lambda: dynamics.full_cylinder_check(field))
    run("heights: recursion, monotonicity, product identity",
        lambda: planar.build_heights(field))
    run("region containment and hyperbola corner exclusion",
        lambda: planar.build_gamma(field))
    run("natural-extension corner tilings (slow and accelerated)",
        lambda: planar.verify_bijectivity(field))
    # an exact check; "(numeric)" is pinned by golden digests of verify output
    run("rotation-form conjugation (numeric)",
        lambda: group.rotation_conjugation_check(field))
    ok = all(c["ok"] for c in checks)
    return {"checks": checks, "ok": ok}
