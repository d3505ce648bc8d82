"""Per-layer measurements: calls into each module's public functions from
this file, each inside a span, on operands made from the seed.

Exact-lane operands are the t_m / v_m / matrices of seeded expansions from
the same 256-bit dyadic start points `expand --x random:K` draws, so the
coefficient sizes are those the CLI meets.  Operation counts come from a
separate run with counting wrappers on the public FieldElement and Mobius
methods, so counting never slows a timed run.

Prints one JSON object: metrics, spans.

Usage: python3 perfbench/layers.py --seed N
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import sys

import numpy as np

from tracing import Tracer

import trianglecf.field as field_mod
from trianglecf import cli, dioph
from trianglecf.dynamics import build_orbit_tables, f_step
from trianglecf.ergodic import adler_scan
from trianglecf.field import FieldElement, NumberField, build_field, random_interval_point
from trianglecf.group import Mobius, digit_matrix, y_matrix
from trianglecf.numeric import (
    FloatSystem,
    borel_scan,
    build_cells,
    orbit_tv_arrays,
    sample_interval,
    step_scalar,
    step_tv,
)
from trianglecf.planar import build_gamma, verify_bijectivity
from trianglecf.quadratic import compare_numeric, solve_fixed_points

REPS = 3
# (start points, steps) per n for the exact expansions
EXPANSIONS = {5: (2, 60), 8: (1, 30), 13: (1, 20)}
FLOAT_SAMPLES, FLOAT_STEPS = 100_000, 50
SCALAR_STEPS = 100_000
ADLER_SAMPLES = 2000

COUNTED = (
    ("mul", FieldElement, ("__mul__", "__rmul__")),
    ("inverse", FieldElement, ("inverse",)),
    ("sign", FieldElement, ("sign",)),
    ("apply", Mobius, ("apply",)),
)


class LayerBench:
    def __init__(self, seed):
        self.seed = seed
        self.tracer = Tracer()
        self.metrics = {}

    def put(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def timed(self, name, fn, reps=REPS):
        """Median seconds of fn() over reps runs, each in its own span."""
        secs = []
        for _ in range(reps):
            with self.tracer.span(name) as span:
                fn()
            secs.append(span.seconds)
        return statistics.median(secs)

    def per_call(self, name, fn, args, unit_scale, unit):
        """Median over reps of the mean time of fn(*a) for a in args."""
        sec = self.timed(name, lambda: [fn(*a) for a in args])
        self.put(name, sec / len(args) * unit_scale, unit)

    # -- cli ---------------------------------------------------------------

    def verify_cold(self):
        for n in (4, 8, 16):
            argv = ["verify", "--n", str(n), "--seed", str(self.seed)]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                sec = self.timed(f"cli.verify_s.n{n}", lambda: _expect_ok(cli.main(argv)),
                                 reps=1)
            if not json.loads(out.getvalue())["ok"]:
                raise RuntimeError(f"verify n={n} reported a failed identity")
            self.put(f"cli.verify_s.n{n}", sec, "s")

    # -- field, group, dynamics, dioph ---------------------------------------

    def build_field_cold(self):
        def build():
            field_mod.trace_min_poly.cache_clear()
            field_mod.cyclotomic_polynomial.cache_clear()
            for n in range(4, 17):
                NumberField(n)

        self.put("field.build_field_ms", self.timed("field.build_field_ms", build) * 1e3, "ms")

    def starts(self, field, count):
        rng = random.Random(self.seed)
        return [random_interval_point(field, rng, 256) for _ in range(count)]

    def expansions(self, n):
        field = build_field(n)
        count, steps = EXPANSIONS[n]
        xs = self.starts(field, count)
        tr = self.tracer
        tr.replace([dioph], f_step, tr.wrap("dynamics.f_step", f_step))
        try:
            per_step, share = [], []
            for _ in range(REPS):
                first = len(tr.spans)
                with tr.span(f"dioph.expand.n{n}") as span:
                    results = [dioph.expand(field, x, steps) for x in xs]
                done = sum(len(r.digits) for r in results)
                in_f = sum(s[3] - s[2] for s in tr.spans[first:]
                           if s[1] == "dynamics.f_step")
                per_step.append(span.seconds / done * 1e3)
                share.append(1.0 - in_f / span.seconds)
        finally:
            tr.restore()
        self.put(f"dioph.expand_ms_per_step.n{n}", statistics.median(per_step), "ms")
        if n != 8:
            self.put(f"dioph.crosscheck_share.n{n}", statistics.median(share), "ratio")
        return field, results

    def counts(self, n, field):
        count, steps = EXPANSIONS[n]
        tally = {}
        undo = []
        for label, cls, attrs in COUNTED:
            tally[label] = 0
            for attr in attrs:
                original = cls.__dict__[attr]
                setattr(cls, attr, _counting(tally, label, original))
                undo.append((cls, attr, original))
        try:
            results = [dioph.expand(field, x, steps) for x in self.starts(field, count)]
        finally:
            for cls, attr, original in undo:
                setattr(cls, attr, original)
        done = sum(len(r.digits) for r in results)
        for label, layer in (("mul", "field"), ("inverse", "field"),
                             ("sign", "field"), ("apply", "group")):
            self.put(f"{layer}.{label}_per_step.n{n}", tally[label] / done, "count")
        bits = max(_peak_bits(r) for r in results)
        self.put(f"field.peak_coeff_bits.n{n}", bits, "bits")

    def operands(self, n, field, res):
        ts, vs, ks = res.ts[1:], res.vs[1:], res.digits
        pairs = list(zip(ts, vs))
        self.per_call(f"field.mul_us.n{n}", lambda a, b: a * b, pairs, 1e6, "us")
        self.per_call(f"field.inverse_us.n{n}", FieldElement.inverse,
                      [(t,) for t in ts], 1e6, "us")
        # sign caches its result on the element, so each rep gets fresh copies
        elems = ts + vs
        secs = []
        for _ in range(REPS):
            fresh = [FieldElement(field, x.coeffs) for x in elems]
            with self.tracer.span(f"field.sign_us.n{n}") as span:
                for e in fresh:
                    e.sign()
            secs.append(span.seconds)
        self.put(f"field.sign_us.n{n}", statistics.median(secs) / len(elems) * 1e6, "us")
        ymats = [y_matrix(field, k) for k in ks]
        self.per_call(f"group.apply_us.n{n}", Mobius.apply,
                      list(zip(ymats, res.vs[:-1])), 1e6, "us")
        self.per_call(f"dynamics.f_step_ms.n{n}", f_step,
                      [(field, t) for t in res.ts[:-1]], 1e3, "ms")
        if n == 13:
            dmats = [digit_matrix(field, k) for k in ks]
            self.per_call("group.mobius_mul_us.n13", Mobius.__mul__,
                          [(s.matrix, m) for s, m in zip(res.states[:-1], dmats)],
                          1e6, "us")

    # -- quadratic, periodic points, planar ----------------------------------

    def periodic(self):
        field = build_field(5)
        js = range(1, 11)
        self.per_call("dioph.periodic_point_ms.n5", dioph.periodic_point,
                      [(field, j) for j in js], 1e3, "ms")
        pts = [dioph.periodic_point(field, j) for j in js]
        M1, M2 = digit_matrix(field, 1), digit_matrix(field, 2)
        mats = [(M1 ** (field.n - 3)) * digit_matrix(field, -j) * M2 for j in js]
        self.per_call("quadratic.solve_fixed_points_us.n5", solve_fixed_points,
                      [(m,) for m in mats], 1e6, "us")
        self.per_call("quadratic.compare_us.n5", compare_numeric,
                      [(a.theta_min, b.theta_min) for a, b in zip(pts, pts[1:])],
                      1e6, "us")

    def tables_and_tilings(self):
        for n in (8, 16):
            field = build_field(n)
            sec = self.timed(f"dynamics.orbit_tables_ms.n{n}",
                             lambda: build_orbit_tables.__wrapped__(field))
            self.put(f"dynamics.orbit_tables_ms.n{n}", sec * 1e3, "ms")
            sec = self.timed(f"planar.verify_bijectivity_ms.n{n}",
                             lambda: verify_bijectivity(field))
            self.put(f"planar.verify_bijectivity_ms.n{n}", sec * 1e3, "ms")
        field = build_field(16)
        sec = self.timed("planar.build_gamma_ms.n16", lambda: build_gamma.__wrapped__(field))
        self.put("planar.build_gamma_ms.n16", sec * 1e3, "ms")

    # -- float lane -----------------------------------------------------------

    def float_lane(self):
        f6, f5 = build_field(6), build_field(5)
        fs6, fs5 = FloatSystem.for_field(f6), FloatSystem.for_field(f5)
        orbit_steps = FLOAT_SAMPLES * FLOAT_STEPS
        t0 = sample_interval(fs6, np.random.default_rng(self.seed), FLOAT_SAMPLES)

        def run_step_tv():
            t, v = t0, np.zeros(FLOAT_SAMPLES)
            for _ in range(FLOAT_STEPS):
                t, v, _ = step_tv(fs6, t, v)

        sec = self.timed("numeric.step_tv_ns_per_orbit_step", run_step_tv)
        self.put("numeric.step_tv_ns_per_orbit_step", sec / orbit_steps * 1e9, "ns")
        sec = self.timed("numeric.borel_ns_per_orbit_step",
                         lambda: borel_scan(f6, FLOAT_SAMPLES, FLOAT_STEPS, self.seed))
        self.put("numeric.borel_ns_per_orbit_step", sec / orbit_steps * 1e9, "ns")

        x0 = float(sample_interval(fs5, np.random.default_rng(self.seed), 1)[0])

        def run_scalar():
            t, v = x0, 0.0
            for _ in range(SCALAR_STEPS):
                t, v, _ = step_scalar(fs5, t, v)

        sec = self.timed("numeric.step_scalar_ns", run_scalar)
        self.put("numeric.step_scalar_ns", sec / SCALAR_STEPS * 1e9, "ns")
        sec = self.timed("numeric.orbit_tv_arrays_ns_per_step",
                         lambda: orbit_tv_arrays(f5, SCALAR_STEPS, self.seed))
        self.put("numeric.orbit_tv_arrays_ns_per_step", sec / SCALAR_STEPS * 1e9, "ns")
        sec = self.timed("ergodic.adler_us_per_sample",
                         lambda: adler_scan(f5, ADLER_SAMPLES, self.seed))
        self.put("ergodic.adler_us_per_sample", sec / ADLER_SAMPLES * 1e6, "us")
        sec = self.timed("numeric.build_cells_ms", lambda: build_cells(f5, 100))
        self.put("numeric.build_cells_ms", sec * 1e3, "ms")

    def run(self):
        self.verify_cold()
        self.build_field_cold()
        for n in (5, 8, 13):
            field, results = self.expansions(n)
            if n != 8:
                self.counts(n, field)
                self.operands(n, field, results[0])
        self.periodic()
        self.tables_and_tilings()
        self.float_lane()
        return {"metrics": self.metrics, "spans": self.tracer.spans}


def _expect_ok(code):
    if code != 0:
        raise RuntimeError(f"CLI exit code {code}")


def _counting(tally, label, fn):
    def counted(*args, **kwargs):
        tally[label] += 1
        return fn(*args, **kwargs)

    return counted


def _peak_bits(res):
    """Largest numerator or denominator bit length among the result's exact
    values: t_m, v_m, Theta_m and the convergent matrices."""
    elems = list(res.ts) + list(res.vs) + list(res.thetas)
    for s in res.states:
        elems.extend(s.matrix.entries())
    return max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for e in elems for c in e.coeffs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    json.dump(LayerBench(args.seed).run(), sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
