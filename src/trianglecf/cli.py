"""Command-line frontend: every verification and experiment as a subcommand.

Exit codes: 0 success, 1 identity/verification failure, 2 usage error,
3 precision exhausted.  All reports embed {version, n, seed, precision_cap}
and identical configuration + seed produces byte-identical output.  This
module only parses text: the library function that reads a value checks
its bounds and raises DomainError, which main reports as a usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys
from fractions import Fraction

# every layer past `field`, and the csv module, is reached through the
# package, which imports it on first use: a command loads only the layers
# it runs
import trianglecf
from . import __version__
from .errors import ConsistencyError, DomainError, PrecisionExhausted
from .field import build_field, get_precision_cap, random_interval_point, set_precision_cap


def _envelope(command: str, n, seed, payload: dict) -> dict:
    return {
        "version": __version__,
        "command": command,
        "n": n,
        "seed": seed,
        "precision_cap": get_precision_cap(),
        **payload,
    }


def _parse_x(field, spec: str):
    try:
        if spec.startswith("coeffs:"):
            parts = [p.strip() for p in spec[len("coeffs:"):].split(",")]
            x = field.element([Fraction(p) for p in parts])
        else:
            x = field.from_fraction(Fraction(spec))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse x-spec {spec!r}: {exc}") from exc
    return x


def _field_for(args) -> object:
    if args.n is None:
        raise DomainError("--n is required")
    return build_field(args.n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_field(args):
    field = _field_for(args)
    payload = {
        "degree": field.degree,
        "min_poly": list(field.min_poly),
        "lambda": float(field.lam),
        "tau": float(field.tau),
        "lambda_exact": field.lam.to_json(),
        "tau_exact": field.tau.to_json(),
    }
    return 0, _envelope("field", field.n, args.seed, payload)


def cmd_verify(args):
    if args.n_range:
        try:
            lo, hi = (int(p) for p in args.n_range.split(":"))
        except ValueError as exc:
            raise DomainError("--n-range wants A:B") from exc
        if lo > hi:
            raise DomainError(f"--n-range {args.n_range} is empty")
        ns = list(range(lo, hi + 1))
    else:
        ns = [_field_for(args).n]
    results = {}
    ok = True
    for n in ns:
        rep = trianglecf.verify.verify_one(n)
        results[str(n)] = rep
        ok = ok and rep["ok"]
    payload = {"results": results, "ok": ok}
    return (0 if ok else 1), _envelope("verify", ns[0] if len(ns) == 1 else None,
                                       args.seed, payload)


def _table_rows(indexed_values) -> list:
    return [{"index": i, "coeffs": v.to_json(), "value": float(v)}
            for i, v in indexed_values]


def cmd_orbit(args):
    field = _field_for(args)
    tables = trianglecf.dynamics.build_orbit_tables(field)
    heights = trianglecf.planar.build_heights(field)
    which = args.table
    if which == "phi":
        data = _table_rows(enumerate(tables.phi))
        extra = {"digits": list(tables.phi_digits)}
    elif which == "eps":
        data = _table_rows(enumerate(tables.eps))
        extra = {"digits": list(tables.eps_digits)}
    elif which == "alpha":
        data = _table_rows(enumerate(tables.alpha, start=1))
        extra = {}
    else:  # heights
        data = _table_rows([*enumerate(heights.L, start=1), ("R", heights.R)])
        extra = {}
    return 0, _envelope("orbit", field.n, args.seed,
                        {"table": which, "entries": data, **extra})


def cmd_region(args):
    field = _field_for(args)
    planar = trianglecf.planar
    region = planar.build_omega(field) if args.which == "omega" else planar.build_gamma(field)
    data = region.to_json()
    # each rectangle's exact corners, with their floats beside them
    for row, rect in zip(data["rects"], region.rects()):
        row["shadow"] = {k: float(e) for k, e in rect._asdict().items()}
    payload = {"which": args.which, "region": data}
    if args.which == "gamma":
        payload["mu"] = trianglecf.measure.mu_gamma(field)
    return 0, _envelope("region", field.n, args.seed, payload)


def cmd_expand(args):
    field = _field_for(args)
    if args.x is None:
        raise DomainError("--x is required for expand")
    if args.x.startswith("random:"):
        return _expand_random(field, args)
    x = _parse_x(field, args.x)
    res = trianglecf.dioph.expand(field, x, args.steps, check_natural_extension=args.check_ne)
    rows = []
    for m in range(len(res.thetas)):
        row = {
            "m": m,
            "digit": res.digits[m - 1] if m >= 1 else None,
            "p_over_q": float(res.states[m].approximant()) if m >= 1 else None,
            "t": float(res.ts[m]),
            "v": float(res.vs[m]),
            "theta": float(res.thetas[m]),
        }
        rows.append(row)
    payload = {
        "x": args.x,
        "steps_requested": args.steps,
        "steps_done": len(res.digits),
        "f_rational": res.f_rational,
        "digits": res.digits,
        "rows": rows,
    }
    if args.format == "jsonl":
        lines = []
        for m in range(len(res.thetas)):
            t = res.ts[m]
            enc = t.embed(60)
            lines.append(
                {
                    "step": m,
                    "digit": res.digits[m - 1] if m >= 1 else None,
                    "x_enclosure_lo": float(enc.lo),
                    "x_enclosure_hi": float(enc.hi),
                    "coeffs": t.to_json(),
                }
            )
        payload["lines"] = lines
    return 0, _envelope("expand", field.n, args.seed, payload)


def _expand_random(field, args):
    try:
        count = int(args.x.split(":", 1)[1])
    except ValueError as exc:
        raise DomainError("random:<count> wants an integer count") from exc
    if count < 1:
        raise DomainError("random:<count> wants a positive count")
    rng = random.Random(args.seed)
    rows = []
    for i in range(count):
        x = random_interval_point(field, rng, 256)
        res = trianglecf.dioph.expand(field, x, args.steps,
                                      check_natural_extension=args.check_ne)
        thetas = res.theta_floats()
        rows.append(
            {
                "index": i,
                "x": float(x),
                "steps_done": len(res.digits),
                "f_rational": res.f_rational,
                "max_theta": max(thetas),
                "max_v": max(float(v) for v in res.vs),
            }
        )
    payload = {"x": args.x, "steps_requested": args.steps, "rows": rows}
    return 0, _envelope("expand", field.n, args.seed, payload)


def cmd_scan_borel(args):
    field = _field_for(args)
    n = field.n
    if args.x is not None:
        x = _parse_x(field, args.x)
        res = trianglecf.dioph.expand(field, x, args.steps)
        thetas = res.theta_floats()
        tau = float(field.tau)
        rows = []
        for m in range(len(thetas)):
            lo = max(0, m - 1)
            window = thetas[lo : m + n]
            in_danger = m >= 1 and min(thetas[m - 1], thetas[m]) > tau
            rows.append(
                {
                    "m": m,
                    "digit": res.digits[m - 1] if m >= 1 else None,
                    "theta": thetas[m],
                    "window_min": min(window) if len(window) == n + 1 else None,
                    "in_danger": in_danger,
                }
            )
        payload = {"mode": "single", "x": args.x, "rows": rows,
                   "f_rational": res.f_rational}
        return 0, _envelope("scan-borel", n, args.seed, payload)
    rep = trianglecf.borel_scan(field, args.samples, args.steps, args.seed, args.tol)
    ok = rep["violations"] == 0
    return (0 if ok else 1), _envelope("scan-borel", n, args.seed,
                                       {"mode": "batch", **rep, "ok": ok})


def cmd_periodic(args):
    field = _field_for(args)
    if args.j_max is not None:
        fam = trianglecf.dioph.periodic_family_report(field, args.j_max)
        return (0 if fam["ok"] else 1), _envelope("periodic", field.n, args.seed, fam)
    pp = trianglecf.dioph.periodic_point(field, args.j)
    payload = {
        "j": pp.j,
        "digits": list(pp.digits),
        "quadratic": {
            "lead": pp.quad_coeffs[0].to_json(),
            "linear": pp.quad_coeffs[1].to_json(),
            "constant": pp.quad_coeffs[2].to_json(),
            "discriminant": pp.disc.to_json(),
        },
        "x": float(pp.x),
        "y": float(pp.y),
        "theta": float(pp.theta_min),
        "theta_orbit": [float(t) for t in pp.theta_orbit],
        "tau": float(field.tau),
        "full_run_above_tau": pp.full_run_above_tau,
    }
    return 0, _envelope("periodic", field.n, args.seed, payload)


def cmd_transcendence(args):
    if args.q_file:
        if args.d is None:
            raise DomainError("--d (field degree) is required with --q-file")
        try:
            with open(args.q_file) as fh:
                lines = [line.strip() for line in fh]
        except OSError as exc:
            raise DomainError(f"cannot read --q-file: {exc}") from exc
        logs = []
        for line in filter(None, lines):
            try:
                if line.startswith("log:"):
                    logs.append(float(line[4:]))
                else:
                    q = Fraction(line)
                    if q > 1:
                        logs.append(trianglecf.measure._log_big_fraction(q))
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"bad --q-file line {line!r}: {exc}") from exc
        rep = trianglecf.dioph.transcendence_indicator(logs, args.d, margin=args.margin)
        return 0, _envelope("transcendence", args.n, args.seed,
                            {"source": "q-file", **rep})
    field = _field_for(args)
    if args.x is None:
        raise DomainError("need --x or --q-file")
    x = _parse_x(field, args.x)
    dioph = trianglecf.dioph
    logs = dioph.log_q_sequence(field, x, args.steps)
    rep = dioph.transcendence_indicator(logs, field.degree, margin=args.margin)
    return 0, _envelope("transcendence", field.n, args.seed,
                        {"source": "expansion", **rep})


def cmd_ergodic_test(args):
    field = _field_for(args)
    uni = trianglecf.uniform_distribution_experiment(field, args.steps, args.cells, args.seed)
    adler = trianglecf.adler_scan(field, args.samples, args.seed + 1)
    birk = trianglecf.birkhoff_experiment(field, min(args.steps, 200000), seed=args.seed + 2)
    words = trianglecf.observed_words(field, samples=min(args.samples, 2000), length=50,
                                      seed=args.seed + 3)
    payload = {
        "N": args.steps,
        "cells": uni["cells"],
        "max_discrepancy": uni["max_discrepancy"],
        "max_discrepancy_half": uni["max_discrepancy_half"],
        "discrepancy_decreasing": uni["decreasing"],
        "adler_min_derivative": adler["min_derivative"],
        "adler_max_return_time": adler["max_return_time"],
        "birkhoff_max_deviation": birk["max_deviation"],
        "observed_words_ok": words["ok"],
    }
    ok = (
        uni["max_discrepancy"] < 0.01
        and adler["min_derivative"] > 1.0
        and words["ok"]
    )
    payload["ok"] = ok
    return (0 if ok else 1), _envelope("ergodic-test", field.n, args.seed, payload)


def cmd_convergence(args):
    field = _field_for(args)
    rep = trianglecf.convergence_scan(field, args.samples, args.steps, args.seed)
    # with no continued-fraction step there is no margin to bound
    delta_ok = rep["delta"] is None or rep["delta"] > 0
    ok = rep["all_converged"] and rep["max_v"] <= rep["tau"] + 1e-12 and delta_ok
    return (0 if ok else 1), _envelope("convergence", field.n, args.seed,
                                       {**rep, "ok": ok})


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _flatten_rows(payload):
    rows = payload.get("rows")
    if rows is None and "entries" in payload:
        rows = payload["entries"]
    return rows


def _emit(payload: dict, fmt: str, out_path) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    elif fmt == "jsonl":
        lines = payload.get("lines") or _flatten_rows(payload)
        if lines is None:
            raise DomainError("this command has no per-step output; use --format json")
        text = "".join(json.dumps(line, sort_keys=True, default=str) + "\n"
                       for line in lines)
    else:
        rows = _flatten_rows(payload)
        if rows is None:
            raise DomainError("this command has no tabular output; use --format json")
        buf = io.StringIO()
        fieldnames = list(rows[0].keys()) if rows else []
        writer = trianglecf._csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in fieldnames})
        text = buf.getvalue()
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trianglecf",
        description="Continued fractions for the (3, n, oo) triangle groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--precision", type=int, default=None,
                       help="adaptive-precision cap in bits")
        p.add_argument("--format", choices=("json", "csv", "jsonl"),
                       default="json")
        p.add_argument("--out", default=None)

    p = sub.add_parser("field", help="field descriptor")
    common(p)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser(
        "verify", help="full exact identity suite",
        description="Run the full exact identity suite for one n or each n of a range. "
                    "The cost grows steeply with the field degree phi(2n)/2: about 1.5 s "
                    "at n = 60 (degree 16) and under a minute at n = 100 (degree 40).")
    common(p)
    p.add_argument("--n-range", default=None, help="inclusive range A:B")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="exact orbit and height tables")
    common(p)
    p.add_argument("--table", choices=("phi", "eps", "alpha", "heights"),
                   default="phi")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("region", help="rectangle dump of Omega or Gamma")
    common(p)
    p.add_argument("--which", choices=("omega", "gamma"), default="gamma")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("expand", help="exact expansion of a point")
    common(p)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--x", default=None)
    p.add_argument("--check-ne", action="store_true",
                   help="assert (t, v) stays in Gamma at every step")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("scan-borel", help="window minima of the theta sequence")
    common(p)
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--x", default=None)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_scan_borel)

    p = sub.add_parser("periodic", help="periodic points of the planar map")
    common(p)
    p.add_argument("--j", type=int, default=1)
    p.add_argument("--j-max", type=int, default=None)
    p.set_defaults(func=cmd_periodic)

    p = sub.add_parser("transcendence", help="denominator growth screen")
    common(p)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--q-file", default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--x", default=None)
    p.add_argument("--margin", type=float, default=0.05)
    p.set_defaults(func=cmd_transcendence)

    p = sub.add_parser("ergodic-test", help="equidistribution and expansivity")
    common(p)
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--cells", type=int, default=100)
    p.set_defaults(func=cmd_ergodic_test)

    p = sub.add_parser("convergence", help="approximant convergence statistics")
    common(p)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--samples", type=int, default=1000)
    p.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        set_precision_cap(args.precision)
        # every command echoes the seed, and numpy's generators take only
        # non-negative ones
        if args.seed < 0:
            raise DomainError(f"--seed must be at least 0, got {args.seed}")
        code, payload = args.func(args)
        _emit(payload, args.format, args.out)
        return code
    except PrecisionExhausted as exc:
        sys.stderr.write(f"precision exhausted: {exc}\n")
        report = {
            "version": __version__,
            "error": "precision-exhausted",
            "detail": str(exc),
            "boundary": str(exc.boundary),
            "precision_cap": get_precision_cap(),
        }
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return 3
    except (ConsistencyError,) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except DomainError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    finally:
        set_precision_cap(None)


if __name__ == "__main__":
    raise SystemExit(main())
