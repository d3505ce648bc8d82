"""Command-line frontend: every verification and experiment as a subcommand.

Exit codes: 0 success, 1 identity/verification failure, 2 usage error,
3 precision exhausted.  All reports embed {version, n, seed, precision_cap}
and identical configuration + seed produces byte-identical output.  This
module only parses text: one table, COMMANDS, says which flags each mode of
a command reads and which formats it prints, and main checks the command
line against it before any work.  The library function that reads a value
checks its bounds and raises DomainError, which main reports as a usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import random
import sys
from fractions import Fraction
from functools import partial

# every layer past `field`, and the csv module, is reached through the
# package, which imports it on first use: a command loads only the layers
# it runs
import trianglecf
from . import __version__
from .errors import ConsistencyError, DomainError, PrecisionExhausted
from .field import (_ratio_span, _round, build_field, get_precision_cap,
                    random_interval_point, set_precision_cap)


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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_field(args):
    field = build_field(args.n)
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
    if args.n_range is not None:
        try:
            lo, hi = (int(p) for p in args.n_range.split(":"))
        except ValueError as exc:
            raise DomainError("--n-range wants A:B") from exc
        if lo > hi:
            raise DomainError(f"--n-range {args.n_range} is empty")
        ns = list(range(lo, hi + 1))
    else:
        ns = [args.n]
    results = {str(n): trianglecf.verify.verify_one(n) for n in ns}
    ok = all(rep["ok"] for rep in results.values())
    payload = {"results": results, "ok": ok}
    return (0 if ok else 1), _envelope("verify", ns[0] if len(ns) == 1 else None,
                                       args.seed, payload)


def _table_rows(indexed_values) -> list:
    return [{"index": i, "coeffs": v.to_json(), "value": float(v)}
            for i, v in indexed_values]


def cmd_orbit(args):
    field = build_field(args.n)
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
    field = build_field(args.n)
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
    field = build_field(args.n)
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
                    "x_enclosure_lo": _round(enc.lo_num, enc.den, -1),
                    "x_enclosure_hi": _round(enc.hi_num, enc.den, 1),
                    "coeffs": t.to_json(),
                }
            )
        payload["lines"] = lines
    return 0, _envelope("expand", field.n, args.seed, payload)


def _v_order(s, t) -> int:
    """Sign of v_s - v_t for the states' v = q_prev/q, cross-multiplied:
    v_s - v_t = (q_prev_s q_t - q_prev_t q_s) / (q_s q_t)."""
    return (s.q_prev * t.q - t.q_prev * s.q).sign() * s.q.sign() * t.q.sign()


def _argmax(spans: list, above) -> int:
    """The index of the largest of some exact values, given a float span
    (center, radius) with |value - center| <= radius around each, or None.
    Only the indices whose span reaches the largest lower end can hold the
    maximum; those are compared exactly, by above(i, j), value i > value j.
    Each span is widened by (|center| + radius) 2^-50, more than the
    rounding of center -+ radius."""
    ends = [(-math.inf, math.inf) if s is None else
            (s[0] - s[1] - (abs(s[0]) + s[1]) * 2.0 ** -50,
             s[0] + s[1] + (abs(s[0]) + s[1]) * 2.0 ** -50) for s in spans]
    floor = max(lo for lo, _ in ends)
    best = None
    for i, (_, hi) in enumerate(ends):
        if hi >= floor and (best is None or above(i, best)):
            best = i
    return best


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
        # Theta_m = |A^_m| / delta with one delta for every m; correctly
        # rounded conversion is monotone, so only the largest Theta_m and
        # the largest v_m are converted
        a_hats = res.a_hats
        theta_spans = [None if e is None else (abs(e[0]), e[1])
                       for e in (a.ball() for a in a_hats)]
        m_theta = _argmax(theta_spans, lambda s, t: abs(a_hats[s]) > abs(a_hats[t]))
        v_spans = [_ratio_span(*(e.ball() for e in res.qs(m)))
                   for m in range(len(a_hats))]
        m_v = _argmax(v_spans, lambda s, t: _v_order(res.state(s), res.state(t)) > 0)
        rows.append(
            {
                "index": i,
                "x": float(x),
                "steps_done": len(res.digits),
                "f_rational": res.f_rational,
                "max_theta": float(res.theta(m_theta)),
                "max_v": float(res.state(m_v).v()),
            }
        )
    payload = {"x": args.x, "steps_requested": args.steps, "rows": rows}
    return 0, _envelope("expand", field.n, args.seed, payload)


def cmd_scan_borel(args):
    field = build_field(args.n)
    n = field.n
    if args.x is not None:
        x = _parse_x(field, args.x)
        res = trianglecf.dioph.expand(field, x, args.steps)
        thetas = [float(t) for t in res.thetas]
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
    rep = trianglecf.numeric.borel_scan(field, args.samples, args.steps, args.seed, args.tol)
    ok = rep["violations"] == 0
    return (0 if ok else 1), _envelope("scan-borel", n, args.seed,
                                       {"mode": "batch", **rep, "ok": ok})


def cmd_periodic(args):
    field = build_field(args.n)
    if args.j_max is not None:
        fam = trianglecf.measure.periodic_family_report(field, args.j_max)
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
    if args.q_file is not None:
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
                    if not math.isfinite(logs[-1]):
                        raise ValueError("the log is not finite")
                else:
                    q = Fraction(line)
                    if q > 1:
                        logs.append(trianglecf.measure._log_big_fraction(q))
            except (ValueError, ZeroDivisionError) as exc:
                raise DomainError(f"bad --q-file line {line!r}: {exc}") from exc
        rep = trianglecf.measure.transcendence_indicator(logs, args.d, margin=args.margin)
        return 0, _envelope("transcendence", None, args.seed, {"source": "q-file", **rep})
    field = build_field(args.n)
    measure = trianglecf.measure
    logs = measure.log_q_sequence(field, _parse_x(field, args.x), args.steps)
    rep = measure.transcendence_indicator(logs, field.degree, margin=args.margin)
    return 0, _envelope("transcendence", field.n, args.seed,
                        {"source": "expansion", **rep})


def cmd_ergodic_test(args):
    field = build_field(args.n)
    numeric, ergodic = trianglecf.numeric, trianglecf.ergodic
    # the two readers of --samples first, so a bad value is refused before
    # the long orbits, which may then run side by side
    adler = ergodic.adler_scan(field, args.samples, args.seed + 1)
    words = ergodic.observed_words(field, min(args.samples, 2000), 50, args.seed + 3)
    uni, birk = numeric._run_jobs(
        [partial(numeric.uniform_distribution_experiment, field, args.steps, args.cells,
                 args.seed),
         partial(numeric.birkhoff_experiment, field, min(args.steps, 200000), 10, args.seed + 2)],
        numeric.SCALAR_STEP_WORK * args.steps)
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
    field = build_field(args.n)
    rep = trianglecf.convergence_scan(field, args.samples, args.steps, args.seed)
    # with no continued-fraction step there is no margin to bound
    delta_ok = rep["delta"] is None or rep["delta"] > 0
    ok = rep["all_converged"] and rep["max_v"] <= rep["tau"] + 1e-12 and delta_ok
    return (0 if ok else 1), _envelope("convergence", field.n, args.seed,
                                       {**rep, "ok": ok})


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _emit(payload: dict, fmt: str, out_path) -> None:
    rows = payload.get("rows", payload.get("entries"))
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    elif fmt == "jsonl":
        text = "".join(json.dumps(line, sort_keys=True, default=str) + "\n"
                       for line in payload.get("lines") or rows)
    else:
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


# ---------------------------------------------------------------------------
# the table of modes
# ---------------------------------------------------------------------------

REQUIRED = "required"
JSON, ROWS = ("json",), ("json", "csv", "jsonl")

# Each command with its help line and its modes; `cmd_<command>` runs it.
# A mode is the flags it reads, each with its default or REQUIRED, and the
# formats it prints.  The first flag of each mode but the last picks that
# mode; a command line that gives none of them runs the last mode.  Every
# mode also reads --seed, --precision, --format and --out.
COMMANDS = {
    "field": ("field descriptor", [({"--n": REQUIRED}, JSON)]),
    "verify": ("full exact identity suite", [
        ({"--n-range": REQUIRED}, JSON),
        ({"--n": REQUIRED}, JSON)]),
    "orbit": ("exact orbit and height tables", [
        ({"--n": REQUIRED, "--table": "phi"}, ROWS)]),
    "region": ("rectangle dump of Omega or Gamma", [
        ({"--n": REQUIRED, "--which": "gamma"}, JSON)]),
    "expand": ("exact expansion of a point", [
        ({"--n": REQUIRED, "--x": REQUIRED, "--steps": 40, "--check-ne": False}, ROWS)]),
    "scan-borel": ("window minima of the theta sequence", [
        ({"--x": REQUIRED, "--n": REQUIRED, "--steps": 500}, ROWS),
        ({"--n": REQUIRED, "--steps": 500, "--samples": 1000, "--tol": 1e-10}, JSON)]),
    "periodic": ("periodic points of the planar map", [
        ({"--j-max": REQUIRED, "--n": REQUIRED}, JSON),
        ({"--n": REQUIRED, "--j": 1}, JSON)]),
    "transcendence": ("denominator growth screen", [
        ({"--q-file": REQUIRED, "--d": REQUIRED, "--margin": 0.05}, JSON),
        ({"--x": REQUIRED, "--n": REQUIRED, "--steps": 100, "--margin": 0.05}, JSON)]),
    "ergodic-test": ("equidistribution and expansivity", [
        ({"--n": REQUIRED, "--steps": 100000, "--samples": 1000, "--cells": 100}, JSON)]),
    "convergence": ("approximant convergence statistics", [
        ({"--n": REQUIRED, "--steps": 200, "--samples": 1000}, JSON)]),
}

# the argparse keywords of each flag in the table, in the order --help lists them
_FLAG_KWARGS = {
    "--n": {"type": int}, "--n-range": {"help": "inclusive range A:B"},
    "--table": {"choices": ("phi", "eps", "alpha", "heights")},
    "--which": {"choices": ("omega", "gamma")},
    "--steps": {"type": int}, "--samples": {"type": int}, "--x": {},
    "--check-ne": {"action": "store_true", "help": "assert (t, v) stays in Gamma at every step"},
    "--tol": {"type": float}, "--j": {"type": int, "help": "default 1"}, "--j-max": {"type": int},
    "--q-file": {}, "--d": {"type": int}, "--margin": {"type": float}, "--cells": {"type": int},
}


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _flags(modes) -> list:
    """Every flag that some mode of a command reads."""
    return [flag for flag in _FLAG_KWARGS if any(flag in flags for flags, _ in modes)]


def pick_mode(args) -> None:
    """Pick the mode of `args.command` from the flags given, and refuse a
    given flag the mode does not read, a required flag not given and a
    format the mode does not print.  Then set every flag of the command not
    given: to the mode's default, or to None where the mode does not read it."""
    modes = COMMANDS[args.command][1]
    given = [flag for flag in _flags(modes) if hasattr(args, _dest(flag))]
    flags, formats = next((mode for mode in modes[:-1] if next(iter(mode[0])) in given),
                          modes[-1])
    for flag in given:
        if flag not in flags:
            raise DomainError(f"argument {flag}: not allowed with argument {next(iter(flags))}")
    missing = [flag for flag, default in flags.items() if default == REQUIRED and flag not in given]
    if missing:
        raise DomainError(f"the following arguments are required: {', '.join(missing)}")
    if args.format not in formats:
        raise DomainError(f"argument --format: invalid choice: {args.format!r} "
                          f"(choose from {', '.join(map(repr, formats))})")
    for flag in _flags(modes):
        if flag not in given:
            setattr(args, _dest(flag), flags.get(flag))


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given a command's name as only,
    of that one: the others are then listed by name and help line, for
    --help and for the message on an unknown command, and read no flag."""
    parser = argparse.ArgumentParser(
        prog="trianglecf", description="Continued fractions for the (3, n, oo) triangle groups")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, modes) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        if only is not None and command != only:
            continue
        # unset unless given, so that pick_mode tells a given flag from a default
        for flag in _flags(modes):
            p.add_argument(flag, default=argparse.SUPPRESS, **_FLAG_KWARGS[flag])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--precision", type=int, default=None,
                       help="adaptive-precision cap in bits")
        p.add_argument("--format", default="json",
                       choices=[f for f in ROWS if any(f in fmts for _, fmts in modes)])
        p.add_argument("--out", default=None)
        p.set_defaults(func=globals()["cmd_" + command.replace("-", "_")])
        if command == "verify":
            p.description = (
                "Run the full exact identity suite for one n or each n of a range. "
                "The cost grows steeply with the field degree phi(2n)/2: about 0.45 s "
                "at n = 60 (degree 16) and about 10 s at n = 100 (degree 40).")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # the top-level parser takes no option with a value, so the first word
    # that is not an option names the command
    args = build_parser(next((a for a in argv if not a.startswith("-")), None)).parse_args(argv)
    try:
        pick_mode(args)
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
