import argparse
import ast
import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

REPO = Path(__file__).resolve().parent.parent
SCHEMA_PATH = REPO / "schemas" / "cli-output.schema.json"


def run_cli(*args, expect: int = 0):
    proc = subprocess.run(
        [sys.executable, "-m", "trianglecf.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr, proc.stdout[:500])
    return proc


def load_schema():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    return lambda payload: jsonschema.validate(payload, schema)


def test_field_command_and_schema():
    proc = run_cli("field", "--n", "5")
    data = json.loads(proc.stdout)
    assert data["degree"] == 2
    assert data["min_poly"] == [-1, -1, 1]
    assert abs(data["tau"] - (1 + 2 * math.cos(math.pi / 5))) < 1e-12
    load_schema()(data)


def test_verify_exit_codes():
    proc = run_cli("verify", "--n", "5")
    data = json.loads(proc.stdout)
    assert data["ok"] is True
    assert all(c["ok"] for c in data["results"]["5"]["checks"])
    load_schema()(data)
    run_cli("verify", "--n", "3", expect=2)


def test_verify_range():
    proc = run_cli("verify", "--n-range", "4:5")
    data = json.loads(proc.stdout)
    assert set(data["results"]) == {"4", "5"}
    assert data["ok"]


def test_orbit_phi_table_n4():
    proc = run_cli("orbit", "--n", "4", "--table", "phi")
    data = json.loads(proc.stdout)
    assert len(data["entries"]) == 2 * 4 - 3 == 5
    # phi_1 = -1 exactly for n = 4
    assert data["entries"][1]["coeffs"] == ["-1", "0"]
    load_schema()(data)


def test_orbit_heights_table():
    proc = run_cli("orbit", "--n", "5", "--table", "heights")
    data = json.loads(proc.stdout)
    assert data["entries"][-1]["index"] == "R"
    assert abs(data["entries"][0]["value"] - 1 / (1 + 2 * math.cos(math.pi / 5))) < 1e-12


def test_region_dump_schema():
    proc = run_cli("region", "--n", "5", "--which", "gamma")
    data = json.loads(proc.stdout)
    assert data["region"]["rect_count"] > 5
    assert data["mu"] > 0
    # each rectangle carries its exact corners and their floats
    first = data["region"]["rects"][0]
    assert set(first) == {"x_lo", "x_hi", "y_lo", "y_hi", "shadow"}
    assert first["shadow"]["x_lo"] == pytest.approx(-(1 + 2 * math.cos(math.pi / 5)))
    load_schema()(data)


def test_expand_csv_rows():
    proc = run_cli("expand", "--n", "5", "--x", "-1.23456789012345678901",
                   "--steps", "40", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "m,digit,p_over_q,t,v,theta"
    assert len(lines) == 42  # header + 41 rows (m = 0..40)


def test_expand_cusp_halt_reported():
    # -7/8 reaches the parabolic fixed point after exactly 11 steps;
    # the CLI reports the finite expansion instead of erroring
    proc = run_cli("expand", "--n", "5", "--x", "-0.875", "--steps", "30")
    data = json.loads(proc.stdout)
    assert data["f_rational"] is True
    assert data["steps_done"] == 11
    assert data["digits"] == [1, 2, 1, 1, 1, 2, 1, 4, 1, 1, 2]


def test_expand_json_schema():
    proc = run_cli("expand", "--n", "5", "--x", "-0.73912345678901234567",
                   "--steps", "15")
    data = json.loads(proc.stdout)
    assert data["steps_done"] == 15
    load_schema()(data)


def test_expand_random_schema():
    proc = run_cli("expand", "--n", "5", "--x", "random:2", "--steps", "10")
    data = json.loads(proc.stdout)
    assert [row["index"] for row in data["rows"]] == [0, 1]
    load_schema()(data)


def test_expand_rejects_bad_x():
    run_cli("expand", "--n", "5", "--x", "banana", expect=2)
    run_cli("expand", "--n", "5", "--x", "0.5", expect=2)


def test_scan_borel_batch():
    proc = run_cli("scan-borel", "--n", "6", "--samples", "300", "--steps", "200",
                   "--seed", "7")
    data = json.loads(proc.stdout)
    assert data["violations"] == 0
    assert data["ok"] is True
    load_schema()(data)


def test_scan_borel_single_csv():
    proc = run_cli("scan-borel", "--n", "5", "--x", "-0.73912345678901234567",
                   "--steps", "60", "--format", "csv")
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "m,digit,theta,window_min,in_danger"
    assert len(lines) >= 50


def test_periodic_command():
    proc = run_cli("periodic", "--n", "5", "--j", "2")
    data = json.loads(proc.stdout)
    assert data["digits"] == [2, -2, 1, 1]
    assert data["theta"] < data["tau"]
    load_schema()(data)


def test_periodic_family():
    # 2 is the shortest family the first-to-last gap comparison accepts
    for j_max in ("2", "4"):
        proc = run_cli("periodic", "--n", "4", "--j-max", j_max)
        data = json.loads(proc.stdout)
        assert data["ok"] is True


def test_transcendence_q_file(tmp_path):
    fast = tmp_path / "fast.txt"
    fast.write_text("".join(f"log:{(4.0 ** m) * math.log(2)}\n" for m in range(1, 25)))
    proc = run_cli("transcendence", "--q-file", str(fast), "--d", "2")
    data = json.loads(proc.stdout)
    assert data["flagged"] is True
    load_schema()(data)

    slow = tmp_path / "slow.txt"
    slow.write_text("".join(f"{2 ** (2 * m)}\n" for m in range(1, 25)))
    proc = run_cli("transcendence", "--q-file", str(slow), "--d", "2")
    data = json.loads(proc.stdout)
    assert data["flagged"] is False


def test_transcendence_requires_degree():
    run_cli("transcendence", "--q-file", "nowhere.txt", expect=2)


def test_ergodic_test_command():
    proc = run_cli("ergodic-test", "--n", "5", "--steps", "60000", "--cells", "50",
                   "--samples", "800", "--seed", "3")
    data = json.loads(proc.stdout)
    for key in ("N", "cells", "max_discrepancy", "adler_min_derivative", "seed"):
        assert key in data
    assert data["ok"] is True
    load_schema()(data)


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which Python
    prints but JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_convergence_with_no_continued_fraction_step():
    # the one orbit's one step is an acceleration step, so no margin
    # 1 - |t v| over continued-fraction steps exists: delta is null
    proc = run_cli("convergence", "--n", "8", "--samples", "1", "--steps", "1",
                   "--seed", "4", expect=1)
    data = _strict_json(proc.stdout)
    assert data["delta"] is None
    assert data["all_converged"] is False and data["ok"] is False
    load_schema()(data)


def test_convergence_command():
    proc = run_cli("convergence", "--n", "5", "--samples", "200", "--steps", "150")
    data = json.loads(proc.stdout)
    assert data["all_converged"] is True
    load_schema()(data)


def test_envelope_fields_everywhere():
    for args in (("field", "--n", "7"), ("orbit", "--n", "4")):
        data = json.loads(run_cli(*args).stdout)
        for key in ("version", "n", "seed", "precision_cap", "command"):
            assert key in data


def test_deterministic_output():
    args = ("scan-borel", "--n", "5", "--samples", "200", "--steps", "100",
            "--seed", "99")
    out1 = run_cli(*args).stdout
    out2 = run_cli(*args).stdout
    assert out1 == out2


def test_output_file(tmp_path):
    out = tmp_path / "report.json"
    run_cli("field", "--n", "5", "--out", str(out))
    data = json.loads(out.read_text())
    assert data["command"] == "field"


def test_precision_exhausted_exit_code():
    # a point within 2^-150 of the digit-2 cylinder boundary cannot be
    # classified with a 64-bit cap
    from fractions import Fraction

    from trianglecf.field import build_field
    from trianglecf.dynamics import cylinder_right_endpoint

    F = build_field(5)
    boundary = cylinder_right_endpoint(F, 1)
    enc = boundary.embed(160)
    x_spec = str(enc.lo)  # a dyadic 2^-150-close to the boundary
    assert Fraction(x_spec) != 0
    proc = subprocess.run(
        [sys.executable, "-m", "trianglecf.cli", "expand", "--n", "5",
         f"--x={x_spec}", "--steps", "5", "--precision", "64"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3, (proc.returncode, proc.stderr)
    data = json.loads(proc.stdout)
    assert data["error"] == "precision-exhausted"
    load_schema()(data)
    # with the default cap the same input expands fine
    run_cli("expand", "--n", "5", f"--x={x_spec}", "--steps", "5")


def test_precision_exhausted_report_with_a_boundary_beyond_the_double_range(monkeypatch):
    # the exit-3 report prints str(boundary); ends past the double range
    # print as exact ratios rather than ending in a traceback
    from trianglecf import cli
    from trianglecf.errors import PrecisionExhausted
    from trianglecf.field import Enclosure

    boundary = Enclosure(2 ** 2000, 2 ** 2001)

    def exhausted(args):
        raise PrecisionExhausted("sign undecided at 4096 bits", boundary=boundary, bits=4096)

    monkeypatch.setattr(cli, "cmd_field", exhausted)
    code, out, err = _run_in_process(["field", "--n", "5"])
    assert code == 3, err
    assert "Traceback" not in err
    data = json.loads(out)
    assert data["error"] == "precision-exhausted"
    assert data["boundary"] == f"Enclosure({2 ** 2000}, {2 ** 2001})"
    load_schema()(data)


def test_verify_help_states_the_cost_in_the_degree():
    code, out, _ = _run_in_process(["verify", "--help"])
    assert code == 0
    assert "phi(2n)/2" in out


def test_precision_flag_validation():
    proc = subprocess.run(
        [sys.executable, "-m", "trianglecf.cli", "field", "--n", "5",
         "--precision", "32"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--n-range", "6:5"),
        ("expand", "--n", "5", "--x", "random:abc"),
        ("transcendence", "--q-file", "{missing}", "--d", "2"),
        ("scan-borel", "--n", "5", "--samples", "0"),
        ("convergence", "--n", "5", "--samples", "0"),
        ("ergodic-test", "--n", "5", "--steps", "0"),
        ("convergence", "--n", "5", "--steps", "0"),
        ("expand", "--n", "5", "--x=-1/2", "--steps", "-3"),
        ("expand", "--n", "5", "--x", "coeffs:a,b"),
        ("transcendence", "--q-file", "{bad}", "--d", "2"),
        ("periodic", "--n", "5", "--j-max", "-2"),
        ("ergodic-test", "--n", "5", "--steps", "100", "--cells", "0"),
        ("field", "--n", "5", "--precision", "0"),
        ("field", "--n", "5", "--out", "{unwritable}"),
        ("periodic", "--n", "4", "--j-max", "1"),
        ("convergence", "--n", "5", "--samples", "20", "--seed", "-1"),
        ("ergodic-test", "--n", "5", "--steps", "1", "--cells", "5"),
        ("scan-borel", "--n", "5", "--samples", "20", "--tol", "nan"),
        ("transcendence", "--n", "5", "--x", "-0.7391", "--margin", "nan"),
        ("transcendence", "--n", "5", "--x", "-0.7391", "--margin", "inf"),
        ("scan-borel", "--n", "5", "--samples", "20", "--tol=-inf"),
        ("transcendence", "--q-file", "{good}", "--d", "0"),
        ("transcendence", "--q-file", "{good}", "--d", "-1"),
    ],
    ids=["empty-n-range", "random-not-int", "missing-q-file", "scan-zero-samples",
         "convergence-zero-samples", "ergodic-zero-steps", "convergence-zero-steps",
         "negative-steps",
         "coeffs-not-rational", "q-file-bad-line", "negative-j-max", "ergodic-zero-cells",
         "zero-precision-cap", "unwritable-out", "one-point-family", "negative-seed",
         "ergodic-one-step", "nan-tolerance", "nan-margin", "infinite-margin",
         "infinite-tolerance", "q-file-degree-zero", "q-file-negative-degree"],
)
def test_bad_input_is_a_usage_error(tmp_path, args):
    # exit 1 is reserved for a failed identity; bad input must give 2
    bad = tmp_path / "bad.txt"
    bad.write_text("12\nnot-a-number\n")
    # enough convergents for the growth screen to take log(2d - 1)
    good = tmp_path / "good.txt"
    good.write_text("".join(f"log:{2.0 ** m}\n" for m in range(1, 13)))
    argv = [a.format(missing=tmp_path / "missing.txt", bad=bad, good=good,
                     unwritable=tmp_path / "no-such-dir" / "x.json") for a in args]
    proc = run_cli(*argv, expect=2)
    assert proc.stderr.startswith("usage error: "), proc.stderr
    assert proc.stdout == ""


def test_removed_truncation_flag_is_a_usage_error():
    proc = run_cli("verify", "--n", "5", "--k-fin", "0", expect=2)
    assert "Traceback" not in proc.stderr
    assert "unrecognized arguments: --k-fin" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--n", "5", "--steps", "3"),
        ("expand", "--n", "5", "--x", "-0.7391", "--samples", "2"),
        ("periodic", "--n", "5", "--samples", "2"),
        ("region", "--n", "5", "--steps", "3"),
    ],
    ids=" ".join,
)
def test_flag_the_command_does_not_read_is_a_usage_error(args):
    proc = run_cli(*args, expect=2)
    assert "Traceback" not in proc.stderr
    assert f"unrecognized arguments: {args[-2]}" in proc.stderr
    assert proc.stdout == ""


def _cli_functions():
    """For each module-level function of cli.py, the attributes it reads off
    `args` and the module-level functions it calls by name."""
    from trianglecf import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    reads, calls = {}, {}
    for name, f in funcs.items():
        nodes = list(ast.walk(f))
        reads[name] = {n.attr for n in nodes if isinstance(n, ast.Attribute)
                       and isinstance(n.value, ast.Name) and n.value.id == "args"}
        calls[name] = {n.func.id for n in nodes if isinstance(n, ast.Call)
                       and isinstance(n.func, ast.Name) and n.func.id in funcs}
    return reads, calls


def test_every_option_is_read_by_its_command():
    # an option no code reads is accepted and silently ignored; each one
    # must be read by the subcommand's handler, a helper it calls, or main
    from trianglecf.cli import build_parser

    reads, calls = _cli_functions()
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert sub.choices
    for command, p in sub.choices.items():
        reached, todo = set(), [p.get_default("func").__name__, "main"]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(calls[name])
        read = set().union(*(reads[name] for name in reached))
        options = {a.dest for a in p._actions if not isinstance(a, argparse._HelpAction)}
        assert options <= read, (command, sorted(options - read))


@pytest.mark.parametrize("x", ["-0.7391", "random:1"])
def test_expand_checks_the_natural_extension(x, monkeypatch):
    from trianglecf.planar import PlanarRegion

    monkeypatch.setattr(PlanarRegion, "contains", lambda self, x, y: False)
    code, out, err = _run_in_process(["expand", "--n", "5", "--x", x, "--steps", "3",
                                      "--check-ne"])
    assert code == 1, err
    assert "left the natural-extension domain" in err
    assert out == ""


# -- the exit-code contract under fuzzed flags --------------------------------
#
# Each example starts from a small valid command and redraws one to three of
# its flags: zero, negative, huge or malformed, or dropped.  Flags whose value
# sets the amount of work (--n, --steps, --samples, --cells, --j, --j-max) are
# never drawn huge and positive, so every run stays small.

HUGE = 10 ** 30
_SIZE = [0, 1, 2, 7, -1, -HUGE]
_REAL = ["0", "-1", "1e-10", "1e300", "nan", "inf", "-inf", "x"]
_X = [
    "-0.7391", "-1", "-1/2", "-2/3", "0", "-0", "1", "-3", "1e400", "-1e-400",
    "nan", "inf", "-inf", "", "x", "-", "1/0", "-9" + "9" * 400, "-1e-300",
    "coeffs:", "coeffs:-1", "coeffs:-1,0", "coeffs:a,b", "coeffs:1/0",
    "coeffs:1,2,3,4,5,6,7,8,9", "random:1", "random:0", "random:-1", "random:",
    "random:x", "random:1.5",
]
_COMMON = {
    "--n": [4, 5, 8, 0, 3, -1, -HUGE, "x"],
    "--seed": [0, 1, -1, 2 ** 64, HUGE, -HUGE, "x"],
    "--precision": [64, 63, 0, -1, 4096, HUGE],
    "--format": ["json", "csv", "jsonl", "x"],
}
# the valid starting command and the values each of its own flags may take
_COMMANDS = {
    "field": ({"--n": 5}, {}),
    "verify": ({"--n": 5},
               {"--n-range": ["4:5", "5:4", "3:4", "a:b", "5", ":", "4:5:6"]}),
    "orbit": ({"--n": 5, "--table": "phi"}, {"--table": ["eps", "heights", "x"]}),
    "region": ({"--n": 5, "--which": "gamma"}, {"--which": ["omega", "x"]}),
    "expand": ({"--n": 5, "--x": "-0.7391", "--steps": 10},
               {"--x": _X, "--steps": _SIZE}),
    "scan-borel": ({"--n": 5, "--samples": 20, "--steps": 30},
                   {"--x": _X, "--steps": _SIZE, "--samples": _SIZE, "--tol": _REAL}),
    "periodic": ({"--n": 5, "--j": 2}, {"--j": _SIZE, "--j-max": _SIZE}),
    "transcendence": ({"--n": 5, "--x": "-0.7391", "--steps": 30},
                      {"--x": _X, "--steps": _SIZE, "--margin": _REAL}),
    "ergodic-test": ({"--n": 5, "--steps": 200, "--samples": 20, "--cells": 5},
                     {"--steps": _SIZE, "--samples": _SIZE, "--cells": _SIZE}),
    "convergence": ({"--n": 5, "--samples": 20, "--steps": 30},
                    {"--steps": _SIZE, "--samples": _SIZE}),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    base, own = _COMMANDS[command]
    pools = {**_COMMON, **own}
    flags = dict(base)
    for flag in draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=3,
                              unique=True)):
        flags[flag] = draw(st.sampled_from([None, *pools[flag]]))
    return [command] + [f"{f}={v}" for f, v in flags.items() if v is not None]


def _run_in_process(argv):
    from trianglecf.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:      # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(argv=argvs())
def test_exit_code_contract_under_fuzzed_flags(argv):
    # an exception escaping main() is the traceback the CLI would print
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err
    json_out = not any(a.startswith("--format=") and a != "--format=json" for a in argv)
    if code in (0, 1) and json_out:
        assert (code == 1) == (_strict_json(out).get("ok") is False), (argv, code)
