import argparse
import ast
import contextlib
import io
import json
import math
import re
import shlex
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


@pytest.mark.parametrize("n, x", [(5, "-0.7391"), (8, "-0.7391"), (7, "-7/13"),
                                  (5, "coeffs:-1/3,-1/7"), (5, "-1")])
def test_expand_jsonl_enclosure_ends_bracket_t(n, x):
    # lo is rounded down and hi up, so each printed interval holds t_m exactly
    from fractions import Fraction

    from trianglecf.cli import _parse_x
    from trianglecf.dioph import expand
    from trianglecf.field import build_field

    code, out, err = _run_in_process(["expand", "--n", str(n), f"--x={x}", "--steps", "40",
                                      "--format", "jsonl"])
    assert code == 0, err
    F = build_field(n)
    ts = expand(F, _parse_x(F, x), 40).ts
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == len(ts)
    for row, t in zip(rows, ts):
        assert Fraction(row["x_enclosure_lo"]) <= t <= Fraction(row["x_enclosure_hi"]), row


def test_expand_random_inverts_once_per_point(monkeypatch):
    # max_v is picked by exact cross-multiplication; only the winner
    # v_m = q_prev/q is divided out and converted
    from trianglecf.field import FieldElement

    argv = ["expand", "--n", "5", "--x", "random:3", "--steps", "40"]
    code, before, _ = _run_in_process(argv)  # fills the branch table
    assert code == 0
    inverse, calls = FieldElement.inverse, []

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(FieldElement, "inverse", counted)
    code, out, _ = _run_in_process(argv)
    assert code == 0 and out == before
    assert len(calls) == 3


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
    # the mode reads no field, so it echoes no n and refuses one
    assert data["n"] is None
    run_cli("transcendence", "--q-file", str(fast), "--d", "2", "--n", "3", expect=2)

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


def test_ergodic_test_refuses_bad_samples_before_any_orbit(monkeypatch):
    # --samples is read by adler_scan and observed_words, which run before
    # the equidistribution and Birkhoff experiments
    def fail(*args, **kwargs):
        raise AssertionError("an orbit ran")

    monkeypatch.setattr("trianglecf.numeric.uniform_distribution_experiment", fail)
    monkeypatch.setattr("trianglecf.numeric.birkhoff_experiment", fail)
    code, out, err = _run_in_process(["ergodic-test", "--n", "5", "--steps", "300000",
                                      "--samples", "0"])
    assert code == 2, err
    assert out == ""

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
    from trianglecf.dynamics import cylinder_lo

    F = build_field(5)
    boundary = cylinder_lo(F, 2)
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


def test_precision_exhausted_report_with_a_boundary_below_the_double_range(monkeypatch):
    # nonzero ends that a double would print as 0.0 print as exact ratios,
    # so the report keeps the boundary's scale
    from fractions import Fraction

    from trianglecf import cli
    from trianglecf.errors import PrecisionExhausted
    from trianglecf.field import Enclosure

    tiny = Fraction(1, 2 ** 2000)
    boundary = Enclosure(-tiny, tiny)

    def exhausted(args):
        raise PrecisionExhausted("sign undecided at 4096 bits", boundary=boundary, bits=4096)

    monkeypatch.setattr(cli, "cmd_field", exhausted)
    code, out, err = _run_in_process(["field", "--n", "5"])
    assert code == 3, err
    data = json.loads(out)
    assert data["boundary"] == f"Enclosure(-1/{2 ** 2000}, 1/{2 ** 2000})"
    load_schema()(data)


def test_a_far_start_point_shares_its_gap_enclosures(monkeypatch):
    # x = -10^-400 has a first digit near 2^1328.  It is the floor of an
    # exact quotient whose 1 329-bit coefficients need enclosures at
    # precisions that climb to 2048 bits, each built once per precision in
    # the floor's one refinement run: 476 calls for the command.  A sign
    # search over the cylinder ends with an enclosure per probe and per
    # doubling made 6 561 calls, and 1 665 when lambda's bracket was
    # narrowed in place.
    import hashlib

    from trianglecf.field import FieldElement

    calls = 0
    embed_raw = FieldElement.embed_raw

    def counted(self, precision):
        nonlocal calls
        calls += 1
        return embed_raw(self, precision)

    monkeypatch.setattr(FieldElement, "embed_raw", counted)
    code, out, err = _run_in_process(["expand", "--n", "8", "--x=-1e-400", "--steps", "10"])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest().startswith("b09eaa40")
    assert 0 < calls <= 1665


def test_a_start_point_past_the_cap_exits_3_at_once():
    # x = -10^-4000 has a first digit near 10^4000, whose floor needs about
    # 13 300 bits: its one refinement run passes the 4096-bit cap, and the
    # command reports that decision (its text is not pinned) and exits 3
    code, out, err = _run_in_process(["expand", "--n", "8", "--x=-1e-4000", "--steps", "10"])
    assert code == 3, err
    data = json.loads(out)
    assert data["error"] == "precision-exhausted"
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
        ("transcendence", "--q-file", "", "--d", "2"),
    ],
    ids=["empty-n-range", "random-not-int", "missing-q-file", "scan-zero-samples",
         "convergence-zero-samples", "ergodic-zero-steps", "convergence-zero-steps",
         "negative-steps",
         "coeffs-not-rational", "q-file-bad-line", "negative-j-max", "ergodic-zero-cells",
         "zero-precision-cap", "unwritable-out", "one-point-family", "negative-seed",
         "ergodic-one-step", "nan-tolerance", "nan-margin", "infinite-margin",
         "infinite-tolerance", "q-file-degree-zero", "q-file-negative-degree",
         "empty-q-file-path"],
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


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--n", "5", "--n-range", "4:6"),
        ("periodic", "--n", "5", "--j", "3", "--j-max", "2"),
        # 1 is the family's first point, and still not allowed with --j-max
        ("periodic", "--n", "5", "--j", "1", "--j-max", "2"),
        ("transcendence", "--q-file", "{good}", "--d", "2", "--x", "-0.5"),
        ("scan-borel", "--n", "5", "--x", "-0.7391", "--samples", "3"),
        ("scan-borel", "--n", "5", "--x", "-0.7391", "--tol", "0.1"),
        ("transcendence", "--q-file", "{good}", "--d", "2", "--steps", "5"),
        ("transcendence", "--n", "5", "--x", "-0.7391", "--d", "3"),
    ],
    ids=" ".join,
)
def test_flags_of_two_modes_together_are_a_usage_error(tmp_path, args):
    # each pair picks one mode of the command; the other flag would be
    # silently ignored
    good = tmp_path / "good.txt"
    good.write_text("".join(f"log:{2.0 ** m}\n" for m in range(1, 13)))
    proc = run_cli(*(a.format(good=good) for a in args), expect=2)
    assert "Traceback" not in proc.stderr
    assert "not allowed with argument" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
@pytest.mark.parametrize("command", ("field", "verify", "region", "periodic",
                                     "transcendence", "ergodic-test", "convergence",
                                     "scan-borel"))
def test_a_command_without_rows_refuses_csv_and_jsonl_before_any_work(command, fmt,
                                                                      monkeypatch):
    # the format is refused before the work: not even the identity suite or,
    # in scan-borel's batch mode, the scan runs
    def fail(*args):
        raise AssertionError("the work ran")

    monkeypatch.setattr("trianglecf.verify.verify_one", fail)
    monkeypatch.setattr("trianglecf.numeric.borel_scan", fail)
    code, out, err = _run_in_process([command, "--n", "5", "--format", fmt])
    assert code == 2, err
    assert "argument --format: invalid choice" in err
    assert out == ""


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


# -- the table of modes ---------------------------------------------------------
#
# Built from cli.COMMANDS, so these tests follow every edit of the table.

# a small valid value of each flag of the table, None for a switch; {good}
# is the path of a q-file long enough for the growth screen
_SMALL = {
    "--n": "5", "--n-range": "4:5", "--table": "eps", "--which": "omega",
    "--steps": "30", "--samples": "20", "--x": "-0.7391", "--check-ne": None,
    "--tol": "1e-9", "--j": "2", "--j-max": "2", "--q-file": "{good}", "--d": "2",
    "--margin": "0.1", "--cells": "5",
}


@pytest.fixture(scope="module")
def good_q_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("q") / "good.txt"
    path.write_text("".join(f"log:{2.0 ** m}\n" for m in range(1, 13)))
    return str(path)


def _modes():
    from trianglecf.cli import COMMANDS

    return [(command, i) for command, (_, modes) in COMMANDS.items()
            for i in range(len(modes))]


def _flag_argv(flag, q_file):
    value = _SMALL[flag]
    return [flag] if value is None else [flag, value.format(good=q_file)]


def _smallest(command, row, q_file):
    """The command line of one mode with each flag of its row at a small value."""
    return [command] + [a for flag in row for a in _flag_argv(flag, q_file)]


class _RecordingArgs(argparse.Namespace):
    """A namespace that records in `read` the name of each attribute read off it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.read = set()

    def __getattribute__(self, name):
        if name != "read":
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("command,i", _modes())
def test_each_mode_reads_every_flag_of_its_row(command, i, good_q_file):
    from trianglecf import cli

    modes = cli.COMMANDS[command][1]
    row, _ = modes[i]
    # the first flag of a mode picks it and is in no other mode's row
    pickers = [next(iter(flags)) for flags, _ in modes[:-1]]
    assert [p for p in pickers if p in row] == pickers[i:i + 1]
    args = cli.build_parser().parse_args(_smallest(command, row, good_q_file))
    cli.pick_mode(args)
    recording = _RecordingArgs(**vars(args))
    args.func(recording)
    assert {flag[2:].replace("-", "_") for flag in row} <= recording.read


@pytest.mark.parametrize("command,i", _modes())
def test_each_mode_refuses_what_it_does_not_read_or_print_before_any_work(
        command, i, good_q_file, monkeypatch):
    from trianglecf import cli

    def never(args):
        raise AssertionError("the command ran")

    build = cli.build_parser

    def parser_whose_commands_never_run(*only):
        parser = build(*only)
        for p in _subparsers(parser).values():
            p.set_defaults(func=never)
        return parser

    monkeypatch.setattr(cli, "build_parser", parser_whose_commands_never_run)
    modes = cli.COMMANDS[command][1]
    row, formats = modes[i]
    base = _smallest(command, row, good_q_file)
    refused = [(base + _flag_argv(flag, good_q_file), "not allowed with argument")
               for flag in cli._flags(modes) if flag not in row]
    # a required flag left out, where that does not pick another mode
    for flag, default in row.items():
        if default == cli.REQUIRED and (flag != next(iter(row)) or i == len(modes) - 1):
            argv = _smallest(command, {f: d for f, d in row.items() if f != flag},
                             good_q_file)
            refused.append((argv, f"the following arguments are required: {flag}"))
    refused += [(base + ["--format", fmt], "argument --format: invalid choice")
                for fmt in ("json", "csv", "jsonl") if fmt not in formats]
    for argv, message in refused:
        code, out, err = _run_in_process(argv)
        assert code == 2, (argv, err)
        assert message in err, (argv, err)
        assert out == ""


def _readme_command_line_section():
    readme = (REPO / "README.md").read_text()
    return readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]


def test_readme_command_lines_pass_the_mode_check():
    # every documented example parses and picks a mode; none is run
    from trianglecf import cli

    block = _readme_command_line_section().split("```\n")[1]
    lines = [line for line in block.splitlines() if line.startswith("trianglecf ")]
    assert len(lines) >= 10
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
        cli.pick_mode(args)


def test_readme_lists_the_table_of_modes():
    # one line per mode: its flags in table order, each default in
    # parentheses (none for a required flag), and its formats
    from trianglecf import cli

    documented, command = {}, None
    for line in _readme_command_line_section().splitlines():
        if line.startswith(("| `", "| |")):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            command = cells[0].strip("`") or command
            flags = re.findall(r"`(--[\w-]+)`(?: \(([^)]*)\))?", cells[2])
            documented.setdefault(command, []).append((flags, tuple(cells[3].split(", "))))
    table = {command: [([(flag, "" if default == cli.REQUIRED else str(default))
                         for flag, default in row.items()], formats)
                        for row, formats in modes]
             for command, (_, modes) in cli.COMMANDS.items()}
    assert documented == table


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_main_builds_the_parser_of_the_named_command_only(monkeypatch):
    from trianglecf import cli

    built = []
    build = cli.build_parser

    def recorded(*only):
        built.append(only)
        return build(*only)

    monkeypatch.setattr(cli, "build_parser", recorded)
    code, out, err = _run_in_process(["field", "--n", "5"])
    assert code == 0, err
    assert built == [("field",)]
    # every command is still listed, and the others read no flag but --help
    subs = _subparsers(build("field"))
    assert list(subs) == list(cli.COMMANDS)
    assert all(len(p._actions) == 1 for command, p in subs.items() if command != "field")
    # the help texts are those of the full parser
    full = build()
    assert build("field").format_help() == full.format_help()
    for command in cli.COMMANDS:
        assert (_subparsers(build(command))[command].format_help()
                == _subparsers(full)[command].format_help())


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
# Each example starts from the smallest command of one mode of the table and
# redraws one to three of its flags: zero, negative, huge or malformed, or
# dropped.  It may add one flag of another mode of the command, and a flag
# that the picked mode does not read must give exit 2.  Flags whose value
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
    # -tau 2^-256 and -tau 2^-1024, whose first digits are past the floats
    f"coeffs:-1/{2 ** 256},-1/{2 ** 256}", f"coeffs:-1/{2 ** 1024},-1/{2 ** 1024}",
]
_COMMON = {
    "--seed": [0, 1, -1, 2 ** 64, HUGE, -HUGE, "x"],
    "--precision": [64, 63, 0, -1, 4096, HUGE],
    "--format": ["json", "csv", "jsonl", "x"],
}
# the values each flag of the table may take
_VALUES = {
    "--n": [4, 5, 8, 0, 3, -1, -HUGE, "x"],
    "--n-range": ["4:5", "5:4", "3:4", "a:b", "5", ":", "4:5:6"],
    "--table": ["eps", "heights", "x"],
    "--which": ["omega", "x"],
    "--x": _X,
    "--tol": _REAL,
    "--margin": _REAL,
    **dict.fromkeys(("--steps", "--samples", "--cells", "--j", "--j-max", "--d"), _SIZE),
}


@st.composite
def argvs(draw):
    """A command line that starts from one mode's smallest command, redraws
    one to three of its flags and may add one flag of another mode."""
    from trianglecf.cli import COMMANDS, _flags

    command = draw(st.sampled_from(sorted(COMMANDS)))
    modes = COMMANDS[command][1]
    row, _ = draw(st.sampled_from(modes))
    # a switch is left off: the fuzz writes every flag as --flag=value
    flags = {flag: _SMALL[flag] for flag in row if _SMALL[flag] is not None}
    pools = {**_COMMON, **{flag: _VALUES[flag] for flag in row if flag in _VALUES}}
    drawn = draw(st.lists(st.sampled_from(sorted(pools)), min_size=1, max_size=3,
                          unique=True))
    for flag in drawn:
        flags[flag] = draw(st.sampled_from([None, *pools[flag]]))
    other = [flag for flag in _flags(modes) if flag not in row and _SMALL[flag] is not None]
    extra = draw(st.sampled_from([None, *other]))
    if extra is not None:
        flags[extra] = draw(st.sampled_from(_VALUES.get(extra, [_SMALL[extra]])))
    return [command] + [f"{f}={v}" for f, v in flags.items() if v is not None]


def _given_outside_its_mode(argv):
    """Whether argv gives a flag that the mode its flags pick does not read:
    the first flag of each mode but the last picks it, and none picks the last."""
    from trianglecf.cli import COMMANDS

    modes = COMMANDS[argv[0]][1]
    given = {a.split("=", 1)[0] for a in argv[1:]} - _COMMON.keys()
    row = next((flags for flags, _ in modes[:-1] if next(iter(flags)) in given),
               modes[-1][0])
    return not given <= row.keys()


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
def test_exit_code_contract_under_fuzzed_flags(argv, good_q_file):
    argv = [a.format(good=good_q_file) for a in argv]
    # an exception escaping main() is the traceback the CLI would print
    code, out, err = _run_in_process(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    if _given_outside_its_mode(argv):
        assert code == 2, (argv, code, err)
    assert "Traceback" not in err
    json_out = not any(a.startswith("--format=") and a != "--format=json" for a in argv)
    if code in (0, 1) and json_out:
        assert (code == 1) == (_strict_json(out).get("ok") is False), (argv, code)
