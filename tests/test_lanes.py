"""The exact lane never loads numpy; every layer loads on first use, so a
command loads only the layers it runs.

Each case runs in a fresh interpreter, because the test process itself has
long since imported numpy.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _run(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _readme_library_example():
    text = (REPO / "README.md").read_text()
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_import_does_not_load_numpy():
    _run("import sys, trianglecf\n"
         "assert 'numpy' not in sys.modules")


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "5"],
    ["expand", "--n", "5", "--x", "random:2", "--steps", "5"],
    ["periodic", "--n", "5", "--j", "2"],
    ["periodic", "--n", "5", "--j-max", "10"],
], ids=" ".join)
def test_exact_commands_do_not_load_numpy(argv):
    _run("import contextlib, io, sys\n"
         "from trianglecf import cli\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    code = cli.main({argv!r})\n"
         "assert code == 0\n"
         "assert 'numpy' not in sys.modules")


def test_readme_library_example_does_not_load_numpy():
    _run("import contextlib, io, sys\n"
         "with contextlib.redirect_stdout(io.StringIO()):\n"
         f"    exec({_readme_library_example()!r})\n"
         "assert 'numpy' not in sys.modules")


FLOAT_LANE_NAMES = {
    "borel_scan", "convergence_scan", "birkhoff_experiment",
    "uniform_distribution_experiment", "adler_scan", "observed_words",
    "induced_step_Y",
}


def test_float_lane_loads_on_first_use():
    _run("import sys, trianglecf\n"
         "assert set(trianglecf.__all__) <= set(dir(trianglecf))\n"
         "scan = trianglecf.borel_scan\n"
         "assert 'numpy' in sys.modules\n"
         "assert scan is trianglecf.numeric.borel_scan\n"
         "assert trianglecf.adler_scan is trianglecf.ergodic.adler_scan\n"
         # one load per layer binds every float-lane name into the package
         f"assert {FLOAT_LANE_NAMES!r} <= set(vars(trianglecf))\n")


def test_float_lane_names_are_the_float_layers_public_names():
    _run("import trianglecf\n"
         "names = {name for name in trianglecf.__all__[1:]\n"
         "         if getattr(trianglecf, name).__module__ in\n"
         "            ('trianglecf.numeric', 'trianglecf.ergodic')}\n"
         f"assert names == {FLOAT_LANE_NAMES!r}, names\n")


# the standard-library and third-party modules the load cases watch
WATCHED = ("dataclasses", "csv", "numpy")


def _loaded_after(code):
    """The trianglecf submodules, and the WATCHED modules, that are loaded
    after running `code` in a fresh interpreter."""
    out = _run(code + "\n"
               "import sys\n"
               "print(' '.join(sorted(m for m in sys.modules\n"
               f"      if m.startswith('trianglecf.') or m in {WATCHED!r})))\n")
    return set(out.split())


def test_import_loads_no_layer_but_errors():
    assert _loaded_after("import trianglecf") <= {"trianglecf.errors"}


def test_admissibility_loads_no_numpy():
    # digit-word combinatorics is exact: it lives in dynamics
    loaded = _loaded_after("import trianglecf\n"
                           "assert not trianglecf.is_admissible([1, -1], 5)\n")
    assert "trianglecf.dynamics" in loaded
    assert not loaded & {"trianglecf.ergodic", "trianglecf.numeric", "numpy"}


PAST_FIELD = {f"trianglecf.{m}" for m in
              ("group", "quadratic", "dynamics", "planar", "measure", "dioph", "verify")}

FLOAT_SCANS_SKIP = {f"trianglecf.{m}" for m in ("planar", "measure", "ergodic", "dioph", "verify")}


# (command, modules it must load, modules it must not load)
COMMAND_LOADS = [
    (["expand", "--n", "5", "--x", "random:2", "--steps", "5"], {"trianglecf.dioph"},
     {"trianglecf.planar", "trianglecf.verify", "dataclasses", "csv"}),
    (["verify", "--n", "5"], {"trianglecf.verify"}, {"trianglecf.dioph"}),
    (["field", "--n", "5"], {"trianglecf.field"}, PAST_FIELD),
    (["orbit", "--n", "5", "--format", "csv"], {"csv"},
     {"trianglecf.dioph", "trianglecf.verify", "dataclasses"}),
    (["transcendence", "--n", "5", "--x", "-0.7391", "--steps", "20"],
     {"trianglecf.measure"}, {"trianglecf.planar", "numpy"}),
    (["region", "--n", "5"], {"trianglecf.measure"}, {"numpy"}),
    # the scans need only the float system: numeric reaches planar and
    # measure through the package, for the orbit experiments' cells and masses
    (["scan-borel", "--n", "5", "--samples", "20", "--steps", "5"],
     {"numpy", "trianglecf.numeric"}, FLOAT_SCANS_SKIP),
    (["convergence", "--n", "5", "--samples", "20", "--steps", "100"],
     {"numpy", "trianglecf.numeric"}, FLOAT_SCANS_SKIP),
]


@pytest.mark.parametrize("argv,loads,skips", COMMAND_LOADS,
                         ids=[" ".join(argv) for argv, _, _ in COMMAND_LOADS])
def test_a_command_loads_only_the_layers_it_runs(argv, loads, skips):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from trianglecf import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n")
    assert loads <= loaded
    assert not loaded & skips


def test_growth_screen_of_a_q_file_loads_no_exact_layer(tmp_path):
    # the screen only takes logarithms of the file's integers: past the
    # package, the CLI and the field it parses with, only measure loads
    q_file = tmp_path / "q.txt"
    q_file.write_text("".join(f"{2 ** (2 * m)}\n" for m in range(1, 25)))
    argv = ["transcendence", "--q-file", str(q_file), "--d", "2"]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from trianglecf import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n")
    assert loaded == {"trianglecf.cli", "trianglecf.errors", "trianglecf.field",
                      "trianglecf.measure"}


def test_every_public_name_resolves_to_its_definition():
    _run("import importlib, trianglecf\n"
         "for name in trianglecf.__all__:\n"
         "    if name == '__version__':\n"
         "        continue\n"
         "    obj = getattr(trianglecf, name)\n"
         "    home = importlib.import_module(obj.__module__)\n"
         "    assert getattr(home, name) is obj, name\n")


def test_unknown_name_is_an_attribute_error():
    _run("import sys, trianglecf\n"
         "assert not hasattr(trianglecf, 'no_such_name')\n"
         "assert 'numpy' not in sys.modules")


def test_float_lane_modules_resolve_as_package_attributes():
    _run("import trianglecf\n"
         "assert trianglecf.ergodic.adler_scan is trianglecf.adler_scan\n"
         "assert trianglecf.numeric.convergence_scan is trianglecf.convergence_scan")
