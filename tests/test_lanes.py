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
    "induced_step_Y", "is_admissible", "is_realizable", "cylinder_interval",
    "AdmissibilityResult",
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


def _loaded_after(code):
    """The trianglecf submodules, and the standard-library modules this
    file watches, that are loaded after running `code` in a fresh
    interpreter."""
    out = _run(code + "\n"
               "import sys\n"
               "print(' '.join(sorted(m for m in sys.modules\n"
               "      if m.startswith('trianglecf.') or m in ('dataclasses', 'csv'))))\n")
    return set(out.split())


def test_import_loads_no_layer_but_errors():
    assert _loaded_after("import trianglecf") <= {"trianglecf.errors"}


PAST_FIELD = {f"trianglecf.{m}" for m in
              ("group", "quadratic", "dynamics", "planar", "dioph", "verify")}


# (command, modules it must load, modules it must not load)
COMMAND_LOADS = [
    (["expand", "--n", "5", "--x", "random:2", "--steps", "5"], {"trianglecf.dioph"},
     {"trianglecf.planar", "trianglecf.verify", "dataclasses", "csv"}),
    (["verify", "--n", "5"], {"trianglecf.verify"}, {"trianglecf.dioph"}),
    (["field", "--n", "5"], {"trianglecf.field"}, PAST_FIELD),
    (["orbit", "--n", "5", "--format", "csv"], {"csv"},
     {"trianglecf.dioph", "trianglecf.verify", "dataclasses"}),
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
         "assert trianglecf.ergodic.is_admissible is trianglecf.is_admissible\n"
         "assert trianglecf.numeric.convergence_scan is trianglecf.convergence_scan")
