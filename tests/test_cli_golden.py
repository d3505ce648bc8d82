"""Byte-identical CLI output on a fixed command set.

For each command, tests/golden_cli.json holds the SHA-256 digests of
stdout and stderr and the exit code.  Each command runs in its own
interpreter, as a user runs it: the output then also covers start-up, the
lazy imports of the package and the exit path.

After an intended output change, re-record the digests with

    python tests/test_cli_golden.py

and record only commands that have no digest yet, leaving every existing
one as it is, with

    python tests/test_cli_golden.py --missing
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_cli.json"

COMMANDS = []
for _n in ("5", "8"):
    COMMANDS.append(("field", "--n", _n))
    COMMANDS += [("orbit", "--n", _n, "--table", t)
                 for t in ("phi", "eps", "alpha", "heights")]
    COMMANDS += [("region", "--n", _n, "--which", w) for w in ("omega", "gamma")]
    COMMANDS += [("expand", "--n", _n, "--x", "-0.7391", "--steps", "40", "--format", f)
                 for f in ("jsonl", "csv")]
    COMMANDS.append(("periodic", "--n", _n, "--j", "2"))
    COMMANDS.append(("transcendence", "--n", _n, "--x", "-0.7391", "--steps", "60"))
COMMANDS += [
    ("expand", "--n", "5", "--x", "random:3", "--steps", "40"),
    ("verify", "--n", "5"),
    # a 64-bit cap: every printed value is decided within it, so the rows
    # are those of the default cap (test_cli.py's
    # test_precision_exhausted_exit_code covers exit 3)
    ("expand", "--n", "5", "--x", "random:3", "--steps", "40", "--precision", "64"),
    # high degree: d = 6 at n=13, d = 8 at n=16
    ("expand", "--n", "13", "--x", "random:1", "--steps", "10", "--seed", "0"),
    ("verify", "--n", "13"),
    # the remaining verify commands of the benchmark's identity suite
    ("verify", "--n-range", "4:9"),
    ("verify", "--n", "16"),
    ("orbit", "--n", "16", "--table", "eps"),
    # the CLI commands that order quadratic points through compare_numeric
    ("periodic", "--n", "5", "--j-max", "10"),
    ("periodic", "--n", "8", "--j-max", "4"),
    # orbits that land on exact cylinder endpoints and stop at the cusp
    ("expand", "--n", "5", "--x", "-1", "--steps", "12", "--format", "jsonl"),
    ("expand", "--n", "8", "--x", "-0.5", "--steps", "12", "--format", "csv"),
    # the float lane, reached through the package's deferred load
    ("scan-borel", "--n", "5", "--samples", "200", "--steps", "100"),
    ("ergodic-test", "--n", "5", "--steps", "20000", "--samples", "200", "--cells", "20"),
    ("convergence", "--n", "5", "--samples", "50", "--steps", "100"),
    # the float lane at other degrees: d = 6 at n=13, d = 4 at n=8
    ("scan-borel", "--n", "13", "--samples", "500", "--steps", "200"),
    ("convergence", "--n", "8", "--samples", "300", "--steps", "150"),
    # exact embeddings: printed floats at d = 8, quadratic floats at n=13,
    # a long orbit whose signs fall to _sign_exact, and a 64-bit cap at d = 6
    ("expand", "--n", "16", "--x", "-0.7391", "--steps", "60", "--format", "jsonl"),
    ("periodic", "--n", "13", "--j", "3"),
    ("expand", "--n", "5", "--x", "random:2", "--steps", "250"),
    ("expand", "--n", "13", "--x", "random:1", "--steps", "40", "--precision", "64"),
    # fields of other shapes: d = 4 and d = 8 with a non-cyclic Galois
    # group, and d = 16
    ("verify", "--n", "12"),
    ("verify", "--n", "20"),
    ("expand", "--n", "60", "--x", "-0.7391", "--steps", "20", "--format", "jsonl"),
    # start points whose denominator is not a power of two, a start point
    # with a lambda part, the natural-extension check, and the float lane's
    # long Borel scan
    ("expand", "--n", "7", "--x=-7/13", "--steps", "80", "--format", "jsonl"),
    ("expand", "--n", "5", "--x", "coeffs:-1/3,-1/7", "--steps", "60", "--format", "jsonl"),
    ("expand", "--n", "5", "--x", "-0.7391", "--steps", "30", "--check-ne"),
    ("scan-borel", "--n", "7", "--x", "-0.31", "--steps", "200"),
    # csv output outside expand's fixed start points: a non-expand table
    # and the random:K rows
    ("orbit", "--n", "8", "--table", "heights", "--format", "csv"),
    ("expand", "--n", "5", "--x", "random:2", "--steps", "30", "--format", "csv"),
    # an ergodic orbit that crosses two block boundaries, with a halfway
    # checkpoint (35 000) that is not a block multiple
    ("ergodic-test", "--n", "5", "--steps", "70001", "--samples", "200", "--cells", "20"),
    # a start point whose t_1 has 1 329-bit coefficients: the 64-bit
    # enclosures of its float conversions reach past the double range
    ("expand", "--n", "8", "--x=-1e-400", "--steps", "10"),
    # the same far start point at d = 8: its first digit is near 10^400
    ("expand", "--n", "16", "--x=-1e-400", "--steps", "10"),
    # long random orbits: at n=8 the float estimates of the running forms
    # lose their bits after about 140 steps, so digits and signs fall back
    # to exact decisions; and random:K maxima at d = 6
    ("expand", "--n", "8", "--x", "random:4", "--steps", "200"),
    ("expand", "--n", "13", "--x", "random:6", "--steps", "60"),
]


def run_digests(args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    # raw bytes, so that csv's \r\n line ends are pinned too
    proc = subprocess.run(
        [sys.executable, "-m", "trianglecf.cli", *args],
        capture_output=True,
        env=env,
    )
    return {
        "stdout": hashlib.sha256(proc.stdout).hexdigest(),
        "stderr": hashlib.sha256(proc.stderr).hexdigest(),
        "exit": proc.returncode,
    }


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_cli_output_matches_golden(args):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert run_digests(args) == golden[" ".join(args)]


if __name__ == "__main__":
    if sys.argv[1:] == ["--missing"]:
        digests = json.loads(GOLDEN_PATH.read_text())
    elif sys.argv[1:]:
        sys.exit("usage: python tests/test_cli_golden.py [--missing]")
    else:
        digests = {}
    for args in COMMANDS:
        key = " ".join(args)
        if key not in digests:
            digests[key] = run_digests(args)
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2) + "\n")
