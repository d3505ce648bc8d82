"""The benchmark's workloads: CLI command sets, the work each command does,
and the checks its output must pass."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
# why each workload was chosen is recorded once, in BENCHMARK.json
WHY = {w["name"]: w["why"] for w in
       json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]}


@dataclass(frozen=True)
class Workload:
    name: str
    ns: tuple          # field parameters the set-up builds
    commands: tuple    # CLI argv lists; those without --seed get the run's seed

    def argvs(self, seed):
        return [list(c) if "--seed" in c else list(c) + ["--seed", str(seed)]
                for c in self.commands]

    @property
    def why(self):
        return WHY[self.name]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-expand",
            (5, 13),
            (
                ("expand", "--n", "5", "--x", "random:16", "--steps", "60"),
                # Fixed start point: the cost of 20 steps at n=13 varies by
                # about 15% from one 256-bit start point to the next, too much
                # for the bound when a run can afford only one or two points.
                ("expand", "--n", "13", "--x", "random:1", "--steps", "20", "--seed", "0"),
            ),
        ),
        Workload(
            "identity-suite",
            (4, 5, 6, 7, 8, 9, 11, 13, 16),
            (
                ("verify", "--n-range", "4:9"),
                ("verify", "--n", "11"),
                ("verify", "--n", "13"),
                ("verify", "--n", "16"),
                ("periodic", "--n", "5", "--j-max", "10"),
            ),
        ),
        Workload(
            "float-stats",
            (5, 6),
            (
                ("scan-borel", "--n", "6", "--samples", "20000", "--steps", "1000"),
                ("ergodic-test", "--n", "5", "--steps", "300000"),
                ("convergence", "--n", "5", "--samples", "5000", "--steps", "200"),
            ),
        ),
    )
}

# Unit of work per command, counted by `work_done`.
OPS_UNIT = {
    "exact-expand": "exact expand steps",
    "identity-suite": "passed verify checks plus periodic points",
    "float-stats": "float orbit steps",
}


def work_done(payload):
    """Units of work a command's output says it did (see OPS_UNIT)."""
    cmd = payload["command"]
    if cmd == "expand":
        return sum(row["steps_done"] for row in payload["rows"])
    if cmd == "verify":
        return sum(c["ok"] for rep in payload["results"].values()
                   for c in rep["checks"])
    if cmd == "periodic":
        return len(payload["theta_values"])
    if cmd in ("scan-borel", "convergence"):
        return payload["samples"] * payload["steps"]
    if cmd == "ergodic-test":
        # the equidistribution orbit, the one orbit length the output reports
        return payload["N"]
    raise ValueError(f"no work count for command {cmd!r}")


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def command_key(argv):
    return " ".join(argv)


class OutputChecker:
    """Checks one command's exit code and stdout.

    A command line with a recorded golden digest must print exactly the
    recorded bytes.  Every output must be valid against the CLI schema and
    pass the payload invariants."""

    # The repository schema has no definition for `expand --x random:K`
    # output: its rows carry index/x/steps_done/f_rational/max_theta/max_v
    # and the top level has no steps_done, f_rational or digits, so the
    # full schema rejects it.  That output is validated against the
    # schema's envelope only, plus the row invariants and golden digests.
    SCHEMA_GAP = "expand --x random:K output has no schema definition; envelope checked"

    def __init__(self, root: Path):
        import jsonschema

        schema = json.loads((root / "schemas" / "cli-output.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.envelope_validator = jsonschema.Draft202012Validator(
            {"$ref": "#/$defs/envelope", "$defs": schema["$defs"]})
        self.golden = json.loads(GOLDEN_PATH.read_text())["digests"]

    def problems(self, argv, returncode, stdout: bytes):
        """Return (list of problems, payload or None)."""
        out = []
        if returncode != 0:
            out.append(f"exit code {returncode}")
        gold = self.golden.get(command_key(argv))
        if gold is not None:
            if gold["exit"] != returncode:
                out.append(f"exit code {returncode}, golden {gold['exit']}")
            if gold["sha256"] != digest(stdout):
                out.append("stdout differs from the golden digest")
        try:
            payload = json.loads(stdout)
        except ValueError:
            return out + ["stdout is not JSON"], None
        random_expand = argv[0] == "expand" and argv[argv.index("--x") + 1].startswith("random:")
        validator = self.envelope_validator if random_expand else self.validator
        out.extend(f"schema: {e.message}" for e in validator.iter_errors(payload))
        out.extend(_invariant_problems(argv, payload))
        return out, (payload if not out else None)


def _invariant_problems(argv, payload):
    out = []
    seed = int(argv[argv.index("--seed") + 1])
    if payload.get("command") != argv[0]:
        out.append(f"command is {payload.get('command')!r}")
    if payload.get("seed") != seed:
        out.append(f"seed is {payload.get('seed')!r}")
    if "ok" in payload and payload["ok"] is not True:
        out.append("ok is not true")
    if payload.get("violations", 0) != 0:
        out.append(f"{payload['violations']} violations")
    if payload.get("command") == "expand":
        for i, row in enumerate(payload.get("rows", [])):
            if row.get("steps_done") != payload.get("steps_requested") and row.get("f_rational") is not True:
                out.append(f"row {i} stopped early without f_rational")
    if payload.get("command") == "verify":
        for n, rep in payload.get("results", {}).items():
            out.extend(f"verify n={n}: {c['name']} failed"
                       for c in rep["checks"] if not c["ok"])
    return out
