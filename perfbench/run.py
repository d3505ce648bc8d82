"""The trianglecf benchmark.

Runs a workload's CLI commands as subprocesses, one at a time, in a closed
loop, and checks every output.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it runs each command in pairs, untraced and with
spans around every call into the library layers, then the per-layer
measurements of layers.py, and reports the per-layer metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload exact-expand --seed 0 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries run details
(sample counts, environment, per-layer self times).  Spans of a traced run
are written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import layer_self_times, self_times
from workloads import OPS_UNIT, WORKLOADS, OutputChecker, digest, work_done

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_CYCLES = 3      # passes over the command set, at least
TRACE_PAIRS = 4     # untraced/traced runs of each command in a traced run
TIMEOUT_S = 150     # per child process


class Run:
    """Counts attempts and failures; failures are reported, never dropped."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = 0
        self.failed = 0

    def fail(self, what, problems, stderr=b""):
        self.failed += 1
        sys.stderr.write(f"FAILED {what}: {'; '.join(problems)}\n")
        if stderr:
            sys.stderr.write(stderr.decode(errors="replace")[-2000:] + "\n")

    def checked(self, argv, code, stdout, stderr):
        """Check one command's output; returns its payload or None."""
        self.attempted += 1
        problems, payload = self.checker.problems(argv, code, stdout)
        if problems:
            self.fail(" ".join(argv), problems, stderr)
        return payload


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(args):
    """Run one child to completion; returns (wall seconds, exit code, stdout, stderr)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=TIMEOUT_S)
    return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def run_cli(argv):
    return run_child(["-m", "trianglecf.cli", *argv])


def setup_code(ns):
    """A cold interpreter's set-up: import trianglecf and build the
    workload's fields.  Prints where trianglecf came from and the degrees."""
    return ("import json, trianglecf\nfrom trianglecf.field import build_field\n"
            f"degrees = {{n: build_field(n).degree for n in {list(ns)}}}\n"
            "print(json.dumps({'file': trianglecf.__file__, 'degrees': degrees}))\n")


def setup_once(code):
    """Wall seconds of one set-up child and the degrees it reports.  Also
    checks the package comes from this checkout's src/."""
    wall, rc, out, err = run_child(["-c", code])
    if rc != 0 or Path(json.loads(out)["file"]).resolve() != SRC / "trianglecf" / "__init__.py":
        raise SystemExit("set-up failed or imported trianglecf from outside src/:\n"
                         + err.decode(errors="replace"))
    return wall, json.loads(out)["degrees"]


def measure(workload, seed, run, seconds):
    """End-to-end metrics: repeat the command set until `seconds` have
    passed (at least MIN_CYCLES times); each command's wall time is the
    median over the passes.  A cold set-up child runs before every
    command, so the set-up samples are spread over the whole run, as the
    command samples are; setup_s is their median."""
    setup = setup_code(workload.ns)
    argvs = workload.argvs(seed)
    setups = []
    walls = [[] for _ in argvs]
    work = [0] * len(argvs)
    digests = [None] * len(argvs)
    start = perf_counter()
    cycles = 0
    while cycles < MIN_CYCLES or (perf_counter() - start) * (cycles + 1) / cycles <= seconds:
        for i, argv in enumerate(argvs):
            setup_wall, degrees = setup_once(setup)
            setups.append(setup_wall)
            wall, code, out, err = run_cli(argv)
            walls[i].append(wall)
            payload = run.checked(argv, code, out, err)
            if digests[i] is None:
                digests[i] = digest(out)
            elif digests[i] != digest(out):
                run.fail(" ".join(argv), ["stdout changed between repeats"])
            if payload is not None:
                work[i] = work_done(payload)
        cycles += 1
    setup_s = statistics.median(setups)
    wall_s = sum(statistics.median(w) for w in walls)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (sum(work) / (wall_s - setup_s), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    info = {"passes": cycles, "setup_samples": len(setups), "ops_per_pass": sum(work),
            "op": OPS_UNIT[workload.name], "degrees": degrees,
            "command_wall_s": {" ".join(a): statistics.median(w) for a, w in zip(argvs, walls)}}
    return metrics, info


def run_untraced(argv, run):
    wall, code, out, err = run_cli(argv)
    run.checked(argv, code, out, err)
    return wall


def run_traced(argv, run):
    """Run one command under trace_cli.py; returns (wall, report, tracer
    cost) or None if the tracer itself failed."""
    wall, code, out, err = run_child([str(HERE / "trace_cli.py"), *argv])
    if code != 0:
        run.attempted += 1
        run.fail("traced " + " ".join(argv), [f"tracer exit code {code}"], err)
        return None
    report, cost = (json.loads(line) for line in out.splitlines())
    run.checked(argv, report["exit"], report["stdout"].encode(), err)
    return wall, report, cost


def trace(workload, seed, run):
    """Per-layer metrics: each command runs TRACE_PAIRS times untraced and
    traced, alternately, then the layer measurements run.  The spans of
    each command's first traced run go to .perfbench/."""
    argvs = workload.argvs(seed)
    overhead, cli_self, process = ([[] for _ in argvs] for _ in range(3))
    spans = []
    for pair in range(TRACE_PAIRS):
        for i, argv in enumerate(argvs):
            # odd pairs run the traced child first, so neither side always
            # follows the other
            if pair % 2:
                traced = run_traced(argv, run)
                untraced = run_untraced(argv, run)
            else:
                untraced = run_untraced(argv, run)
                traced = run_traced(argv, run)
            if traced is None:
                continue
            traced, report, cost = traced
            overhead[i].append(traced - untraced)
            cli_self[i].append(self_times(report["spans"])["cli.main"])
            # the traced child's wall, less cli.main and the tracer's own
            # patching and output
            process[i].append(traced - report["main_s"] - cost["tracer_s"])
            if len(overhead[i]) == 1:
                base = len(spans)
                for s in report["spans"]:
                    spans.append([i, s[1], s[2], s[3], None if s[4] is None else s[4] + base])
    if not all(overhead):
        raise SystemExit("a command failed under the tracer in every traced run")

    wall, code, out, err = run_child([str(HERE / "layers.py"), "--seed", str(seed)])
    run.attempted += 1
    if code != 0:
        run.fail("layers.py", [f"exit code {code}"], err)
        raise SystemExit(1)
    layers = json.loads(out)
    metrics = {k: (v["value"], v["unit"]) for k, v in layers["metrics"].items()}
    metrics["cli.self_s"] = (sum_of_medians(cli_self), "s")
    metrics["cli.process_overhead_s"] = (sum_of_medians(process), "s")
    metrics["trace.overhead_s"] = (sum_of_medians(overhead), "s")

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    dump.write_text(json.dumps({"commands": [" ".join(a) for a in argvs],
                                "command_spans": spans,
                                "layer_spans": layers["spans"]}))
    info = {"trace_pairs": TRACE_PAIRS,
            "trace_overhead_s": {" ".join(a): statistics.median(d) for a, d in zip(argvs, overhead)},
            "layer_self_s": layer_self_times(spans), "spans_file": str(dump.relative_to(ROOT))}
    return metrics, info


def sum_of_medians(samples):
    """Sum over the commands of each command's median sample."""
    return sum(statistics.median(s) for s in samples)


def environment():
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def main():
    ap = argparse.ArgumentParser(description="trianglecf benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "trianglecf" / "__init__.py").is_file():
        raise SystemExit(f"no trianglecf sources under {SRC}")
    workload = WORKLOADS[args.workload]
    run = Run(OutputChecker(ROOT))
    if args.trace:
        metrics, info = trace(workload, args.seed, run)
    else:
        metrics, info = measure(workload, args.seed, run, args.seconds)
    info.update(workload=workload.name, why=workload.why, seed=args.seed,
                env=environment(), schema_gap=OutputChecker.SCHEMA_GAP)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
