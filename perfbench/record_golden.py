"""Record the golden output digests: exit code and SHA-256 of stdout of
every workload command for seeds 0..N-1, on the current code.

Run it only on a commit whose CLI output is known to be right; the
benchmark then requires byte-identical output for these seeds.

Usage, from the root of a checkout: python3 perfbench/record_golden.py --seeds 20
"""

from __future__ import annotations

import argparse
import json

from run import run_cli
from workloads import GOLDEN_PATH, WORKLOADS, command_key, digest


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, required=True)
    args = ap.parse_args()
    digests = {}
    for seed in range(args.seeds):
        for workload in WORKLOADS.values():
            for argv in workload.argvs(seed):
                key = command_key(argv)
                if key in digests:
                    continue
                _, code, out, err = run_cli(argv)
                if code != 0:
                    raise SystemExit(f"{key} exited {code}:\n{err.decode()}")
                digests[key] = {"exit": code, "sha256": digest(out)}
        print(f"seed {seed}: {len(digests)} commands so far", flush=True)
    GOLDEN_PATH.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
