#!/usr/bin/env python3
"""Establishes perfbench/reference.json: per-seed output fingerprints.

Usage (from the repository root):

    python3 perfbench/make_reference.py --seeds 0-20 [--workloads a,b]

For every batch workload and seed it runs perfbench/run.py with
--cross-check, which mines at the pinned lane count and once more on a
single lane; a fingerprint is recorded only when both agree (and the
workload's other checks pass). A workload whose fingerprint is the same
for every seed run (two or more) is recorded once, as "<workload>/*", which also
covers seeds never run: its output does not depend on the row order the
seed draws.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BATCH = ("structural_paper", "temporal_paper", "kk_candidates",
         "conventional_paper")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def fingerprint(workload, seed):
    """Returns the agreed fingerprint, or None (with the reason printed)."""
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--cross-check"],
        cwd=ROOT, capture_output=True, text=True)
    found = re.search(r"^fingerprint (\S+)", run.stdout, re.M)
    agree = re.search(r"^cross-check: .* -> agree$", run.stdout, re.M)
    failures = [line for line in run.stdout.splitlines()
                if line.startswith("CHECK FAILED") and "reference" not in line]
    if not found or not agree or failures:
        print(f"{workload}/{seed}: not recorded\n{run.stdout[-2000:]}"
              f"{run.stderr[-2000:]}", file=sys.stderr)
        return None
    return found.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-20 or 1,5,9")
    parser.add_argument("--workloads", default=",".join(BATCH))
    args = parser.parse_args()
    path = os.path.join(HERE, "reference.json")
    reference = {}
    if os.path.exists(path):
        with open(path) as f:
            reference = json.load(f)
    for workload in args.workloads.split(","):
        seen = {}
        for seed in parse_seeds(args.seeds):
            value = fingerprint(workload, seed)
            if value is None:
                return 1
            print(f"{workload}/{seed}: {value}", flush=True)
            seen[f"{workload}/{seed}"] = value
        if len(seen) > 1 and len(set(seen.values())) == 1:
            seen = {f"{workload}/*": value}
        reference = {k: v for k, v in reference.items()
                     if not k.startswith(workload + "/")}
        reference.update(seen)
    with open(path, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
