#!/usr/bin/env python3
"""Paper-scale pipeline benchmark: build pipebench, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload structural_paper --seed 1 \
        --seconds 10 --trace 0

Workloads: structural_paper, temporal_paper, kk_candidates,
conventional_paper, serve_mixed (see perfbench/README.md); "all" runs
each in its own process and ends with a summary table. The first run
configures and builds perfbench/ (which pulls in ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the exit code is 0
only when every output check passed.

--cross-check re-runs a batch pipeline on one lane and requires the same
output fingerprint even when the seed has a stored reference (used to
establish perfbench/reference.json); seeds without one get this check
anyway.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("structural_paper", "temporal_paper", "kk_candidates",
             "conventional_paper", "serve_mixed")
# A run is stopped (and fails) if it outlives this.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds pipebench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tnmine sources next to perfbench/ "
                 "(expected src/CMakeLists.txt)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "pipebench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cross-check", action="store_true")
    args = parser.parse_args()

    os.chdir(ROOT)
    # Relative paths keep the server's unix socket path short.
    build_dir = os.path.relpath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.workload != "all":
        return run_workload(binary, build_dir, args.workload, args)
    # Every workload in its own process (so peak RSS is per workload),
    # then one summary table; non-zero exit if any check failed.
    summary = []
    worst = 0
    for workload in WORKLOADS:
        code = run_workload(binary, build_dir, workload, args,
                            summary=summary)
        worst = worst or code
    print("\nsummary (seed %d, trace %d):" % (args.seed, args.trace))
    for workload, result in summary:
        print(f"  {workload:20s} correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"    {name:26s} {metric['value']:16.6f} {metric['unit']}")
    return worst


def run_workload(binary, build_dir, workload, args, summary=None):
    """Runs one workload in its own process; returns its exit code."""
    work_dir = os.path.join(build_dir, "work", workload)
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", work_dir,
               "--reference", os.path.join(HERE, "reference.json"),
               "--cross-check", "1" if args.cross_check else "0"]
    sys.stdout.flush()
    capture = subprocess.PIPE if summary is not None else None
    with subprocess.Popen(command, stdout=capture, text=True) as child:
        try:
            out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 3
    if summary is not None:
        print(out, end="")
        lines = out.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            summary.append((workload, json.loads(lines[-1])))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
