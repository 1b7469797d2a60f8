#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wan-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both runs

One workload per process, so its peak heap is its own. The last line of
standard output is the result object; the lines before it are the
program's report. `--workload all` runs each workload untraced and traced
in its own process and prints every metric in a table; it exits non-zero
if any output check failed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["wan-cold", "dc-certified", "ft-churn"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "dune"))


def exe():
    return os.path.join(build_dir(), "default", "perfbench", "bonsai_bench.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: dune-project or lib/ missing; run from the root of a full checkout")
    os.makedirs(build_dir(), exist_ok=True)
    env = dict(os.environ)
    # keep dune's own state inside the checkout
    env["XDG_CACHE_HOME"] = os.path.join(build_dir(), "cache")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--profile", "release",
           "--build-dir", build_dir(), "./perfbench/bonsai_bench.exe"]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          timeout=BUILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def command(workload, seed, seconds, trace):
    cmd = [exe(), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        cmd += ["--trace-out", os.path.join(build_dir(), f"trace-{workload}-{seed}.json")]
    return cmd


def run_one(args):
    done = subprocess.run(command(args.workload, args.seed, args.seconds, args.trace),
                          timeout=RUN_TIMEOUT_S)
    return done.returncode


def run_all(args):
    ok = True
    rows = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(command(workload, args.seed, args.seconds, trace),
                                  stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            report = [l for l in lines[:-1] if not l.startswith("  ")]
            print(f"== {workload} ({'traced' if trace else 'untraced'})")
            for line in report:
                print("   " + line)
            if done.returncode != 0 or not lines:
                print("   run failed")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"   correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, m in result["metrics"].items():
                rows.append((workload, trace, name, m["value"], m["unit"]))
    print()
    print(f"{'workload':<14} {'run':<9} {'metric':<30} {'value':>22} unit")
    for workload, trace, name, value, unit in rows:
        print(f"{workload:<14} {'traced' if trace else 'untraced':<9} {name:<30} "
              f"{value:>22.10g} {unit}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()
    sys.exit(run_all(args) if args.workload == "all" else run_one(args))


if __name__ == "__main__":
    main()
