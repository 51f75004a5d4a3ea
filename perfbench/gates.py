#!/usr/bin/env python3
"""Shows that the benchmark's own checks gate.

Usage, from the repository root:

    python3 perfbench/gates.py [--workload multi-resource] [--seed 1]

Runs the `BENCHMARK.json` command five times, one second each:

* clean, untraced and traced: must exit 0 with `"correct": true`;
* `--inject digest` (a result perturbed between passes), `--inject cap`
  (one cell run under a tiny cycle cap) and `--inject replay --trace 1`
  (one recorded fill cycle perturbed before the memory replay): each
  must exit non-zero with `"correct": false`.

Then it copies only `BENCHMARK.json` and the benchmark's `paths` into a
scratch directory and requires the command to fail there without
printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

SCRATCH = ".perfbench_tmp/gates"


def run(cmd, cwd="."):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="multi-resource")
    ap.add_argument("--seed", default="1")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    base = bench["command"] + ["--workload", args.workload, "--seed", args.seed, "--seconds", "1"]
    cases = [
        ("clean", ["--trace", "0"], True),
        ("clean traced", ["--trace", "1"], True),
        ("perturbed digest", ["--trace", "0", "--inject", "digest"], False),
        ("capped cell", ["--trace", "0", "--inject", "cap"], False),
        ("perturbed replay event", ["--trace", "1", "--inject", "replay"], False),
    ]
    ok = True
    for name, extra, should_pass in cases:
        code, result = run(base + extra)
        passed = code == 0 and result is not None and result["correct"]
        failed_cleanly = code != 0 and result is not None and not result["correct"]
        good = passed if should_pass else failed_cleanly
        ok &= good
        verdict = "passes" if passed else "fails"
        print(f"{'ok ' if good else 'BAD'} {name:24} {verdict} (exit {code}, "
              f"attempted {result and result['attempted']}, failed {result and result['failed']})")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    shutil.copy("BENCHMARK.json", SCRATCH)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(SCRATCH, path), ignore=shutil.ignore_patterns("target"))
    code, result = run(bench["command"] + ["--workload", args.workload, "--seed", args.seed,
                                           "--seconds", "1", "--trace", "0"], cwd=SCRATCH)
    good = code != 0 and result is None
    ok &= good
    print(f"{'ok ' if good else 'BAD'} {'benchmark files alone':24} exit {code}, result {result}")
    shutil.rmtree(".perfbench_tmp", ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
