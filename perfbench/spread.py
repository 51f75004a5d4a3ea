#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--json OUT]

For every workload it runs the `BENCHMARK.json` command with
`--workload W --seed S --seconds <run_seconds> --trace T` once per seed,
then prints, per metric, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`), and the spread: the distance
between the quartiles as a share of the median, next to the metric's
bound. `--json` also writes every run's metrics and the summary.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--json")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER")
            print(f"  {workload:15} {name:28} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
                  f"spread {spread:7.4f} bound {bound} {flag}")
        out[workload] = {"runs": runs, "summary": summary}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(out, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
