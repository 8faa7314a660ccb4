#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs one workload once per seed (untraced, run_seconds from
BENCHMARK.json unless --seconds is given) and prints, for every
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4)
and the quartile distance as a share of the median, next to the metric's
bound and a third of it:

    python3 perfbench/spread.py --workload ba_sweep --seeds 10 > set1.txt

With --compare it reads two such outputs (two sets of runs of the same
code) and prints, per metric, both medians and how much worse the second
is than the first, as a share of the first, next to the bound:

    python3 perfbench/spread.py --compare set1.txt set2.txt
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def compare(spec, paths):
    sets = []
    for path in paths:
        with open(path) as text:
            sets.append(json.loads(text.read().strip().split("\n")[-1]))
    if sets[0]["workload"] != sets[1]["workload"]:
        sys.exit("the two sets are of different workloads")
    print("%s: %d and %d runs" % (sets[0]["workload"], *[len(s["values"]["setup_s"]) for s in sets]))
    print("%-22s %14s %14s %8s %7s  %s" % ("metric", "median 1", "median 2", "worse", "bound", "ok"))
    for metric in spec["end_to_end"]:
        first, second = (statistics.median(s["values"][metric["name"]]) for s in sets)
        change = (second - first) / first
        worse = change if metric["better"] == "lower" else -change
        print("%-22s %14.6g %14.6g %8.4f %7.3f  %s" % (
            metric["name"], first, second, worse, metric["bound"],
            "yes" if worse <= metric["bound"] else "NO"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--compare", nargs=2, metavar="OUTPUT")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    if args.compare:
        compare(spec, args.compare)
        return
    if not args.workload:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    values = {metric["name"]: [] for metric in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                              "--workload", args.workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
            sys.exit("seed %d failed" % seed)
        result = json.loads(out.stdout.strip().split("\n")[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d done" % seed, file=sys.stderr)

    print("%-22s %14s %14s %14s %8s %7s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "bound/3", "ok"))
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread < metric["bound"] / 3
        print("%-22s %14.6g %14.6g %14.6g %8.4f %7.3f %7.4f  %s" % (
            metric["name"], med, q1, q3, spread, metric["bound"], metric["bound"] / 3,
            "yes" if ok else "NO"))
    print(json.dumps({"workload": args.workload, "seconds": seconds, "values": values}))


if __name__ == "__main__":
    main()
