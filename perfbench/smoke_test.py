#!/usr/bin/env python3
"""The benchmark's own test: every workload at toy size, untraced and traced.

    python3 perfbench/smoke_test.py

Fails when BENCHMARK.json breaks its format, when a run exits non-zero or
fails an output check, or when a run's metrics are not exactly the
end-to-end (untraced) or per-layer (traced) metrics BENCHMARK.json names,
with the same units.  Also checks that run.py refuses to run, without a
result line, from a directory holding only BENCHMARK.json and perfbench/.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: " + what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60 and int(spec["run_seconds"]) == spec["run_seconds"],
          "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for workload in spec["workloads"]:
        check(set(workload) == {"name", "why"}, "workload keys")
        check(len(workload["why"]) <= 200 and "\n" not in workload["why"],
              "why of " + workload["name"])
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        check(set(metric) == {"name", "unit", "better", "bound"}, "end_to_end keys")
        check(0 < metric["bound"] <= 0.25, "bound of " + metric["name"])
    for metric in spec["per_layer"]:
        check(set(metric) == {"name", "unit", "better"}, "per_layer keys")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        check(UNIT.match(metric["unit"]) is not None, "unit of " + metric["name"])
        check(metric["better"] in ("lower", "higher"), "better of " + metric["name"])
        names.append(metric["name"])
    check(all(NAME.match(name) for name in names), "names match the allowed form")
    check(len(names) == len(set(names)), "names are unique")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
          "setup_s present")
    check(setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")


def run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900)


def check_run(workload, trace, expected):
    label = "%s trace=%d" % (workload, trace)
    out = run(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--size", "toy"], ROOT)
    check(out.returncode == 0, label + " exit code %d: %s" % (out.returncode, out.stderr[-1500:]))
    try:
        result = json.loads(out.stdout.strip().split("\n")[-1])
    except ValueError:
        check(False, label + " printed no result line")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, label + " result keys")
    check(result.get("correct") is True, label + " output checks")
    check(result.get("attempted", 0) >= 1 and result.get("failed") == 0, label + " op counts")
    metrics = result.get("metrics", {})
    check(set(metrics) == set(expected),
          label + " metric names: missing %s, extra %s" % (
              sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        if name in metrics:
            check(metrics[name].get("unit") == unit, label + " unit of " + name)
            check(isinstance(metrics[name].get("value"), (int, float)), label + " value of " + name)
    if trace:
        check("layer" in out.stdout and "self_s" in out.stdout, label + " layer table")


def check_refuses_without_sources(build_dir):
    bare = os.path.join(build_dir, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(["--workload", "mixed_sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    last = out.stdout.strip().split("\n")[-1] if out.stdout.strip() else ""
    check(out.returncode != 0 and not last.startswith("{"),
          "run.py without program sources must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)


def load_run_py():
    loader = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    check_spec(spec)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # Every workload run.py accepts, including those BENCHMARK.json leaves
    # out of the gate (ba_sweep: too unsteady on a 4-core shared host).
    run_py = load_run_py()
    names = [w["name"] for w in spec["workloads"]]
    names += [name for name in run_py.WORKLOADS if name not in names]
    for name in names:
        for trace in (0, 1):
            check_run(name, trace, per_layer if trace else end_to_end)
            print("ok: %s trace=%d" % (name, trace))
    check_refuses_without_sources(run_py.build_root())
    if failures:
        print("%d smoke check(s) failed" % len(failures))
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
