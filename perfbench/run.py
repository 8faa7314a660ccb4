#!/usr/bin/env python3
"""perfbench: the repository benchmark.

Builds the program and the driver from the checkout's sources (Release),
then runs one workload in a fresh work directory:

    python3 perfbench/run.py --workload mixed_sweep --seed 1 --seconds 20 --trace 0

Workloads: mixed_sweep, ba_sweep, service_mix (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and the layer table.  --size toy runs the smoke-test sizes.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is non-zero when an output check failed.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout, in perfbench-<hash of the checkout's path>/; results and traced
spans are kept under results/ there.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mixed_sweep", "ba_sweep", "service_mix")
TARGETS = ("perfbench_driver", "sociolearnd", "sociolearn_cli")
RUN_LIMIT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    """The build, run and result directory of this checkout.  It is keyed by
    the checkout's path, so that two checkouts sharing one target directory
    never build or report each other's sources."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(ROOT, target, "perfbench-" + key)


def build(build_dir):
    """Configures (once) and builds the targets; serialised by a lock."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", str(nproc()), "--target", *TARGETS])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed: " + " ".join(step), code=1)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git commit of the checkout, or "unknown" outside a repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def stop_group(process):
    """Kills whatever the driver left in its process group and reaps it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def main():
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no program sources next to perfbench/ (missing %s)" % needed)

    start = time.monotonic()
    root = build_root()
    build(root)
    # Write back what the build left dirty now, so that the writeback does
    # not compete with the service workload's fsyncs while it is measured.
    os.sync()
    revision = source_revision()

    work = os.path.join(root, "runs", "%s-s%d-t%d-%d" % (args.workload, args.seed, args.trace,
                                                         os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(root, "perfbench_driver"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--threads", str(nproc()),
               "--daemon", os.path.join(root, "sgl", "sociolearnd"),
               "--cli", os.path.join(root, "sgl", "sociolearn_cli")]
    limit = max(60.0, RUN_LIMIT_S - (time.monotonic() - start))
    process = subprocess.Popen(command, cwd=work, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        stop_group(process)
        shutil.rmtree(work, ignore_errors=True)
        fail("%s did not finish within %.0f s" % (args.workload, limit), code=1)
    stop_group(process)

    lines = stdout.rstrip("\n").split("\n") if stdout.strip() else []
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        shutil.rmtree(work, ignore_errors=True)
        fail("driver exited %d without a result" % process.returncode, code=1)

    meta = {}
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
        else:
            print(line)
    meta.update({"revision": revision,
                 "cmake_source_dir": cache_value(root, "CMAKE_HOME_DIRECTORY"),
                 "build_type": cache_value(root, "CMAKE_BUILD_TYPE"),
                 "compiler": cache_value(root, "CMAKE_CXX_COMPILER")})
    print("meta " + json.dumps(meta, sort_keys=True))

    results = os.path.join(root, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as record:
        json.dump({"meta": meta, "result": result}, record, indent=1)
    spans = os.path.join(work, "spans.jsonl")
    if os.path.exists(spans):
        shutil.move(spans, stem + ".spans.jsonl")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(result))
    ok = process.returncode == 0 and result["correct"] and result["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
