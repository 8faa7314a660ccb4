#!/usr/bin/env python3
"""Crash-recovery torture for sociolearnd.

The contract under test (DESIGN.md "Failure model and recovery
guarantees"): no matter how the service is interrupted — killed mid-sweep,
I/O faults injected at every store edge, broken client sockets, SIGTERM,
even bit rot in the store — a resubmission against a clean daemon converges
to the exact store bytes an undisturbed run produces, and `fsck` comes back
clean.

Each seeded cycle picks a fault from the menu, runs a sweep against a
daemon configured with that fault, then recovers: a clean daemon, a client
resubmission (with retries), and an assertion that the job finishes `done`
with every point accounted for.  The same store directory lives through
all cycles, so later cycles resume over earlier cycles' objects exactly
like a long-lived deployment.  At the end the store must be byte-identical
to a reference store produced by an undisturbed daemon, and fsck must
report it clean.

Usage:
    python3 tools/service_torture.py --build-dir build --cycles 25 --seed 1

Exit status 0 only if every cycle recovered and the final store matches
the reference byte for byte.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

FAULTS = [
    "kill_after_points",   # daemon _Exit()s right after the Nth computed point
    "store_fault",         # one store I/O edge throws on the Kth hit
    "bernoulli_fsync",     # every fsync fails with probability p (seeded)
    "queue_point",         # point delivery itself throws mid-sweep
    "socket_write_fail",   # the daemon's reply socket breaks mid-stream
    "sigterm_drain",       # SIGTERM lands mid-sweep; daemon must drain, exit 0
    "bit_rot",             # one stored object is corrupted; fsck must repair
    "client_retry",        # the client's first connect fails; retries recover
]

STORE_SITES = ["store.tmp_open", "store.write", "store.fsync", "store.rename"]


class Daemon:
    """One sociolearnd process; waits for the ready line on start."""

    def __init__(self, binary, socket_path, store, env_extra=None):
        self.socket_path = socket_path
        self.log = tempfile.NamedTemporaryFile(
            mode="w+", prefix="sociolearnd_", suffix=".log", delete=False)
        env = dict(os.environ)
        env.pop("SGL_FAILPOINTS", None)
        if env_extra:
            env.update(env_extra)
        self.proc = subprocess.Popen(
            [binary, "--socket", socket_path, "--store", store],
            stdout=self.log, stderr=self.log, env=env)
        deadline = time.time() + 15
        while time.time() < deadline:
            self.log.flush()
            with open(self.log.name) as f:
                if '"event":"ready"' in f.read():
                    return
            if self.proc.poll() is not None:
                break
            time.sleep(0.05)
        raise RuntimeError(f"daemon never became ready; log:\n{self.read_log()}")

    def read_log(self):
        with open(self.log.name) as f:
            return f.read()

    def stop(self, expect_clean=True):
        """SIGTERM + wait; returns the exit status."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            status = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise RuntimeError(f"daemon did not drain; log:\n{self.read_log()}")
        if expect_clean and status != 0:
            raise RuntimeError(
                f"daemon exited {status}, expected 0; log:\n{self.read_log()}")
        return status

    def wait(self, timeout=60):
        return self.proc.wait(timeout=timeout)


def submit(cli, socket_path, seed, retries=0, env_extra=None, check=False):
    """One sweep submission; returns (returncode, parsed JSONL events)."""
    env = dict(os.environ)
    env.pop("SGL_FAILPOINTS", None)
    if env_extra:
        env.update(env_extra)
    cmd = [
        cli, "submit", "--socket", socket_path,
        "--name", "quickstart", "--sweep", "params.beta=0.6,0.65,0.7",
        "--horizon", "50", "--reps", "8", "--seed", str(seed),
        "--retries", str(retries), "--retry-base-ms", "20",
    ]
    result = subprocess.run(cmd, capture_output=True, text=True, env=env,
                            timeout=120)
    events = []
    for line in result.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                pass
    if check and result.returncode != 0:
        raise RuntimeError(
            f"submit (seed {seed}) failed rc={result.returncode}\n"
            f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}")
    return result.returncode, events


def assert_recovered(events, seed, context):
    done = [e for e in events if e.get("event") == "job_done"]
    if not done or done[-1].get("status") != "done":
        raise RuntimeError(f"{context}: recovery submit (seed {seed}) did not "
                           f"finish done: {done}")
    total = done[-1]["computed"] + done[-1]["cached"]
    if done[-1]["total"] != total or done[-1]["total"] != 3:
        raise RuntimeError(f"{context}: points unaccounted for: {done[-1]}")


def store_objects(store):
    """Map of store-relative object path -> raw bytes."""
    objects = {}
    root = os.path.join(store, "objects")
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                objects[os.path.relpath(path, root)] = f.read()
    return objects


def run_fsck(cli, store, repair=False):
    cmd = [cli, "fsck", "--store", store] + (["--repair"] if repair else [])
    return subprocess.run(cmd, capture_output=True, text=True, timeout=60)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--cycles", type=int, default=25)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directory for inspection")
    args = parser.parse_args()

    daemon_bin = os.path.join(args.build_dir, "sociolearnd")
    cli = os.path.join(args.build_dir, "sociolearn_cli")
    for binary in (daemon_bin, cli):
        if not os.path.exists(binary):
            print(f"torture: missing binary {binary}", file=sys.stderr)
            return 2

    workdir = args.workdir or tempfile.mkdtemp(prefix="sgl_torture_")
    os.makedirs(workdir, exist_ok=True)
    ref_store = os.path.join(workdir, "reference_store")
    store = os.path.join(workdir, "torture_store")
    sock = os.path.join(workdir, "sgl.sock")
    rng = random.Random(args.seed)
    # One per-cycle sweep seed: every cycle computes fresh points, so the
    # injected faults always have real work to interrupt, and the store
    # accumulates across cycles like a long-lived deployment.
    cycle_seeds = [rng.randrange(1, 10**9) for _ in range(args.cycles)]

    # Reference: every cycle's sweep, one undisturbed daemon, no faults.
    print(f"torture: reference run ({args.cycles} sweeps)", flush=True)
    daemon = Daemon(daemon_bin, sock, ref_store)
    for seed in cycle_seeds:
        _rc, events = submit(cli, sock, seed, check=True)
        assert_recovered(events, seed, "reference")
    daemon.stop()
    reference = store_objects(ref_store)

    failures = 0
    for cycle, seed in enumerate(cycle_seeds):
        fault = FAULTS[rng.randrange(len(FAULTS))]
        print(f"torture: cycle {cycle + 1}/{args.cycles}: {fault} "
              f"(sweep seed {seed})", flush=True)
        try:
            if fault == "kill_after_points":
                n = rng.randrange(1, 3)
                daemon = Daemon(daemon_bin, sock, store,
                                env_extra={"SGL_FAILPOINTS": f"daemon.point_computed={n}"})
                submit(cli, sock, seed)     # dies mid-stream with the daemon
                daemon.wait()               # _Exit(0) after the Nth point
            elif fault == "store_fault":
                site = STORE_SITES[rng.randrange(len(STORE_SITES))]
                hit = rng.randrange(1, 4)
                daemon = Daemon(daemon_bin, sock, store,
                                env_extra={"SGL_FAILPOINTS": f"{site}={hit}"})
                submit(cli, sock, seed)     # job fails; daemon survives
                daemon.stop()
            elif fault == "bernoulli_fsync":
                spec = f"store.fsync=p=0.5@{rng.randrange(1 << 31)}"
                daemon = Daemon(daemon_bin, sock, store,
                                env_extra={"SGL_FAILPOINTS": spec})
                submit(cli, sock, seed)
                daemon.stop()
            elif fault == "queue_point":
                hit = rng.randrange(1, 4)
                daemon = Daemon(daemon_bin, sock, store,
                                env_extra={"SGL_FAILPOINTS": f"queue.point={hit}"})
                submit(cli, sock, seed)
                daemon.stop()
            elif fault == "socket_write_fail":
                hit = rng.randrange(2, 5)
                daemon = Daemon(daemon_bin, sock, store,
                                env_extra={"SGL_FAILPOINTS": f"socket.write_fail={hit}"})
                submit(cli, sock, seed)     # reply stream breaks; jobs cancelled
                daemon.stop()
            elif fault == "sigterm_drain":
                daemon = Daemon(daemon_bin, sock, store)
                with subprocess.Popen(
                        [cli, "submit", "--socket", sock, "--name", "quickstart",
                         "--sweep", "params.beta=0.6,0.65,0.7", "--horizon", "50",
                         "--reps", "8", "--seed", str(seed)],
                        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as client:
                    time.sleep(rng.uniform(0.02, 0.25))
                    daemon.stop(expect_clean=True)  # must drain and exit 0
                    client.wait(timeout=30)
                if "drain" not in daemon.read_log():
                    raise RuntimeError("SIGTERM did not take the drain path:\n"
                                       + daemon.read_log())
            elif fault == "bit_rot":
                # Ensure there is an object to rot, then flip one byte of a
                # seeded victim.  fsck must see it; --repair must clear it.
                daemon = Daemon(daemon_bin, sock, store)
                _rc, events = submit(cli, sock, seed, check=True)
                assert_recovered(events, seed, "bit_rot pre-fill")
                daemon.stop()
                # Rot one of THIS sweep's objects (the recovery submit below
                # is what must recompute it); the digests came back in
                # job_accepted.
                accepted = next(e for e in events if e.get("event") == "job_accepted")
                digest = accepted["digests"][rng.randrange(len(accepted["digests"]))]
                victim = os.path.join(store, "objects", digest[:2], digest + ".json")
                with open(victim, "r+b") as f:
                    data = bytearray(f.read())
                    data[rng.randrange(len(data))] ^= 0x40
                    f.seek(0)
                    f.write(data)
                if run_fsck(cli, store).returncode == 0:
                    raise RuntimeError(f"fsck missed the corrupted {victim}")
                repair = run_fsck(cli, store, repair=True)
                if run_fsck(cli, store).returncode != 0:
                    raise RuntimeError(
                        f"fsck --repair left a dirty store:\n{repair.stdout}")
            elif fault == "client_retry":
                # The daemon is healthy; the CLIENT's first connect is the
                # injected failure, and its retry/backoff loop must recover
                # within the same invocation.
                daemon = Daemon(daemon_bin, sock, store)
                _rc, events = submit(cli, sock, seed, retries=3,
                                     env_extra={"SGL_FAILPOINTS": "socket.connect=1"},
                                     check=True)
                assert_recovered(events, seed, "client_retry")
                daemon.stop()

            # Recovery: a clean daemon, a retried resubmission, and every
            # point present (recomputed or cached — the digests decide).
            daemon = Daemon(daemon_bin, sock, store)
            _rc, events = submit(cli, sock, seed, retries=4, check=True)
            assert_recovered(events, seed, f"cycle {cycle + 1} ({fault})")
            daemon.stop()
        except Exception as error:  # noqa: BLE001 - report and count every shape
            print(f"torture: cycle {cycle + 1} FAILED ({fault}): {error}",
                  file=sys.stderr, flush=True)
            failures += 1

    # Post-conditions: the surviving store is clean and byte-identical to
    # the undisturbed reference.
    fsck = run_fsck(cli, store)
    if fsck.returncode != 0:
        print(f"torture: final fsck not clean:\n{fsck.stdout}", file=sys.stderr)
        failures += 1
    final = store_objects(store)
    if final != reference:
        only_ref = sorted(set(reference) - set(final))
        only_final = sorted(set(final) - set(reference))
        differing = sorted(k for k in set(reference) & set(final)
                           if reference[k] != final[k])
        print(f"torture: store diverged from reference: "
              f"missing={only_ref[:5]} extra={only_final[:5]} "
              f"differing={differing[:5]}", file=sys.stderr)
        failures += 1

    if failures == 0:
        print(f"torture: {args.cycles} cycles recovered; store byte-identical "
              f"to reference ({len(final)} objects); fsck clean")
    if not args.keep and args.workdir is None:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
