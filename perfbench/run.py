#!/usr/bin/env python3
"""The served-query benchmark: one workload against dqep_server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the engine's dqep_server and the
benchmark client (perfbench/CMakeLists.txt) into .bench_build/, then runs
the client, which starts the server with its default options on a unix
socket, drives it, checks every reply and prints a report whose last line
is the JSON result.  Workloads: warm_chains, cold_templates,
wide_bindings (see perfbench/WORKLOADS.md).  --trace 1 reports the
per-layer metrics instead of the end-to-end ones.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"
WORKDIR = os.path.join(BUILD, "run")
WORKLOADS = ("warm_chains", "cold_templates", "wide_bindings")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "tools/dqep_server.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(needed + " not found: run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_server", "perfbench_client"])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 1)


def reap(proc):
    """Kills whatever is left of the client's process group and waits."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build()
    os.makedirs(os.path.join(ROOT, WORKDIR), exist_ok=True)
    command = [os.path.join(BUILD, "perfbench_client"),
               "--server=" + os.path.join(BUILD, "perfbench_server"),
               "--workdir=" + WORKDIR,
               "--workload=" + args.workload,
               "--seed=%d" % args.seed,
               "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace]
    # Its own process group, so the server it starts is reaped with it.
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap(proc)
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    reap(proc)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("client exited with %d" % proc.returncode, 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
