#!/usr/bin/env python3
"""Build the benchmark harness and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/nestbench.exe and the
nestsql CLI (server_hot starts `nestsql serve`) with dune, then runs the
harness, whose last line of standard output is the JSON result.  Build
output goes to standard error.  Exits non-zero, printing no result, when
the directory is not a buildable checkout or the run fails.
"""

import os
import signal
import subprocess
import sys

HARNESS = "_build/default/perfbench/nestbench.exe"
NESTSQL = "_build/default/bin/nestsql.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def pin_to_one_cpu():
    """Run the harness, and the server it starts, on one CPU.

    Cores of a shared host can run at different speeds at the same time;
    on one CPU the harness's calibration kernel times the core that does
    the work.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as e:
        print("perfbench: running unpinned: %s" % e, file=sys.stderr)


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    if not (os.path.isfile("dune-project") and os.path.isfile("bin/nestsql.ml")):
        print("perfbench: %s is not a nestopt checkout" % root, file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/nestbench.exe",
             "./bin/nestsql.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [HARNESS] + sys.argv[1:] + ["--nestsql", NESTSQL, "--work", ".bench_work"]
    pin_to_one_cpu()
    # Own process group, so a run that overstays takes the server it
    # started down with it.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
