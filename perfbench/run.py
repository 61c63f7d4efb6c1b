#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload serve-uniform --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build). Build output goes to stderr; the benchmark's
stdout passes through, ending with the one-line JSON result. Exits
non-zero, printing no result, when the build or the run fails.

The serve workloads run pinned to one CPU. Their threads (client,
daemon, shards) hand every tick from one to the next; on a small shared
virtual machine, waking a thread on another, idle vCPU costs a varying
share of each tick, and that variation swamped the program's own time.
On one CPU a hand-off is a plain context switch. `repro-paper` is not
pinned: its trial fan-out keeps two threads busy.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def pin_serve_workloads(args) -> None:
    """Pins this process, and so the benchmark it starts, to one CPU when
    the workload is a serve workload."""
    for flag, value in zip(args, args[1:]):
        if flag == "--workload" and value.startswith("serve-"):
            os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "qdn-perfbench")
    pin_serve_workloads(sys.argv[1:])
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
