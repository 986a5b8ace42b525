#!/usr/bin/env python3
"""Builds the smbench package from source and runs one workload.

    python3 smbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build). Build output and the benchmark's report go to
stderr; the last line of stdout is the benchmark's JSON result. Exits
non-zero without a result if the build or the run fails.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Upper bound on one run, below the 180 s a run may take.
RUN_TIMEOUT_S = 170


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_NET_OFFLINE"] = "true"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("smbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "smbench")
    # Own process group, so a timeout also stops the worker processes the
    # benchmark launches.
    proc = subprocess.Popen([binary] + sys.argv[1:], env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("smbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
