#!/usr/bin/env python3
"""Builds and runs the tt-diag benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: campaign-live, explore, sweep, sweep-wide. With --trace 0 the
last line of standard output is the end-to-end result; with --trace 1 it is
the per-layer result of the traced run. Build output goes to standard
error. The build lands in $CARGO_TARGET_DIR (default .bench_build).
"""

import os
import signal
import subprocess
import sys

# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def git_revision():
    """The checked-out revision, or "unknown" outside a git checkout."""
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv):
    if "--trace" not in argv:
        print("perfbench: --trace 0|1 is required", file=sys.stderr)
        return 2
    traced = argv[argv.index("--trace") + 1 :][:1] == ["1"]
    if not os.path.isdir("crates") or not os.path.isfile("Cargo.toml"):
        print(
            "perfbench: run from the repository root; the library sources are missing",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--offline",
            "--release",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench-trace" if traced else "perfbench")
    env["PERFBENCH_GIT_REV"] = git_revision()
    # A process group of its own, so a timeout also stops what it started.
    proc = subprocess.Popen([binary] + argv, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
