#!/usr/bin/env python3
"""Builds and runs the SCFS end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <largefile|metadata|sharing> \
        --seed <n> --seconds <s> --trace <0|1> [--scale-factor <x>]

The benchmark program (perfbench/src) is compiled together with the
checkout's own src/ into the build directory named by CARGO_TARGET_DIR (default
.bench_build), so the program measured is always the checkout's. Everything
the run writes stays inside the checkout: the build, the agents' disk caches
(TMPDIR points into the build directory) and, for --trace 1, the span dumps.

The last line of standard output is the program's JSON result. A failed build
or run exits non-zero without printing one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir, env):
    src_dir = os.path.join(ROOT, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", src_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
        if configure.returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    made = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target",
         "scfs_perfbench"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if made.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "scfs_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale-factor", type=float, default=1.0)
    args = parser.parse_args()

    for needed in ("src/scfs/deployment.h", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"run from the root of an SCFS checkout ({needed} missing)")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.join(ROOT, target), "perfbench")
    scratch = os.path.join(build_dir, "run", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env = dict(os.environ)
    # Compiler temporaries and the agents' level-1 disk caches (written by
    # StorageService without fsync) live inside the checkout.
    env["TMPDIR"] = scratch
    # Two malloc arenas instead of glibc's default of up to 8 per core: the
    # program's many executor threads otherwise spread MiB-sized buffers
    # over per-thread arenas whose high-water marks depend on which threads
    # ran which task, and peak RSS moved up to 14% between runs.
    run_env = dict(env, MALLOC_ARENA_MAX="2")
    try:
        binary = build(build_dir, env)
        command = [binary, "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--scale-factor", str(args.scale_factor)]
        if args.trace:
            spans = os.path.join(build_dir, "spans")
            os.makedirs(spans, exist_ok=True)
            command += ["--spans-out",
                        os.path.join(spans, f"{args.workload}-{args.seed}")]
        try:
            run = subprocess.run(command, stdout=subprocess.PIPE,
                                 stderr=sys.stderr, env=run_env, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        lines = run.stdout.rstrip("\n").split("\n")
        if run.returncode != 0:
            sys.stderr.write(run.stdout)
            fail(f"benchmark program exited with {run.returncode}")
        try:
            result = json.loads(lines[-1])
        except (ValueError, IndexError):
            sys.stderr.write(run.stdout)
            fail("benchmark program printed no result")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("malformed result")
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main()
