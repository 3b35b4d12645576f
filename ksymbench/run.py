#!/usr/bin/env python3
"""Builds ksym_bench from the sources of this checkout and runs one workload.

    python3 ksymbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); the first run configures and compiles a Release
build, later runs only check it is current. Each run works in its own
directory under the build directory and removes it at the end; traced runs
leave their span dump beside it. The last line of stdout is the result
object ksym_bench prints. See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("publish", "serve_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no ksym sources under {ROOT}/src; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(ROOT, build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4",
                  "--target", "ksym_bench"])
    for step in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(ROOT, build_dir, "ksym_bench")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "ksymbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.relpath(os.path.join(ROOT, target), ROOT)
    binary = build(os.path.join(target, "cmake"))

    # A short path relative to the checkout root keeps the daemon's socket
    # path inside the unix-socket length limit.
    workdir = os.path.join(target, "runs",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--commit", source_id()]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ksym_bench did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    if proc.returncode != 0:
        fail(f"ksym_bench exited with code {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith('{"correct"'):
        fail("ksym_bench printed no result line")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
