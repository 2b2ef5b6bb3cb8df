#!/usr/bin/env python3
"""Builds the deepphi end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds the
library and the benchmark into .bench_build (or $CARGO_TARGET_DIR); later
calls only rebuild what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. Traces, the run ledger and
scratch shards go to .bench_out. See e2ebench/README.md.
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(3)


def source_id():
    """The commit when the checkout is a git work tree, else a content hash
    of the sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no deepphi sources next to the benchmark (expected src/)")
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                 "-DE2EBENCH_BUILD_TESTS=OFF"]
    if (not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt"))
            and shutil.which("ninja")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "e2ebench")
    if not os.path.isfile(binary):
        fail("build produced no e2ebench binary")
    return binary


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    # One OpenMP thread for every thread that does not size its own team:
    # the serving pool computes each batch on one core and overlaps batches
    # across its workers. Training sets its team sizes explicitly (nproc, or
    # nproc / replicas per replica). See README.md, "Noise".
    env = dict(os.environ, E2EBENCH_COMMIT=source_id(), OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            [binary] + sys.argv[1:] + ["--out-dir", ".bench_out"], cwd=ROOT,
            env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
