#!/usr/bin/env python3
"""Build the fleet governing benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 fleetbench/run.py --workload sim_pool --seed 1 --seconds 10 --trace 0

The benchmark and the repository's libraries are compiled with CMake into
$CARGO_TARGET_DIR/fleetbench (default .bench_build/fleetbench); build output
goes to stderr. Every other argument is handed to the fleet_bench program,
whose last stdout line is the JSON result. Run files (replay recording, CSV
telemetry, spans, result JSON) land in <build dir>/fleetbench-out.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("fleetbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id():
    """The git commit when the checkout has one, else a digest of the
    sources the benchmark builds from."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                 os.path.basename(HERE)],
                capture_output=True, text=True).stdout.strip()
            return "git:" + out.stdout.strip() + ("+dirty" if dirty else "")
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def build(build_root):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt next to %s: not a PPEP source checkout"
             % os.path.basename(HERE))
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH")
    build_dir = os.path.join(build_root, "fleetbench")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if step.returncode != 0:
            fail("cmake configure failed")
    step = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fleet_bench",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if step.returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "fleet_bench")


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    binary = build(os.path.abspath(build_root))
    out_dir = os.path.join(os.path.abspath(build_root), "fleetbench-out")
    cmd = [binary] + sys.argv[1:] + ["--out-dir", out_dir,
                                     "--source-id", source_id()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
