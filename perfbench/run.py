#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload static-mem --seed 1 --seconds 10 --trace 0

Run from the repository root. The library and the benchmark are built with
CMake into .bench_build/perfbench (Release); the static-mem index artifact
and trace files go to .bench_build/perfbench-data. The artifact is named by
a hash of the sources that shape it (ARTIFACT_SOURCES), so any change to
them builds a fresh one; artifacts of other versions are kept, so switching
back costs nothing. The first run in a fresh checkout builds the program
and the artifact, which takes several minutes; later runs reuse them.

The benchmark's own output ends with the one-line JSON result. Build
output goes to stderr, so that line stays the last line of stdout.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
WORKLOADS = ("static-mem", "serve-net", "dyn-churn")
# Everything the static-mem artifact depends on: the library (graph build,
# LVQ encoding, bundle format), the build flags and the generator.
ARTIFACT_SOURCES = ("src", "CMakeLists.txt", "perfbench/CMakeLists.txt",
                    "perfbench/gen.h", "perfbench/gen.cc",
                    "perfbench/static_mem.cc")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; fails loudly."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def artifact_key():
    """Hash of the paths and contents of ARTIFACT_SOURCES."""
    h = hashlib.sha256()
    for src in ARTIFACT_SOURCES:
        full = os.path.join(ROOT, src)
        files = [full]
        if os.path.isdir(full):
            files = sorted(os.path.join(d, f) for d, _, fs in os.walk(full)
                           for f in fs)
        for path in files:
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
            h.update(b"\0")
    return h.hexdigest()[:16]


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources not found next to perfbench/ (run from a "
             "full checkout)")
    env = dict(os.environ)
    env["CCACHE_DISABLE"] = "1"  # keep every build artifact in the checkout
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if subprocess.run(
            ["ninja", "--version"], stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode == 0 else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"] + gen, env)
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], env)
    os.makedirs(DATA, exist_ok=True)
    # The static-mem index is built once per version of its sources,
    # whichever workload runs first, so no later run pays for it.
    key = artifact_key()
    proc = subprocess.run([os.path.join(BUILD, "perfbench"), "--prepare",
                           "--work-dir", DATA, "--artifact-key", key],
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("could not build the static-mem index")
    return key


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    key = build()
    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--work-dir", DATA,
         "--artifact-key", key],
        cwd=ROOT, timeout=170)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
