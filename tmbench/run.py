#!/usr/bin/env python3
"""Builds the five-TM benchmark from source and runs one workload.

Usage (from the repository root):
    python3 tmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is compiled from the repository's own src/CMakeLists.txt into
.bench_build/tmbench (configured on first use, rebuilt incrementally after
that); build output goes to standard error. The benchmark binary's standard
output is passed through, so the last line printed is its JSON result.
Exits 2 on bad arguments or a failed build, without printing a result.
"""
import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("hashmap-update-skewed", "abtree-read-mostly", "abtree-mixed-serial")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tmbench")


def die(msg):
    print("tmbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def revision():
    """The git revision of the checkout, with "+modified" when src/ differs
    from it, or "none" outside a git checkout."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode != 0 or not rev.stdout.strip():
            return "none"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src"],
                               capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() + ("+modified" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "none"


def sources_digest():
    """A digest of what a run depends on: src/ and the benchmark's build file,
    driver and program. The README and the self-tests are left out, so the
    digest a run prints can be quoted in the README."""
    h = hashlib.sha256()
    files = [os.path.join(HERE, f) for f in ("CMakeLists.txt", "run.py", "tmbench.cpp")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for p in files:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as fh:
            h.update(fh.read())
    return "sha256:" + h.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found (expected src/CMakeLists.txt beside tmbench/)")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "tmbench", "-j", "3"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.SubprocessError) as e:
            die("build step failed: %s: %s" % (" ".join(cmd), e))
        if r.returncode != 0:
            die("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "tmbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--rounds", type=int, help="fixed round count (ignores --seconds)")
    ap.add_argument("--nonpersistent-hw", action="store_true",
                    help="durability self-test: NV-HALT alone, persist_hw_txns=false, "
                         "no adversarial write-back")
    try:
        a = ap.parse_args()
    except SystemExit:
        sys.exit(2)
    if a.seed < 0 or not 1 <= a.seconds <= 600:
        die("--seed must be >= 0 and --seconds in [1, 600]")
    exe = build()
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--revision", revision(), "--sources", sources_digest()]
    if a.rounds is not None:
        cmd += ["--rounds", str(a.rounds)]
    if a.nonpersistent_hw:
        cmd.append("--nonpersistent-hw")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
