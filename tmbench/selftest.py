#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 tmbench/selftest.py            # all three tests
    python3 tmbench/selftest.py smoke      # or: durability, determinism

smoke        every workload, untraced and traced, for one measured round:
             exits 0, reports correct with no failed operation, and prints
             exactly the metric names BENCHMARK.json lists.
durability   NV-HALT with persist_hw_txns=false on the hashmap, crashed with
             no adversarial write-back: the recovery checks must fail.
determinism  two traced runs of abtree-mixed-serial with one seed and a fixed
             round count give identical per-layer counts.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are times, not counts; they may differ run to run.
TIMED_SUFFIXES = ("stall_ticks_per_op", "model_ns_per_op", "_us", "recover_ms",
                  "serialized_frac")


def run(*args):
    cmd = [sys.executable, os.path.join(HERE, "run.py")] + [str(a) for a in args]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return r.returncode, result, r.stdout + r.stderr


def expect(cond, what, log=""):
    if not cond:
        print("FAIL: " + what)
        if log:
            print(log[-3000:])
        sys.exit(1)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, res, log = run("--workload", w["name"], "--seed", 3, "--seconds", 1,
                                 "--trace", trace)
            what = "%s trace=%d" % (w["name"], trace)
            expect(code == 0 and res is not None, what + ": exit %d" % code, log)
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   what + ": checks failed", log)
            got = set(res["metrics"])
            expect(got == names[trace], what + ": metric names differ: missing %s, extra %s"
                   % (sorted(names[trace] - got), sorted(got - names[trace])))
            print("ok   smoke %s (%d metrics)" % (what, len(got)))


def durability():
    code, res, log = run("--workload", "hashmap-update-skewed", "--seed", 5, "--seconds", 1,
                         "--trace", 0, "--rounds", 2, "--nonpersistent-hw")
    expect(res is not None, "durability: no result", log)
    expect(code != 0 and not res["correct"] and res["failed"] > 0,
           "durability: non-persistent hardware transactions were not caught", log)
    why = [l for l in log.splitlines() if "CHECK FAILED" in l]
    print("ok   durability: caught (%d failed of %d; %s)"
          % (res["failed"], res["attempted"], why[0][2:] if why else "no note"))


def determinism():
    results = []
    for _ in range(2):
        code, res, log = run("--workload", "abtree-mixed-serial", "--seed", 7, "--seconds", 1,
                             "--trace", 1, "--rounds", 3)
        expect(code == 0 and res is not None and res["correct"], "determinism: run failed", log)
        results.append({k: v["value"] for k, v in res["metrics"].items()
                        if not k.endswith(TIMED_SUFFIXES)})
    a, b = results
    diff = sorted(k for k in a if a[k] != b.get(k))
    expect(not diff, "determinism: counts differ: " +
           ", ".join("%s %r != %r" % (k, a[k], b.get(k)) for k in diff))
    print("ok   determinism: %d per-layer counts identical" % len(a))


TESTS = {"smoke": smoke, "durability": durability, "determinism": determinism}

if __name__ == "__main__":
    chosen = sys.argv[1:] or list(TESTS)
    for name in chosen:
        if name not in TESTS:
            print("unknown test %r; choose from %s" % (name, ", ".join(TESTS)))
            sys.exit(2)
        TESTS[name]()
    print("all passed")
