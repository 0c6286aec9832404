#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 hoyanbench/run.py --workload change-cold --seed 1 --seconds 30 --trace 0
    python3 hoyanbench/run.py --selftest

Run from anywhere; the build tree is .bench_build/hoyanbench under the
repository root, reconfigured and rebuilt incrementally on every call. Build
output goes to stderr, so the benchmark's last stdout line stays its JSON
result. The metric names in that result are checked against BENCHMARK.json.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hoyanbench")
RUN_TIMEOUT_S = 175


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    build()
    if argv[:1] == ["--selftest"]:
        binary = os.path.join(BUILD, "hoyan_perfbench_selftest")
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode
    binary = os.path.join(BUILD, "hoyan_perfbench")
    proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    trace = "--trace" in argv and argv[argv.index("--trace") + 1] != "0"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    got, want = set(result["metrics"]), expected_metrics(trace)
    if got != want:
        print("run.py: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - got), sorted(got - want)), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
