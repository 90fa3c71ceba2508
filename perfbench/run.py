#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload sweep|trace|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first run configures and builds
perfbench/CMakeLists.txt (the library from src/, the autopower CLI and the
runner) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs only rebuild what changed.  Build output goes to stderr, so the
last line of stdout is the runner's result object.  The result's metric
names and units must match BENCHMARK.json, or the run fails.

--self-test checks that the same seed generates the same inputs, that
different seeds generate different inputs, and that the runner's metric
declaration matches BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing; run the benchmark from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out = os.path.join(ROOT, target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench_runner")


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {kind: [(m["name"], m["unit"]) for m in bench[kind]]
            for kind in ("end_to_end", "per_layer")}


def self_test(runner):
    status = subprocess.run([runner, "--self-test"]).returncode
    listed = json.loads(subprocess.run([runner, "--list-metrics"],
                                       capture_output=True, text=True,
                                       check=True).stdout)
    want = declared()
    for kind in ("end_to_end", "per_layer"):
        got = [(m["name"], m["unit"]) for m in listed[kind]]
        same = got == want[kind]
        print("self-test %s metric names and units match BENCHMARK.json: %s"
              % (kind, "ok" if same else "FAIL"))
        if not same:
            status = 1
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sweep", "trace", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    runner = build()
    if args.self_test:
        sys.exit(self_test(runner))

    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    # Own process group, so a timeout also stops the daemon the runner
    # started.
    proc = subprocess.Popen(
        [runner, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        fail("runner exited with status %d" % proc.returncode)
    try:
        result = json.loads(stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        fail("runner printed no result line")
    want = declared()["per_layer" if args.trace else "end_to_end"]
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if got != want:
        fail("printed metrics differ from BENCHMARK.json")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
