#!/usr/bin/env python3
"""Build and run the qra end-to-end benchmark.

Usage (from the repository root):

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the qra library and the qra_e2ebench program from source into
.bench_build/e2ebench (configured once, then an incremental build on
every run), runs one workload, and relays the program's output. The last
stdout line is the result object {correct, attempted, failed, metrics}.

With --trace 1 the program also writes a Chrome trace and a metrics
snapshot next to the build; both are validated with the repository's
tools/check_trace.py, and a failed validation marks the run incorrect.

Exit status: 0 with a result line, non-zero (and no result line) when
the build or the program fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "qra_e2ebench")

# Spans every traced workload must contain: the replayed layers that
# run on every job, and the engine's own shard span.
REQUIRED_SPANS = ["circuit.parse", ".run", "sim.result.merge",
                  "assertions.decode", "shard"]


def log_tail(path, lines=40):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build():
    """Configure (first run only) and build; exit 1 on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "qra_e2ebench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log_tail(log))
                sys.stderr.write("e2ebench: build failed (%s)\n" % log)
                sys.exit(1)


def check_trace(prefix):
    """Validate the traced run's exports; returns (ok, output)."""
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    cmd = [sys.executable, checker, prefix + ".trace.json",
           "--metrics", prefix + ".metrics.json",
           "--require-counter", "engine.shards",
           "--require-counter", "jobqueue.jobs"]
    for span in REQUIRED_SPANS:
        cmd += ["--require", span]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, cwd=ROOT)
    return proc.returncode == 0, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    prefix = os.path.join(BUILD, "trace-%s-%d" % (args.workload, args.seed))
    if args.trace:
        cmd += ["--trace-out", prefix]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=170)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("e2ebench: qra_e2ebench exited with %d\n"
                         % proc.returncode)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    if args.trace:
        ok, output = check_trace(prefix)
        for line in output.splitlines():
            if line.strip():
                print("check_trace: " + line)
        if not ok:
            result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
