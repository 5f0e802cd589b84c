#!/usr/bin/env python3
"""Build and run the lmre benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The first call configures and builds the
benchmark binary (and the library it links, from src/) into .bench_build/; later calls
only rebuild what changed.  The binary's last stdout line is the result
object; this wrapper checks that it names exactly the metrics BENCHMARK.json
declares for the requested mode and passes the binary's exit code through.
Every per-layer metric must have a rule in predictions.json saying which
end-to-end metric it should move on which workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "lmre_perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no lmre source tree (src/CMakeLists.txt) next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "lmre_perfbench"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-payload", action="store_true",
                    help="flip one golden payload byte to show the checker rejects it")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    with open(os.path.join(HERE, "predictions.json")) as f:
        prefixes = [p for rule in json.load(f)["rules"] for p in rule["prefixes"]]
    unpredicted = [m["name"] for m in spec["per_layer"]
                   if not any(m["name"].startswith(p) for p in prefixes)]
    if unpredicted:
        fail("per-layer metrics without a prediction: %s" % unpredicted)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT]
    if args.corrupt_payload:
        cmd.append("--corrupt-payload")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark binary did not finish within 170 s")
    lines = proc.stdout.decode().splitlines()
    if not lines:
        fail("benchmark binary printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, or units differ"
             % (missing, extra))
    print(lines[-1])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
