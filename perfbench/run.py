#!/usr/bin/env python3
"""The repository benchmark's entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the fcsl CLI and the harness (perfbench/bench.ml) from source
with dune, runs one workload in the harness and prints the harness's
result object as the last line of stdout.  Build output and the
harness's detail go to stderr; run artefacts (daemon journals, sockets,
logs, the traced run's span file) go to perfbench/_run/.  It exits
non-zero without a result when the build fails, the harness fails or
overruns, or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

RUN_DIR = os.path.join("perfbench", "_run")
FCSL = os.path.join("_build", "default", "bin", "fcsl_cli.exe")
HARNESS = os.path.join("_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
HARNESS_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    # The dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./bin/fcsl_cli.exe",
           "./perfbench/bench.exe"]
    done = subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=sys.stderr,
                          stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    return done.returncode == 0


def stop_group(pgid):
    """SIGKILL whatever is left of the harness's process group and wait
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_harness(args):
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fcsl", FCSL, "--run-dir", RUN_DIR]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        log("harness overran %d s" % HARNESS_TIMEOUT_S)
        return None
    stop_group(proc.pid)
    if proc.returncode != 0:
        log("harness exited with %d" % proc.returncode)
        return None
    lines = out.strip().splitlines()
    return lines[-1] if lines else None


def check(line, spec, traced):
    """The result object must have exactly the four result keys and
    exactly the metrics BENCHMARK.json declares for this mode."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    if result["attempted"] < 1:
        return "no operation attempted"
    declared = spec["per_layer" if traced else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(got.items()) ^ set(want.items()))
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log("unknown workload %r" % args.workload)
        return 2
    if not build():
        log("build failed")
        return 1
    line = run_harness(args)
    if line is None:
        return 1
    problem = check(line, spec, args.trace == 1)
    if problem:
        log(problem)
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
