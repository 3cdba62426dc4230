#!/usr/bin/env python3
"""Run one workload of the dataqual benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds `perfbench` and
`cfdclean` from source with dune (into .bench_build/), runs the workload
in a scratch directory under .perfbench/, and prints the workload's
result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics.  Exits non-zero, without a
result line, if the build fails, a correctness check fails or the run
does not finish in time.  Traced runs (--trace 1) also leave per-layer
metrics, Chrome traces and the tracing overhead under .perfbench/out/.

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
WORK_DIR = ".perfbench"
WORKLOADS = ("file-repair", "detect-scan", "serve-stream", "serve-fanout")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    prefix = [dune] if dune else ["opam", "exec", "--", "dune"]
    # The shared dune cache lives outside the checkout: keep it off.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = prefix + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
        "./perfbench/perfbench.exe", "./bin/cfdclean.exe",
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        fail("cannot run dune: %s" % e)
    if done.returncode != 0:
        fail("build failed")
    return (os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe"),
            os.path.join(BUILD_DIR, "default", "bin", "cfdclean.exe"))


def run(exe, cfdclean, args, work):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--cfdclean", cfdclean, "--work", work]
    # Its own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("run failed with exit code %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("run printed no result")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
        fail("malformed result: " + lines[-1])
    # The metrics and units must be exactly the ones BENCHMARK.json declares.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(expected.items())))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    exe, cfdclean = build()
    work = os.path.join(WORK_DIR, "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        lines = run(os.path.abspath(exe), os.path.abspath(cfdclean), args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
