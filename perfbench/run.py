#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload fig2-sweep --seed 1 --seconds 10 --trace 0

Builds the libraries, the hj_embed CLI and the hjbench program from the
source tree next to this directory (an optimized build in
.bench_build/perfbench, reused while the sources are unchanged), then runs
hjbench with HJ_THREADS pinned to the core count. hjbench prints report
lines and, last, one JSON result line; this script forwards them and exits
with an error, printing no result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve-cold", "storm-live", "fig2-sweep", "serve-hot")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """The git commit when there is one, else a hash of the source tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build():
    """Configure and build; returns (hjbench, hj_embed) paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no source tree next to perfbench/ (expected src/CMakeLists.txt)", 2)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log, "w") as fh:
        for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", BUILD, "-j", jobs,
                     "--target", "hjbench", "hj_embed"]):
            if subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT).returncode:
                with open(log) as lf:
                    sys.stderr.write(lf.read()[-4000:])
                fail("build failed: " + " ".join(cmd))
    hjbench = os.path.join(BUILD, "hjbench")
    hj_embed = os.path.join(BUILD, "hj_examples", "hj_embed")
    env = subprocess.run([hjbench, "env"], capture_output=True, text=True)
    if env.returncode != 0:
        fail("refusing to measure this build: " + env.stdout.strip(), 3)
    return hjbench, hj_embed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    hjbench, hj_embed = build()
    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, HJ_THREADS=str(os.cpu_count() or 1),
               HJB_COMMIT=source_stamp())
    cmd = [hjbench, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--hj-embed", hj_embed, "--dir", work]
    # A process group of its own, so a timeout stops its daemons too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(err)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail(f"hjbench exited with status {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("hjbench printed no result line")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
