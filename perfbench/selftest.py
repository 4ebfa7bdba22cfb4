#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py             # generator checks (seconds)
    python3 perfbench/selftest.py --contract  # also one short run per
                                              # workload and mode (minutes)

Generator checks, for every workload: the same seed gives byte-identical
inputs, a different seed gives different inputs, and the serve-cold
sample holds at least one search-tail shape. The contract check runs each
workload of BENCHMARK.json untraced and traced and compares the metric
names and units it reports with the ones BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def gen(hjbench, workload, seed):
    out = subprocess.run([hjbench, "gen", "--workload", workload, "--seed",
                          str(seed)], capture_output=True, check=True)
    return out.stdout


def check_generators(hjbench):
    problems = []
    for w in run.WORKLOADS:
        a, b, c = gen(hjbench, w, 7), gen(hjbench, w, 7), gen(hjbench, w, 8)
        if not a or a != b:
            problems.append(f"{w}: seed 7 gave different inputs on two calls")
        if a == c:
            problems.append(f"{w}: seeds 7 and 8 gave the same inputs")
    for seed in (1, 7, 8):
        text = gen(hjbench, "serve-cold", seed).decode()
        passes = [l for l in text.splitlines() if l.startswith("pass ")]
        if not passes or any(not l.endswith("tail=1") for l in passes):
            problems.append(f"serve-cold seed {seed}: a pass has no tail shape")
    return problems


def check_contract():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = []
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(root, "perfbench", "run.py"),
                 "--workload", w["name"], "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)], capture_output=True, text=True)
            if out.returncode != 0:
                problems.append(f"{w['name']} trace={trace}: exit {out.returncode}")
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics differ: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}")
            if not res["correct"]:
                problems.append(f"{w['name']} trace={trace}: a check failed")
    return problems


def main():
    hjbench, _ = run.build()
    problems = check_generators(hjbench)
    if "--contract" in sys.argv[1:]:
        problems += check_contract()
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
