#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

For every workload in BENCHMARK.json, an untraced and a traced run at
--seconds 1 must be correct, fail nothing, and report every declared
metric with its unit (run.py refuses a result that does not); every
end-to-end value must be non-zero. A run whose pinned total is
deliberately corrupted (--corrupt-pin) must then report correct=false.

Usage, from the root of a checkout: python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The seed whose totals are pinned in the benchmark's source.
PINNED_SEED = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", PINNED_SEED, "--seconds", "1", "--trace", str(trace), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=1200)
    if done.returncode != 0:
        return None
    return json.loads(done.stdout.splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            result = run(workload, trace)
            if result is None:
                problems.append(f"{label}: no result")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} "
                                f"attempted={result['attempted']} failed={result['failed']}")
            if trace == 0:
                zeros = sorted(n for n, m in result["metrics"].items() if m["value"] == 0)
                if zeros:
                    problems.append(f"{label}: zero-valued {zeros}")
            print(f"selftest: {label}: {len(result['metrics'])} metrics", flush=True)
        corrupted = run(workload, 0, "--corrupt-pin")
        if corrupted is None or corrupted["correct"]:
            problems.append(f"{workload}: a corrupted pinned total went unnoticed")
        else:
            print(f"selftest: {workload}: corrupted pin caught", flush=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
