#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Cargo builds perfbench/ into $CARGO_TARGET_DIR (default .bench_build).
The binary's last line of standard output is the result. This script
passes it on only if it names exactly the metrics BENCHMARK.json declares
for the mode (end_to_end for --trace 0, per_layer for --trace 1), each
with its declared unit. Otherwise, and when the build or the run fails,
it exits non-zero without printing a result.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build():
    """Builds the binary; returns its path, or None when the build fails."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        return None
    return os.path.join(ROOT, target, "release", "perfbench")


def declared_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = argv[argv.index("--trace") + 1:][:1] == ["1"] if "--trace" in argv else False
    try:
        expected = declared_units(trace)
    except (OSError, ValueError, KeyError) as e:
        return fail(f"BENCHMARK.json: {e}")
    exe = build()
    if exe is None:
        return fail("build failed")
    try:
        done = subprocess.run([exe, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail(f"run: {e}")
    lines = done.stdout.splitlines()
    sys.stderr.writelines(line + "\n" for line in lines[:-1])
    if done.returncode != 0 or not lines:
        return fail(f"run exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        return fail(f"unreadable result: {e}")
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        return fail(f"result disagrees with BENCHMARK.json: missing {missing}, "
                    f"undeclared {extra}, wrong unit {wrong}")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
