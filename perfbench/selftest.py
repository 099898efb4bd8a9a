#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json: a one-second run, untraced and
traced, must pass its correctness gate and print exactly the metrics
BENCHMARK.json declares, each a number with its declared unit; a run with
``--inject-fault`` (one wrong verdict planted) must fail.  Finally run.py,
copied with BENCHMARK.json into a directory without the library, must exit
non-zero without printing a result.  Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=175)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return proc.returncode, result, proc.stderr


def _check_result(label, declared, rc, result, stderr):
    problems = []
    if rc != 0:
        problems.append(f"{label}: exit code {rc}: {stderr[-500:]}")
    if result is None:
        return problems + [f"{label}: no result line"]
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: gate failed: {result}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result.get('attempted')!r}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"{label}: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit or isinstance(value, bool) or \
                not isinstance(value, (int, float)) or value != value:
            problems.append(f"{label}: bad metric {name}: {got}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{wl} trace={trace}"
            rc, result, err = _run(ROOT, "--workload", wl, "--seed", "7",
                                   "--seconds", "1", "--trace", str(trace))
            problems += _check_result(label, declared, rc, result, err)
            print(f"{label}: ran", flush=True)
        rc, result, _ = _run(ROOT, "--workload", wl, "--seed", "7",
                             "--seconds", "1", "--trace", "0", "--inject-fault")
        if rc == 0 or result is None or result["correct"] is not False \
                or result["failed"] < 1:
            problems.append(f"{wl}: injected fault not caught (exit {rc}, "
                            f"result {result})")
        print(f"{wl} injected fault: ran", flush=True)
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    rc, result, _ = _run(bare, "--workload", spec["workloads"][0]["name"],
                         "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if rc == 0 or result is not None:
        problems.append(f"bare directory: exit {rc}, result {result}")
    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
