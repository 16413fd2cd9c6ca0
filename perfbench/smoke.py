"""Smoke test of the benchmark: every workload's job path once, at tiny size.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload ``run.py`` knows, listed in ``BENCHMARK.json`` or not,
it runs ``run.py --smoke`` untraced and traced, and checks the result line: exactly the four keys, a
correct run, and every metric ``BENCHMARK.json`` names for that mode, with
its unit and a finite value. Exits 1 if anything is missing or wrong.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().with_name("run.py")


def check_result(result: dict, expected: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"run not correct: {result['correct']}, "
                        f"{result['failed']} of {result['attempted']} failed")
    metrics = result["metrics"]
    names = {m["name"] for m in expected}
    if set(metrics) != names:
        problems.append(f"metrics missing {sorted(names - set(metrics))}, "
                        f"unexpected {sorted(set(metrics) - names)}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} has unit {got.get('unit')!r}, not {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']} has value {value!r}")
    return problems


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in WORKLOADS:
        for trace, expected in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            command = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
                       "--seconds", "0", "--trace", str(trace), "--smoke"]
            done = subprocess.run(command, capture_output=True, text=True, timeout=300)
            if done.returncode != 0:
                problems = [f"exit code {done.returncode}: {done.stderr.strip()[-1000:]}"]
            else:
                problems = check_result(json.loads(done.stdout.splitlines()[-1]), expected)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
