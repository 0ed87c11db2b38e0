"""Smoke self-test: every workload at h=0.1 emits every named metric.

    python3 perfbench/smoke.py

Runs each workload's small variant once untraced and once traced, in this
process, and checks that the result carries exactly the metrics that
BENCHMARK.json names for that mode, each with its unit and a finite value,
and that every checked operation passed.  Exits 1 on the first mismatch.
"""

import json
import math
import os
import sys

import run  # pins the BLAS threads before numpy is imported


def check(result, listed, label):
    problems = []
    got = result["metrics"]
    for name in sorted(set(listed) - set(got)):
        problems.append(f"{label}: missing {name}")
    for name in sorted(set(got) - set(listed)):
        problems.append(f"{label}: unlisted {name}")
    for name, unit in listed.items():
        if name in got:
            if got[name]["unit"] != unit:
                problems.append(f"{label}: {name} unit {got[name]['unit']!r}, "
                                f"listed {unit!r}")
            if not math.isfinite(got[name]["value"]):
                problems.append(f"{label}: {name} = {got[name]['value']}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"attempted={result['attempted']} "
                        f"failed={result['failed']}")
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    listed = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if run.import_hdgbem() is None:
        return 2
    import workloads
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        print(f"BENCHMARK.json lists {names}, run.py knows "
              f"{sorted(workloads.WORKLOADS)}")
        return 1
    problems = []
    for name in names:
        spec = workloads.smoke_variant(workloads.WORKLOADS[name])
        for trace in (0, 1):
            result, _ = run.measure(spec, seed=1, seconds=0, trace=bool(trace))
            found = check(result, listed[trace], f"{name} trace={trace}")
            print(f"{name} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations, "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
