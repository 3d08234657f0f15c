#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

Runs every workload declared in BENCHMARK.json at tiny scale, untraced
and traced, and asserts that each run prints every declared metric with
its declared unit, that its correctness checks ran and passed, and that
the end-to-end values are positive. Takes about a minute after the
first build.

    python3 perfbench/selftest.py        # from the repository root
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(command, workload, trace):
    args = command + ["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--tiny"]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = spec["command"]
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out, err = run(command, workload, trace)
            label = f"{workload} trace {trace}"
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: keys {sorted(out)}")
            if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
                failures.append(f"{label}: correct={out['correct']} failed={out['failed']}")
            checks = re.search(r"(\d+) correctness checks", err)
            if not checks or int(checks.group(1)) == 0:
                failures.append(f"{label}: no correctness checks ran")
            metrics = out["metrics"]
            names = {m["name"] for m in declared}
            if set(metrics) != names:
                failures.append(f"{label}: missing {sorted(names - set(metrics))}, "
                                f"extra {sorted(set(metrics) - names)}")
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                if got["unit"] != m["unit"]:
                    failures.append(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
                value = got["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    failures.append(f"{label}: {m['name']} = {value}")
                elif trace == 0 and value <= 0:
                    failures.append(f"{label}: end-to-end {m['name']} = {value}")
            print(f"ok {label}: {len(metrics)} metrics, {checks.group(1) if checks else 0} checks")
    if failures:
        sys.exit("\n".join(failures))
    print("selftest passed")


if __name__ == "__main__":
    main()
