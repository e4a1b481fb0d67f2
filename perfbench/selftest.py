#!/usr/bin/env python3
"""Self-test of the benchmark at its tiny input size.

For every workload, an untraced tiny run must exit 0, print every
end-to-end metric of BENCHMARK.json with its unit, and have ok_share = 1;
a traced tiny run must print every per-layer metric. Builds like run.py.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), ""


def check(workload, trace, expected):
    result, error = run(workload, trace)
    if result is None:
        return [f"{workload} trace={trace}: {error}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{workload} trace={trace}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    for m in expected:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{workload} trace={trace}: metric {m['name']} missing or "
                            f"not in {m['unit']}: {got}")
    if trace == 0 and metrics.get("ok_share", {}).get("value") != 1:
        problems.append(f"{workload}: ok_share {metrics.get('ok_share')}")
    return problems


def main():
    problems = []
    for name in WORKLOADS:
        found = check(name, 0, SPEC["end_to_end"]) + check(name, 1, SPEC["per_layer"])
        print(f"{name}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for p in problems:
        print("  " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
