"""Smoke test of the benchmark itself; takes about half a minute.

    python3 bench/smoke.py

Runs every workload listed in BENCHMARK.json once untraced and twice
traced with the same seed, each for one second of timed operations.
Fails when a result line lacks one of the declared metrics or units,
carries an undeclared one, reports a wrong output, or when the two
traced runs disagree on the determinism digest (counts, outputs and
code quality of every item).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = "1"


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_result(label: str, result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append(f"{label}: outputs were not correct")
    if result.get("attempted", 0) < 1:
        problems.append(f"{label}: nothing attempted")
    metrics = result.get("metrics", {})
    wanted = {m["name"]: m["unit"] for m in declared}
    for name, unit in wanted.items():
        got = metrics.get(name)
        if got is None:
            problems.append(f"{label}: metric {name} missing")
        elif got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: metric {name} is {got}, expected unit {unit}")
    for name in sorted(set(metrics) - set(wanted)):
        problems.append(f"{label}: undeclared metric {name}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        _, plain = run(workload, 0)
        problems += check_result(f"{workload} trace 0", plain, spec["end_to_end"])
        first_info, first = run(workload, 1)
        second_info, second = run(workload, 1)
        problems += check_result(f"{workload} trace 1", first, spec["per_layer"])
        if first_info["determinism_digest"] != second_info["determinism_digest"]:
            problems.append(f"{workload}: two traced runs with seed {SEED} gave different digests")
        print(f"{workload}: {plain['attempted']} ops untraced, failed {plain['failed']}; "
              f"traced digest {first_info['determinism_digest']}, "
              f"overhead {first['metrics']['trace.overhead_pct']['value']:.1f} %, "
              f"dominant layer {first_info['dominant_layer']}")
    for line in problems:
        print("FAIL", line)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
