#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy sizes, untraced and traced.

It checks that each result line has the metric names and units that
BENCHMARK.json declares, that no op failed, that count metrics repeat
exactly between two traced runs, and that the benchmark refuses to run
without the package.  It asserts no wall-clock bound.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0.2", "--scale", "toy", *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        raise AssertionError(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"failed ops:\n{proc.stdout}")
    return result


def check_metrics(result: dict, declared: list[dict], where: str) -> None:
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    if units != wanted:
        raise AssertionError(f"{where}: metrics {units} differ from BENCHMARK.json {wanted}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} is not a number")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    for workload in workloads:
        plain = result_of(run("--workload", workload, "--trace", "0"))
        check_metrics(plain, spec["end_to_end"], f"{workload} --trace 0")
        if any(m["value"] <= 0 for m in plain["metrics"].values()):
            raise AssertionError(f"{workload}: an end-to-end metric is not positive")
        first, second = (result_of(run("--workload", workload, "--trace", "1")) for _ in range(2))
        check_metrics(first, spec["per_layer"], f"{workload} --trace 1")
        moved = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        if moved:
            raise AssertionError(f"{workload}: counts differ between two traced runs: {moved}")
        print(f"smoke: {workload} ok")

    combined = result_of(run("--workload", "all", "--trace", "0"))
    wanted = {f"{w}/{m['name']}" for w in workloads for m in spec["end_to_end"]}
    if set(combined["metrics"]) != wanted:
        raise AssertionError(f"--workload all reported {sorted(combined['metrics'])}")
    print("smoke: all ok")

    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "results") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = run("--workload", workloads[0], "--trace", "0", cwd=Path(bare))
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("without the package the benchmark must fail and print no result")
    print("smoke: bare checkout refused, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
