#!/usr/bin/env python3
"""Smoke test of the benchmark, at tiny sizes (under a minute).

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced with `--tiny` and
checks that each run executes its operations' correctness checks without a
failure and prints every metric BENCHMARK.json lists, by name and with its
unit, in its human-readable lines and in its final JSON line, with every
time (unit ms) measured rather than left at 0.  It also checks
that BENCHMARK.json and bench/metrics.py list the same metrics, and that the
benchmark exits non-zero, printing no result, when the dualfx sources are
missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from metrics import END_TO_END, PER_LAYER  # noqa: E402 (script dir)


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(out: subprocess.CompletedProcess, expected: dict) -> list[str]:
    if out.returncode != 0:
        return [f"exit code {out.returncode}: {out.stderr.strip()[-500:]}"]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics differ: {sorted(set(got) ^ set(expected))}")
    for name, m in result["metrics"].items():
        if not (isinstance(m["value"], (int, float))
                and math.isfinite(m["value"])
                and (m["unit"] != "ms" or m["value"] > 0)):
            problems.append(f"{name} = {m['value']!r}")
    human = lines[:-1]
    for name, unit in expected.items():
        if not any(line.split()[:1] == [name] and f" {unit} " in line
                   for line in human):
            problems.append(f"{name} [{unit}] not printed")
    return problems


def check_without_sources() -> list[str]:
    """A directory holding only BENCHMARK.json and bench/ must fail cleanly."""
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "euler_paths", 0)
    if out.returncode == 0 or '"correct"' in out.stdout:
        return ["without dualfx sources the benchmark did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tables = {"end_to_end": END_TO_END, "per_layer": PER_LAYER}
    problems = []
    for key, table in tables.items():
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != {name: unit for name, (unit, _) in table.items()}:
            problems.append(f"BENCHMARK.json {key} != bench/metrics.py")
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            found = check_run(run(ROOT, wl["name"], trace), expected)
            print(f"{wl['name']} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}")
            problems += [f"{wl['name']} trace={trace}: {p}" for p in found]
    problems += check_without_sources()
    for p in problems:
        print("  " + p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
