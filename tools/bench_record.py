#!/usr/bin/env python3
"""Record one BENCH_<pr>.json from the benchmark and compare it with the last.

    python3 tools/bench_record.py --pr 11 --seeds 1 2 3

For every workload and seed, runs `python3 bench/run.py` once untraced
(`--trace 0`, the end-to-end metrics) and once traced (`--trace 1`, the
per-layer metrics), one run at a time, each for BENCHMARK.json's
`run_seconds`, and writes BENCH_<pr>.json with each metric's median over the
seeds.  Under its `cli` entry go the wall times of the CLI commands at their
default sizes, each the median of CLI_RUNS fresh `python -m dualfx.cli`
processes.  It then prints each metric's old value, new value and change
against the newest BENCH_<n>.json with n < pr at the checkout's root, if
there is one and it was recorded with the same seeds and run length: the
relative change, or new - old for a metric whose BENCHMARK.json unit is in
DIFFERENCE_UNITS.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("euler_paths", "exact_report", "lattice_corpus")
SECTIONS = {0: "end_to_end", 1: "per_layer"}     # by the --trace flag
CLI_RUNS = 5
# units of readings near 0 or already relative, whose change is new - old:
# a relative change of 0.036 -> 0.397 % would print as +1002%
DIFFERENCE_UNITS = ("%", "sigma", "ratio")
# each CLI command at its default size: the Monte Carlo ones on recip_bessel,
# the lattice ones on two_period_example, whose document is at {tree}
CLI_COMMANDS = {
    **{cmd: ["--model", "recip_bessel"]
       for cmd in ("price", "parity", "intl", "defect", "convergence")},
    **{cmd: ["--tree", "{tree}"] for cmd in ("lattice-verify", "physical")},
}


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """One run of `checkout`'s own bench/run.py; its last output line,
    parsed.  A failed run raises RuntimeError with its checkout, seed, exit
    code and the tail of its stderr."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode:
        tail = "\n".join(out.stderr.strip().splitlines()[-20:])
        raise RuntimeError(f"bench/run.py in {checkout} at seed {seed} "
                           f"exited {out.returncode}:\n{tail}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _package_env() -> dict:
    """The environment with the checkout's `src` first on PYTHONPATH."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def run_cli(argv: list[str], out_dir: str) -> float:
    """Wall seconds of one fresh `python -m dualfx.cli` process, writing its
    artifacts to `out_dir`.  Exit code 2 (an identity check failed) still
    times the whole command; any other failure raises."""
    cmd = [sys.executable, "-m", "dualfx.cli", *argv, "--out-dir", out_dir]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=_package_env(),
                          capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    if done.returncode not in (0, 2):
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return seconds


def cli_wall_ms(run, tree: str) -> dict[str, float]:
    """Per command of CLI_COMMANDS, the median over CLI_RUNS calls of
    run(argv) -> seconds, in ms; `tree` is the path of the tree document."""
    return {cmd: 1e3 * statistics.median(
                run([cmd, *(a.format(tree=tree) for a in args)])
                for _ in range(CLI_RUNS))
            for cmd, args in CLI_COMMANDS.items()}


def record_cli() -> dict[str, float]:
    """cli_wall_ms of fresh processes, on a scratch directory."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = str(Path(tmp) / "two_period_example.json")
        subprocess.run([sys.executable, "-c",
                        "import sys; from dualfx.lattice import dump_tree, "
                        "two_period_example; "
                        "dump_tree(two_period_example(), sys.argv[1])", tree],
                       env=_package_env(), check=True)
        return cli_wall_ms(lambda argv: run_cli(argv, tmp), tree)


def summarize(runs: dict[str, dict[int, list[dict]]]) -> dict:
    """Per workload: the median of every metric over the seeds, by section,
    and the operation counts summed over all runs."""
    out = {}
    for workload, by_trace in runs.items():
        entry = {"attempted": 0, "failed": 0}
        for trace, results in by_trace.items():
            names = results[0]["metrics"]
            entry[SECTIONS[trace]] = {
                name: statistics.median(r["metrics"][name]["value"]
                                        for r in results)
                for name in names}
            entry["attempted"] += sum(r["attempted"] for r in results)
            entry["failed"] += sum(r["failed"] for r in results)
        out[workload] = entry
    return out


def previous_file(directory: Path, pr: int) -> Path | None:
    """The BENCH_<n>.json in `directory` with the largest n below `pr`."""
    found = []
    for path in directory.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if m and int(m.group(1)) < pr:
            found.append((int(m.group(1)), path))
    return max(found)[1] if found else None


def _changes(workload: str, section: str, olds: dict, news: dict) -> list:
    return [(workload, section, name, olds[name], value,
             value / olds[name] - 1 if olds[name] else None)
            for name, value in news.items() if name in olds]


def compare(old: dict, new: dict) -> list[tuple]:
    """(workload, section, metric, old, new, relative change) for every
    metric that both records carry; the CLI wall times come last, as
    workload "cli", section "wall_ms".  The relative change is new / old - 1,
    None where old is 0.  Raises ValueError if the records were taken with
    other seeds or another run length.
    """
    for key in ("seeds", "seconds"):
        if old.get(key) != new.get(key):
            raise ValueError(f"{key} differ: {old.get(key)} against "
                             f"{new.get(key)}")
    rows = []
    for workload, entry in new["workloads"].items():
        before = old.get("workloads", {}).get(workload, {})
        for section in SECTIONS.values():
            rows += _changes(workload, section, before.get(section, {}),
                             entry.get(section, {}))
    return rows + _changes("cli", "wall_ms", old.get("cli", {}),
                           new.get("cli", {}))


def change_text(unit: str | None, was: float, value: float,
                rel: float | None) -> str:
    """new - old for a unit in DIFFERENCE_UNITS, else `compare`'s relative
    change `rel` in %."""
    if unit in DIFFERENCE_UNITS:
        return f"{value - was:+.4g}"
    return "n/a" if rel is None else f"{rel:+.1%}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the output name BENCH_<pr>.json")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    units = {m["name"]: m["unit"] for section in SECTIONS.values()
             for m in bench.get(section, [])}

    runs: dict[str, dict[int, list[dict]]] = {}
    for workload in WORKLOADS:
        for trace in SECTIONS:
            for seed in args.seeds:
                print(f"bench_record: {workload} seed {seed} trace {trace}",
                      file=sys.stderr)
                runs.setdefault(workload, {}).setdefault(trace, []).append(
                    run_bench(ROOT, workload, seed, seconds, trace))
    record = {
        "pr": args.pr,
        "command": ["python3", "bench/run.py"],
        "seeds": args.seeds,
        "seconds": seconds,
        "reduction": "median over seeds; end_to_end from --trace 0 runs, "
                     "per_layer from --trace 1 runs; cli: median wall ms of "
                     f"{CLI_RUNS} fresh processes per command",
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "workloads": summarize(runs),
    }
    print("bench_record: CLI wall times", file=sys.stderr)
    record["cli"] = record_cli()
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")

    prev = previous_file(ROOT, args.pr)
    if prev is None:
        print("no earlier BENCH file to compare with")
        return 0
    try:
        rows = compare(json.loads(prev.read_text()), record)
    except ValueError as exc:
        print(f"not compared with {prev.name}: {exc}")
        return 0
    print(f"relative change against {prev.name} (new - old for units "
          f"{', '.join(DIFFERENCE_UNITS)}):")
    for workload, section, name, was, value, rel in rows:
        change = change_text(units.get(name), was, value, rel)
        print(f"  {workload:15s} {section:10s} {name:32s} {was:12.6g} -> "
              f"{value:12.6g}  {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
