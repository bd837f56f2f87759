#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts on one workload.

    python3 tools/bench_pairs.py --base ../parent --new . \\
        --workload lattice_corpus --pairs 10 --first-seed 200 --claim ops_per_s

Pair i runs `python3 bench/run.py --workload W --seed <first-seed + i>
--seconds S --trace 0` once in each checkout, one run at a time, the base
first on even i and the new checkout first on odd i, so that a drift of the
host's speed during the pairs falls on both sides alike.  Each checkout runs
its own `bench/` on its own `src/`.  It then prints, for every end-to-end
metric of the new checkout's BENCHMARK.json, both sides' medians and
quartiles, the relative change of the medians, and the median and quartiles
of the per-pair relative changes (new/base - 1), which a drift shared by
both sides of each pair leaves alone; whether the new median is worse than
the base median by more than the metric's `bound` (a relative change, the
bound a change must keep within); and, for the claimed metric, how many pairs
the new checkout won (ties count for neither side) and whether the medians
moved in the better direction by more than the base's quartile distance.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

# the sibling tool, importable also where this file is loaded by path
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_record import run_bench  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, by statistics' inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict],
              claim: str | None = None) -> dict:
    """Per metric, from (base, new) readings {name: value} of each pair:
    both sides' (q1, median, q3), the relative change of the medians (None
    where the base median is 0), `paired`, the (q1, median, q3) of the
    per-pair relative changes over the pairs whose base reading is not 0
    (None if there is none), and `regressed`, whether the change of the
    medians is worse by the metric's `better` ("higher" or "lower") than its
    `bound` (None where the change is).  The claimed metric also gets its
    wins, losses and ties: pairs where the new reading is better, worse or
    equal, and `beyond_iqr`, whether the new median is better than the base
    median by more than the base's q3 - q1."""
    out = {}
    for m in metrics:
        name = m["name"]
        sign = 1 if m["better"] == "higher" else -1
        base = quartiles([b[name] for b, _ in pairs])
        new = quartiles([n[name] for _, n in pairs])
        ratios = [n[name] / b[name] - 1 for b, n in pairs if b[name]]
        change = new[1] / base[1] - 1 if base[1] else None
        row = {"base": base, "new": new, "change": change,
               "paired": quartiles(ratios) if ratios else None,
               "regressed": (None if change is None
                             else -sign * change > m["bound"])}
        if name == claim:
            diffs = [sign * (n[name] - b[name]) for b, n in pairs]
            row.update(wins=sum(d > 0 for d in diffs),
                       losses=sum(d < 0 for d in diffs),
                       ties=sum(d == 0 for d in diffs),
                       beyond_iqr=sign * (new[1] - base[1])
                       > base[2] - base[0])
        out[name] = row
    return out


def report(summary: dict, pairs: int) -> str:
    """The summary as text, one line per metric."""
    lines = []
    for name, row in summary.items():
        (b1, b2, b3), (n1, n2, n3) = row["base"], row["new"]
        change = "n/a" if row["change"] is None else f"{row['change']:+.1%}"
        paired = ("n/a" if row["paired"] is None else
                  "{1:+.1%} [{0:+.1%}, {2:+.1%}]".format(*row["paired"]))
        regressed = {None: "n/a", True: "yes", False: "no"}[row["regressed"]]
        line = (f"{name:12s} base {b2:.4g} [{b1:.4g}, {b3:.4g}]  "
                f"new {n2:.4g} [{n1:.4g}, {n3:.4g}]  {change}  "
                f"per pair {paired}  worse than bound: {regressed}")
        if "wins" in row:
            line += (f"  wins {row['wins']}/{pairs} (losses {row['losses']},"
                     f" ties {row['ties']}), beyond base IQR: "
                     f"{'yes' if row['beyond_iqr'] else 'no'}")
        lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True,
                    help="checkout the change is measured against")
    ap.add_argument("--new", type=Path, default=Path("."),
                    help="checkout with the change (default: .)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--claim", help="end-to-end metric to count wins on")
    args = ap.parse_args(argv)
    bench = json.loads((args.new / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    if args.claim and args.claim not in {m["name"] for m in metrics}:
        ap.error(f"--claim {args.claim!r} is not an end-to-end metric")

    pairs, failed = [], {"base": 0, "new": 0}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["base", "new"] if i % 2 == 0 else ["new", "base"]
        got = {}
        for side in order:
            res = run_bench(getattr(args, side), args.workload, seed, seconds)
            failed[side] += res["failed"]
            got[side] = {k: v["value"] for k, v in res["metrics"].items()}
            print(f"bench_pairs: pair {i} seed {seed} {side} "
                  + " ".join(f"{m['name']}={got[side][m['name']]:.4g}"
                             for m in metrics), file=sys.stderr)
        pairs.append((got["base"], got["new"]))
    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s, seeds "
          f"{args.first_seed}-{args.first_seed + args.pairs - 1}; failed "
          f"operations: base {failed['base']}, new {failed['new']}")
    print(report(summarize(pairs, metrics, args.claim), args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
