#!/usr/bin/env python3
"""dualfx benchmark: three seeded closed-loop workloads, checked and timed.

    python3 bench/run.py --workload euler_paths --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports dualfx from `src/` and
installs nothing.  One client issues one operation at a time (closed loop,
one process, workers=1) for `--seconds`, and for at least MIN_OPS
operations, and checks every operation's outputs; an operation that raises
or fails its check counts as failed.  Workloads (bench/workloads.py):

  euler_paths     bridged Euler on sigma(x) = x^2, both legs: the Euler step,
                  the RNG and sigma
  exact_report    recip_bessel's exact samplers, then every claim, the parity
                  and equivalence tables, the defect, the cross-measure check
                  and the CSV dump: the pricing operator and artifact writing
  lattice_corpus  one seeded random dual tree per operation through the exact
                  identities, formula pricing, superreplication and the
                  physical-measure checks

`--trace 0` prints the end-to-end metrics.  Their times are scaled to a fixed
host speed: on a shared 2-vCPU host the same code ran up to ~1.4x slower for
stretches of seconds to minutes, and over ten runs per workload wall-clock
ops_per_s spread by 0.26 / 0.16 / 0.20 (quartile distance over median;
lattice_corpus / exact_report / euler_paths).  A short fixed pure-Python
loop (`reference.speed_probe`) is timed after every operation, and each time
is multiplied by REF_PROBE_MS over the run's mean probe time, so the figures
read as on a host where the probe takes REF_PROBE_MS; ten later runs per
workload on the same host spread by 0.02 / 0.03 / 0.06.  The unscaled
wall-clock figures are printed beside them.  `--trace 1` records spans around every call into a dualfx
layer and prints the per-layer metrics instead (bench/metrics.py lists both
with their units).  `--tiny` shrinks every size for a smoke run
(bench/smoke.py).  Spans and temporary files go to `.bench_out/` in the
checkout.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from metrics import END_TO_END, MEDIAN_REDUCED, PER_LAYER
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_out"

WORKLOADS = ("euler_paths", "exact_report", "lattice_corpus")
MIN_OPS = 100        # op_p90_ms needs 10 operations beyond
MAX_LOOP_S = 120.0   # bounds a run if operations get much slower
SETUP_RUNS = 3       # setup_s is the median of this many set-ups
REF_PROBE_MS = 1.0   # end-to-end times read as on a host probing this fast
IMPORT_RUNS = 3      # catalog.import_ms is the median of this many imports
SCALING_PAIRS = 3
CALIB_RUNS = 3       # at the start and again at the end of a run
# operations per workload in the sample that times the layers a traced
# workload does not call
SAMPLE_OPS = {"euler_paths": 3, "exact_report": 3, "lattice_corpus": 40}


def dualfx_sources() -> Path:
    """The checkout's dualfx package directory; exits when it is missing."""
    pkg = SRC / "dualfx"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: no dualfx sources at {pkg}; run from a checkout")
    return pkg


def import_dualfx():
    """Import dualfx from this checkout's sources, or exit with an error."""
    pkg = dualfx_sources()
    sys.path.insert(0, str(SRC))
    import dualfx
    if Path(dualfx.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported dualfx from {dualfx.__file__}, not {pkg}")
    return dualfx


def set_up(args):
    """Import dualfx, construct the models and generate the inputs.

    Returns (workload, seconds taken); the clock starts before the import.
    """
    t0 = time.perf_counter()
    import_dualfx()
    w = make_workload(args.workload, args.seed, args.tiny)
    return w, time.perf_counter() - t0


def make_workload(name: str, seed: int, tiny: bool):
    import workloads
    if name == "euler_paths":
        return workloads.EulerPaths(seed, tiny)
    if name == "exact_report":
        return workloads.ExactReport(seed, tiny, SCRATCH)
    return workloads.LatticeCorpus(seed, tiny)


def probe(kind: str, args) -> float:
    """Seconds of a set-up (or of `import dualfx` alone) in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=150, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Loop:
    """Counts and samples of the timed loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.busy_s = 0.0                   # wall time inside operations
        self.latency_ms: list[float] = []   # completed, untraced
        self.traced_ms: list[float] = []    # completed, traced
        self.values: list[dict] = []        # per-layer values, every op
        self.times: list[dict] = []         # per-layer times, traced ops
        self.covered_ms = 0.0
        self.root_ms = 0.0
        self.probe_ms: list[float] = []     # host speed, after every op

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(what)


def run_op(w, tr, traced: bool, loop: Loop) -> None:
    tr.enabled = traced
    tr.op = loop.attempted
    first = len(tr.spans)
    loop.attempted += 1
    dt = None
    t0 = time.perf_counter()
    try:
        with tr.span("op"):
            res = w.op(tr)
        dt = time.perf_counter() - t0
        w.check(res)
    except Exception:  # a failed operation is counted, and the loop goes on
        loop.busy_s += time.perf_counter() - t0 if dt is None else dt
        loop.fail(traceback.format_exc())
        return
    loop.busy_s += dt
    loop.values.append(w.values(res))
    if traced:
        root_ms, covered_ms, ms = tr.summary(first)
        loop.traced_ms.append(dt * 1e3)
        loop.root_ms += root_ms
        loop.covered_ms += covered_ms
        loop.times.append(w.times(res, ms))
    else:
        loop.latency_ms.append(dt * 1e3)


def timed_loop(w, tr, args) -> Loop:
    """Closed loop for `--seconds` and at least MIN_OPS operations; a traced
    run alternates traced and untraced operations."""
    from reference import speed_probe
    loop = Loop()
    min_ops = 3 if args.tiny else MIN_OPS
    start = time.perf_counter()
    while True:
        run_op(w, tr, args.trace == 1 and loop.attempted % 2 == 0, loop)
        loop.probe_ms.append(speed_probe())
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_LOOP_S or (elapsed >= args.seconds
                                     and loop.attempted >= min_ops):
            return loop


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank q-th percentile."""
    s = sorted(values)
    return s[max(0, -(-q * len(s) // 100) - 1)]


def reduce_layers(w, loop: Loop) -> dict[str, float]:
    agg: dict[str, float] = {}
    for rows in (loop.values, loop.times):
        for name in (rows[0] if rows else {}):
            vals = [r[name] for r in rows]
            agg[name] = (statistics.median(vals) if name in MEDIAN_REDUCED
                         else statistics.fmean(vals))
    if loop.times:
        w.finish(agg)
    return agg


def wall_clock(loop: Loop) -> dict[str, float]:
    """The timed loop's unscaled throughput and latencies."""
    done = loop.latency_ms
    return {
        "ops_per_s": len(done) / loop.busy_s if loop.busy_s else 0.0,
        "op_p50_ms": statistics.median(done) if done else 0.0,
        "op_p90_ms": percentile(done, 90) if done else 0.0,
    }


def end_to_end(loop: Loop, setups: list[float]) -> dict[str, float]:
    """End-to-end metrics, the loop's times scaled to a host where the speed
    probe takes REF_PROBE_MS."""
    scale = REF_PROBE_MS / statistics.fmean(loop.probe_ms)
    wall = wall_clock(loop)
    return {
        "ops_per_s": wall["ops_per_s"] / scale,
        "op_p50_ms": wall["op_p50_ms"] * scale,
        "op_p90_ms": wall["op_p90_ms"] * scale,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def other_layers(args, loop: Loop, own: set[str]) -> dict[str, float]:
    """Per-layer figures for the layers this workload does not call, from a
    short traced sample of the workloads that do call them, so that every
    per-layer figure a traced run prints is a measurement."""
    out: dict[str, float] = {}
    for name in WORKLOADS:
        if name == args.workload:
            continue
        w = make_workload(name, args.seed, args.tiny)
        sample = Loop()
        try:
            for _ in range(SAMPLE_OPS[name]):
                run_op(w, Tracer(enabled=True), True, sample)
        finally:
            w.close()
        loop.attempted += sample.attempted
        loop.failed += sample.failed
        loop.errors += sample.errors[:3 - len(loop.errors)]
        for key, value in reduce_layers(w, sample).items():
            if key not in own and key not in out:
                out[key] = value
    return out


def per_layer(w, loop: Loop, args, calib: list[float],
              layer_values: dict[str, float]) -> dict[str, float]:
    import reference
    import workloads
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(layer_values)
    out.update(other_layers(args, loop, set(layer_values)))
    out["trace.coverage"] = (loop.covered_ms / loop.root_ms
                             if loop.root_ms else 0.0)
    if loop.traced_ms and loop.latency_ms:
        plain = statistics.median(loop.latency_ms)
        out["trace.overhead_pct"] = (
            100.0 * (statistics.median(loop.traced_ms) - plain) / plain)
    euler = (w if isinstance(w, workloads.EulerPaths)
             else workloads.EulerPaths(args.seed, args.tiny))
    identical, speedup = reference.scaling(
        euler, args.seed, 1 if args.tiny else SCALING_PAIRS)
    loop.attempted += 1   # the determinism check counts as one more check
    if not identical:
        loop.fail("workers=2 arrays differ from workers=1 for the same seed")
    out["sde.engine.speedup_2w"] = speedup
    out.update(reference.roadmap_rows(SCRATCH, args.tiny))
    out["catalog.import_ms"] = 1e3 * statistics.median(
        probe("import", args) for _ in range(1 if args.tiny else IMPORT_RUNS))
    calib.extend(reference.calibrate() for _ in range(CALIB_RUNS))
    out["host.calib_ms"] = statistics.median(calib)
    return out


def report(args, loop: Loop, metrics: dict[str, float], elapsed: float,
           layer_values: dict[str, float], calib_ms: float,
           n_setups: int) -> None:
    table = PER_LAYER if args.trace else END_TO_END
    print(f"dualfx benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}; closed loop, 1 client, 1 process, workers=1")
    print(f"  {loop.attempted} operation(s) attempted in {elapsed:.1f} s, "
          f"{loop.failed} failed")
    for err in loop.errors:
        print("  FAILED: " + err.strip().replace("\n", "\n    "))
    samples = dict.fromkeys(("op_p50_ms", "op_p90_ms"), len(loop.latency_ms))
    samples["setup_s"] = n_setups
    for name, (unit, note) in table.items():
        count = samples.get(name)
        extra = f" [{count} samples]" if count and not args.trace else ""
        print(f"  {name:30s} {metrics[name]:14.6g} {unit:6s} {note}{extra}")
    if not args.trace:
        for name, value in wall_clock(loop).items():
            print(f"  {'wall.' + name:30s} {value:14.6g} "
                  f"{END_TO_END[name][0]:6s} wall clock, unscaled")
        print(f"  {'speed probe':30s} {statistics.fmean(loop.probe_ms):14.6g} "
              f"{'ms':6s} mean of {len(loop.probe_ms)}, one after every "
              f"operation; times above scaled by {REF_PROBE_MS} ms / this")
        print(f"  {'host.calib_ms':30s} {calib_ms:14.6g} "
              f"{'ms':6s} fixed reference loop, not the program: host drift")
    if args.trace:
        print(f"  sde.engine.speedup_2w ran on {os.cpu_count()} cores")
    frac = layer_values.get("sde.engine.devalued_frac", 0.0)
    bias = layer_values.get("sde.engine.bias_z", 0.0)
    if frac > 0 or abs(bias) > 5:
        print(f"  WARNING: known Euler defect on sigma = x^2 (ROADMAP item 2): "
              f"devalued_frac = {frac:.4f} (truth 0), median bias_z = "
              f"{bias:.1f}; reported, not counted as failures")
    print(json.dumps({
        "correct": loop.failed == 0 and loop.attempted > 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes; the figures mean nothing")
    ap.add_argument("--probe", choices=("setup", "import"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    dualfx_sources()

    if args.probe == "import":
        t0 = time.perf_counter()
        import_dualfx()
        print(time.perf_counter() - t0)
        return 0
    if args.probe == "setup":
        w, seconds = set_up(args)
        w.close()
        print(seconds)
        return 0

    start = time.perf_counter()
    SCRATCH.mkdir(exist_ok=True)
    setups = [] if args.trace else [
        probe("setup", args) for _ in range((2 if args.tiny else SETUP_RUNS) - 1)]
    w, seconds = set_up(args)
    setups.append(seconds)
    from reference import calibrate   # imports numpy: after set-up is timed
    calib = [calibrate() for _ in range(CALIB_RUNS)]
    tr = Tracer(enabled=bool(args.trace))
    try:
        loop = timed_loop(w, tr, args)
        layer_values = reduce_layers(w, loop)
        if args.trace:
            metrics = per_layer(w, loop, args, calib, layer_values)
            tr.write(SCRATCH / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = end_to_end(loop, setups)
            calib.extend(calibrate() for _ in range(CALIB_RUNS))
    finally:
        w.close()
    report(args, loop, metrics, time.perf_counter() - start, layer_values,
           statistics.median(calib), len(setups))
    return 0


if __name__ == "__main__":
    sys.exit(main())
