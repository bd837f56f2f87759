"""Traced-run extras: host drift, the ROADMAP reference rows, and scaling.

None of these is an operation of a workload.  `calibrate` times a fixed
pure-Python and numpy loop so that drift of a shared host shows apart from
changes to the program; `speed_probe` times a short pure-Python loop that
the timed loop runs after every operation, to scale the end-to-end times to
a fixed host speed; `roadmap_rows` re-times ROADMAP item 1's baseline
table at its stated sizes; `scaling` checks that workers=2 reproduces the
workers=1 arrays bit for bit and reports the speed-up.
"""

from __future__ import annotations

import gc
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np


def calibrate() -> float:
    """ms for a fixed Fraction loop plus a fixed numpy loop; the program's
    code does not run here."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(3000):
        acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, i % 11 + 1)
    a = np.arange(1.0, 200_001.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)
    return (time.perf_counter() - t0) * 1e3


def speed_probe() -> float:
    """ms for a fixed Fraction loop of about 1 ms; the program's code does
    not run here, and the garbage collector is off, so that what the last
    operation left on the heap does not change the probe's time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(150):
            acc += (Fraction(i % 7 + 1, i % 5 + 2)
                    * Fraction(i % 3 + 1, i % 11 + 1))
        return (time.perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def _ms(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return (time.perf_counter() - t0) * 1e3


def roadmap_rows(scratch: Path, tiny: bool) -> dict[str, float]:
    """ROADMAP item 1's baseline rows (the estimate() row excluded), one
    timing each; tiny runs scale the sizes down 50x."""
    from dualfx.catalog import get_model
    from dualfx.pricing import make_claim, parity_table, price, tail_diagnostic
    from dualfx.sde import MCConfig, cross_measure_check, simulate
    from dualfx.sde.engine import BLOCK, block_generator, dump_batch_csv

    n = 2_000 if tiny else 100_000
    seed = 20120229
    euler = get_model("qnv(1,0,0)").model
    bessel = get_model("recip_bessel").model
    cfg = MCConfig(n=n, steps=64, seed=seed, scheme="euler_absorbed")
    blocks = [(b, min(BLOCK, n - b * BLOCK))
              for b in range((n + BLOCK - 1) // BLOCK)]

    def draws():
        for b, m in blocks:
            gen = block_generator(seed, b)
            for _ in range(cfg.steps):
                gen.standard_normal(m)
                gen.random(m)

    def sigmas():
        dt = euler.horizon / cfg.steps
        for _, m in blocks:
            x = np.linspace(0.1, 3.0, m)
            for k in range(cfg.steps):
                euler.sigma(x, k * dt)

    exact_cfg = MCConfig(n=n, seed=seed)
    rows = {
        "roadmap.euler_1e5x64_ms": _ms(simulate, euler, cfg),
        "roadmap.rng_1e5x64_ms": _ms(draws),
        "roadmap.sigma_1e5x64_ms": _ms(sigmas),
        "roadmap.euler_1e5x64_2w_ms": _ms(simulate, euler,
                                          replace(cfg, workers=2)),
        "roadmap.exact_1e5_ms": _ms(simulate, bessel, exact_cfg),
        "roadmap.price_1e5_ms": _ms(price, bessel, make_claim("call", 1.0),
                                    exact_cfg),
        "roadmap.parity_3k_ms": _ms(parity_table, bessel, [0.5, 1.0, 2.0],
                                    exact_cfg),
        "roadmap.cross_check_1e5_ms": _ms(cross_measure_check, bessel,
                                          lambda x: min(x, 1.0), exact_cfg),
    }
    batch = simulate(bessel, exact_cfg)
    path = scratch / "roadmap.csv"
    rows["roadmap.csv_1e5_ms"] = _ms(dump_batch_csv, batch, path)
    path.unlink()
    ns = [20, 200, 2_000] if tiny else [1_000, 10_000, 100_000]
    rows["roadmap.tail_ms"] = _ms(tail_diagnostic, bessel,
                                  make_claim("self_quantoed", 1.0), ns,
                                  MCConfig(seed=seed, steps=16))
    return rows


def _same(a, b) -> bool:
    return all(np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
               for f in ("x", "hit_zero_time", "hit_infinity")) and (
        (a.y is None and b.y is None) or np.array_equal(a.y, b.y))


def scaling(euler_workload, seed: int, pairs: int) -> tuple[bool, float]:
    """(bit-identical, speed-up) of an euler_paths simulation run with
    workers=2 against workers=1 for the same seed; the speed-up is the
    ratio of the medians over `pairs` alternating pairs."""
    from dualfx.pricing import make_batches

    model = euler_workload.model
    one, two = [], []
    identical = True
    for i in range(pairs):
        runs = {}
        for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
            cfg = euler_workload.config(seed, workers=workers)
            t0 = time.perf_counter()
            runs[workers] = make_batches(model, cfg)
            (one if workers == 1 else two).append(time.perf_counter() - t0)
        identical &= all(_same(a, b) for a, b in zip(runs[1], runs[2]))
    return identical, float(np.median(one) / np.median(two))
