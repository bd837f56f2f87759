"""Every metric the benchmark prints, with its unit and what it should move.

End-to-end metrics come from the untraced run (`--trace 0`); per-layer
metrics from the traced run (`--trace 1`).  Each per-layer entry names the
end-to-end metric and workload it is predicted to move; on the workloads it
does not name, the prediction is no change.  A traced run reports a layer
its workload does not call from a short sample of the first workload, in the
order euler_paths, exact_report, lattice_corpus, that calls it.
BENCHMARK.json lists the same names and units.
"""

# The times of the first three are scaled to a fixed host speed (bench/run.py).
END_TO_END = {
    "ops_per_s": ("1/s", "completed operations per second of operation time, "
                         "host-speed scaled"),
    "op_p50_ms": ("ms", "median operation latency, host-speed scaled"),
    "op_p90_ms": ("ms", "90th-percentile operation latency, host-speed "
                        "scaled"),
    "setup_s": ("s", "import dualfx + model construction + input generation, "
                     "median of several set-ups in fresh processes"),
    "peak_rss_mb": ("MB", "peak resident memory of the workload's process"),
}

PER_LAYER = {
    "sde.engine.simulate_ms": ("ms", "op_p50_ms and ops_per_s on euler_paths "
                               "(~90% of an operation); small on exact_report"),
    "sde.engine.rng_ms": ("ms", "euler_paths (~37%): replay of the "
                          "operation's normals and uniforms"),
    "sde.models.sigma_ms": ("ms", "euler_paths (a few %): both legs' sigma "
                            "once per step and block"),
    "sde.engine.step_ms": ("ms", "euler_paths; derived: simulate - rng - "
                           "sigma"),
    "sde.engine.path_steps_per_s": ("1/s", "ops_per_s on euler_paths; "
                                    "2 n steps / simulate time"),
    "sde.engine.devalued_frac": ("ratio", "accuracy only: primal paths "
                                 "absorbed at zero, truth 0 for sigma = x^2"),
    "sde.engine.bias_z": ("sigma", "accuracy only: (E[X_T] - analytic) / "
                          "stderr, median over operations"),
    "sde.engine.exploded_frac": ("ratio", "none (context): dual paths that "
                                 "carry the correction leg"),
    "sde.engine.cross_check_ms": ("ms", "exact_report (~25%); self time"),
    "sde.engine.csv_ms": ("ms", "exact_report (~50%)"),
    "sde.engine.csv_bytes": ("B", "none: the CSV bytes for a seed are fixed"),
    "sde.engine.csv_rows_per_s": ("1/s", "exact_report"),
    "sde.engine.speedup_2w": ("ratio", "none: workers=1 over workers=2 "
                              "simulation time; the core count is printed"),
    "pricing.claims_ms": ("ms", "exact_report: price and price_euro_side "
                          "over the claim kinds"),
    "pricing.price_ms": ("ms", "small on euler_paths and exact_report"),
    "pricing.parity_ms": ("ms", "exact_report; self time"),
    "pricing.intl_ms": ("ms", "exact_report (~14%); self time"),
    "pricing.defect_ms": ("ms", "small on euler_paths and exact_report"),
    "pricing.tail_ms": ("ms", "euler_paths (~7%)"),
    "pricing.total_stderr": ("USD", "none: variance of the priced call total "
                             "at the fixed n"),
    "catalog.import_ms": ("ms", "setup_s on all three workloads"),
    "lattice.tree.build_ms": ("ms", "lattice_corpus (~9%)"),
    "lattice.tree.nodes": ("count", "none: nodes per corpus tree"),
    "lattice.checks.verify_ms": ("ms", "lattice_corpus (~12%)"),
    "lattice.checks.residuals": ("count", "none: exact residuals checked "
                                 "per operation"),
    "lattice.pricing.formula_ms": ("ms", "lattice_corpus (~25%)"),
    "lattice.pricing.superrep_ms": ("ms", "lattice_corpus (~17%)"),
    "lattice.pricing.lp_solves": ("count", "none: interior finite nodes "
                                  "solved per operation"),
    "physical.checks_ms": ("ms", "op_p90_ms on lattice_corpus (31-43%, "
                           "growing with tree size)"),
    "trace.coverage": ("ratio", "must lie within 10% of 1: layer self "
                       "times / operation time"),
    "trace.overhead_pct": ("%", "none (report only): traced vs untraced "
                           "op_p50_ms"),
    "host.calib_ms": ("ms", "none: fixed reference loop, shows host drift"),
    "roadmap.euler_1e5x64_ms": ("ms", "euler_paths; ROADMAP reference row"),
    "roadmap.rng_1e5x64_ms": ("ms", "euler_paths; ROADMAP reference row"),
    "roadmap.sigma_1e5x64_ms": ("ms", "euler_paths; ROADMAP reference row"),
    "roadmap.euler_1e5x64_2w_ms": ("ms", "none; ROADMAP reference row, "
                                   "workers=2"),
    "roadmap.exact_1e5_ms": ("ms", "exact_report; ROADMAP reference row"),
    "roadmap.price_1e5_ms": ("ms", "exact_report; ROADMAP reference row"),
    "roadmap.parity_3k_ms": ("ms", "exact_report; ROADMAP reference row"),
    "roadmap.cross_check_1e5_ms": ("ms", "exact_report; ROADMAP reference "
                                   "row"),
    "roadmap.csv_1e5_ms": ("ms", "exact_report; ROADMAP reference row"),
    "roadmap.tail_ms": ("ms", "euler_paths; ROADMAP reference row, "
                        "n = 1e3 / 1e4 / 1e5"),
}

# per-operation values reduced by the median instead of the mean
MEDIAN_REDUCED = {"sde.engine.bias_z", "pricing.total_stderr"}
