"""Names, units and bounds of the benchmark's metrics.

END_TO_END are the metrics every workload reports with tracing off; they
are what BENCHMARK.json lists.  WORKLOAD adds each workload's own
end-to-end figures, which the full result, the suite table and the
comparison report carry.  A bound is the share of the baseline median
by which a metric may get worse before a comparison calls it worse.
"""

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "round_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# name -> (unit, better, bound, workloads that report it)
WORKLOAD = {
    "run_s": ("s", "lower", None, ("replay", "book", "routes")),
    "error_rate": ("ratio", "lower", 0.0, ("replay", "book", "routes")),
    "quote_ms_p50": ("ms", "lower", 0.1, ("book",)),
    "quote_ms_p95": ("ms", "lower", 0.15, ("book",)),
    "mark_ms_p50": ("ms", "lower", 0.1, ("book",)),
    "mark_ms_p95": ("ms", "lower", 0.15, ("book",)),
    "surface_points_per_s": ("1/s", "higher", 0.1, ("book",)),
    "cmd_price_s": ("s", "lower", 0.1, ("routes",)),
    "cmd_pde_s": ("s", "lower", 0.1, ("routes",)),
    "cmd_compare_s": ("s", "lower", 0.1, ("routes",)),
}


def reported(workload: str) -> dict:
    """Every end-to-end metric of one workload: name -> (unit, better, bound)."""
    out = dict(END_TO_END)
    for name, (unit, better, bound, where) in WORKLOAD.items():
        if workload in where:
            out[name] = (unit, better, bound)
    return out
