"""Names and units of everything the benchmark reports; ``BENCHMARK.json``
at the root of the repository lists the same names.  Importing this module
does not import ``z5color``."""

from __future__ import annotations

from tracing import TRACED_NAMES

WORKLOAD_NAMES = ("family-packets", "sparse-scaling", "extension-mix")

# sparse-scaling ladders.  The seed raises RecursionError at TOP_RUNG in
# first_coloring (all three graphs) and extend_two (BrokenWheel).
TOP_RUNG = 1000
# 83 rungs, so that op_tail_ms (the operation with ten costlier ones) is the
# 88th percentile and falls among the costly rungs of a few tenths of a
# second.  The BrokenWheel and Wheel count rungs from 20 to
# 60 vertices are dense, so that the median operation (op_p50_ms) falls
# among several deterministic graphs of similar cost rather than on one
# operation, and neither the near-triangulations, whose cost varies by seed,
# nor the millisecond first_coloring calls reach it.
COUNT_LADDER = {
    "broken_wheel": (20, 25, 30, 35, 40, 45, 50, 55, 60, 75, 100, 125, 150, 200, 300),
    "wheel": (10, 20, 30, 35, 40, 45, 50, 55, 60, 70, 85, 100, 125, 150, 200),
    "near_tri": (25, 50, 75, 100, 125, 150, 200),
}
# Wheel(TOP_RUNG) is left out of the extend_two ladder: it spends about 6 s
# before it raises, and BrokenWheel(TOP_RUNG) already shows the defect.
EXTEND_TWO_LADDER = {
    "broken_wheel": (25, 50, 100, 150, 200, 300, 400, TOP_RUNG),
    "wheel": (25, 50, 100, 150, 200, 300, 400),
    "near_tri": (50, 100, 200, 300, 400, 700, TOP_RUNG),
}
FIRST_LADDER = {name: (100, 200, 300, 400, 600, 800, 900, TOP_RUNG) for name in COUNT_LADDER}
# Slopes are fitted over the rungs from this size up, where the cost of a
# call is no longer dominated by its fixed part.
SLOPE_MIN_N = 75

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer() -> dict[str, str]:
    out: dict[str, str] = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.p50_us"] = "us"
    out["solver.marginal_counts.entries"] = "count"
    out["solver.marginal_counts.nonzero_share"] = "share"
    for fn, ladder in (("count_colorings", COUNT_LADDER), ("extend_two", EXTEND_TWO_LADDER)):
        for graph, sizes in ladder.items():
            for n in sizes:
                out[f"solver.{fn}.{graph}-{n}.s"] = "s"
            out[f"solver.{fn}.{graph}.slope"] = "ratio"
    out["solver.first_coloring.raised"] = "count"
    out["solver.extend_two.raised"] = "count"
    out["solver.color_short_cycle.hub_share"] = "share"
    out["solver.extend_three.certificate_share"] = "share"
    out["solver.extend_three.counts_per_certificate"] = "ratio"
    out["families.built_family.members"] = "count"
    out["families.built_family.setup_s"] = "s"
    out["trace.overhead"] = "ratio"
    out["trace.matches_untraced"] = "flag"
    out["baseline.marginal_counts.path_keep_ms"] = "ms"
    out["baseline.first_coloring.raise_n"] = "vertices"
    out["baseline.first_coloring.raise_n_traced"] = "vertices"
    out["baseline.extend_two.raise_n"] = "vertices"
    out["baseline.mismatches"] = "count"
    return out


PER_LAYER = _per_layer()
