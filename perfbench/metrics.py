"""The benchmark's metrics: what each measures and what it should move.

``END_TO_END`` are what a user of ``repro`` sees, taken from untraced runs.
``PER_LAYER`` come from the traced run; each names the end-to-end metric it
should move and the workloads on which it should move it, so a later change
can state its claim before it is measured.
"""

from __future__ import annotations

ALL = "table1,sweep,anytime,fleet"

# (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref", "ref", "lower", 0.25),
    ("cpu_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_frac", "ratio", "higher", 0.01),
    ("gap_sum", "prob", "lower", 0.01),
)

# (name, unit, better, moves, on workloads)
PER_LAYER = (
    ("startup.import_s", "s", "lower", "setup_s", ALL),
    ("spcf.resolve_s", "s", "lower", "setup_s (should stay small)", ALL),
    ("symbolic.step_s", "s", "lower", "wall_ref,cpu_ref", "anytime,fleet,table1; none on sweep"),
    ("symbolic.substitute_s", "s", "lower", "wall_ref,cpu_ref", "anytime,fleet,table1; none on sweep"),
    ("symbolic.explore_s", "s", "lower", "wall_ref,cpu_ref", "anytime,fleet,table1; none on sweep"),
    ("symbolic.steps", "count", "lower", "wall_ref,cpu_ref", "anytime,fleet,table1; none on sweep"),
    ("symbolic.frontier_peak", "count", "lower", "peak_rss_mb", "anytime,fleet"),
    ("symbolic.paths_resumed", "count", "higher", "wall_ref", "anytime,fleet"),
    ("symbolic.steps_per_s", "1/s", "higher", "wall_ref,cpu_ref", "anytime,fleet,table1"),
    ("symbolic.codec_s", "s", "lower", "wall_ref", "fleet only"),
    ("geometry.measure_s", "s", "lower", "wall_ref", "table1"),
    ("geometry.canonicalize_s", "s", "lower", "wall_ref", "table1"),
    ("geometry.measure_requests", "count", "lower", "wall_ref", "table1"),
    ("geometry.cache_hit_rate", "ratio", "higher", "wall_ref", "table1"),
    ("geometry.block_hit_rate", "ratio", "higher", "wall_ref", "table1"),
    ("geometry.polytope_s", "s", "lower", "wall_ref", "table1; zero on sweep,anytime,fleet"),
    ("geometry.polytope_calls", "count", "lower", "wall_ref", "table1; zero on sweep,anytime,fleet"),
    ("geometry.polygon_s", "s", "lower", "wall_ref", "table1; zero on sweep,anytime,fleet"),
    ("geometry.sweep_s", "s", "lower", "wall_ref", "sweep; none on anytime"),
    ("geometry.kernel_s", "s", "lower", "wall_ref", "sweep; none on anytime"),
    ("geometry.sweep_boxes", "count", "lower", "wall_ref", "sweep; none on anytime"),
    ("geometry.boxes_per_s", "1/s", "higher", "wall_ref", "sweep; none on anytime"),
    ("geometry.kernel_boxes", "count", "higher", "wall_ref", "sweep; none on anytime"),
    ("geometry.kernel_share", "ratio", "higher", "wall_ref", "sweep; none on anytime"),
    ("lowerbound.extend_s", "s", "lower", "wall_ref", "table1,sweep"),
    ("batch.store_write_s", "s", "lower", "wall_ref", "fleet; absent on anytime"),
    ("batch.store_read_s", "s", "lower", "wall_ref", "fleet; absent on anytime"),
    ("batch.store_writes", "count", "lower", "wall_ref", "fleet; absent on anytime"),
    ("batch.store_reads", "count", "lower", "wall_ref", "fleet; absent on anytime"),
    ("batch.claim_s", "s", "lower", "wall_ref", "fleet; absent on anytime"),
    ("batch.schedule_s", "s", "lower", "wall_ref", "fleet; absent on anytime"),
    ("batch.supervisor_s", "s", "lower", "wall_ref", "table1,sweep,fleet"),
    ("batch.worker_busy_s", "s", "lower", "wall_ref,cpu_ref", "fleet"),
    ("batch.pool_wait_s", "s", "lower", "wall_ref,cpu_ref", "fleet"),
    ("batch.parallel_eff", "ratio", "higher", "wall_ref", "fleet"),
    ("batch.shards_executed", "count", "lower", "wall_ref,cpu_ref", "fleet"),
    ("batch.shards_stolen", "count", "lower", "wall_ref", "fleet"),
    ("batch.retries", "count", "lower", "wall_ref,ok_frac", "fleet"),
    ("trace.coverage", "ratio", "higher", "none; gauges the trace", ALL),
    ("trace.overhead", "ratio", "lower", "none; gauges the trace", ALL),
)

# Counters that must repeat exactly between runs of the same code and seed.
EXACT = (
    "symbolic.steps",
    "symbolic.frontier_peak",
    "symbolic.paths_resumed",
    "geometry.measure_requests",
    "geometry.polytope_calls",
    "geometry.sweep_boxes",
    "geometry.kernel_boxes",
    "batch.store_writes",
    "batch.shards_executed",
    "batch.retries",
)
# Counters that depend on how the pool scheduled the shards: reported, never
# compared.  Worker cache hits would join them if a pooled workload measured
# in its workers (the fleet measures in the supervisor).
SCHEDULING = ("batch.shards_stolen", "batch.store_reads")

MIN_COVERAGE = 0.95

# The PerfStats field behind each counter metric.
STAT_FIELDS = {
    "symbolic.steps": "symbolic_steps",
    "symbolic.frontier_peak": "frontier_peak",
    "symbolic.paths_resumed": "paths_resumed",
    "geometry.measure_requests": "measure_requests",
    "geometry.polytope_calls": "polytope_calls",
    "geometry.sweep_boxes": "sweep_boxes_examined",
    "geometry.kernel_boxes": "kernel_boxes",
    "batch.shards_executed": "shards_executed",
    "batch.shards_stolen": "shards_stolen",
    "batch.retries": "retries",
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def _covered(interval, busy):
    """Length of ``interval`` covered by the union of ``busy`` intervals."""
    start, end = interval
    clipped = sorted((max(s, start), min(e, end)) for s, e in busy if e > start and s < end)
    covered, reach = 0.0, start
    for s, e in clipped:
        if e > reach:
            covered += e - max(s, reach)
            reach = e
    return covered


def layer_metrics(tracer, stats, wall_s, import_s, resolve_s):
    """Every per-layer metric of one traced repetition."""
    spills = tracer.worker_spills()
    selfs, calls = {}, {}
    for layers in [tracer.layers] + [spill["layers"] for spill in spills]:
        for layer, (count, _total, self_s) in layers.items():
            selfs[layer] = selfs.get(layer, 0.0) + self_s
            calls[layer] = calls.get(layer, 0) + count
    busy = [tuple(interval) for spill in spills for interval in spill["busy"]]
    busy_s = sum(end - start for start, end in busy)
    capacity = sum((end - start) * jobs for start, end, jobs in tracer.pool_calls)
    waited = sum(
        end - start - _covered((start, end), busy)
        for start, end, _jobs in tracer.pool_calls
    )
    stat = {name: stats.get(field, 0) for name, field in STAT_FIELDS.items()}
    stepping_s = sum(
        selfs.get(layer, 0.0)
        for layer in ("symbolic.step", "symbolic.substitute", "symbolic.explore")
    )
    sweeping_s = selfs.get("geometry.sweep", 0.0) + selfs.get("geometry.kernel", 0.0)
    values = {
        "startup.import_s": import_s,
        "spcf.resolve_s": resolve_s,
        "symbolic.step_s": selfs.get("symbolic.step", 0.0),
        "symbolic.substitute_s": selfs.get("symbolic.substitute", 0.0),
        "symbolic.explore_s": selfs.get("symbolic.explore", 0.0),
        "symbolic.steps_per_s": _ratio(stat["symbolic.steps"], stepping_s),
        "symbolic.codec_s": selfs.get("symbolic.codec", 0.0),
        "geometry.measure_s": selfs.get("geometry.measure", 0.0),
        "geometry.canonicalize_s": selfs.get("geometry.canonicalize", 0.0),
        "geometry.cache_hit_rate": _ratio(stats.get("cache_hits", 0), stats.get("measure_requests", 0)),
        "geometry.block_hit_rate": _ratio(
            stats.get("block_cache_hits", 0), stats.get("block_requests", 0)
        ),
        "geometry.polytope_s": selfs.get("geometry.polytope", 0.0),
        "geometry.polygon_s": selfs.get("geometry.polygon", 0.0),
        "geometry.sweep_s": selfs.get("geometry.sweep", 0.0),
        "geometry.kernel_s": selfs.get("geometry.kernel", 0.0),
        "geometry.boxes_per_s": _ratio(stat["geometry.sweep_boxes"], sweeping_s),
        "geometry.kernel_share": _ratio(stat["geometry.kernel_boxes"], stat["geometry.sweep_boxes"]),
        "lowerbound.extend_s": selfs.get("lowerbound.extend", 0.0),
        "batch.store_write_s": selfs.get("batch.store_write", 0.0),
        "batch.store_read_s": selfs.get("batch.store_read", 0.0),
        "batch.store_writes": calls.get("batch.store_write", 0),
        "batch.store_reads": calls.get("batch.store_read", 0),
        "batch.claim_s": selfs.get("batch.claim", 0.0),
        "batch.schedule_s": selfs.get("batch.schedule", 0.0),
        "batch.supervisor_s": selfs.get("batch.pool", 0.0),
        "batch.worker_busy_s": busy_s,
        "batch.pool_wait_s": waited if busy else 0.0,
        "batch.parallel_eff": _ratio(busy_s, capacity) if busy else 0.0,
        "trace.coverage": _ratio(sum(entry[2] for entry in tracer.layers.values()), wall_s),
    }
    values.update(stat)
    return values
