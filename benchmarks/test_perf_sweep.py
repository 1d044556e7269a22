"""Perf benchmark for the block-decomposed adaptive sweep (PR 4).

The workload is the non-affine retry library (``sig-retry``,
``square-retry``, ``sig-sum-retry``): every path constraint set of these
programs needs the certified subdivision sweep, since ``sig``/``mul``-of-
samples admit no affine half-space form.  Each program's lower bound is
computed three ways:

* **joint-uncached** -- ``block_sweep=False`` with the memo disabled: the
  historical full-dimensional fixed-depth sweep,
* **joint** -- ``block_sweep=False`` with the memo enabled: must be
  *bit-identical* to joint-uncached (the joint reference's guarantee),
* **block** -- the default engine: per-block sweeping with the position-
  independent sweep memo.

Asserted (deterministically, so it can run in CI):

* joint and joint-uncached agree bit-for-bit (probability, gap, paths),
* the block bound is never below the joint bound (the per-block product
  provably tightens at equal budget) and the certified measure gap never
  grows,
* across the multi-block programs, the block engine examines at least
  ``4x`` fewer sweep boxes than the joint engine,
* a warm rerun seeded from the persistent sweep store
  performs **zero** base sweep computations and reproduces the cold bounds
  byte-for-byte.

Counters and within-run timings go to ``BENCH_sweep.json`` at the
repository root; ``benchmarks/compare_bench.py`` diffs that file against the
committed baseline in CI's ``perf-trajectory`` job.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

from repro.batch import open_store, run_batch
from repro.batch.jobs import decode_number
from repro.batch.suites import sweep_suite
from repro.geometry import MeasureEngine, MeasureOptions
from repro.lowerbound import LowerBoundEngine
from repro.programs.extra import nonaffine_programs

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"
_BOX_REDUCTION_FLOOR = 4.0
_DEPTH = 35


def _bound(program, options=None, cache_enabled=True, engine=None):
    """One lower-bound run; returns (result, engine, elapsed_seconds)."""
    if engine is None:
        engine = MeasureEngine(options, cache_enabled=cache_enabled)
    lower = LowerBoundEngine(strategy=program.strategy, measure_engine=engine)
    started = time.perf_counter()
    result = lower.lower_bound(program.applied, max_steps=_DEPTH)
    return result, engine, time.perf_counter() - started


def test_block_sweep_cuts_boxes_and_tightens_bounds():
    joint_options = MeasureOptions(block_sweep=False)
    rows = {}
    cold_bounds = {}
    for name, program in sorted(nonaffine_programs().items()):
        uncached, uncached_engine, _ = _bound(
            program, joint_options, cache_enabled=False
        )
        joint, joint_engine, joint_elapsed = _bound(program, joint_options)
        block, block_engine, block_elapsed = _bound(program)

        # The joint reference must reproduce the historical sweep
        # bit-for-bit, cached or not.
        assert joint.probability == uncached.probability, name
        assert joint.measure_gap == uncached.measure_gap, name
        assert joint.path_count == uncached.path_count, name
        assert (
            joint_engine.stats.sweep_boxes_examined
            <= uncached_engine.stats.sweep_boxes_examined
        ), name

        # Tightening: the per-block product never loses to the joint sweep
        # at equal budget, and the certified slack never grows.
        assert block.probability >= joint.probability, name
        assert block.measure_gap <= joint.measure_gap, name
        if program.known_probability is not None:
            assert float(block.probability) <= program.known_probability + 1e-9, name

        joint_boxes = joint_engine.stats.sweep_boxes_examined
        block_boxes = block_engine.stats.sweep_boxes_examined
        assert block_boxes > 0, name  # the workload must actually sweep
        multi_block = block_engine.stats.multi_block_sets > 0
        rows[name] = {
            "paths": block.path_count,
            "joint_boxes": joint_boxes,
            "block_boxes": block_boxes,
            "box_reduction": round(joint_boxes / block_boxes, 2),
            "joint_bound": float(joint.probability),
            "block_bound": float(block.probability),
            "joint_gap": float(joint.measure_gap),
            "block_gap": float(block.measure_gap),
            "multi_block": multi_block,
            "sweep_blocks": block_engine.stats.sweep_blocks,
            "heap_peak": block_engine.stats.sweep_heap_peak,
            "joint_ms": round(joint_elapsed * 1000, 3),
            "block_ms": round(block_elapsed * 1000, 3),
        }
        cold_bounds[name] = block.probability
        print(
            f"{name:20s} boxes {joint_boxes:7d} -> {block_boxes:5d} "
            f"({joint_boxes / block_boxes:6.1f}x)  "
            f"LB {float(joint.probability):.6f} -> {float(block.probability):.6f}  "
            f"gap {float(joint.measure_gap):.2e} -> {float(block.measure_gap):.2e}"
        )

    multi = {name: row for name, row in rows.items() if row["multi_block"]}
    assert multi, "the non-affine library should contain multi-block programs"
    joint_total = sum(row["joint_boxes"] for row in multi.values())
    block_total = sum(row["block_boxes"] for row in multi.values())
    reduction = joint_total / block_total if block_total else float("inf")
    assert reduction >= _BOX_REDUCTION_FLOOR, (
        f"sweep boxes on multi-block programs only dropped {reduction:.2f}x "
        f"({joint_total} -> {block_total}), expected >= {_BOX_REDUCTION_FLOOR}x"
    )

    # -- warm rerun from the persistent sweep store --------------------------
    # A cold batch populates the sharded store; a fresh engine seeded the way
    # worker processes are (import at startup) must then answer every block
    # sweep from the store: zero base sweep computations, identical bounds.
    cache_dir = Path(tempfile.mkdtemp(prefix="repro-sweep-bench-"))
    try:
        cache = open_store(cache_dir)
        specs = sweep_suite(depth=_DEPTH)
        cold_report = run_batch(specs, jobs=1, cache=cache)
        assert all(result.ok for result in cold_report.results)
        assert cache.sweep_entry_count(MeasureEngine()) > 0, "sweep entries must persist"

        warm_engine = MeasureEngine()
        warm_engine.import_cache_entries(cache.load_measures(warm_engine))
        warm_engine.import_sweep_entries(cache.load_sweeps(warm_engine))
        programs = nonaffine_programs()
        for result in cold_report.results:
            program = programs[result.spec.program]
            warm, _, _ = _bound(program, engine=warm_engine)
            assert warm.probability == decode_number(
                result.payload["probability"]
            ), result.spec.program
            assert warm.probability == cold_bounds[result.spec.program]
        warm_sweep_blocks = warm_engine.stats.sweep_blocks
        assert warm_sweep_blocks == 0, (
            f"warm rerun recomputed {warm_sweep_blocks} base sweeps; "
            "expected every block to come from the persistent store"
        )
        assert warm_engine.stats.persistent_hits > 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    payload = {
        "benchmark": "block-decomposed adaptive sweep",
        "workload": "lower bounds over the non-affine retry library",
        "depth": _DEPTH,
        "box_reduction_floor": _BOX_REDUCTION_FLOOR,
        "multi_block_programs": len(multi),
        "multi_block_joint_boxes": joint_total,
        "multi_block_block_boxes": block_total,
        "aggregate_box_reduction": round(reduction, 2),
        "warm_sweep_blocks": warm_sweep_blocks,
        "programs": rows,
    }
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"multi-block programs  : {len(multi)}  sweep boxes "
        f"{joint_total} -> {block_total} ({reduction:.1f}x), warm base sweeps "
        f"{warm_sweep_blocks}"
    )
