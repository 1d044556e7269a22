"""Perf benchmark for distributed anytime deepening (persisted frontiers).

The workload is the rank-3 *non-affine* ``sig-branch3(3/5,pad=60)`` (every
failed round spawns three recursive calls, every path constraint set needs
the subdivision sweep, and the guard padding makes each round compute-bound
-- see :func:`repro.programs.extra.sigmoid_tri_branching`) on a three-point
depth schedule, deepened two ways:

* **single process** -- ``run_distributed_schedule`` with ``jobs=1``: the
  plain resumable session, no sharding (the reference trajectory),
* **worker fleet** -- the same schedule with a 4-slot ``explore-shard``
  fleet: the persisted frontier is split into per-subtree shards, extended
  by work-stealing workers, and absorbed back.

Asserted (deterministically, so it can run on any machine):

* the fleet's per-depth trajectory payload is **byte-identical** to the
  single-process run (the paper's anytime semantics survive distribution),
* a run that "crashes" between depths resumes from the store with
  ``paths_resumed > 0`` and reports exactly the uninterrupted run's
  ``symbolic_steps`` (no completed step re-executes).

Asserted only on machines with >= 4 cores (CI's runners; a 1-core emitter
records ``parallel_gate_enforced: false`` instead, the ``BENCH_batch``
convention):

* the 4-worker fleet finishes the deepening >= 2x faster wall-clock.

Counters, steps/sec and the parallel-deepening speedup go to
``BENCH_dist.json`` at the repository root; ``benchmarks/compare_bench.py``
diffs that file against the committed baseline in CI's ``perf-trajectory``
job.  The committed ``BENCH_anytime`` baseline is not touched: the
distributed workload lives in its own registry
(``repro.programs.extra.dist_programs``).
"""

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro.astcheck import build_execution_tree
from repro.batch.distribute import run_distributed_schedule
from repro.batch.store_sqlite import open_store
from repro.geometry import MeasureEngine
from repro.programs import dist_programs

_RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dist.json"
_DIST_SPEEDUP_FLOOR = 2.0
_WORKLOAD = "sig-branch3(3/5,pad=60)"
_SCHEDULE = (260, 520, 780)
_MAX_PATHS = 100_000
_FLEET_JOBS = 4


def _run_schedule(program, store_dir, jobs, schedule=_SCHEDULE):
    engine = MeasureEngine()
    store = open_store(store_dir)
    started = time.perf_counter()
    report = run_distributed_schedule(
        program.name,
        program,
        list(schedule),
        store=store,
        engine=engine,
        jobs=jobs,
        max_paths=_MAX_PATHS,
    )
    elapsed = time.perf_counter() - started
    return report, engine, elapsed


def test_fleet_deepening_is_byte_identical_and_faster():
    name = _WORKLOAD
    program = dist_programs()[name]
    rank = build_execution_tree(program.fix).max_recursive_calls
    assert rank >= 3, f"{name} is not a rank >= 3 workload program"
    cores = os.cpu_count() or 1

    scratch = Path(tempfile.mkdtemp(prefix="repro-dist-bench-"))
    try:
        # -- single process (the reference trajectory) -----------------------
        single_report, single_engine, single_seconds = _run_schedule(
            program, scratch / "single", jobs=1
        )
        single_payload = json.dumps(single_report.payload(), sort_keys=True)
        single_steps = single_engine.stats.symbolic_steps
        assert single_steps > 0

        # -- 4-worker fleet --------------------------------------------------
        fleet_report, fleet_engine, fleet_seconds = _run_schedule(
            program, scratch / "fleet", jobs=_FLEET_JOBS
        )
        fleet_payload = json.dumps(fleet_report.payload(), sort_keys=True)
        assert fleet_payload == single_payload, (
            "fleet trajectory diverged from the single-process run"
        )
        assert fleet_engine.stats.symbolic_steps == single_steps
        assert fleet_engine.stats.paths_resumed == single_engine.stats.paths_resumed
        assert fleet_engine.stats.frontier_peak == single_engine.stats.frontier_peak
        shards_executed = fleet_engine.stats.shards_executed
        shards_stolen = fleet_engine.stats.shards_stolen
        assert shards_executed > 0

        speedup = single_seconds / fleet_seconds if fleet_seconds else None
        gate_enforced = cores >= _FLEET_JOBS
        if gate_enforced:
            assert speedup is not None and speedup >= _DIST_SPEEDUP_FLOOR, (
                f"4-worker deepening only {speedup:.2f}x faster "
                f"({single_seconds:.2f}s -> {fleet_seconds:.2f}s), "
                f"expected >= {_DIST_SPEEDUP_FLOOR}x on {cores} cores"
            )

        # -- crash-resume: no completed step re-executes ---------------------
        crash_dir = scratch / "crash"
        _run_schedule(program, crash_dir, jobs=2, schedule=_SCHEDULE[:2])
        resumed_report, resumed_engine, _ = _run_schedule(
            program, crash_dir, jobs=2
        )
        assert resumed_report.resumed
        assert json.dumps(resumed_report.payload(), sort_keys=True) == single_payload
        assert resumed_engine.stats.symbolic_steps == single_steps
        assert resumed_engine.stats.paths_resumed == single_engine.stats.paths_resumed
        assert resumed_engine.stats.paths_resumed > 0
        assert resumed_engine.stats.frontier_restores == 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    payload = {
        "benchmark": "distributed anytime deepening over a persisted frontier",
        "program": name,
        "rank": rank,
        "schedule": list(_SCHEDULE),
        "max_paths": _MAX_PATHS,
        "cpu_count": cores,
        "fleet_jobs": _FLEET_JOBS,
        "byte_identical_trajectory": True,
        "single_steps": single_steps,
        "single_seconds": round(single_seconds, 4),
        "steps_per_second_single": round(single_steps / single_seconds, 1)
        if single_seconds
        else None,
        "fleet_seconds": round(fleet_seconds, 4),
        "steps_per_second_fleet": round(single_steps / fleet_seconds, 1)
        if fleet_seconds
        else None,
        "shards_executed": shards_executed,
        "shards_stolen": shards_stolen,
        "dist_speedup_floor": _DIST_SPEEDUP_FLOOR,
        "parallel_gate_enforced": gate_enforced,
        "resume": {
            "paths_resumed": resumed_engine.stats.paths_resumed,
            "symbolic_steps_equal": True,
            "frontier_restores": resumed_engine.stats.frontier_restores,
        },
    }
    # A 1-core "speedup" would be pure scheduling noise: record the ratio
    # only where a fleet could actually fan out (the BENCH_batch convention).
    if cores >= 2 and speedup is not None:
        payload["parallel_deepening_speedup"] = round(speedup, 3)
    _RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(f"dist workload      : {name} (rank {rank}), schedule {list(_SCHEDULE)}")
    print(f"single  (jobs=1)   : {single_seconds:8.2f} s   {single_steps} steps")
    print(
        f"fleet   (jobs={_FLEET_JOBS})   : {fleet_seconds:8.2f} s   "
        f"{shards_executed} shards, {shards_stolen} stolen"
        + (f"   speedup {speedup:4.2f}x" if speedup is not None else "")
    )
    if not gate_enforced:
        print(f"speedup gate       : skipped ({cores} core(s) < {_FLEET_JOBS})")
    print(
        f"crash-resume       : {resumed_engine.stats.paths_resumed} paths resumed, "
        "steps equal to uninterrupted"
    )
