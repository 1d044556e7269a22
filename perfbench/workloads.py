"""The benchmark's four workloads: how each is set up and run.

``prepare(seed)`` is the set-up a user pays on every command: it resolves
the workload's programs (``table1`` and ``sweep`` in a seed-permuted order,
so the program under test only ever sees the generated list).  ``run`` does
the timed work and returns one row per (program, depth) bound plus the
program's own ``PerfStats`` counters.  ``WHY`` gives the reason for each
workload; ``BENCHMARK.json`` is generated from it.  Each stresses other
layers, and each layer has a workload that bypasses it: ``sweep`` bypasses
``table1``'s polytope and stepping, ``anytime`` bypasses ``fleet``'s codec,
store and pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

WHY = {
    "table1": "Table 1 at depth 50 inline, as `repro table1` runs it: polytope "
    "measuring plus shallow-and-wide stepping and substitution",
    "sweep": "non-affine retry loops at depth 35, sweep depth 28: the certified "
    "sweep and numpy kernel, bypassing table1's polytope and stepping layers",
    "anytime": "schedule 260,520,650 on sig-branch3(3/5,pad=60) in one process: "
    "deep-and-narrow stepping with no store, codec or pool",
    "fleet": "the same schedule via `lower-bound --cache-dir --explore-jobs 2`: "
    "adds frontier codec, store reads and writes, and pool IPC to anytime",
}

SCHEDULE_PROGRAM = "sig-branch3(3/5,pad=60)"
SCHEDULE = (260, 520, 650)


def _shuffled(names, seed):
    names = list(names)
    random.Random(seed).shuffle(names)
    return names


def _text(value):
    """Exact digits of a bound: ``p/q`` for fractions, ``repr`` for floats."""
    return str(value) if isinstance(value, Fraction) else repr(float(value))


def _row(program, depth, probability, measure_gap, anytime_gap, exhaustive):
    return {
        "program": program.name,
        "depth": depth,
        "lower": _text(probability),
        "kind": "exact" if isinstance(probability, Fraction) else "float",
        "measure_gap": _text(measure_gap),
        "anytime_gap": _text(anytime_gap),
        "exhaustive": exhaustive,
        "known": program.known_probability,
        "error": None,
    }


def _error_row(program, depth, error):
    return {
        "program": program.name,
        "depth": depth,
        "lower": None,
        "known": program.known_probability,
        "error": error,
    }


def _batch_rows(report, programs, depth):
    from repro.batch.jobs import decode_number
    from repro.lowerbound.result import LowerBoundResult

    rows = []
    for result in report.results:
        program = programs[result.spec.program]
        if not result.ok:
            rows.append(_error_row(program, depth, result.error or "job failed"))
            continue
        payload = result.payload
        bound = LowerBoundResult(
            probability=decode_number(payload["probability"]),
            expected_steps=decode_number(payload["expected_steps"]),
            paths=(),
            max_steps=depth,
            exhaustive=payload["exhaustive"],
            exact_measures=payload["exact_measures"],
            measure_gap=decode_number(payload["measure_gap"]),
        )
        rows.append(
            _row(
                program,
                depth,
                bound.probability,
                bound.measure_gap,
                bound.anytime_gap(),
                bound.exhaustive,
            )
        )
    return rows


# -- table1 and sweep: one inline batch ------------------------------------------


def _prepare_suite(registry, seed, suite, depth):
    from repro.programs import resolve_program

    names = _shuffled(registry(), seed)
    programs = {name: resolve_program(name) for name in names}
    return {"order": names, "programs": programs, "specs": suite(depth=depth, programs=programs)}


def prepare_table1(seed):
    from repro.batch.suites import table1_suite
    from repro.programs import table1_programs

    return _prepare_suite(table1_programs, seed, table1_suite, 50)


def run_table1(state, scratch):
    from repro.batch import run_batch

    report = run_batch(state["specs"], jobs=1)
    return _batch_rows(report, state["programs"], 50), report.stats.as_dict()


def prepare_sweep(seed):
    from repro.batch.suites import sweep_suite
    from repro.programs.extra import nonaffine_programs

    return _prepare_suite(nonaffine_programs, seed, sweep_suite, 35)


def run_sweep(state, scratch):
    from repro.batch import run_batch
    from repro.geometry import MeasureEngine, MeasureOptions

    engine = MeasureEngine(MeasureOptions(sweep_depth=28))
    report = run_batch(state["specs"], jobs=1, engine=engine)
    return _batch_rows(report, state["programs"], 35), report.stats.as_dict()


# -- anytime and fleet: one depth schedule ---------------------------------------


def prepare_schedule(seed):
    from repro.programs import resolve_program

    return {"order": [SCHEDULE_PROGRAM], "program": resolve_program(SCHEDULE_PROGRAM)}


def run_anytime(state, scratch):
    """``lower-bound PROGRAM --schedule 260,520,650`` without a store."""
    from repro.geometry import MeasureEngine
    from repro.lowerbound import LowerBoundEngine

    program = state["program"]
    engine = MeasureEngine()
    session = LowerBoundEngine(strategy=program.strategy, measure_engine=engine).session(
        program.applied
    )
    rows = [
        _row(
            program,
            result.max_steps,
            result.probability,
            result.measure_gap,
            result.anytime_gap(),
            result.exhaustive,
        )
        for result in session.run_schedule(SCHEDULE)
    ]
    return rows, engine.stats.as_dict()


def run_fleet(state, scratch):
    """``lower-bound PROGRAM --schedule ... --cache-dir FRESH --explore-jobs 2``.

    The command runs through the CLI entry point; the exact per-depth rows
    are read off the scheduler's report, which the CLI only prints rounded.
    """
    import repro.batch.distribute as distribute
    from repro.batch.jobs import decode_number
    from repro.cli import main

    program = state["program"]
    store = Path(scratch) / "store"
    stats_path = Path(scratch) / "stats.json"
    reports = []
    schedule = distribute.run_distributed_schedule

    def capture(*args, **kwargs):
        reports.append(schedule(*args, **kwargs))
        return reports[-1]

    distribute.run_distributed_schedule = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(
                [
                    "lower-bound",
                    SCHEDULE_PROGRAM,
                    "--schedule",
                    ",".join(str(depth) for depth in SCHEDULE),
                    "--cache-dir",
                    str(store),
                    "--explore-jobs",
                    "2",
                    "--stats-json",
                    str(stats_path),
                ]
            )
    finally:
        distribute.run_distributed_schedule = schedule
    if code != 0 or len(reports) != 1:
        return [_error_row(program, depth, f"exit {code}") for depth in SCHEDULE], {}
    rows = [
        _row(
            program,
            row["depth"],
            decode_number(row["probability"]),
            decode_number(row["measure_gap"]),
            decode_number(row["anytime_gap"]),
            row["exhaustive"],
        )
        for row in reports[0].rows
    ]
    return rows, json.loads(stats_path.read_text())["counters"]


def store_backend(directory):
    """The backend ``--cache-dir`` picked for a fresh directory."""
    from repro.batch.store_sqlite import open_store

    return open_store(directory).backend_name


PREPARE = {
    "table1": prepare_table1,
    "sweep": prepare_sweep,
    "anytime": prepare_schedule,
    "fleet": prepare_schedule,
}

RUN = {
    "table1": run_table1,
    "sweep": run_sweep,
    "anytime": run_anytime,
    "fleet": run_fleet,
}
