"""Named job suites mirroring the paper's evaluation, plus job-file loading.

A *suite* is the batch rendering of one evaluation section:

* ``table1``  -- lower bounds for every Table 1 program,
* ``table2``  -- AST verification for every Table 2 program,
* ``classify`` -- combined AST/PAST classification of the Table 2 programs,
* ``sweep``   -- lower bounds for the non-affine retry loops, the
  sweep-heavy workload exercising the block-decomposed subdivision sweep
  and its persistent sweep store,
* ``all``     -- table1, table2 and classify, concatenated.

The lower-bound suites (``table1``, ``sweep``) also come in an *anytime*
form: given a depth ``schedule``, each program becomes one incremental
``lower-bound-schedule`` job whose resumable session streams a bound per
scheduled depth -- instead of ``len(schedule)`` independent jobs that each
re-explore from the root.  The recorded payload carries the whole anytime
trajectory, so a depth column in Table 1 costs one job.

Cost hints are derived from the term size (scaled by the exploration depth
for lower bounds): they only inform the scheduler's longest-first ordering,
never the results.

A *job file* is a JSON list of ``{"program": ..., "analysis": ...,
"params": {...}}`` objects, the on-disk counterpart of a suite.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Union

from repro.batch.jobs import JobSpec, encode_number
from repro.programs import table1_programs, table2_programs
from repro.programs.extra import nonaffine_programs
from repro.programs.library import Program
from repro.spcf.syntax import term_size

SUITE_NAMES = ("table1", "table2", "classify", "sweep", "all")

__all__ = [
    "SUITE_NAMES",
    "classify_suite",
    "load_job_file",
    "schedule_suite",
    "suite",
    "sweep_suite",
    "table1_suite",
    "table2_suite",
]


def table1_suite(
    depth: int = 50,
    max_paths: int = 100_000,
    programs: Optional[Mapping[str, Program]] = None,
) -> List[JobSpec]:
    """One ``lower-bound`` job per Table 1 program."""
    programs = dict(programs) if programs is not None else table1_programs()
    return [
        JobSpec(
            program=name,
            analysis="lower-bound",
            params={"depth": depth, "max_paths": max_paths},
            cost_hint=float(term_size(program.applied) * depth),
        )
        for name, program in programs.items()
    ]


def table2_suite(
    max_steps: int = 5_000, programs: Optional[Mapping[str, Program]] = None
) -> List[JobSpec]:
    """One ``verify`` job per Table 2 program."""
    programs = dict(programs) if programs is not None else table2_programs()
    return [
        JobSpec(
            program=name,
            analysis="verify",
            params={"max_steps": max_steps},
            cost_hint=float(term_size(program.fix)),
        )
        for name, program in programs.items()
    ]


def classify_suite(
    max_steps: int = 2_000, programs: Optional[Mapping[str, Program]] = None
) -> List[JobSpec]:
    """One ``classify`` job per Table 2 program (the extension table)."""
    programs = dict(programs) if programs is not None else table2_programs()
    return [
        JobSpec(
            program=name,
            analysis="classify",
            params={"max_steps": max_steps},
            # Classification runs verification, refutation and per-argument
            # counting; weigh it above a plain verify of the same term.
            cost_hint=float(term_size(program.fix) * 6),
        )
        for name, program in programs.items()
    ]


def sweep_suite(
    depth: int = 35,
    max_paths: int = 100_000,
    programs: Optional[Mapping[str, Program]] = None,
) -> List[JobSpec]:
    """One ``lower-bound`` job per non-affine retry program.

    Every path constraint set of these programs needs the subdivision sweep
    (no affine form exists), so the suite is the canonical workload for the
    block-sweep memoization and its persistent store.
    """
    programs = dict(programs) if programs is not None else nonaffine_programs()
    return [
        JobSpec(
            program=name,
            analysis="lower-bound",
            params={"depth": depth, "max_paths": max_paths},
            cost_hint=float(term_size(program.applied) * depth),
        )
        for name, program in programs.items()
    ]


def schedule_suite(
    schedule: Sequence[int],
    max_paths: int = 100_000,
    programs: Optional[Mapping[str, Program]] = None,
    target_gap: Optional[Fraction] = None,
) -> List[JobSpec]:
    """One incremental ``lower-bound-schedule`` job per program.

    The anytime rendering of a lower-bound suite: every program's whole
    depth schedule is a single resumable job (suspended paths resume, each
    terminated path is measured once), and its payload records a bound per
    scheduled depth.  Defaults to the Table 1 program set.
    """
    schedule = [int(depth) for depth in schedule]
    programs = dict(programs) if programs is not None else table1_programs()
    return [
        JobSpec(
            program=name,
            analysis="lower-bound-schedule",
            params={
                "schedule": schedule,
                "max_paths": max_paths,
                "target_gap": encode_number(target_gap),
            },
            # An incremental schedule costs about as much as one from-scratch
            # run at its deepest point.
            cost_hint=float(term_size(program.applied) * max(schedule)),
        )
        for name, program in programs.items()
    ]


def suite(
    name: str,
    depth: int = 50,
    schedule: Optional[Sequence[int]] = None,
    target_gap: Optional[Fraction] = None,
) -> List[JobSpec]:
    """Resolve a ``--suite`` name to its job list.

    A ``schedule`` turns the lower-bound suites (``table1``, ``sweep``) into
    their anytime form -- one incremental job per program streaming a bound
    per scheduled depth; the other suites have no depth axis and reject it.
    """
    if schedule is not None:
        if name == "table1":
            return schedule_suite(schedule, target_gap=target_gap)
        if name == "sweep":
            return schedule_suite(
                schedule, programs=nonaffine_programs(), target_gap=target_gap
            )
        raise ValueError(
            f"suite {name!r} has no depth axis; --schedule applies to "
            "'table1' and 'sweep'"
        )
    if name == "table1":
        return table1_suite(depth=depth)
    if name == "table2":
        return table2_suite()
    if name == "classify":
        return classify_suite()
    if name == "sweep":
        return sweep_suite(depth=depth)
    if name == "all":
        return table1_suite(depth=depth) + table2_suite() + classify_suite()
    raise ValueError(f"unknown suite {name!r}; expected one of {SUITE_NAMES}")


def load_job_file(path: Union[str, Path]) -> List[JobSpec]:
    """Load a JSON job file into specs (strictly validated, unlike caches)."""
    with open(path, "r") as stream:
        document = json.load(stream)
    if not isinstance(document, list):
        raise ValueError("a job file must be a JSON list of job objects")
    specs = []
    for position, entry in enumerate(document):
        if not isinstance(entry, dict) or "program" not in entry or "analysis" not in entry:
            raise ValueError(
                f"job #{position} must be an object with 'program' and 'analysis'"
            )
        specs.append(JobSpec.from_dict(entry))
    return specs
