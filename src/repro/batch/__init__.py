"""Parallel analysis batches with a persistent cross-process cache.

The paper's evaluation is a batch of (program x analysis x parameters) runs;
this subsystem makes that batch a first-class object:

* :mod:`repro.batch.jobs`   -- ``JobSpec`` / ``JobResult`` with deterministic
  content-hash keys and JSON-safe payloads,
* :mod:`repro.batch.runner` -- the scheduler (``--jobs N`` worker processes,
  per-job failure tolerance, submission-order JSONL output),
* :mod:`repro.batch.store_sqlite` -- the persistent store of finished job
  results, measure/sweep entries and exploration frontiers shared across
  processes and sessions: one WAL SQLite database of checksummed envelopes
  (concurrent readers, transactional merges, indexed GC, damaged rows
  quarantined), opened by :func:`~repro.batch.store_sqlite.open_store`,
* :mod:`repro.batch.distribute` -- distributed anytime deepening: a
  store-persisted exploration frontier is split into per-subtree shards and
  extended by a work-stealing fleet of ``explore-shard`` jobs, with
  per-depth results byte-identical to a single process
  (``--explore-jobs``),
* :mod:`repro.batch.faults` -- deterministic fault injection (worker kills,
  hangs, torn writes, bit flips) driving the fault-tolerance test suite,
* :mod:`repro.batch.doctor` -- the read-only store health checks behind
  ``python -m repro doctor``,
* :mod:`repro.batch.suites` -- named suites mirroring Table 1 / Table 2 /
  the classification extension, and job-file loading.

The CLI surface is ``python -m repro batch`` (see :mod:`repro.cli`);
``table1``/``table2``/``report`` delegate to the same runner.
"""

from repro.batch.distribute import (
    DistributedScheduleReport,
    frontier_key,
    run_distributed_schedule,
)
from repro.batch.doctor import DoctorReport, Finding, diagnose
from repro.batch.faults import Fault, FaultPlan
from repro.batch.jobs import ANALYSES, JobResult, JobSpec, run_job
from repro.batch.store_sqlite import SqliteStore, open_store
from repro.batch.runner import (
    BatchReport,
    ResultScan,
    RetryPolicy,
    read_result_keys,
    run_batch,
    scan_results_jsonl,
    write_results_jsonl,
)
from repro.batch.suites import (
    SUITE_NAMES,
    classify_suite,
    load_job_file,
    suite,
    table1_suite,
    table2_suite,
)

__all__ = [
    "ANALYSES",
    "BatchReport",
    "DistributedScheduleReport",
    "DoctorReport",
    "Fault",
    "FaultPlan",
    "Finding",
    "JobResult",
    "JobSpec",
    "ResultScan",
    "RetryPolicy",
    "SUITE_NAMES",
    "SqliteStore",
    "classify_suite",
    "diagnose",
    "frontier_key",
    "load_job_file",
    "open_store",
    "read_result_keys",
    "run_batch",
    "run_distributed_schedule",
    "run_job",
    "scan_results_jsonl",
    "suite",
    "table1_suite",
    "table2_suite",
    "write_results_jsonl",
]
