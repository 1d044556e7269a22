"""Fault-injection coverage for the supervised batch execution layer.

Every test arms a seeded :class:`repro.batch.faults.FaultPlan` through the
``REPRO_FAULTS`` environment variable (inherited by worker processes) and
asserts the recovery the runner and the store promise: injected crashes,
hangs and corruptions must converge to the same bytes as an undisturbed
run -- or be loudly quarantined, never silently misread.
"""

import json
import logging
import multiprocessing
import os
import sqlite3
import threading

import pytest

from repro.batch import (
    Fault,
    FaultPlan,
    JobSpec,
    RetryPolicy,
    SqliteStore,
    diagnose,
    open_store,
    run_batch,
    scan_results_jsonl,
    write_results_jsonl,
)
from repro.batch.faults import ENV_VAR
from repro.batch.store_sqlite import _Transaction, sqlite_store_path
from repro.cli import main
from repro.geometry.engine import MeasureEngine


def _specs():
    return [
        JobSpec(program="geo(1/2)", analysis="verify"),
        JobSpec(program="geo(1/3)", analysis="verify"),
        JobSpec(program="geo(1/5)", analysis="verify"),
    ]


def _jsonl(results) -> str:
    return "".join(result.to_json_line() + "\n" for result in results)


def _arm(monkeypatch, tmp_path, faults, seed=7):
    """Write a fault plan to disk and point ``REPRO_FAULTS`` at it."""
    plan = FaultPlan(faults, state_dir=tmp_path / "fault-state", seed=seed)
    path = plan.dump(tmp_path / "fault-plan.json")
    monkeypatch.setenv(ENV_VAR, str(path))
    return plan


_FAST_RETRIES = RetryPolicy(max_retries=2, backoff_seconds=0.01)


class TestWorkerFaults:
    """Injected process deaths and hangs against the supervised pool."""

    def test_worker_kill_is_retried_to_identical_output(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = run_batch(_specs(), jobs=2)
        _arm(monkeypatch, tmp_path, [Fault(kind="worker-kill", job_index=0)])
        report = run_batch(_specs(), jobs=2, retry_policy=_FAST_RETRIES)
        assert all(result.ok for result in report.results)
        assert report.worker_restarts >= 1
        assert report.retries >= 1
        assert report.stats.worker_restarts == report.worker_restarts
        assert _jsonl(report.results) == _jsonl(reference.results)

    def test_worker_kill_preserves_completed_results_and_store(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        cache_dir = tmp_path / "cache"
        # Kill the worker running the *last* job (single-worker pool, so the
        # first two jobs are complete when the pool dies).
        _arm(monkeypatch, tmp_path, [Fault(kind="worker-kill", job_index=2)])
        report = run_batch(
            _specs(),
            jobs=1,
            cache=open_store(cache_dir),
            job_timeout=30.0,
            retry_policy=_FAST_RETRIES,
        )
        assert all(result.ok for result in report.results)
        assert report.worker_restarts >= 1
        monkeypatch.delenv(ENV_VAR)
        # The crash lost neither the finished job results nor the measure
        # entries they exported: a warm rerun is all cache hits, no recompute.
        warm = run_batch(_specs(), jobs=1, cache=open_store(cache_dir))
        assert warm.cache_hits == len(_specs())
        assert _jsonl(warm.results) == _jsonl(report.results)
        store = open_store(cache_dir)
        assert store.measure_entry_count(MeasureEngine()) > 0

    def test_hang_trips_job_timeout_and_recovers(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        reference = run_batch(_specs(), jobs=1)
        _arm(
            monkeypatch,
            tmp_path,
            [Fault(kind="hang", job_index=1, seconds=30.0)],
        )
        report = run_batch(
            _specs(),
            jobs=1,
            job_timeout=1.0,
            retry_policy=_FAST_RETRIES,
        )
        assert all(result.ok for result in report.results)
        assert report.timeouts >= 1
        assert report.worker_restarts >= 1
        assert report.stats.timeouts == report.timeouts
        assert _jsonl(report.results) == _jsonl(reference.results)

    def test_persistent_hang_exhausts_retries_into_timeout_error(
        self, tmp_path, monkeypatch
    ):
        # The hang re-fires on every retry, so the job can never finish:
        # after max_retries the runner must surface a structured timeout.
        _arm(
            monkeypatch,
            tmp_path,
            [Fault(kind="hang", job_index=0, seconds=30.0, times=10)],
        )
        report = run_batch(
            [_specs()[0]],
            jobs=1,
            job_timeout=0.5,
            retry_policy=RetryPolicy(max_retries=1, backoff_seconds=0.01),
        )
        result = report.results[0]
        assert not result.ok
        assert result.error_kind == "timeout"
        assert "wall-clock" in result.error
        assert report.timeouts == 2  # the first attempt and its one retry
        assert report.retries == 1

    def test_deterministic_job_exception_is_not_retried(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        specs = [_specs()[0], JobSpec(program="((( broken", analysis="verify")]
        report = run_batch(specs, jobs=2, retry_policy=_FAST_RETRIES)
        broken = report.results[1]
        assert not broken.ok
        assert broken.error_kind == "job-exception"
        assert report.retries == 0
        assert report.worker_restarts == 0


def _dump(cache_dir):
    """Every file name under ``cache_dir`` plus a full dump of the database."""
    names = sorted(path.name for path in cache_dir.rglob("*"))
    connection = sqlite3.connect(sqlite_store_path(cache_dir))
    try:
        return names, list(connection.iterdump())
    finally:
        connection.close()


class TestStoreFaults:
    """Torn writes and bit flips against the checksummed store rows."""

    def _populate(self, cache_dir):
        return run_batch([_specs()[0]], jobs=1, cache=open_store(cache_dir))

    def test_torn_shard_write_is_quarantined_not_silently_missed(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        _arm(monkeypatch, tmp_path, [Fault(kind="torn-write", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        store = open_store(cache_dir)
        # Only one row was torn (the fault fires once); it reads as a miss,
        # but never a *silent* one -- the row is set aside.
        store.load_measures(MeasureEngine())
        assert store.quarantine_count == 1
        name, reason = store.quarantined[0]
        assert name.startswith("measures/")
        assert reason in ("corrupt-json", "checksum-mismatch", "missing-checksum")
        origin, key, recorded = store.quarantine_rows()[0]
        assert (f"{origin}/{key}", recorded) == (name, reason)

    def test_quarantine_count_reaches_batch_report_and_stats(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        _arm(monkeypatch, tmp_path, [Fault(kind="torn-write", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        report = run_batch(
            [_specs()[1]], jobs=1, cache=open_store(cache_dir)
        )
        assert report.quarantined_shards >= 1
        assert report.stats.quarantined_shards == report.quarantined_shards
        assert "quarantined files" in report.summary()

    def test_bit_flipped_shard_fails_its_checksum_and_doctor_names_it(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        plan = _arm(monkeypatch, tmp_path, [Fault(kind="bit-flip", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        assert plan.fired_count(0) == 1  # sanity: the flip landed on a row
        report = diagnose(cache_dir)
        assert not report.healthy
        assert report.exit_code == 1
        damaged = [finding for finding in report.errors]
        assert damaged, "the flipped row must surface as an error finding"
        assert any(
            finding.path and finding.path.startswith("measures/")
            for finding in damaged
        )
        named = [finding.path for finding in damaged if finding.path]
        assert any(name in report.summary() for name in named)

    def test_doctor_is_read_only_and_flags_quarantine_after_a_read(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        _arm(monkeypatch, tmp_path, [Fault(kind="bit-flip", match="measures/")])
        self._populate(cache_dir)
        monkeypatch.delenv(ENV_VAR)
        before = _dump(cache_dir)
        diagnose(cache_dir)
        assert _dump(cache_dir) == before  # the doctor never mutates the store
        # A store read quarantines the damage; the doctor then reports it.
        open_store(cache_dir).load_measures(MeasureEngine())
        report = diagnose(cache_dir)
        assert report.counts["quarantined"] >= 1
        assert any(finding.code == "quarantined" for finding in report.errors)
        assert report.exit_code == 1


class _DieBeforeCommit(_Transaction):
    """A write transaction whose process dies after its statements ran."""

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and self._connection.in_transaction:
            os._exit(137)  # no COMMIT, no ROLLBACK: the process is gone
        os._exit(1)


def _die_inside_the_measure_merge(cache_dir):
    """Run the batch, but die between ``BEGIN IMMEDIATE`` and ``COMMIT`` of
    its measure merge."""
    store = open_store(cache_dir)

    def merge_kind(kind, *args):
        if kind == "measures":
            store._transaction = lambda: _DieBeforeCommit(
                store._connection, store._write_lock
            )
        return SqliteStore._merge_kind(store, kind, *args)

    store._merge_kind = merge_kind
    run_batch(_specs(), jobs=1, cache=store)
    os._exit(0)


class TestMergeDurability:
    """Transactions and concurrent writers on the shared store."""

    @staticmethod
    def _entry(value="1/2"):
        return [["F", value], True, False, "interval"]

    def test_kill_between_begin_and_commit_leaves_a_readable_store(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        cache_dir = tmp_path / "cache"
        reference = run_batch(_specs(), jobs=1)
        child = multiprocessing.get_context("fork").Process(
            target=_die_inside_the_measure_merge, args=(cache_dir,)
        )
        child.start()
        child.join(120)
        assert child.exitcode == 137
        store = open_store(cache_dir)
        assert store.integrity_check() is None
        # The killed transaction left nothing behind; earlier commits stand.
        assert store.measure_entry_count(MeasureEngine()) == 0
        assert store.job_count() == len(_specs())
        rerun = run_batch(_specs(), jobs=1, cache=store)
        assert _jsonl(rerun.results) == _jsonl(reference.results)
        # Recomputing every job merges the entries the dead run never did.
        with store._transaction() as connection:
            connection.execute("DELETE FROM jobs")
        recomputed = run_batch(_specs(), jobs=1, cache=store)
        assert _jsonl(recomputed.results) == _jsonl(reference.results)
        assert store.measure_entry_count(MeasureEngine()) > 0
        assert diagnose(cache_dir).healthy

    def test_concurrent_merges_into_the_same_shard_lose_nothing(self, tmp_path):
        engine = MeasureEngine()
        keys = [f"contended-key-{index}" for index in range(32)]
        chunks = [keys[start::4] for start in range(4)]
        errors = []

        def merge(chunk):
            try:
                cache = open_store(tmp_path)
                for key in chunk:
                    cache.merge_measures(engine, {key: self._entry()})
            except Exception as exc:  # pragma: no cover - diagnostic only
                errors.append(exc)

        threads = [threading.Thread(target=merge, args=(chunk,)) for chunk in chunks]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        entries = open_store(tmp_path).load_measures(engine)
        assert set(entries) == set(keys)


class TestResultsFileRobustness:
    """Crash-safe JSONL output and corrupt-line accounting."""

    def test_overwrite_failure_preserves_the_previous_results_file(self, tmp_path):
        path = tmp_path / "results.jsonl"
        report = run_batch([_specs()[0]], jobs=1)
        write_results_jsonl(path, report.results)
        before = path.read_bytes()

        def exploding():
            yield report.results[0]
            raise RuntimeError("crash mid-write")

        with pytest.raises(RuntimeError):
            write_results_jsonl(path, exploding())
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_scan_counts_corrupt_lines_instead_of_dropping_them(self, tmp_path):
        path = tmp_path / "results.jsonl"
        report = run_batch(
            [_specs()[0], JobSpec(program="((( broken", analysis="verify")], jobs=1
        )
        write_results_jsonl(path, report.results)
        with open(path, "a") as stream:
            stream.write("{ torn line\n")
            stream.write('"not an object"\n')
        scan = scan_results_jsonl(path)
        assert scan.ok_keys == {report.results[0].key}
        assert scan.error_keys == {report.results[1].key}
        assert scan.corrupt_lines == 2
        assert scan.total_lines == 4

    def test_unkeyable_spec_is_logged_once_per_batch(self, tmp_path, caplog):
        spec = JobSpec(program="((( broken", analysis="verify")
        with caplog.at_level(logging.WARNING, logger="repro.batch"):
            run_batch([spec], jobs=1, cache=open_store(tmp_path / "cache"))
        warnings = [
            record
            for record in caplog.records
            if "no stable key" in record.getMessage()
        ]
        assert len(warnings) == 1
        assert "((( broken" in warnings[0].getMessage()


class TestCliAcceptance:
    """End-to-end: the CLI flags, ``--stats-json`` counters and doctor exits."""

    def _job_file(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(
            json.dumps(
                [
                    {"program": "geo(1/2)", "analysis": "verify"},
                    {"program": "geo(1/3)", "analysis": "verify"},
                    {"program": "geo(1/5)", "analysis": "verify"},
                ]
            )
        )
        return str(path)

    def test_injected_kill_and_hang_converge_to_identical_jsonl(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv(ENV_VAR, raising=False)
        jobs = self._job_file(tmp_path)
        reference = tmp_path / "reference.jsonl"
        assert main(["batch", jobs, "--jobs", "1", "--output", str(reference)]) == 0
        # One single-worker pool: the kill hits job 0, the hang job 2, so the
        # two faults cannot shadow each other inside one doomed worker.
        _arm(
            monkeypatch,
            tmp_path,
            [
                Fault(kind="worker-kill", job_index=0),
                Fault(kind="hang", job_index=2, seconds=30.0),
            ],
        )
        injected = tmp_path / "injected.jsonl"
        stats_json = tmp_path / "stats.json"
        code = main(
            [
                "batch",
                jobs,
                "--jobs",
                "1",
                "--job-timeout",
                "1.5",
                "--retry-backoff",
                "0.01",
                "--output",
                str(injected),
                "--stats-json",
                str(stats_json),
            ]
        )
        capsys.readouterr()
        assert code == 0
        assert injected.read_bytes() == reference.read_bytes()
        counters = json.loads(stats_json.read_text())["counters"]
        assert counters["worker_restarts"] >= 1
        assert counters["timeouts"] >= 1
        assert counters["retries"] >= 2

    def test_doctor_cli_exit_codes_and_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(ENV_VAR, raising=False)
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "batch",
                    self._job_file(tmp_path),
                    "--jobs",
                    "1",
                    "--cache-dir",
                    str(cache_dir),
                    "--output",
                    str(tmp_path / "out.jsonl"),
                ]
            )
            == 0
        )
        report_json = tmp_path / "doctor.json"
        assert (
            main(
                ["doctor", "--cache-dir", str(cache_dir), "--json", str(report_json)]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "healthy" in output
        document = json.loads(report_json.read_text())
        assert document["healthy"] is True
        # Flip one bit in one measures row: doctor must now fail and name it.
        store = open_store(cache_dir)
        key, text = store._connection.execute(
            "SELECT key, document FROM entries WHERE kind = 'measures'"
            " ORDER BY key LIMIT 1"
        ).fetchone()
        middle = len(text) // 2
        flipped = text[:middle] + chr(ord(text[middle]) ^ 0x04) + text[middle + 1 :]
        with store._transaction() as connection:
            connection.execute(
                "UPDATE entries SET document = ? WHERE kind = 'measures' AND key = ?",
                (flipped, key),
            )
        assert main(["doctor", "--cache-dir", str(cache_dir)]) == 1
        output = capsys.readouterr().out
        assert f"measures/{key}" in output
        assert "PROBLEMS FOUND" in output
