"""Tests for the persistent SQLite store: round trips, quarantine
semantics, GC, reopening, doctor and prune discovery."""

import json
import sqlite3

import pytest

from repro.batch import JobSpec, open_store, run_batch, run_job
from repro.batch.store_sqlite import SqliteStore, sqlite_store_path
from repro.geometry.engine import MeasureEngine


def warm_engine(depth=12):
    engine = MeasureEngine()
    spec = JobSpec(program="geo(1/2)", analysis="lower-bound", params={"depth": depth})
    result = run_job(spec, engine)
    assert result.ok
    return engine, spec, result


def populated_store(tmp_path, depth=12):
    store = open_store(tmp_path)
    engine, spec, result = warm_engine(depth)
    run = store.begin_run()
    store.store_job(result)
    store.merge_measures(engine, engine.export_cache_entries(), run=run)
    store.merge_sweeps(engine, engine.export_sweep_entries(), run=run)
    return store, spec, result


class _ForeignEngine:
    """An engine stand-in whose primitives fingerprint differently."""

    @staticmethod
    def registry_fingerprint():
        return "other-fingerprint"


class TestOpenStore:
    def test_fresh_directory_opens_the_database(self, tmp_path):
        store = open_store(tmp_path / "fresh")
        assert isinstance(store, SqliteStore)
        assert store.backend_name == "sqlite"
        assert sqlite_store_path(tmp_path / "fresh").exists()

    def test_auto_picks_sqlite_once_the_database_exists(self, tmp_path):
        store, spec, result = populated_store(tmp_path)
        entries = store.load_measures(MeasureEngine())
        assert entries
        store.close()
        reopened = open_store(tmp_path)
        assert isinstance(reopened, SqliteStore)
        # identical job hit, byte for byte, and identical measure entries
        assert reopened.load_job(spec.key()).to_json_line() == result.to_json_line()
        assert reopened.load_measures(MeasureEngine()) == entries


class TestSqliteStoreParity:
    """The shard-store behaviours, mirrored on the database backend."""

    def test_job_round_trip(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        loaded = store.load_job(spec.key())
        assert loaded is not None
        assert loaded.to_json_line() == result.to_json_line()
        assert loaded.cached

    def test_error_results_are_not_cached(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine = MeasureEngine()
        bad = run_job(JobSpec(program="mu phi x. (", analysis="verify"), engine)
        assert not bad.ok
        store.store_job(bad)
        assert store.job_count() == 0

    def test_measure_merge_and_load_round_trip(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        assert entries
        written = store.merge_measures(engine, entries, run=store.begin_run())
        assert written == len(entries)
        fresh = MeasureEngine()
        assert store.load_measures(fresh) == entries

    def test_fingerprint_isolation(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        store.merge_measures(engine, entries, run=1)
        store.merge_measures(_ForeignEngine(), {"bogus-key": ["bogus"]}, run=1)
        fresh = MeasureEngine()
        assert store.load_measures(fresh) == entries
        assert store.load_measures(_ForeignEngine()) == {"bogus-key": ["bogus"]}

    def test_damaged_row_reads_as_miss_and_is_quarantined(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        with store._connection:
            store._connection.execute(
                "UPDATE jobs SET document = ? WHERE key = ?",
                ('{"version": 2, "torn', spec.key()),
            )
        assert store.load_job(spec.key()) is None
        rows = store.quarantine_rows()
        assert [(origin, reason) for origin, _key, reason in rows] == [
            ("jobs", "corrupt-json")
        ]

    def test_one_damaged_entry_does_not_hide_the_others(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        assert len(entries) >= 2
        store.merge_measures(engine, entries, run=1)
        victim = store._connection.execute(
            "SELECT key FROM entries WHERE kind = 'measures' LIMIT 1"
        ).fetchone()[0]
        with store._connection:
            store._connection.execute(
                "UPDATE entries SET document = 'not json' WHERE key = ?", (victim,)
            )
        fresh = MeasureEngine()
        assert len(store.load_measures(fresh)) == len(entries) - 1
        assert store.quarantine_count == 1

    def test_checksum_mismatch_is_caught(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        row = store._connection.execute(
            "SELECT document FROM jobs WHERE key = ?", (spec.key(),)
        ).fetchone()[0]
        document = json.loads(row)
        document["result"]["status"] = "tampered"
        with store._connection:
            store._connection.execute(
                "UPDATE jobs SET document = ? WHERE key = ?",
                (json.dumps(document), spec.key()),
            )
        assert store.load_job(spec.key()) is None
        assert any(
            reason == "checksum-mismatch"
            for _o, _k, reason in store.quarantine_rows()
        )

    def test_prune_drops_only_stale_entries(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        store.merge_measures(engine, entries, run=1)
        for _ in range(10):
            store.begin_run()
        report = store.prune(min_age_runs=3)
        assert report.pruned.get("measures") == len(entries)
        # freshly touched entries survive the same cutoff
        store.merge_measures(engine, entries, run=store.run_counter())
        report = store.prune(min_age_runs=3)
        assert report.pruned.get("measures", 0) == 0
        assert report.kept.get("measures") == len(entries)

    def test_touch_refresh_protects_persistent_hits(self, tmp_path):
        store = SqliteStore(tmp_path)
        engine, _spec, _result = warm_engine()
        entries = engine.export_cache_entries()
        store.merge_measures(engine, entries, run=1)
        touched = set(entries)
        for _ in range(9):
            store.begin_run()
        store.merge_measures(engine, {}, run=9, touched_keys=touched)
        report = store.prune(min_age_runs=3)
        assert report.pruned.get("measures", 0) == 0

    def test_integrity_check_is_clean(self, tmp_path):
        store = SqliteStore(tmp_path)
        assert store.integrity_check() is None

    def test_concurrent_connections_share_the_database(self, tmp_path):
        first = SqliteStore(tmp_path)
        second = SqliteStore(tmp_path)
        _engine, _spec, result = warm_engine()
        first.store_job(result)
        assert second.load_job(result.key) is not None


class TestWarmReruns:
    def test_reopened_store_serves_a_batch_with_zero_recomputation(self, tmp_path):
        from repro.batch import table1_suite

        specs = table1_suite(depth=12)
        cold = run_batch(specs, cache=open_store(tmp_path))
        store = open_store(tmp_path)
        warm_engine_ = MeasureEngine()
        warm = run_batch(specs, cache=store, engine=warm_engine_)
        assert [r.to_json_line() for r in warm.results] == [
            r.to_json_line() for r in cold.results
        ]
        assert all(result.cached for result in warm.results)
        assert warm_engine_.stats.measure_requests == 0


class TestDifferential:
    """No store, a cold store and a warm store emit the same bytes."""

    @pytest.mark.parametrize("suite", ["table1", "sweep"])
    def test_store_never_changes_the_jsonl(self, tmp_path, suite, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "cache"
        outputs = {}

        def run(label, *flags):
            path = tmp_path / f"{label}.jsonl"
            command = ["batch", "--suite", suite, "--jobs", "1", "--output", str(path)]
            assert main(command + list(flags)) == 0
            outputs[label] = path.read_bytes()

        run("no-store")
        run("cold", "--cache-dir", str(cache_dir))
        run("warm", "--cache-dir", str(cache_dir))
        # Without job rows the rerun recomputes from measure/sweep rows.
        store = open_store(cache_dir)
        with store._transaction() as connection:
            connection.execute("DELETE FROM jobs")
        store.close()
        run("entries", "--cache-dir", str(cache_dir))
        capsys.readouterr()
        assert outputs["cold"] == outputs["no-store"]
        assert outputs["warm"] == outputs["no-store"]
        assert outputs["entries"] == outputs["no-store"]

    def test_two_worker_fleet_stores_the_single_process_frontier(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        frontiers = {}
        for jobs in (1, 2):
            cache_dir = tmp_path / f"explore-jobs-{jobs}"
            command = [
                "lower-bound",
                "sig-branch3(3/5)",
                "--schedule",
                "10,25,40",
                "--cache-dir",
                str(cache_dir),
                "--explore-jobs",
                str(jobs),
            ]
            assert main(command) == 0
            # The master frontier row; shard rows carry ``:`` in their key.
            frontiers[jobs] = (
                open_store(cache_dir)
                ._connection.execute(
                    "SELECT key, document FROM entries"
                    " WHERE kind = 'frontiers' AND key NOT LIKE '%:%'"
                )
                .fetchall()
            )
        capsys.readouterr()
        assert len(frontiers[1]) == 1
        assert frontiers[2] == frontiers[1]


class TestDoctorAndPruneDiscovery:
    def test_doctor_reports_cleanly_on_a_written_store(self, tmp_path):
        from repro.batch.doctor import diagnose

        populated_store(tmp_path)
        report = diagnose(tmp_path)
        assert report.exit_code == 0
        assert report.counts["job_rows"] == 1
        assert report.counts["measures_entries"] > 0

    def test_doctor_warns_about_foreign_fingerprints(self, tmp_path):
        from repro.batch.doctor import diagnose

        open_store(tmp_path).merge_measures(_ForeignEngine(), {"k": ["v"]}, run=0)
        report = diagnose(tmp_path)
        assert report.exit_code == 0
        assert any(f.code == "foreign-fingerprint" for f in report.warnings)

    def test_doctor_leaves_a_directory_without_a_store_alone(self, tmp_path):
        from repro.batch.doctor import diagnose

        report = diagnose(tmp_path)
        assert report.exit_code == 0
        assert not sqlite_store_path(tmp_path).exists()

    def test_doctor_flags_database_damage(self, tmp_path):
        from repro.batch.doctor import diagnose

        populated_store(tmp_path)
        store = SqliteStore(tmp_path)
        with store._connection:
            store._connection.execute("UPDATE jobs SET document = 'garbage'")
        store._connection.close()
        report = diagnose(tmp_path)
        assert report.exit_code == 1
        assert any(f.code == "corrupt-json" for f in report.errors)

    def test_doctor_flags_quarantined_rows(self, tmp_path):
        from repro.batch.doctor import diagnose

        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        with store._connection:
            store._connection.execute("UPDATE jobs SET document = 'garbage'")
        assert store.load_job(spec.key()) is None  # quarantines
        report = diagnose(tmp_path)
        assert report.exit_code == 1
        assert any(f.code == "quarantined" for f in report.errors)

    def test_cli_prune_works_on_a_populated_store(self, tmp_path, capsys):
        from repro.cli import main

        populated_store(tmp_path)
        exit_code = main(
            ["batch", "prune", "--cache-dir", str(tmp_path), "--keep-runs", "5"]
        )
        assert exit_code == 0
        assert "pruned the persistent store" in capsys.readouterr().out


class TestReadOnlyTolerance:
    def test_quarantine_tolerates_read_only_database(self, tmp_path):
        store = SqliteStore(tmp_path)
        _engine, spec, result = warm_engine()
        store.store_job(result)
        with store._connection:
            store._connection.execute("UPDATE jobs SET document = 'garbage'")
        store._connection.close()
        readonly = sqlite3.connect(
            f"file:{sqlite_store_path(tmp_path)}?mode=ro", uri=True
        )
        try:
            fresh = SqliteStore(tmp_path)
            fresh._connection.close()
            fresh._connection = readonly
            assert fresh.load_job(spec.key()) is None
        finally:
            readonly.close()
