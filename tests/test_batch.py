"""Tests for the batch subsystem: jobs, runner, persistent cache, CLI."""

import json

import pytest

from repro.batch import (
    JobSpec,
    open_store,
    read_result_keys,
    run_batch,
    run_job,
    table1_suite,
    table2_suite,
    write_results_jsonl,
)
from repro.batch.store_sqlite import CACHE_VERSION
from repro.batch.jobs import decode_number, encode_number
from repro.cli import main
from repro.geometry.engine import MeasureEngine
from repro.lowerbound.engine import LowerBoundEngine
from repro.programs import resolve_program


def small_suite():
    """A fast batch covering two analysis kinds."""
    return table1_suite(depth=15) + table2_suite()


def jsonl_lines(results):
    return [result.to_json_line() for result in results]


def execute(store, sql, params=()):
    """Run one write statement against a store's database (damage, aging)."""
    with store._transaction() as connection:
        connection.execute(sql, params)


def row_text(store, sql, params=()):
    return store._connection.execute(sql, params).fetchone()[0]


class TestJobSpec:
    def test_key_is_stable_and_parameter_sensitive(self):
        spec = JobSpec(program="geo(1/2)", analysis="lower-bound", params={"depth": 10})
        assert spec.key() == spec.key()
        deeper = JobSpec(program="geo(1/2)", analysis="lower-bound", params={"depth": 11})
        assert spec.key() != deeper.key()

    def test_key_depends_on_the_resolved_program_not_the_reference(self):
        by_name = JobSpec(program="geo(1/2)", analysis="verify")
        other = JobSpec(program="geo(1/5)", analysis="verify")
        assert by_name.key() != other.key()

    def test_cost_hint_does_not_change_the_key(self):
        cheap = JobSpec(program="geo(1/2)", analysis="verify", cost_hint=1.0)
        dear = JobSpec(program="geo(1/2)", analysis="verify", cost_hint=99.0)
        assert cheap.key() == dear.key()

    def test_unknown_analysis_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(program="geo(1/2)", analysis="frobnicate")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            JobSpec(program="geo(1/2)", analysis="verify", params={"depth": 3})

    def test_seed_is_part_of_the_estimate_key(self):
        base = JobSpec(program="geo(1/2)", analysis="estimate", params={"seed": 0})
        reseeded = JobSpec(program="geo(1/2)", analysis="estimate", params={"seed": 1})
        assert base.key() != reseeded.key()

    def test_number_codec_round_trips_exactly(self):
        from fractions import Fraction

        for value in (Fraction(3, 7), Fraction(-1, 2), 0.1, 1e-300, Fraction(5)):
            assert decode_number(encode_number(value)) == value
        assert encode_number(None) is None and decode_number(None) is None


class TestRunJob:
    def test_lower_bound_payload_matches_direct_engine(self):
        program = resolve_program("geo(1/2)")
        direct = LowerBoundEngine(strategy=program.strategy).lower_bound(
            program.applied, max_steps=15, max_paths=100_000
        )
        result = run_job(
            JobSpec(program="geo(1/2)", analysis="lower-bound", params={"depth": 15})
        )
        assert result.ok
        assert decode_number(result.payload["probability"]) == direct.probability
        assert result.payload["path_count"] == direct.path_count

    def test_crashing_job_yields_structured_error(self):
        result = run_job(JobSpec(program="mu phi x. (((", analysis="verify"))
        assert result.status == "error"
        assert result.error
        assert result.payload is None


class TestRunBatch:
    def test_same_batch_twice_is_bit_identical_with_high_hit_rate(self, tmp_path):
        cache = open_store(tmp_path / "cache")
        specs = small_suite()
        first = run_batch(specs, jobs=1, cache=cache)
        second = run_batch(specs, jobs=1, cache=cache)
        assert jsonl_lines(first.results) == jsonl_lines(second.results)
        assert all(result.ok for result in second.results)
        assert second.cache_hits / len(specs) >= 0.9
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_results_jsonl(out_a, first.results)
        write_results_jsonl(out_b, second.results)
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_parallel_results_equal_serial_results(self, tmp_path):
        specs = table2_suite()
        serial = run_batch(specs, jobs=1)
        parallel = run_batch(specs, jobs=2)
        assert jsonl_lines(serial.results) == jsonl_lines(parallel.results)

    def test_results_preserve_submission_order(self):
        specs = list(reversed(table2_suite()))
        report = run_batch(specs, jobs=1)
        assert [r.spec.program for r in report.results] == [s.program for s in specs]

    def test_error_jobs_do_not_kill_the_batch_and_are_not_cached(self, tmp_path):
        cache = open_store(tmp_path)
        specs = [
            JobSpec(program="geo(1/2)", analysis="verify"),
            JobSpec(program="this is ((( not a program", analysis="verify"),
        ]
        first = run_batch(specs, jobs=1, cache=cache)
        assert first.results[0].ok
        assert first.results[1].status == "error"
        second = run_batch(specs, jobs=1, cache=cache)
        assert second.cache_hits == 1  # the error was recomputed, not replayed
        assert jsonl_lines(first.results) == jsonl_lines(second.results)

    def test_sibling_workers_reuse_the_persistent_measure_cache(self, tmp_path):
        cache = open_store(tmp_path)
        run_batch(table2_suite(), jobs=1, cache=cache)
        from repro.batch.suites import classify_suite

        report = run_batch(classify_suite(), jobs=1, cache=cache)
        assert report.stats.persistent_hits > 0

    def test_resume_helpers_round_trip(self, tmp_path):
        specs = table2_suite()
        report = run_batch(specs, jobs=1)
        path = tmp_path / "results.jsonl"
        write_results_jsonl(path, report.results)
        assert read_result_keys(path) == {result.key for result in report.results}

    def test_resume_retries_recorded_failures(self, tmp_path):
        specs = [
            JobSpec(program="geo(1/2)", analysis="verify"),
            JobSpec(program="((( broken", analysis="verify"),
        ]
        report = run_batch(specs, jobs=1)
        path = tmp_path / "results.jsonl"
        write_results_jsonl(path, report.results)
        # only the successful job counts as done; the error must be retried
        assert read_result_keys(path) == {report.results[0].key}

    def test_concurrent_measure_merges_do_not_lose_entries(self, tmp_path):
        cache = open_store(tmp_path)
        engine = MeasureEngine()
        cache.merge_measures(engine, {"key-a": [["F", "1/2"], True, False, "interval"]})
        cache.merge_measures(engine, {"key-b": [["F", "1/3"], True, False, "interval"]})
        entries = cache.load_measures(engine)
        assert set(entries) == {"key-a", "key-b"}


class TestBatchCacheRobustness:
    def test_corrupted_job_file_is_discarded_gracefully(self, tmp_path):
        cache = open_store(tmp_path)
        spec = JobSpec(program="geo(1/2)", analysis="verify")
        first = run_batch([spec], jobs=1, cache=cache)
        key = first.results[0].key
        execute(
            cache, "UPDATE jobs SET document = ? WHERE key = ?", ("{ truncated garbage", key)
        )
        assert cache.load_job(key) is None
        second = run_batch([spec], jobs=1, cache=cache)
        assert second.results[0].ok
        assert jsonl_lines(first.results) == jsonl_lines(second.results)

    def test_version_mismatched_job_file_is_discarded(self, tmp_path):
        cache = open_store(tmp_path)
        spec = JobSpec(program="geo(1/2)", analysis="verify")
        result = run_batch([spec], jobs=1, cache=cache).results[0]
        document = json.loads(
            row_text(cache, "SELECT document FROM jobs WHERE key = ?", (result.key,))
        )
        document["version"] = CACHE_VERSION + 1
        execute(
            cache,
            "UPDATE jobs SET document = ? WHERE key = ?",
            (json.dumps(document), result.key),
        )
        assert cache.load_job(result.key) is None

    def test_corrupted_shards_read_as_misses(self, tmp_path):
        cache = open_store(tmp_path)
        run_batch([JobSpec(program="geo(1/2)", analysis="verify")], jobs=1, cache=cache)
        assert cache.measure_entry_count(MeasureEngine()) > 0, (
            "a batch with a cache directory must persist measure entries"
        )
        execute(
            cache,
            "UPDATE entries SET document = ? WHERE kind = 'measures'",
            ("\x00\x01 not json",),
        )
        assert cache.load_measures(MeasureEngine()) == {}
        # and a batch over the damaged cache still succeeds
        report = run_batch(
            [JobSpec(program="geo(1/5)", analysis="verify")], jobs=1, cache=cache
        )
        assert report.results[0].ok

    def test_one_corrupt_shard_does_not_hide_the_others(self, tmp_path):
        cache = open_store(tmp_path)
        engine = MeasureEngine()
        entries = {
            "key-a": [["F", "1/2"], True, False, "interval"],
            "key-b": [["F", "1/3"], True, False, "interval"],
        }
        cache.merge_measures(engine, entries)
        execute(
            cache,
            "UPDATE entries SET document = ? WHERE key = ?",
            ("{ truncated garbage", "key-a"),
        )
        survivors = cache.load_measures(engine)
        assert set(survivors) == {"key-b"}

    def test_fingerprint_mismatched_measures_are_ignored(self, tmp_path):
        cache = open_store(tmp_path)
        engine = MeasureEngine()
        run_batch([JobSpec(program="geo(1/2)", analysis="verify")], jobs=1, cache=cache)
        execute(
            cache,
            "UPDATE entries SET fingerprint = ? WHERE kind = 'measures'",
            ("someone-else's-primitives",),
        )
        assert cache.load_measures(engine) == {}


class TestMeasureShards:
    """Measure entries as keyed, checksummed store rows."""

    @staticmethod
    def _entry(value="1/2"):
        return [["F", value], True, False, "interval"]

    def test_entries_land_in_their_key_shard(self, tmp_path):
        cache = open_store(tmp_path)
        engine = MeasureEngine()
        cache.merge_measures(engine, {"some-key": self._entry()})
        document = json.loads(
            row_text(
                cache,
                "SELECT document FROM entries"
                " WHERE kind = 'measures' AND fingerprint = ? AND key = ?",
                (engine.registry_fingerprint(), "some-key"),
            )
        )
        assert document["version"] == CACHE_VERSION
        assert document["entry"] == self._entry()
        assert cache.load_measures(engine) == {"some-key": self._entry()}

    def test_concurrent_merges_into_distinct_shards(self, tmp_path):
        import threading

        cache = open_store(tmp_path)
        engine = MeasureEngine()
        # 32 distinct keys, merged from 8 threads through 8 independent
        # store connections to one database: nothing may be lost.
        batches = [
            {f"key-{worker}-{index}": self._entry(f"1/{worker + index + 2}")
             for index in range(4)}
            for worker in range(8)
        ]
        errors = []

        def merge(batch):
            try:
                open_store(tmp_path).merge_measures(MeasureEngine(), batch)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=merge, args=(batch,)) for batch in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        merged = cache.load_measures(engine)
        expected = {key for batch in batches for key in batch}
        assert set(merged) == expected

    def test_json_layout_directory_is_ignored_and_recomputed(self, tmp_path):
        """Files of the earlier JSON layout are neither read nor removed."""
        engine = MeasureEngine()
        legacy = tmp_path / "measures-00.json"
        legacy.write_text(
            json.dumps(
                {
                    "version": CACHE_VERSION,
                    "fingerprint": engine.registry_fingerprint(),
                    "entries": {"legacy-key": self._entry("2/3")},
                }
            )
        )
        cache = open_store(tmp_path)
        assert cache.load_measures(engine) == {}
        report = run_batch(
            [JobSpec(program="geo(1/2)", analysis="verify")], jobs=1, cache=cache
        )
        assert report.cache_hits == 0
        assert report.results[0].ok
        assert legacy.exists()


class TestMeasureEnginePersistence:
    def test_export_import_round_trip_hits_and_is_bit_identical(self):
        from repro.astcheck import verify_ast

        program = resolve_program("ex1.1-(2)(1/2)")
        cold = MeasureEngine()
        cold_result = verify_ast(program, engine=cold)
        entries = cold.export_cache_entries()
        assert entries

        warm = MeasureEngine()
        assert warm.import_cache_entries(entries) == len(entries)
        warm_result = verify_ast(program, engine=warm)
        assert warm.stats.persistent_hits > 0
        assert warm.stats.measure_calls < cold.stats.measure_calls
        assert repr(warm_result.papprox) == repr(cold_result.papprox)
        assert warm_result.verified == cold_result.verified

    def test_malformed_entries_are_skipped_on_import(self):
        engine = MeasureEngine()
        count = engine.import_cache_entries(
            {"good-looking-key": ["not", "a", "valid", "entry", "shape"], "short": [1]}
        )
        assert count == 0


class TestScheduleJobs:
    """The incremental ``lower-bound-schedule`` analysis and its suites."""

    def test_trajectory_matches_independent_lower_bound_jobs(self):
        schedule = [15, 25, 35]
        engine = MeasureEngine()
        result = run_job(
            JobSpec(
                program="geo(1/2)",
                analysis="lower-bound-schedule",
                params={"schedule": schedule},
            ),
            engine,
        )
        assert result.ok
        trajectory = result.payload["trajectory"]
        assert [point["depth"] for point in trajectory] == schedule
        for depth, point in zip(schedule, trajectory):
            reference = run_job(
                JobSpec(
                    program="geo(1/2)",
                    analysis="lower-bound",
                    params={"depth": depth},
                ),
                MeasureEngine(),
            )
            assert point["probability"] == reference.payload["probability"]
            assert point["expected_steps"] == reference.payload["expected_steps"]
            assert point["measure_gap"] == reference.payload["measure_gap"]
            assert point["path_count"] == reference.payload["path_count"]
        # The top-level fields mirror the deepest point.
        assert result.payload["probability"] == trajectory[-1]["probability"]
        assert result.payload["depths_run"] == len(schedule)

    def test_target_gap_stops_the_schedule_early(self):
        result = run_job(
            JobSpec(
                program="geo(1/2)",
                analysis="lower-bound-schedule",
                params={"schedule": [20, 40, 60, 80], "target_gap": "1/100"},
            ),
            MeasureEngine(),
        )
        assert result.ok
        assert result.payload["depths_run"] < 4
        assert decode_number(
            result.payload["trajectory"][-1]["anytime_gap"]
        ) <= decode_number("1/100")

    def test_decreasing_schedule_is_a_structured_error(self):
        result = run_job(
            JobSpec(
                program="geo(1/2)",
                analysis="lower-bound-schedule",
                params={"schedule": [30, 10]},
            ),
            MeasureEngine(),
        )
        assert not result.ok
        assert "non-decreasing" in result.error

    def test_schedule_is_part_of_the_job_key(self):
        first = JobSpec(
            program="geo(1/2)",
            analysis="lower-bound-schedule",
            params={"schedule": [10, 20]},
        )
        second = JobSpec(
            program="geo(1/2)",
            analysis="lower-bound-schedule",
            params={"schedule": [10, 30]},
        )
        assert first.key() != second.key()
        # Lists and tuples hash identically (JSON canonicalization).
        assert (
            JobSpec(
                program="geo(1/2)",
                analysis="lower-bound-schedule",
                params={"schedule": (10, 20)},
            ).key()
            == first.key()
        )

    def test_schedule_suites(self):
        from repro.batch.suites import schedule_suite, suite

        specs = schedule_suite([10, 20], target_gap=None)
        assert specs and all(
            spec.analysis == "lower-bound-schedule" for spec in specs
        )
        sweep_specs = suite("sweep", schedule=[10, 20])
        assert {spec.program for spec in sweep_specs} == {
            "sig-retry(7/10)",
            "square-retry(1/2)",
            "sig-sum-retry(1)",
        }
        with pytest.raises(ValueError):
            suite("classify", schedule=[10, 20])

    def test_schedule_jobs_run_through_the_batch_cache(self, tmp_path):
        from repro.batch.suites import schedule_suite

        specs = schedule_suite([12, 18])
        cold = run_batch(specs, jobs=1, cache=open_store(tmp_path))
        assert all(result.ok for result in cold.results)
        warm = run_batch(specs, jobs=1, cache=open_store(tmp_path))
        assert warm.cache_hits == len(specs)
        assert jsonl_lines(warm.results) == jsonl_lines(cold.results)


class TestSweepFrontierPersistence:
    """Persisted undecided-box frontiers warm-start deeper sweep budgets."""

    def _bound(self, engine):
        program = resolve_program("sig-sum-retry(1)")
        return LowerBoundEngine(
            strategy=program.strategy, measure_engine=engine
        ).lower_bound(program.applied, max_steps=25)

    def test_deeper_budget_resumes_the_persisted_frontier(self, tmp_path):
        from repro.geometry.measure import MeasureOptions

        cache = open_store(tmp_path)
        shallow = MeasureEngine(MeasureOptions(sweep_depth=10))
        self._bound(shallow)
        cache.merge_sweeps(shallow, shallow.export_sweep_entries())
        # Entries carry the frontier blob (entry position 7).
        entries = cache.load_sweeps(MeasureEngine(MeasureOptions(sweep_depth=10)))
        assert any(len(entry) > 6 for entry in entries.values())

        warm = MeasureEngine(MeasureOptions(sweep_depth=13))
        warm.import_sweep_entries(cache.load_sweeps(warm))
        warm_result = self._bound(warm)
        fresh = MeasureEngine(MeasureOptions(sweep_depth=13))
        fresh_result = self._bound(fresh)
        assert warm_result == fresh_result
        assert warm.stats.sweep_warm_starts > 0
        assert warm.stats.sweep_boxes_examined < fresh.stats.sweep_boxes_examined

    def test_malformed_frontier_blobs_read_as_cold_misses(self, tmp_path):
        from repro.geometry.measure import MeasureOptions

        cache = open_store(tmp_path)
        shallow = MeasureEngine(MeasureOptions(sweep_depth=10))
        self._bound(shallow)
        exported = shallow.export_sweep_entries()
        for key in exported:
            if len(exported[key]) > 6:
                exported[key][6] = ["garbage"]
        cache.merge_sweeps(shallow, exported)
        warm = MeasureEngine(MeasureOptions(sweep_depth=13))
        warm.import_sweep_entries(cache.load_sweeps(warm))
        warm_result = self._bound(warm)
        fresh_result = self._bound(MeasureEngine(MeasureOptions(sweep_depth=13)))
        assert warm_result == fresh_result
        assert warm.stats.sweep_warm_starts == 0

    def test_early_exit_budgets_never_warm_start(self, tmp_path):
        from repro.geometry.measure import MeasureOptions

        cache = open_store(tmp_path)
        shallow = MeasureEngine(MeasureOptions(sweep_depth=10))
        self._bound(shallow)
        cache.merge_sweeps(shallow, shallow.export_sweep_entries())
        capped = MeasureEngine(
            MeasureOptions(sweep_depth=13, sweep_max_boxes=100_000)
        )
        capped.import_sweep_entries(cache.load_sweeps(capped))
        self._bound(capped)
        assert capped.stats.sweep_warm_starts == 0


class TestBatchCLI:
    def test_batch_suite_writes_deterministic_jsonl(self, tmp_path, capsys):
        out_one = tmp_path / "one.jsonl"
        out_two = tmp_path / "two.jsonl"
        cache_dir = str(tmp_path / "cache")
        code = main(
            ["batch", "--suite", "table2", "--jobs", "1",
             "--cache-dir", cache_dir, "--output", str(out_one)]
        )
        assert code == 0
        first_summary = capsys.readouterr().out
        assert "job cache        : 0 hits, 5 misses" in first_summary
        code = main(
            ["batch", "--suite", "table2", "--jobs", "1",
             "--cache-dir", cache_dir, "--output", str(out_two)]
        )
        assert code == 0
        second_summary = capsys.readouterr().out
        assert "job cache        : 5 hits, 0 misses" in second_summary
        assert out_one.read_bytes() == out_two.read_bytes()

    def test_batch_without_suite_or_job_file_errors(self, capsys):
        assert main(["batch"]) == 2

    def test_batch_job_file(self, tmp_path, capsys):
        job_file = tmp_path / "jobs.json"
        job_file.write_text(
            json.dumps(
                [
                    {"program": "geo(1/2)", "analysis": "verify"},
                    {"program": "geo(1/2)", "analysis": "estimate",
                     "params": {"runs": 50, "seed": 3}},
                ]
            )
        )
        code = main(["batch", str(job_file), "--jobs", "1"])
        assert code == 0
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert len(lines) == 2
        assert lines[0]["result"]["verified"] is True
        assert lines[1]["result"]["runs"] == 50

    def test_batch_resume_skips_recorded_jobs(self, tmp_path, capsys):
        output = tmp_path / "results.jsonl"
        code = main(
            ["batch", "--suite", "table2", "--jobs", "1", "--output", str(output),
             "--resume"]
        )
        assert code == 0
        baseline = output.read_bytes()
        capsys.readouterr()
        code = main(
            ["batch", "--suite", "table2", "--jobs", "1", "--output", str(output),
             "--resume"]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "jobs             : 0 total" in summary
        assert output.read_bytes() == baseline

    def test_table1_cli_accepts_jobs_and_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["table1", "--depth", "10", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert main(["table1", "--depth", "10", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        # identical rows except the timing column
        def strip(text):
            return [line.rsplit(None, 1)[0] for line in text.splitlines()]

        assert strip(first) == strip(second)

    def test_estimate_seed_is_reproducible(self, capsys):
        assert main(["estimate", "--program", "geo(1/2)", "--runs", "100",
                     "--seed", "11"]) == 0
        first = capsys.readouterr().out
        assert main(["estimate", "--program", "geo(1/2)", "--runs", "100",
                     "--seed", "11"]) == 0
        second = capsys.readouterr().out
        assert first == second


class TestSweepStoreAndPrune:
    """The persistent sweep entries, the run counter, and the GC."""

    @staticmethod
    def _measure_entry(value="1/2"):
        return [["F", value], True, False, "interval"]

    @staticmethod
    def _sweep_entry(lower="3/4", undecided="1/8"):
        return [["F", lower], ["F", undecided], 11, 2, False, 3]

    def test_sweep_entries_persist_and_seed_warm_engines(self, tmp_path):
        from repro.batch.suites import sweep_suite

        cache = open_store(tmp_path)
        report = run_batch(sweep_suite(depth=20), jobs=1, cache=cache)
        assert all(result.ok for result in report.results)
        assert cache.sweep_entry_count(MeasureEngine()) > 0, "sweep entries must persist"
        engine = MeasureEngine()
        entries = cache.load_sweeps(engine)
        assert entries
        assert engine.import_sweep_entries(entries) == len(entries)
        # A warm engine answers every block sweep from the store.
        warm = run_batch(sweep_suite(depth=20), jobs=1, cache=None, engine=engine)
        assert jsonl_lines(warm.results) == jsonl_lines(report.results)
        assert engine.stats.sweep_blocks == 0
        assert engine.stats.persistent_hits > 0

    def test_run_counter_ticks_only_when_work_happens(self, tmp_path):
        cache = open_store(tmp_path)
        assert cache.run_counter() == 0
        spec = JobSpec(program="geo(1/2)", analysis="verify")
        run_batch([spec], jobs=1, cache=cache)
        assert cache.run_counter() == 1
        # A fully warm rerun does no work and must not age the store.
        run_batch([spec], jobs=1, cache=cache)
        assert cache.run_counter() == 1

    def test_prune_drops_stale_entries_and_keeps_fresh_ones(self, tmp_path):
        cache = open_store(tmp_path)
        engine = MeasureEngine()
        first_run = cache.begin_run()
        cache.merge_measures(engine, {"stale-measure": self._measure_entry()}, run=first_run)
        cache.merge_sweeps(engine, {"stale-sweep": self._sweep_entry()}, run=first_run)
        for _ in range(3):
            cache.begin_run()
        current = cache.run_counter()
        cache.merge_measures(engine, {"fresh-measure": self._measure_entry("1/3")}, run=current)
        cache.merge_sweeps(engine, {"fresh-sweep": self._sweep_entry("1/2")}, run=current)

        report = cache.prune(min_age_runs=2)
        assert report.pruned == {"measures": 1, "sweeps": 1, "frontiers": 0}
        assert report.kept == {"measures": 1, "sweeps": 1, "frontiers": 0}
        assert report.pruned_total == 2
        assert set(cache.load_measures(engine)) == {"fresh-measure"}
        assert set(cache.load_sweeps(engine)) == {"fresh-sweep"}

    def test_persistent_hits_refresh_touch_stamps(self, tmp_path):
        from repro.batch.suites import sweep_suite

        cache = open_store(tmp_path)
        cold = run_batch(sweep_suite(depth=20), jobs=1, cache=cache)
        assert all(result.ok for result in cold.results)
        # Age the store, then force the jobs to recompute: the reruns answer
        # from the persistent store, which must re-stamp the entries they hit.
        for _ in range(5):
            cache.begin_run()
        execute(cache, "DELETE FROM jobs")
        warm = run_batch(sweep_suite(depth=20), jobs=1, cache=cache)
        assert jsonl_lines(warm.results) == jsonl_lines(cold.results)
        before = len(cache.load_sweeps(MeasureEngine()))
        report = cache.prune(min_age_runs=3)
        assert report.pruned.get("sweeps", 0) == 0
        assert len(cache.load_sweeps(MeasureEngine())) == before

    def test_prune_rejects_non_positive_age(self, tmp_path):
        with pytest.raises(ValueError):
            open_store(tmp_path).prune(min_age_runs=0)

    def test_prune_cli_reports_counts(self, tmp_path, capsys):
        cache = open_store(tmp_path)
        engine = MeasureEngine()
        run = cache.begin_run()
        cache.merge_measures(engine, {"old-key": self._measure_entry()}, run=run)
        for _ in range(4):
            cache.begin_run()
        assert main(["batch", "prune", "--cache-dir", str(tmp_path),
                     "--keep-runs", "2"]) == 0
        output = capsys.readouterr().out
        assert "pruned 1" in output
        assert main(["batch", "prune"]) == 2  # --cache-dir is required

    def test_non_default_engine_options_bypass_the_job_cache(self, tmp_path):
        from repro.batch.suites import sweep_suite
        from repro.geometry.measure import MeasureOptions

        cache = open_store(tmp_path)
        specs = sweep_suite(depth=20)
        default_report = run_batch(specs, jobs=1, cache=cache)
        # The joint-sweep engine computes different (looser) bounds, so it
        # must not replay job results cached under the default options.
        joint = MeasureEngine(MeasureOptions(block_sweep=False))
        joint_report = run_batch(specs, jobs=1, cache=cache, engine=joint)
        assert joint_report.cache_hits == 0
        assert not any(result.cached for result in joint_report.results)
        assert jsonl_lines(joint_report.results) != jsonl_lines(default_report.results)
        # The default configuration still replays its own cached results.
        warm = run_batch(specs, jobs=1, cache=cache)
        assert warm.cache_hits == len(specs)
        assert jsonl_lines(warm.results) == jsonl_lines(default_report.results)
