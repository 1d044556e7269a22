"""Property and integration tests for persisted, sharded exploration frontiers.

The distributed-deepening invariants (see :mod:`repro.batch.distribute`):

* the session codec is an exact inverse: ``decode(encode(s)).extend(d)`` is
  bit-identical -- result, order, counts, ``PerfStats`` -- to ``s.extend(d)``,
  for any program, suspension depth and deeper budget,
* splitting a frontier into shards, extending the shards in *any* order
  (the steal order) and absorbing them back reproduces the inline extend
  bit for bit, for any shard count,
* a crash between depths resumes from the store without re-executing any
  completed symbolic step, and a worker never re-executes a shard whose
  output is already merged,
* frontier entries age and survive ``prune`` exactly like measure and
  sweep entries, and ``doctor`` audits their rows.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch.distribute import (
    _ShardClaims,
    _claim_name,
    execute_shards,
    frontier_entry,
    frontier_entry_parts,
    frontier_key,
    run_distributed_schedule,
    shard_entry_key,
)
from repro.batch.doctor import diagnose
from repro.batch.store_sqlite import open_store
from repro.geometry.engine import MeasureEngine
from repro.geometry.stats import PerfStats
from repro.programs import (
    golden_ratio,
    resolve_program,
    sigmoid_branching,
    sigmoid_tri_branching,
)
from repro.symbolic import SymbolicExplorer
from repro.symbolic.codec import (
    CODEC_VERSION,
    decode_session,
    encode_session,
    session_counters,
    split_session,
)

_PROGRAMS = {
    "gr": golden_ratio().applied,
    "sig-branch": sigmoid_branching(Fraction(3, 5)).applied,
    "sig-branch3": sigmoid_tri_branching(Fraction(3, 5)).applied,
}


def _roundtrip(encoded):
    """A real JSON dump/load cycle: what the store actually persists."""
    return json.loads(json.dumps(encoded))


# ---------------------------------------------------------------------------
# The codec: encode/decode is an exact inverse, counters included.
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(_PROGRAMS)),
    st.integers(min_value=5, max_value=35),
    st.integers(min_value=0, max_value=20),
)
def test_decode_encode_extend_matches_uninterrupted(name, depth, extra):
    term = _PROGRAMS[name]
    uninterrupted_stats = PerfStats()
    uninterrupted = SymbolicExplorer(stats=uninterrupted_stats).session(term)
    uninterrupted.extend(depth)

    suspended = SymbolicExplorer(stats=PerfStats()).session(term)
    suspended.extend(depth)
    encoded = _roundtrip(encode_session(suspended))

    restored_stats = PerfStats()
    restored = decode_session(
        encoded, SymbolicExplorer(stats=restored_stats), stats=restored_stats
    )
    assert restored is not None
    deeper = depth + extra
    assert restored.extend(deeper) == uninterrupted.extend(deeper)
    # The crash/restore cycle reports the same PerfStats as never crashing.
    assert restored_stats.symbolic_steps == uninterrupted_stats.symbolic_steps
    assert restored_stats.paths_resumed == uninterrupted_stats.paths_resumed
    assert restored_stats.frontier_peak == uninterrupted_stats.frontier_peak
    assert restored_stats.frontier_restores == 1


def test_malformed_encodings_read_as_misses():
    session = SymbolicExplorer().session(_PROGRAMS["gr"])
    session.extend(20)
    encoded = encode_session(session)
    explorer = SymbolicExplorer()
    assert decode_session(None, explorer) is None
    assert decode_session([], explorer) is None
    assert decode_session(encoded[:5], explorer) is None
    assert decode_session([CODEC_VERSION + 1] + encoded[1:], explorer) is None
    bad_counters = list(encoded)
    bad_counters[3] = [1, -2]
    assert decode_session(bad_counters, explorer) is None
    if len(encoded[5]) >= 2:  # out-of-order node keys are rejected
        shuffled = list(encoded)
        shuffled[5] = [encoded[5][-1]] + list(encoded[5][:-1])
        assert decode_session(shuffled, explorer) is None


def test_frontier_key_is_budget_independent_but_pins_program_and_cap():
    rank3 = resolve_program("sig-branch3(3/5)")
    rank2 = resolve_program("sig-branch(3/5)")
    key = frontier_key(rank3, 100)
    assert key == frontier_key(rank3, 100)  # no depth, no schedule in the key
    assert key != frontier_key(rank3, 200)
    assert key != frontier_key(rank2, 100)


# ---------------------------------------------------------------------------
# Sharding: split + extend-in-any-order + absorb == inline extend.
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from(["gr", "sig-branch3"]),
    st.integers(min_value=1, max_value=9),
    st.randoms(use_true_random=False),
)
def test_shard_split_and_absorb_are_bit_identical(name, shard_count, rng):
    term = _PROGRAMS[name]
    suspend_at, target = 20, 32
    inline_stats = PerfStats()
    inline = SymbolicExplorer(stats=inline_stats).session(term)
    inline.extend(suspend_at)
    reference = inline.extend(target)

    master_stats = PerfStats()
    master = SymbolicExplorer(stats=master_stats).session(term)
    master.extend(suspend_at)
    shards = split_session(master, shard_count)
    assert 1 <= len(shards) <= min(shard_count, master.frontier_size)
    order = list(range(len(shards)))
    rng.shuffle(order)  # the steal order must not matter
    decoded = [None] * len(shards)
    for index in order:
        shard = decode_session(
            _roundtrip(shards[index]), SymbolicExplorer(), credit_stats=False
        )
        assert shard is not None
        assert session_counters(shard) == (0, 0, 0)  # pure work units
        assert shard.max_steps == suspend_at
        shard.extend(target)
        decoded[index] = shard
    master.absorb(decoded, target)
    assert master.extend(target) == reference
    assert master_stats.symbolic_steps == inline_stats.symbolic_steps
    assert master_stats.paths_resumed == inline_stats.paths_resumed
    assert master_stats.frontier_peak == inline_stats.frontier_peak


# ---------------------------------------------------------------------------
# The worker loop: claims, stealing, and completed-output reuse.
# ---------------------------------------------------------------------------


def _seed_shards(store, engine, program, depth, target, shard_count):
    """Persist a depth-``depth`` frontier and its ``:in`` shards for ``target``."""
    key = frontier_key(program, 100_000)
    run_distributed_schedule(
        program.name,
        program,
        [depth],
        store=store,
        engine=engine,
        jobs=1,
        max_paths=100_000,
    )
    encoded, _rows = frontier_entry_parts(store.load_frontiers(engine)[key])
    detached = SymbolicExplorer(program.strategy, engine.registry, stats=None)
    master = decode_session(encoded, detached, credit_stats=False)
    shards = split_session(master, shard_count)
    store.merge_frontiers(
        engine,
        {
            shard_entry_key(key, target, index, "in"): frontier_entry(shard, [])
            for index, shard in enumerate(shards)
        },
    )
    return key, shards


def _shard_params(key, target, count, prefer, store):
    return {
        "frontier": key,
        "depth": target,
        "shards": count,
        "prefer": prefer,
        "max_paths": 100_000,
        "strategy": None,
        "store_dir": str(store.directory),
    }


def test_workers_skip_shards_whose_output_is_already_merged(tmp_path):
    program = resolve_program("sig-branch(3/5)")
    engine = MeasureEngine()
    store = open_store(tmp_path)
    key, shards = _seed_shards(store, engine, program, 10, 25, 2)
    assert len(shards) == 2
    # A previous fleet completed shard 0 before dying: its output is merged.
    detached = SymbolicExplorer(program.strategy, engine.registry, stats=None)
    done = decode_session(shards[0], detached, credit_stats=False)
    done.extend(25)
    store.merge_frontiers(
        engine,
        {shard_entry_key(key, 25, 0, "out"): frontier_entry(encode_session(done), [])},
    )
    worker = MeasureEngine()
    payload = execute_shards(program, _shard_params(key, 25, 2, 0, store), worker)
    # The completed shard is never re-executed; the surviving one is picked
    # up as a steal (this worker's preferred shard was the finished one).
    assert payload["executed"] == [1]
    assert payload["stolen"] == [1]
    assert worker.stats.shards_executed == 1
    assert worker.stats.shards_stolen == 1
    assert shard_entry_key(key, 25, 1, "out") in store.load_frontiers(worker)


def test_workers_respect_a_live_claim_and_steal_once_it_releases(tmp_path):
    pytest.importorskip("fcntl")
    program = resolve_program("sig-branch(3/5)")
    engine = MeasureEngine()
    store = open_store(tmp_path)
    key, shards = _seed_shards(store, engine, program, 10, 25, 2)
    holder = _ShardClaims(store.directory)
    assert holder.try_claim(_claim_name(key, 25, 1))
    try:
        worker = MeasureEngine()
        payload = execute_shards(program, _shard_params(key, 25, 2, 0, store), worker)
        # Shard 1 is busy under a live claim: only shard 0 runs.
        assert payload["executed"] == [0]
    finally:
        holder.release_all()
    worker = MeasureEngine()
    payload = execute_shards(program, _shard_params(key, 25, 2, 0, store), worker)
    assert payload["executed"] == [1]
    assert payload["stolen"] == [1]


# ---------------------------------------------------------------------------
# End to end: byte-identity and crash-resume through the store.
# ---------------------------------------------------------------------------


def test_distributed_schedule_is_bit_identical_and_crash_resumable(tmp_path):
    program = resolve_program("sig-branch(3/5)")
    schedule = [10, 25, 40]
    reference_engine = MeasureEngine()
    reference = run_distributed_schedule(
        "sig-branch(3/5)",
        program,
        schedule,
        store=open_store(tmp_path / "reference"),
        engine=reference_engine,
        jobs=1,
        max_paths=100_000,
    )
    reference_payload = json.dumps(reference.payload(), sort_keys=True)

    # A fleet run that "crashes" after the second depth...
    fleet_dir = tmp_path / "fleet"
    run_distributed_schedule(
        "sig-branch(3/5)",
        program,
        schedule[:2],
        store=open_store(fleet_dir),
        engine=MeasureEngine(),
        jobs=2,
        max_paths=100_000,
    )
    # ... and a fresh process that resumes the full schedule.
    resumed_engine = MeasureEngine()
    resumed = run_distributed_schedule(
        "sig-branch(3/5)",
        program,
        schedule,
        store=open_store(fleet_dir),
        engine=resumed_engine,
        jobs=2,
        max_paths=100_000,
    )
    assert resumed.resumed
    assert resumed.restored_depth == 25
    assert [outcome.replayed for outcome in resumed.outcomes] == [True, True, False]
    assert json.dumps(resumed.payload(), sort_keys=True) == reference_payload
    # No completed step re-executes, and the resumed process reports the
    # same PerfStats as the uninterrupted single-process run.
    assert resumed_engine.stats.symbolic_steps == reference_engine.stats.symbolic_steps
    assert resumed_engine.stats.paths_resumed == reference_engine.stats.paths_resumed
    assert resumed_engine.stats.frontier_peak == reference_engine.stats.frontier_peak
    assert resumed_engine.stats.paths_resumed > 0
    assert resumed_engine.stats.frontier_restores == 1


# ---------------------------------------------------------------------------
# Store plumbing: round-trips, GC aging, doctor coverage.
# ---------------------------------------------------------------------------


def test_store_round_trips_frontier_entries(tmp_path):
    engine = MeasureEngine()
    store = open_store(tmp_path)
    session = SymbolicExplorer().session(_PROGRAMS["sig-branch3"])
    session.extend(15)
    rows = [{"depth": 15, "probability": "1/3"}]
    store.merge_frontiers(
        engine, {"the-key": frontier_entry(encode_session(session), rows)}
    )
    assert store.frontier_entry_count(engine) == 1
    loaded = open_store(tmp_path).load_frontiers(engine)
    encoded, loaded_rows = frontier_entry_parts(loaded["the-key"])
    assert loaded_rows == rows
    restored = decode_session(encoded, SymbolicExplorer(), credit_stats=False)
    assert restored.extend(30) == session.extend(30)
    # Entries from a different format version read as a miss, not an error.
    assert frontier_entry_parts([99, [], []]) is None
    assert frontier_entry_parts("garbage") is None


def test_prune_ages_frontier_entries_like_other_kinds(tmp_path):
    engine = MeasureEngine()
    store = open_store(tmp_path)
    run = store.begin_run()
    store.merge_frontiers(engine, {"stale": frontier_entry([], [])}, run=run)
    store.merge_frontiers(engine, {"touched": frontier_entry([], [])}, run=run)
    for _ in range(3):
        run = store.begin_run()
    store.merge_frontiers(engine, {"fresh": frontier_entry([], [])}, run=run)
    # A merge that only *touches* a key refreshes its GC stamp.
    store.merge_frontiers(engine, {}, run=run, touched_keys=["touched"])
    report = store.prune(min_age_runs=2)
    assert report.pruned["frontiers"] == 1
    assert report.kept["frontiers"] == 2
    remaining = store.load_frontiers(engine)
    assert set(remaining) == {"touched", "fresh"}


def test_doctor_audits_frontier_shards(tmp_path):
    engine = MeasureEngine()
    store = open_store(tmp_path)
    store.begin_run()
    session = SymbolicExplorer().session(_PROGRAMS["gr"])
    session.extend(10)
    store.merge_frontiers(
        engine, {"k": frontier_entry(encode_session(session), [])}
    )
    report = diagnose(tmp_path, engine=engine)
    assert report.healthy
    assert report.counts["frontiers_entries"] == 1
    # Damage to a frontier row is a finding, like any other store row.
    text = store._connection.execute(
        "SELECT document FROM entries WHERE kind = 'frontiers' AND key = 'k'"
    ).fetchone()[0]
    with store._transaction() as connection:
        connection.execute(
            "UPDATE entries SET document = ? WHERE kind = 'frontiers' AND key = 'k'",
            (text[:-25],),
        )
    report = diagnose(tmp_path, engine=engine)
    assert not report.healthy
    assert any(finding.path == "frontiers/k" for finding in report.errors)
