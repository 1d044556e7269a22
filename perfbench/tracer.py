"""Layer spans recorded from outside the program.

The tracer wraps the public entry points of each pipeline layer (listed in
``LAYER_TARGETS``) and keeps, per layer, a call count, the total time of its
outermost calls and its *self* time: the span minus the time of the spans
it caused.  Nothing under ``src/`` is edited; the wrappers are installed by
rebinding module attributes and class methods after import.

Spans live in memory.  A worker forked by the batch pool inherits the
wrappers; an ``os.register_at_fork`` hook gives it a fresh span state, and
the pool-job wrapper writes that state to ``<spill_dir>/worker-*.json``
after every job, because pool workers leave through ``os._exit``.
``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, so worker
intervals and supervisor spans share one clock.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

# (layer span, module, attribute).  ``Class.method`` attributes wrap a
# method; plain names wrap a function and every module-level alias of it in
# the loaded ``repro`` modules.  A target a later version of the program no
# longer has is skipped and listed in the report's ``unwrapped``.
LAYER_TARGETS = (
    ("symbolic.step", "repro.symbolic.execute", "SymbolicStepper.step"),
    ("symbolic.substitute", "repro.spcf.syntax", "substitute"),
    ("symbolic.explore", "repro.symbolic.execute", "ExplorationSession.extend"),
    ("symbolic.explore", "repro.symbolic.execute", "ExplorationSession.extend_until"),
    ("symbolic.codec", "repro.symbolic.codec", "encode_session"),
    ("symbolic.codec", "repro.symbolic.codec", "decode_session"),
    ("symbolic.codec", "repro.symbolic.codec", "split_session"),
    ("symbolic.codec", "repro.symbolic.execute", "ExplorationSession.absorb"),
    ("geometry.measure", "repro.geometry.engine", "MeasureEngine.measure"),
    ("geometry.canonicalize", "repro.geometry.engine", "MeasureEngine.canonicalize"),
    ("geometry.polytope", "repro.geometry.polytope", "polytope_volume"),
    ("geometry.polygon", "repro.geometry.polytope", "polygon_area_exact"),
    ("geometry.sweep", "repro.geometry.sweep", "sweep_measure"),
    ("geometry.sweep", "repro.geometry.sweep", "sweep_accepted_boxes"),
    ("geometry.kernel", "repro.geometry.kernel", "compile_constraint_set"),
    ("geometry.kernel", "repro.geometry.kernel", "CompiledSet.classify"),
    ("geometry.kernel", "repro.geometry.kernel", "boxes_to_arrays"),
    ("geometry.kernel", "repro.geometry.kernel", "rows_to_arrays"),
    ("lowerbound.extend", "repro.lowerbound.engine", "LowerBoundSession.extend"),
    ("batch.store_read", "repro.batch.cache", "BatchCache.load_job"),
    ("batch.store_read", "repro.batch.cache", "BatchCache.load_measures"),
    ("batch.store_read", "repro.batch.cache", "BatchCache.load_sweeps"),
    ("batch.store_read", "repro.batch.cache", "BatchCache.load_frontiers"),
    ("batch.store_read", "repro.batch.cache", "BatchCache.load_frontier_entry"),
    ("batch.store_write", "repro.batch.cache", "BatchCache.store_job"),
    ("batch.store_write", "repro.batch.cache", "BatchCache.begin_run"),
    ("batch.store_write", "repro.batch.cache", "BatchCache.merge_measures"),
    ("batch.store_write", "repro.batch.cache", "BatchCache.merge_sweeps"),
    ("batch.store_write", "repro.batch.cache", "BatchCache.merge_frontiers"),
    ("batch.store_read", "repro.batch.store_sqlite", "SqliteStore.load_job"),
    ("batch.store_read", "repro.batch.store_sqlite", "SqliteStore.load_measures"),
    ("batch.store_read", "repro.batch.store_sqlite", "SqliteStore.load_sweeps"),
    ("batch.store_read", "repro.batch.store_sqlite", "SqliteStore.load_frontiers"),
    ("batch.store_read", "repro.batch.store_sqlite", "SqliteStore.load_frontier_entry"),
    ("batch.store_write", "repro.batch.store_sqlite", "SqliteStore.store_job"),
    ("batch.store_write", "repro.batch.store_sqlite", "SqliteStore.begin_run"),
    ("batch.store_write", "repro.batch.store_sqlite", "SqliteStore.merge_measures"),
    ("batch.store_write", "repro.batch.store_sqlite", "SqliteStore.merge_sweeps"),
    ("batch.store_write", "repro.batch.store_sqlite", "SqliteStore.merge_frontiers"),
    ("batch.claim", "repro.batch.distribute", "_ShardClaims.try_claim"),
    ("batch.claim", "repro.batch.distribute", "_ShardClaims.release"),
    ("batch.claim", "repro.batch.distribute", "_ShardClaims.release_all"),
    ("batch.schedule", "repro.batch.distribute", "run_distributed_schedule"),
    ("batch.pool", "repro.batch.runner", "run_batch"),
    ("batch.worker", "repro.batch.runner", "_worker_run"),
)

POOL_SPAN = "batch.pool"
WORKER_SPAN = "batch.worker"


class Tracer:
    """Per-process span aggregates: ``{layer: [calls, total_s, self_s]}``."""

    def __init__(self, spill_dir: str) -> None:
        self.spill_dir = spill_dir
        self.stack = []
        self.layers = {}
        self.pool_calls = []  # (start, end, jobs) of supervisor run_batch calls
        self.busy = []  # (start, end) of pool jobs run in this process
        self.unwrapped = []
        self._spill_path = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.stack = []
        self.layers = {}
        self.pool_calls = []
        self.busy = []
        self._spill_path = os.path.join(
            self.spill_dir, f"worker-{os.getpid()}-{os.urandom(4).hex()}.json"
        )

    # -- spans ---------------------------------------------------------------

    def wrap(self, function, layer):
        tracer = self
        jobs_of = None
        if layer == POOL_SPAN:
            signature = inspect.signature(function)

            def jobs_of(args, kwargs):
                return signature.bind(*args, **kwargs).arguments.get("jobs", 1)

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)  # re-entry stays one span
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(layer, frame[1], end, frame[2])
                if stack:
                    stack[-1][2] += end - frame[1]
                if jobs_of is not None:
                    tracer.pool_calls.append((frame[1], end, jobs_of(args, kwargs)))
                elif layer == WORKER_SPAN:
                    tracer.busy.append((frame[1], end))
                    tracer.spill()

        traced.__wrapped__ = function
        for attribute in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(traced, attribute, getattr(function, attribute, None))
        return traced

    def _close(self, layer, start, end, children) -> None:
        entry = self.layers.get(layer)
        if entry is None:
            entry = self.layers[layer] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - children

    def spill(self) -> None:
        if self._spill_path is None:
            return  # the supervisor's state is read in-process
        document = {"layers": self.layers, "busy": self.busy}
        temporary = self._spill_path + ".tmp"
        with open(temporary, "w") as stream:
            json.dump(document, stream)
        os.replace(temporary, self._spill_path)

    def worker_spills(self):
        """The span states the forked pool workers left behind."""
        spills = []
        for name in sorted(os.listdir(self.spill_dir)):
            if name.startswith("worker-") and name.endswith(".json"):
                with open(os.path.join(self.spill_dir, name)) as stream:
                    spills.append(json.load(stream))
        return spills

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every ``LAYER_TARGETS`` entry the loaded program still has."""
        for layer, module_name, attribute in LAYER_TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.unwrapped.append(f"{module_name}:{attribute}")
                continue
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(member) if owner is not None else None
                if not inspect.isfunction(original):
                    self.unwrapped.append(f"{module_name}:{attribute}")
                    continue
                setattr(owner, member, self.wrap(original, layer))
                continue
            original = getattr(module, member, None)
            if not inspect.isfunction(original):
                self.unwrapped.append(f"{module_name}:{attribute}")
                continue
            wrapped = self.wrap(original, layer)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, alias, wrapped)
