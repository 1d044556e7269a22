"""One benchmark repetition in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SPAWNED TRACE SCRATCH``

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started this
interpreter, so set-up time counts interpreter start, ``import repro.cli``
and program resolution.  ``TRACE`` is ``1`` to install the layer spans after
set-up.  ``SCRATCH`` is an empty directory this repetition may write.
The timed work runs under :class:`gauge.Gauge`, so the result carries the
machine's speed during it; its wall and CPU seconds include the probes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads
from gauge import Gauge

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s():
    """User + system time of this process and its reaped children (pool workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def main(argv):
    workload, seed, spawned, traced, scratch = argv
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import every CLI call pays)

    imported = time.perf_counter()
    state = workloads.PREPARE[workload](int(seed))
    ready = time.perf_counter()
    setup_s = time.monotonic() - float(spawned)

    tracer = None
    if traced == "1":
        from tracer import Tracer

        tracer = Tracer(scratch)
        tracer.install()
    cpu_started = _cpu_s()
    wall_started = time.perf_counter()
    with Gauge() as gauge:
        rows, stats = workloads.RUN[workload](state, scratch)
    wall_s = time.perf_counter() - wall_started
    cpu_s = _cpu_s() - cpu_started
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024,
        "order": state["order"],
        "rows": rows,
        "stats": stats,
        **gauge.summary(),
    }
    if workload == "fleet":
        result["store_backend"] = workloads.store_backend(Path(scratch) / "store")
    if tracer is not None:
        from metrics import layer_metrics

        result["layers"] = layer_metrics(
            tracer, stats, wall_s, imported - started, ready - imported
        )
        result["unwrapped"] = tracer.unwrapped
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
