"""The repository's benchmark: four workloads, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --manifest          # rewrite BENCHMARK.json
    python3 perfbench/run.py --workload sweep --bless   # re-record expected bounds

Each repetition runs in a fresh interpreter (``worker.py``), because users
pay interpreter start, ``import repro.cli`` and program resolution on every
command.  Repetitions repeat until ``--seconds`` is spent (at least
``MIN_REPS``); timings are medians over them.  Wall and CPU time are
reported in units of a probe timed while the work runs (``gauge.py``),
because the host's speed drifts more between runs than any useful bound.  ``--trace 0`` reports the
end-to-end metrics from untraced repetitions.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the trace's coverage and overhead.

Every repetition's bounds are checked against ``expected.json`` and the
soundness rules in :func:`check_rows`; exact counters must repeat between
repetitions.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller report
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
MIN_REPS = 3
HARD_LIMIT_S = 160.0  # a run must end within 180 s
UNCERTIFIED = "uncertified (ROADMAP item 3)"  # a float bound: scipy, not exact
RUN_SECONDS = 28


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in workloads.WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in metrics.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, _moves, _on in metrics.PER_LAYER
        ],
    }


# -- one repetition ------------------------------------------------------------------


def repetition(workload, seed, traced, deadline):
    """Run ``worker.py`` once; its result dict, or ``None`` and the reason."""
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    spawned = time.monotonic()
    child = subprocess.Popen(
        [
            sys.executable,
            str(HERE / "worker.py"),
            workload,
            str(seed),
            repr(spawned),
            "1" if traced else "0",
            scratch,
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its pool workers share its process group
    )
    try:
        out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = err = None
    finally:
        _stop_group(child)
        shutil.rmtree(scratch, ignore_errors=True)
    if out is None:
        return None, "timed out"
    if child.returncode != 0:
        return None, f"exit {child.returncode}: {err.strip()[-500:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "no result line"


def _stop_group(child):
    """Kill and reap the repetition's process group, pool workers included."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    for _ in range(100):
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# -- checks ------------------------------------------------------------------------


def check_rows(rows, expected):
    """The failed rows' reasons: errors, unsound or looser bounds, broken order.

    A row fails if it errored, exceeds its program's known probability
    + 1e-12, has ``lower > upper`` (a negative measure gap), breaks anytime
    monotonicity (bounds fall or the gap grows with depth), or is looser
    than the recorded bound.  ``expected`` ``None`` skips the last check.
    """
    failures = {}
    previous = {}
    for row in rows:
        key = f"{row['program']}@{row['depth']}"
        if row["error"]:
            failures[key] = f"error: {row['error']}"
            continue
        lower = Fraction(row["lower"])
        gap = Fraction(row["anytime_gap"])
        if row["known"] is not None and float(lower) > row["known"] + 1e-12:
            failures[key] = f"unsound: {float(lower)} > known {row['known']}"
        elif Fraction(row["measure_gap"]) < 0:
            failures[key] = "lower > upper"
        elif row["program"] in previous and (
            lower < previous[row["program"]][0] or gap > previous[row["program"]][1]
        ):
            failures[key] = "anytime bound not monotone"
        elif expected is not None and key not in expected:
            failures[key] = "no expected bound recorded"
        elif expected is not None and lower < Fraction(expected[key]["lower"]):
            failures[key] = f"looser than expected {expected[key]['lower']}"
        previous[row["program"]] = (lower, gap)
    if expected is not None:
        seen = {f"{row['program']}@{row['depth']}" for row in rows}
        for key in expected:
            if key not in seen:
                failures[key] = "missing"
    return failures


def gap_sum(rows):
    """Sum of ``anytime_gap`` over each program's final (deepest) bound."""
    final = {}
    for row in rows:
        final[row["program"]] = row
    return float(sum(Fraction(row["anytime_gap"]) for row in final.values()))


def exact_counters(result):
    counters = {
        name: result["stats"].get(field, 0)
        for name, field in metrics.STAT_FIELDS.items()
        if name in metrics.EXACT
    }
    if "layers" in result:
        counters.update({name: result["layers"][name] for name in metrics.EXACT})
    return counters


# -- environment -------------------------------------------------------------------


def _version(package):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; src_sha256 identifies the code
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() or None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def load_average(nproc):
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"warning: 1-minute load average {load:.2f} exceeds nproc {nproc}", file=sys.stderr)
    return load


# -- the run -----------------------------------------------------------------------


def repeat(arguments, expected):
    """Run repetitions until ``--seconds`` is spent; check each one's bounds.

    Returns the untraced and traced results, the number of bounds attempted
    and failed, and the problems found.
    """
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    results = {False: [], True: []}
    attempted = failed = count = 0
    problems = []
    while True:
        traced = arguments.trace == 1 and count % 2 == 1
        rep_started = time.monotonic()
        result, error = repetition(arguments.workload, arguments.seed, traced, deadline)
        rep_s = time.monotonic() - rep_started
        count += 1
        if result is None:
            attempted += len(expected or ()) or 1
            failed += len(expected or ()) or 1
            problems.append(f"repetition {count}: {error}")
        else:
            failures = check_rows(result["rows"], expected)
            keys = {f"{row['program']}@{row['depth']}" for row in result["rows"]}
            attempted += len(keys | set(expected or ()))
            failed += len(failures)
            problems.extend(f"repetition {count}: {key}: {why}" for key, why in failures.items())
            results[traced].append(result)
        untraced_needed = 1 if arguments.trace else MIN_REPS
        enough = len(results[False]) >= untraced_needed and (
            arguments.trace == 0 or results[True]
        )
        if enough and time.monotonic() - started + rep_s > arguments.seconds:
            break
        if time.monotonic() + rep_s > deadline:
            break
        if count >= 2 * MIN_REPS + 2 and not (results[False] or results[True]):
            break  # nothing works; do not spin until the deadline
    return results[False], results[True], attempted, failed, problems


def relative(results, name):
    """Seconds ``name`` of each result, probes left out, in mean probe times."""
    return [
        (result[name] - result["probe_spent_s"]) / result["probe_s"] for result in results
    ]


def end_to_end_values(untraced, attempted, failed, report):
    values = {}
    samples = report.setdefault("samples", {})
    for name in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "probes", "probe_s"):
        samples[name] = [result[name] for result in untraced]
    for name in ("setup_s", "peak_rss_mb"):
        values[name] = statistics.median(samples[name])
    for name, raw in (("wall_ref", "wall_s"), ("cpu_ref", "cpu_s")):
        samples[name] = relative(untraced, raw)
        values[name] = statistics.median(samples[name])
    values["ok_frac"] = (attempted - failed) / attempted
    values["gap_sum"] = gap_sum(untraced[0]["rows"])
    return {name: values[name] for name, _unit, _better, _bound in metrics.END_TO_END}


def per_layer_values(untraced, traced, problems, report):
    values = {
        name: statistics.median_low([result["layers"][name] for result in traced])
        for name, _unit, _better, _moves, _on in metrics.PER_LAYER
        if name != "trace.overhead"
    }
    values["trace.overhead"] = statistics.median(relative(traced, "wall_s")) / statistics.median(
        relative(untraced, "wall_s")
    )
    for result in traced:
        coverage = result["layers"]["trace.coverage"]
        if coverage < metrics.MIN_COVERAGE:
            problems.append(f"trace.coverage {coverage:.4f} below {metrics.MIN_COVERAGE}")
    report["unwrapped"] = traced[0]["unwrapped"]
    report["worker_time_source"] = (
        "span wrappers inherited by the forked pool workers, spilled after every job"
    )
    report["scheduling_counters"] = list(metrics.SCHEDULING)
    report["moves"] = {
        name: {"moves": moves, "on": on} for name, _u, _b, moves, on in metrics.PER_LAYER
    }
    return values


def bless(workload, rows):
    """Record ``rows`` as the workload's expected bounds."""
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded[workload] = {
        f"{row['program']}@{row['depth']}": {
            key: row[key] for key in ("lower", "kind", "flag") if key in row
        }
        for row in rows
    }
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def run(arguments):
    expected = None
    if not arguments.bless:
        expected = json.loads(EXPECTED.read_text())[arguments.workload]
    OUT.mkdir(exist_ok=True)
    # Users do not recompile on every command: fill the bytecode caches first.
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    env = environment()
    env["loadavg_before"] = load_average(env["nproc"])
    untraced, traced, attempted, failed, problems = repeat(arguments, expected)
    env["loadavg_after"] = load_average(env["nproc"])
    if not untraced or (arguments.trace and not traced):
        print("\n".join(problems), file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    every = untraced + traced
    counters = {}
    for result in every:
        for name, value in exact_counters(result).items():
            if counters.setdefault(name, value) != value:
                problems.append(f"counter {name} not repeatable: {counters[name]} vs {value}")
    if any(result["rows"] != every[0]["rows"] for result in every):
        problems.append("bounds differ between repetitions")
    env["store_backend"] = every[0].get("store_backend", "none")
    report = {
        "workload": arguments.workload,
        "why": workloads.WHY[arguments.workload],
        "seed": arguments.seed,
        "program_order": every[0]["order"],
        "environment": env,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "rows": [
            dict(row, flag=UNCERTIFIED) if row.get("kind") == "float" else row
            for row in every[0]["rows"]
        ],
        "exact_counters": counters,
    }
    if arguments.trace == 0:
        values = end_to_end_values(untraced, attempted, failed, report)
        units = {name: unit for name, unit, _better, _bound in metrics.END_TO_END}
    else:
        values = per_layer_values(untraced, traced, problems, report)
        units = {name: unit for name, unit, _better, _moves, _on in metrics.PER_LAYER}
    report["problems"] = problems
    report["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    name = f"{arguments.workload}-seed{arguments.seed}-trace{arguments.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    if arguments.bless:
        if problems:
            print("error: not blessing a run with problems", file=sys.stderr)
            return 1
        bless(arguments.workload, report["rows"])
    print(f"workload {arguments.workload} seed {arguments.seed} order {report['program_order']}")
    for name, value in values.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json")
    parser.add_argument("--bless", action="store_true", help="record this run's bounds as expected")
    arguments = parser.parse_args(argv)
    if arguments.manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if arguments.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(arguments)


if __name__ == "__main__":
    sys.exit(main())
