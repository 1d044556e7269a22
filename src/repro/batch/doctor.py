"""``python -m repro doctor``: explain the health of a batch cache directory.

The doctor is the operator-facing half of the fault-tolerance layer: the
store detects damage (checksums, quarantine) at read time, and the doctor
reports all of it *without waiting for a read* -- plus the slow-burn
conditions no single read would notice: stale entries the GC should
collect, rows written under a foreign primitive-registry fingerprint, and
sweep frontiers bumping against the persistence cap.

Everything here is strictly read-only.  The doctor never quarantines -- it
only *names* what the next reading run would do (or what the operator
should look at), so running it concurrently with live batches is always
safe.  That is why it verifies rows through
:meth:`~repro.batch.store_sqlite.SqliteStore.scan_rows` (pure) rather than
through the store's quarantining read path.

Exit-code contract (the CI ``fault-smoke`` job relies on it):

* ``0`` -- healthy: every envelope verifies, no quarantined rows;
* ``1`` -- at least one *error*-level finding: a damaged row, a failed page
  integrity check, or a non-empty quarantine.

Warnings (foreign fingerprints, unknown versions) and infos (stale
entries) do not fail the exit code: they describe states the store
tolerates on its own.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.batch.store_sqlite import (
    _ENTRY_KINDS,
    DB_FILENAME,
    STORE_SCHEMA_VERSION,
    SqliteStore,
    sqlite_store_path,
)
from repro.geometry import engine as _engine_module
from repro.geometry.engine import MeasureEngine

__all__ = ["DoctorReport", "Finding", "check_trace", "diagnose"]

_LEVELS = ("info", "warning", "error")

_FRONTIER_CAP = _engine_module._MAX_PERSISTED_FRONTIER_BOXES
_FRONTIER_INDEX = 6  # a sweep entry's optional persisted-frontier blob
_FRONTIER_BOXES_INDEX = 5  # the box list inside that blob


@dataclass(frozen=True)
class Finding:
    """One observation about the store: a fact, a smell, or damage."""

    level: str  # "info" | "warning" | "error"
    code: str  # stable machine-readable slug, e.g. "checksum-mismatch"
    message: str
    path: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "code": self.code,
            "message": self.message,
            "path": self.path,
        }


@dataclass
class DoctorReport:
    """Everything one diagnostic pass learned about a cache directory."""

    directory: str
    findings: List[Finding] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)

    def add(
        self, level: str, code: str, message: str, path: Union[str, Path, None] = None
    ) -> None:
        assert level in _LEVELS
        self.findings.append(
            Finding(level, code, message, str(path) if path is not None else None)
        )

    @property
    def errors(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.level == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [finding for finding in self.findings if finding.level == "warning"]

    @property
    def healthy(self) -> bool:
        return not self.errors

    @property
    def exit_code(self) -> int:
        return 0 if self.healthy else 1

    def as_dict(self) -> dict:
        return {
            "directory": self.directory,
            "healthy": self.healthy,
            "counts": dict(self.counts),
            "findings": [finding.as_dict() for finding in self.findings],
        }

    def summary(self) -> str:
        """The human-readable report printed by ``python -m repro doctor``."""
        lines = [f"cache directory  : {self.directory}"]
        for label, key in (
            ("run counter", "run_counter"),
            ("job results", "job_rows"),
            ("measure entries", "measures_entries"),
            ("sweep entries", "sweeps_entries"),
            ("frontier entries", "frontiers_entries"),
            ("stale entries", "stale_entries"),
            ("persisted frontiers", "frontiers"),
            ("frontier boxes", "frontier_boxes"),
            ("frontiers at cap", "frontiers_at_cap"),
            ("quarantined rows", "quarantined"),
            ("trace events", "trace_events"),
            ("trace open spans", "trace_open_spans"),
        ):
            if key in self.counts:
                lines.append(f"{label:<17s}: {self.counts[key]}")
        for finding in self.findings:
            if finding.level == "info":
                continue
            location = f" [{finding.path}]" if finding.path else ""
            lines.append(f"{finding.level.upper():<7s} {finding.code}: {finding.message}{location}")
        lines.append("status           : " + ("healthy" if self.healthy else "PROBLEMS FOUND"))
        return "\n".join(lines)


def diagnose(
    directory: Union[str, Path],
    stale_runs: int = 20,
    engine: Optional[MeasureEngine] = None,
) -> DoctorReport:
    """Run every read-only health check over one cache directory.

    The store is diagnosed through its database: page integrity, per-row
    envelope verification, fingerprints, staleness, persisted sweep
    frontiers and the quarantine table.  A directory without a
    ``store.sqlite3`` holds no store yet and is reported as empty.
    """
    directory = Path(directory)
    report = DoctorReport(directory=str(directory))
    if not directory.is_dir():
        report.add("error", "missing-directory", "cache directory does not exist")
        return report
    db_path = sqlite_store_path(directory)
    if not db_path.exists():
        report.add("info", "no-store", f"no {DB_FILENAME} here yet; nothing to check")
        return report
    try:
        store = SqliteStore(directory)
    except sqlite3.Error as error:
        report.add(
            "error",
            "unreadable-database",
            f"{DB_FILENAME} cannot be opened ({error})",
            db_path,
        )
        return report
    try:
        _diagnose_store(report, store, db_path, stale_runs, engine or MeasureEngine())
    finally:
        store.close()
    return report


def _diagnose_store(
    report: DoctorReport,
    store: SqliteStore,
    db_path: Path,
    stale_runs: int,
    engine: MeasureEngine,
) -> None:
    verdict = store.integrity_check()
    if verdict is not None:
        report.add(
            "error",
            "integrity-check-failed",
            f"SQLite page integrity check failed: {verdict}",
            db_path,
        )
    version = store.store_version()
    if version != STORE_SCHEMA_VERSION:
        report.add(
            "warning",
            "unknown-store-version",
            f"database schema version {version!r} (this tool knows "
            f"{STORE_SCHEMA_VERSION})",
            db_path,
        )
    scan = store.scan_rows(stale_runs, engine.registry_fingerprint())
    report.counts["run_counter"] = scan.run_counter
    report.counts["job_rows"] = scan.job_rows
    for kind in _ENTRY_KINDS:
        report.counts[f"{kind}_entries"] = scan.entry_rows.get(kind, 0)
        foreign = scan.foreign_rows.get(kind, 0)
        if foreign:
            report.add(
                "warning",
                "foreign-fingerprint",
                f"{foreign} {kind} row(s) were written under a different "
                "primitive-registry fingerprint; they read as misses here",
            )
    report.counts["stale_entries"] = scan.stale_entries
    if scan.unknown_version_rows:
        report.add(
            "warning",
            "unknown-version",
            f"{scan.unknown_version_rows} row(s) have an unknown envelope "
            "version (newer tool?); they read as misses",
            db_path,
        )
    for origin, key, status in scan.damaged:
        report.add(
            "error",
            status,
            f"{origin} row {key[:16]}... is damaged ({status}); the next "
            "store read will quarantine it",
            f"{origin}/{key}",
        )
    if scan.stale_entries:
        report.add(
            "info",
            "stale-entries",
            f"{scan.stale_entries} entries untouched for >= {stale_runs} "
            f"runs; `repro batch prune --keep-runs {stale_runs}` would "
            "drop them",
        )
    _audit_sweep_frontiers(report, scan.sweep_entries)
    quarantined = store.quarantine_rows()
    report.counts["quarantined"] = len(quarantined)
    for origin, key, reason in quarantined:
        report.add(
            "error",
            "quarantined",
            f"damaged {origin} row {key[:16]}... was quarantined ({reason}); "
            "inspect and clear the quarantine table to clear this error",
            f"{origin}/{key}",
        )


def _audit_sweep_frontiers(report: DoctorReport, sweep_entries: List) -> None:
    """Count persisted sweep frontiers and those at the persistence cap."""
    for entry in sweep_entries:
        if not isinstance(entry, list) or len(entry) <= _FRONTIER_INDEX:
            continue
        blob = entry[_FRONTIER_INDEX]
        if not isinstance(blob, list) or len(blob) <= _FRONTIER_BOXES_INDEX:
            continue
        boxes = blob[_FRONTIER_BOXES_INDEX]
        if not isinstance(boxes, list):
            continue
        report.counts["frontiers"] = report.counts.get("frontiers", 0) + 1
        report.counts["frontier_boxes"] = (
            report.counts.get("frontier_boxes", 0) + len(boxes)
        )
        if len(boxes) >= _FRONTIER_CAP:
            report.counts["frontiers_at_cap"] = (
                report.counts.get("frontiers_at_cap", 0) + 1
            )
    if report.counts.get("frontiers_at_cap"):
        report.add(
            "info",
            "frontier-cap",
            f"{report.counts['frontiers_at_cap']} persisted sweep frontier(s) "
            f"at the {_FRONTIER_CAP}-box persistence cap; deeper budgets "
            "re-sweep those blocks from scratch",
        )


def check_trace(report: DoctorReport, path: Union[str, Path]) -> None:
    """Read-only health checks over one telemetry trace file (``--trace``).

    Severity follows the writer's durability contract: a *torn final line*
    is exactly what a killed process legitimately leaves behind, so it is a
    warning (reported, never failed), as are unbalanced spans (a worker kill
    interrupts whatever span was open).  Corrupt lines anywhere *else*, an
    unknown schema version, or schema-invalid events mean the file was
    damaged after writing -- errors.
    """
    from repro.telemetry.analyze import read_trace
    from repro.telemetry.events import SCHEMA_VERSION

    path = Path(path)
    try:
        accumulator = read_trace(path)
    except OSError:
        report.add("error", "missing-trace", "trace file cannot be read", path)
        return
    report.counts["trace_events"] = accumulator.events
    report.counts["trace_open_spans"] = len(accumulator.open_spans)
    unknown = sorted(
        version
        for version in accumulator.schema_versions
        if version != SCHEMA_VERSION
    )
    if unknown:
        report.add(
            "error",
            "unknown-trace-schema",
            f"trace holds schema version(s) {unknown}; this reader knows "
            f"only version {SCHEMA_VERSION}",
            path,
        )
    if accumulator.invalid_events:
        report.add(
            "error",
            "invalid-trace-event",
            f"{len(accumulator.invalid_events)} schema-invalid event(s); "
            f"first: {accumulator.invalid_events[0]}",
            path,
        )
    if accumulator.corrupt_lines:
        report.add(
            "error",
            "corrupt-trace-line",
            f"{accumulator.corrupt_lines} unparseable non-final line(s); "
            "the file was damaged after writing",
            path,
        )
    if accumulator.torn_tail:
        report.add(
            "warning",
            "torn-trace-tail",
            "the final line is torn (a process died mid-write); every "
            "trace reader tolerates this by design",
            path,
        )
    if accumulator.open_spans or accumulator.unmatched_span_ends:
        report.add(
            "warning",
            "unbalanced-spans",
            f"{len(accumulator.open_spans)} span(s) never closed, "
            f"{accumulator.unmatched_span_ends} span-end(s) without a start "
            "(expected after worker kills)",
            path,
        )
    if not accumulator.ended:
        report.add(
            "warning",
            "no-trace-end",
            "no orderly trace-end from the root process (the run is still "
            "going, or it died)",
            path,
        )


def write_report_json(report: DoctorReport, path: Union[str, Path]) -> None:
    """Write the machine-readable report (``--json``)."""
    Path(path).write_text(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n")
