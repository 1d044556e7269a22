"""Deterministic fault injection for the batch execution layer.

A :class:`FaultPlan` is a seeded, serializable list of faults that the batch
runner and the persistent store consult at well-defined hook points:

* ``worker-kill``     -- the worker process running job *N* dies outright
  (``os._exit``) before executing it, exactly as if the OOM killer or a
  segfault took it down mid-batch;
* ``hang``            -- the worker running job *N* sleeps for ``seconds``
  before executing it, tripping the runner's per-job wall-clock timeout;
* ``torn-write``      -- a store row whose ``<kind>/<key>`` name contains
  ``match`` has its envelope text truncated to half its length right after
  the write commits, simulating a write that a crash (or a lying disk)
  tore mid-flight;
* ``bit-flip``        -- one seeded-random bit of a matching row's envelope
  text is inverted after the commit, simulating silent media corruption
  that only a checksum can catch.

Every fault fires a bounded number of ``times`` (default once) and the
accounting lives in marker files under the plan's ``state_dir``, so the
fire-once guarantee holds *across processes*: a worker killed by the plan is
not re-killed when the supervisor retries its job, which is what lets the
fault-injection suite assert that an injected crash converges to the same
bytes as an uninjected run.

Activation is deliberately out-of-band so production code paths carry no
fault-plan plumbing: tests write the plan to disk with :meth:`FaultPlan.dump`
and point the ``REPRO_FAULTS`` environment variable at it (worker processes
inherit the environment under both ``fork`` and ``spawn``).  When the
variable is unset -- always, outside the fault suite -- every hook is a
cheap no-op.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

ENV_VAR = "REPRO_FAULTS"

FAULT_KINDS = ("worker-kill", "hang", "torn-write", "bit-flip")

_JOB_FAULTS = ("worker-kill", "hang")
_STORE_FAULTS = ("torn-write", "bit-flip")

_KILL_EXIT_CODE = 137
"""The exit status of a plan-killed worker (mirrors SIGKILL's 128+9)."""

__all__ = ["ENV_VAR", "FAULT_KINDS", "Fault", "FaultPlan", "active_plan"]


@dataclass(frozen=True)
class Fault:
    """One injected failure; which fields matter depends on ``kind``."""

    kind: str
    job_index: Optional[int] = None
    """For job faults: the submission index of the job to sabotage."""

    match: str = ""
    """For store faults: fire on rows whose ``<kind>/<key>`` name contains
    this substring (kinds: ``jobs``, ``measures``, ``sweeps``, ``frontiers``)."""

    seconds: float = 3600.0
    """For ``hang``: how long the worker sleeps before running the job."""

    times: int = 1
    """How many firings before the fault disarms (across all processes)."""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.kind in _JOB_FAULTS and self.job_index is None:
            raise ValueError(f"{self.kind!r} faults need a job_index")
        if self.times < 1:
            raise ValueError("times must be at least 1")

    def as_dict(self) -> Dict[str, Union[str, int, float, None]]:
        return {
            "kind": self.kind,
            "job_index": self.job_index,
            "match": self.match,
            "seconds": self.seconds,
            "times": self.times,
        }

    @staticmethod
    def from_dict(data: dict) -> "Fault":
        return Fault(
            kind=data["kind"],
            job_index=data.get("job_index"),
            match=data.get("match", ""),
            seconds=float(data.get("seconds", 3600.0)),
            times=int(data.get("times", 1)),
        )


class FaultPlan:
    """A seeded, cross-process collection of injected faults."""

    def __init__(
        self,
        faults: List[Fault],
        state_dir: Union[str, Path],
        seed: int = 0,
    ) -> None:
        self.faults = list(faults)
        self.state_dir = Path(state_dir)
        self.seed = seed

    # -- (de)serialization -----------------------------------------------------

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "state_dir": str(self.state_dir),
            "faults": [fault.as_dict() for fault in self.faults],
        }

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        return FaultPlan(
            faults=[Fault.from_dict(entry) for entry in data.get("faults", [])],
            state_dir=data["state_dir"],
            seed=int(data.get("seed", 0)),
        )

    def dump(self, path: Union[str, Path]) -> Path:
        """Write the plan to ``path``; point ``REPRO_FAULTS`` at it to arm."""
        path = Path(path)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), sort_keys=True, indent=2))
        return path

    @staticmethod
    def load(path: Union[str, Path]) -> "FaultPlan":
        return FaultPlan.from_dict(json.loads(Path(path).read_text()))

    # -- fire-once accounting --------------------------------------------------

    def _claim(self, fault_id: int, times: int) -> bool:
        """Atomically claim one of the fault's firings (cross-process).

        Each firing is one ``O_CREAT | O_EXCL`` marker file: exactly one
        process can create it, so concurrent workers racing on the same
        fault never fire it more than ``times`` in total.
        """
        try:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        for firing in range(times):
            marker = self.state_dir / f"fired-{fault_id}-{firing}"
            try:
                handle = os.open(str(marker), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return False
            os.close(handle)
            return True
        return False

    def fired_count(self, fault_id: int) -> int:
        """How many times fault ``fault_id`` has fired so far."""
        return sum(
            1
            for firing in range(self.faults[fault_id].times)
            if (self.state_dir / f"fired-{fault_id}-{firing}").exists()
        )

    # -- hook points -----------------------------------------------------------

    def on_job_start(self, job_index: int) -> None:
        """Called in a worker process right before it executes a job."""
        for fault_id, fault in enumerate(self.faults):
            if fault.kind not in _JOB_FAULTS or fault.job_index != job_index:
                continue
            if not self._claim(fault_id, fault.times):
                continue
            if fault.kind == "worker-kill":
                # Exactly what a SIGKILL'd worker looks like to the pool:
                # no exception, no cleanup, the process is simply gone.
                os._exit(_KILL_EXIT_CODE)
            time.sleep(fault.seconds)

    def on_store_write(self, name: str, text: str) -> Optional[str]:
        """Called by the store right after committing row ``name``.

        Returns the damaged envelope text the store must write back over
        ``text``, or ``None`` when no armed fault matches.
        """
        for fault_id, fault in enumerate(self.faults):
            if fault.kind not in _STORE_FAULTS:
                continue
            if fault.match and fault.match not in name:
                continue
            if not self._claim(fault_id, fault.times):
                continue
            if fault.kind == "torn-write":
                return text[: len(text) // 2]
            return _flip_bit(text, random.Random(self.seed * 1000003 + fault_id))
        return None


def _flip_bit(text: str, rng: random.Random) -> str:
    """Invert one seeded-random bit of ``text`` (silent media corruption).

    Envelopes are ASCII JSON, so flipping one of the low seven bits of a
    character keeps the text ASCII: the damage reaches the checksum, not
    the text codec.
    """
    position = rng.randrange(len(text))
    flipped = chr(ord(text[position]) ^ (1 << rng.randrange(7)))
    return text[:position] + flipped + text[position + 1 :]


# -- activation ----------------------------------------------------------------

_CACHED: Tuple[Optional[str], Optional[FaultPlan]] = (None, None)


def active_plan() -> Optional[FaultPlan]:
    """The plan ``REPRO_FAULTS`` points at, or ``None`` (the common case).

    The parsed plan is cached per path, so arming a different plan (or
    unsetting the variable) between runs in one process takes effect
    immediately while the steady-state cost stays one ``environ`` lookup.
    """
    global _CACHED
    source = os.environ.get(ENV_VAR)
    if not source:
        return None
    cached_source, cached_plan = _CACHED
    if cached_source == source:
        return cached_plan
    try:
        plan = FaultPlan.load(source)
    except (OSError, ValueError, KeyError, TypeError):
        plan = None
    _CACHED = (source, plan)
    return plan
