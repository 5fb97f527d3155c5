"""Job records and the thread-safe job registry of the service mode."""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .. import schema


class JobStatus(str, enum.Enum):
    """Lifecycle of one submitted job.

    ``QUEUED → RUNNING → DONE | FAILED | TIMEOUT``; a store hit goes
    straight to ``DONE`` at submission time (the O(1) path, analysis
    jobs only — fuzz campaigns are store-exempt).  ``TIMEOUT`` is
    assigned by the scheduler when a running job exceeds its deadline;
    like ``DONE``/``FAILED`` it is terminal — a job thread returning
    late from a timed-out job must not overwrite it.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMEOUT = "timeout"


#: Statuses a job cannot leave (the scheduler and job threads both
#: check against this set under the record lock before finalising).
TERMINAL_STATUSES = frozenset(
    (JobStatus.DONE, JobStatus.FAILED, JobStatus.TIMEOUT))

#: Job kinds the service dispatches on.
KIND_ANALYSIS = "analysis"
KIND_FUZZ = "fuzz"


@dataclass
class JobRecord:
    """One submitted job: config payload, identity, lifecycle, telemetry."""

    job_id: str
    #: content address of the job (:func:`repro.store.job_digest` for
    #: analyses, :func:`repro.fuzz.campaign_digest` for campaigns)
    digest: str
    implementation: str
    #: the submitted config wire payload, verbatim
    payload: Dict
    #: :data:`KIND_ANALYSIS` or :data:`KIND_FUZZ`
    kind: str = KIND_ANALYSIS
    status: JobStatus = JobStatus.QUEUED
    #: served from the result store without running the pipeline
    store_hit: bool = False
    error: str = ""
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: wall-clock budget once RUNNING; ``None`` → no deadline.  A
    #: scheduling knob like ``jobs`` — deliberately excluded from the
    #: store's job identity (it cannot change what a verdict *is*).
    deadline_seconds: Optional[float] = None
    #: name of the thread that ran the job ("" for submit-time hits)
    worker: str = ""
    #: per-job metrics-registry delta (engine.*/mc.*/fuzz.* counters);
    #: empty for store hits — that emptiness is the "zero work" hook
    counters: Dict[str, float] = field(default_factory=dict)
    #: registry snapshot at job start (progress baseline; not serialized)
    start_snapshot: Optional[Dict] = None
    #: inline result summary for jobs whose output is not store-backed
    #: (fuzz campaigns file their ``FuzzResult.summary()`` here)
    result: Optional[Dict] = None
    #: guards status finalisation (deadline TIMEOUT vs job finish)
    lock: threading.Lock = field(default_factory=threading.Lock,
                                 repr=False, compare=False)

    def elapsed_seconds(self, now: Optional[float] = None) -> float:
        if self.started_at is None:
            return 0.0
        end = self.finished_at
        if end is None:
            end = now if now is not None else time.time()
        return max(0.0, end - self.started_at)

    def to_dict(self) -> Dict:
        """The ``/v1/jobs`` wire form (versioned)."""
        return schema.stamp({
            "job_id": self.job_id,
            "digest": self.digest,
            "implementation": self.implementation,
            "kind": self.kind,
            "status": self.status.value,
            "store_hit": self.store_hit,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "elapsed_seconds": self.elapsed_seconds(),
            "deadline_seconds": self.deadline_seconds,
            "worker": self.worker,
            "counters": dict(self.counters),
            "config": dict(self.payload),
            "result": (dict(self.result)
                       if self.result is not None else None),
        })


class JobRegistry:
    """Thread-safe id allocation and lookup for every submitted job."""

    def __init__(self):
        self._lock = threading.Lock()
        self._jobs: Dict[str, JobRecord] = {}
        self._next = 1

    def allocate_id(self) -> str:
        with self._lock:
            allocated = self._next
            self._next += 1
            return f"j{allocated:06d}"

    def advance_past(self, job_number: int) -> None:
        """Move the id counter beyond ``job_number`` (journal replay:
        resurrected ids must never collide with fresh allocations)."""
        with self._lock:
            self._next = max(self._next, job_number + 1)

    def add(self, record: JobRecord) -> None:
        with self._lock:
            self._jobs[record.job_id] = record

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._jobs[job_id]

    def list(self, status: Optional[JobStatus] = None,
             implementation: Optional[str] = None) -> List[JobRecord]:
        """Submission-ordered listing with optional filters."""
        with self._lock:
            records = list(self._jobs.values())
        if status is not None:
            records = [r for r in records if r.status is status]
        if implementation is not None:
            records = [r for r in records
                       if r.implementation == implementation]
        return sorted(records, key=lambda r: r.job_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
