"""The scheduler: a durable job queue and ``workers`` job slots, owned
by one scheduler thread.

The split mirrors Klever's bridge/scheduler architecture: the HTTP layer
(:mod:`repro.serve.http`) only translates requests, this module owns the
queue, the job slots, the result-store short-circuit and — since the
resilience layer — the write-ahead journal, the drain lifecycle,
deadlines and queue admission control.  The scheduler thread sleeps on
one condition variable until a job is queued, a job finishes, or the
earliest deadline falls due; a job leaves the queue only to run, so the
queue always holds exactly the ``QUEUED`` jobs, in submission order.

Every job travels one of two paths:

- **store hit** — the job's content address is already filed: the record
  is marked ``DONE`` *at submission time*, with ``store_hit=True`` and an
  empty per-job counter delta.  No extraction, no model checking — the
  acceptance criterion "second identical submission consumes zero
  ``engine.*``/``mc.*`` work" is checked against exactly this emptiness.
- **cold run** — once a slot is free, the scheduler starts the job on a
  thread of its own.  That thread re-checks the store (an identical job
  submitted while the first was still running coalesces into a hit
  here), then runs the full pipeline via
  :meth:`ProChecker.from_config(...).analyze()
  <repro.core.prochecker.ProChecker.analyze>` — inheriting the engine's
  process-pool fan-out, group timeout, in-process fallback and crash
  isolation — and files the finished report.

A third path exists for ``"type": "fuzz"`` payloads: a long-running
fuzz campaign (:mod:`repro.fuzz`) executed on a job thread.
Campaigns are **store-exempt** — they always run cold; their
``FuzzResult.summary()`` is filed inline on the job record.

Resilience layer:

- **journal** (:mod:`repro.serve.journal`) — with a journal attached,
  every submit/start/finish is logged write-ahead; a restarted service
  replays unfinished jobs deterministically (store hits stay O(1),
  running-at-crash jobs re-run cold).  A failing *start* append fails
  the job, never the service; a failing *finish* append is counted and
  tolerated — the job's report is already in the store, so a replay
  resolves it as a hit (the journal self-heals through the store).
- **drain** — :meth:`AnalysisService.drain` stops admission and job
  starts; in-flight jobs finish, queued jobs stay ``QUEUED`` (and
  journaled) for the next incarnation.  ``repro serve`` wires SIGTERM
  and SIGINT to exactly this.
- **deadlines** — a running job past its ``deadline_seconds`` is marked
  ``TIMEOUT`` and its slot is freed in the same locked step
  (:meth:`AnalysisService.expire`), so the next queued job starts at
  once.  Python cannot kill a thread: the hung one runs on without a
  slot, and its late result is counted (``serve.late_completions``),
  never applied.
- **backpressure** — with ``max_queue`` set, submissions beyond the
  queue bound raise :class:`QueueFullError`, which the HTTP layer maps
  to ``429`` + ``Retry-After``; :class:`~repro.serve.client.ServeClient`
  retries those with jittered exponential backoff.  The bound check and
  the enqueue are one step under the scheduler's lock, so concurrent
  submissions cannot overrun the bound.

Per-job telemetry: the finished report's
``stats.runtime["metrics"]["counters"]`` delta (which includes the
engine's resilience counters ``engine.group_*``) is copied onto the
job record; fuzz jobs file their registry delta
(the ``fuzz.*`` work counters) the same way.  The metrics registry is
process-wide, so with overlapping jobs a delta can attribute a
neighbour's counters; it is exact whenever jobs do not overlap (and
always exact about a store hit, whose delta is empty by construction).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional

from .. import faults, obs
from ..core.engine import exception_chain
from ..core.prochecker import AnalysisConfig, ProChecker
from ..fuzz import FuzzConfig, Fuzzer, campaign_digest
from ..obs.metrics import diff_snapshots
from ..store import ResultStore, job_digest, job_key
from .jobs import (KIND_FUZZ, TERMINAL_STATUSES, JobRecord, JobRegistry,
                   JobStatus)
from .journal import JobJournal

#: How long ``stop(wait=True)`` waits for each running job's thread
#: before counting it as leaked.
JOIN_TIMEOUT_SECONDS = 30.0


class ServiceError(Exception):
    """Raised for unacceptable submissions (e.g. fault-plan configs)."""


class QueueFullError(ServiceError):
    """Admission control: the queue is at ``max_queue``.  The HTTP
    layer maps this to ``429`` with a ``Retry-After`` header."""

    def __init__(self, message: str, retry_after_seconds: float = 1.0):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class ServiceDrainingError(ServiceError):
    """The service is draining (or stopped) and accepts no new work.
    Mapped to ``503`` + ``Retry-After`` — another instance (or the
    restarted one) will take the submission."""

    def __init__(self, message: str, retry_after_seconds: float = 5.0):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class AnalysisService:
    """Durable job queue + one scheduler over ``workers`` job slots in
    front of the verification pipeline."""

    def __init__(self, store: ResultStore, workers: int = 2,
                 default_engine_jobs: Optional[int] = 1,
                 journal: Optional[JobJournal] = None,
                 max_queue: Optional[int] = None,
                 default_deadline_seconds: Optional[float] = None):
        """At most ``workers`` jobs run at once; each job's *internal*
        check-phase width defaults to ``default_engine_jobs`` when the
        submitted config leaves ``jobs`` unset (``None`` delegates to the
        config's own default of all cores — sensible for a single-job
        service, oversubscribed for many slots).

        ``journal`` makes the queue durable, ``max_queue`` bounds it,
        ``default_deadline_seconds`` applies to jobs whose payload does
        not carry its own ``deadline_seconds``.  Deadlines and queue
        bounds are scheduling knobs: they never enter job identity.
        """
        self.store = store
        self.workers = max(1, workers)
        self.default_engine_jobs = default_engine_jobs
        self.journal = journal
        self.max_queue = max_queue
        self.default_deadline_seconds = default_deadline_seconds
        self.registry = JobRegistry()
        #: guards the queue, the slots and the lifecycle flags; the
        #: scheduler thread sleeps on it
        self._cond = threading.Condition()
        #: ids of the ``QUEUED`` jobs, in submission order
        self._queue: Deque[str] = deque()
        #: job id -> thread, for every job thread still alive; a job
        #: holds one of the ``workers`` slots while it is ``RUNNING``
        self._job_threads: Dict[str, threading.Thread] = {}
        self._scheduler: Optional[threading.Thread] = None
        self._leaked: List[str] = []
        self._stopping = False
        self._draining = False
        self._recovered = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AnalysisService":
        if self._scheduler is not None:
            return self
        self._draining = False
        if self.journal is not None and not self._recovered:
            self._recover()
        self._scheduler = threading.Thread(target=self._schedule,
                                           name="serve-scheduler",
                                           daemon=True)
        self._scheduler.start()
        return self

    def drain(self, wait: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Enter drain mode: stop accepting and starting new work.

        In-flight jobs run to completion; queued jobs stay ``QUEUED``
        (journaled — the next incarnation replays them).  With
        ``wait=True``, blocks until no job is ``RUNNING`` (bounded by
        ``timeout``); returns whether the service is fully idle.
        """
        with self._cond:
            already, self._draining = self._draining, True
        if not already:
            obs.count("serve.drains")
        return self.wait_idle(timeout if wait else 0)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is ``RUNNING``; returns False on timeout."""
        with self._cond:
            return self._cond.wait_for(
                lambda: not self._running_locked(), timeout)

    def stop(self, wait: bool = True) -> None:
        """Stop the scheduler.  Queued jobs are left ``QUEUED``
        (journaled — a restart or a fresh :meth:`start` picks them back
        up); running jobs finish on their own threads.  With
        ``wait=True`` each job thread still alive (a timed-out job's
        too) gets :data:`JOIN_TIMEOUT_SECONDS` to finish; one still
        alive after that is counted as leaked.  Idempotent, and
        restartable: ``stop()`` then ``start()`` starts a fresh
        scheduler over the same registry and queue.
        """
        with self._cond:
            scheduler = self._scheduler
            if scheduler is None or self._stopping:
                return
            self._stopping = True
            self._cond.notify_all()
            threads = list(self._job_threads.values())
        scheduler.join()
        if wait:
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT_SECONDS)
            self._leaked = [thread.name for thread in threads
                            if thread.is_alive()]
            if self._leaked:
                obs.count("serve.stop_leaked_threads", len(self._leaked))
        with self._cond:
            self._scheduler = None
            self._stopping = False

    @property
    def started(self) -> bool:
        return self._scheduler is not None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Readiness: accepting submissions (liveness is being up)."""
        return self.started and not self._draining and not self._stopping

    # ------------------------------------------------------------------
    # Journal recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: re-queue every unfinished job, in the
        original submission order.  Jobs whose digest is already in the
        store complete as O(1) hits right here; the rest run cold."""
        replay = self.journal.replay()
        self.registry.advance_past(replay.max_job_number)
        for entry in replay.pending:
            record = JobRecord(
                job_id=entry["job_id"],
                digest=entry["digest"],
                implementation=entry.get("implementation", ""),
                payload=dict(entry.get("payload") or {}),
                kind=entry.get("kind", "analysis"),
                deadline_seconds=entry.get("deadline_seconds"),
                submitted_at=entry.get("submitted_at", time.time()),
            )
            self.registry.add(record)
        # Compact: the finished history has served its purpose; the new
        # journal holds exactly the still-pending submissions.
        self.journal.rotate(list(replay.pending))
        for entry in replay.pending:
            record = self.registry.get(entry["job_id"])
            if record.kind != KIND_FUZZ \
                    and self.store.get(record.digest) is not None:
                obs.count("serve.store_hits")
                self._finish_hit(record)
            else:
                obs.count("serve.jobs_requeued")
                with self._cond:
                    self._queue.append(record.job_id)
        self._recovered = True

    # ------------------------------------------------------------------
    # Submission (the bridge side)
    # ------------------------------------------------------------------
    def submit(self, payload: Dict) -> JobRecord:
        """Accept one job payload: an analysis config, or a fuzz
        campaign when the payload says ``"type": "fuzz"``.

        Raises :class:`~repro.schema.SchemaVersionError` /
        :class:`~repro.core.engine.EngineError` /
        :class:`~repro.store.StoreError` /
        :class:`~repro.fuzz.FuzzConfigError` on malformed payloads,
        :class:`ServiceError` on fault-plan submissions (a shared
        service must not let one client sabotage every other job),
        :class:`ServiceDrainingError` while draining and
        :class:`QueueFullError` past the queue bound.  Admission, the
        journal append, the store lookup and the enqueue are one step
        under the scheduler's lock.
        """
        with self._cond:
            self._admit()
            record = (self._fuzz_record(payload)
                      if payload.get("type") == KIND_FUZZ
                      else self._analysis_record(payload))
            self._journal_submit(record)
            self.registry.add(record)
            if record.kind != KIND_FUZZ \
                    and self.store.get(record.digest) is not None:
                # O(1) path: identical job already analysed — serve it
                # straight from the store, consuming zero pipeline work.
                obs.count("serve.store_hits")
                self._finish_hit(record)
            else:
                obs.count("serve.fuzz_jobs_queued"
                          if record.kind == KIND_FUZZ
                          else "serve.jobs_queued")
                self._queue.append(record.job_id)
                self._cond.notify_all()
        return record

    def _analysis_record(self, payload: Dict) -> JobRecord:
        config = AnalysisConfig.from_dict(payload)
        if config.fault_plan is not None:
            raise ServiceError(
                "fault-plan submissions are not accepted in service "
                "mode; use the one-shot CLI (--inject-fault) instead")
        if config.jobs is None and self.default_engine_jobs is not None:
            config.jobs = self.default_engine_jobs
        digest = job_digest(config)
        return JobRecord(
            job_id=self.registry.allocate_id(),
            digest=digest,
            implementation=config.implementation,
            payload=config.to_dict(),
            deadline_seconds=self._resolve_deadline(payload),
        )

    def _fuzz_record(self, payload: Dict) -> JobRecord:
        """One fuzz campaign's record.

        Campaigns are *store-exempt*: they are open-ended discovery
        work, not content-addressed analyses — identical resubmission
        deliberately re-runs (the determinism contract makes that a
        byte-identical re-derivation, which is exactly what a CI
        re-check wants).  The campaign digest still names the job so
        clients can correlate runs.
        """
        config = FuzzConfig.from_dict(payload)
        return JobRecord(
            job_id=self.registry.allocate_id(),
            digest=campaign_digest(config),
            implementation=config.implementation,
            payload=config.to_dict(),
            kind=KIND_FUZZ,
            deadline_seconds=self._resolve_deadline(payload),
        )

    def _admit(self) -> None:
        """Admission control: drain state first, then the queue bound
        (caller holds the scheduler's lock)."""
        if self._draining or self._stopping:
            obs.count("serve.drain_rejections")
            raise ServiceDrainingError(
                "service is draining and accepts no new jobs; retry "
                "against the restarted instance")
        if self.max_queue is not None \
                and len(self._queue) >= self.max_queue:
            obs.count("serve.queue_rejections")
            raise QueueFullError(
                f"queue is full ({self.max_queue} job(s) pending); "
                f"retry after backoff")

    def _resolve_deadline(self, payload: Dict) -> Optional[float]:
        deadline = payload.get("deadline_seconds")
        if deadline is None:
            return self.default_deadline_seconds
        try:
            deadline = float(deadline)
        except (TypeError, ValueError):
            raise ServiceError(
                f"deadline_seconds must be a positive number, "
                f"got {payload.get('deadline_seconds')!r}") from None
        if deadline <= 0:
            raise ServiceError("deadline_seconds must be > 0")
        return deadline

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> JobRecord:
        return self.registry.get(job_id)

    def jobs(self, status: Optional[JobStatus] = None,
             implementation: Optional[str] = None) -> List[JobRecord]:
        return self.registry.list(status, implementation)

    def report(self, digest: str) -> Optional[Dict]:
        return self.store.get(digest)

    def progress(self, job_id: str) -> Dict:
        """Live progress of one job, from the :mod:`repro.obs` registry.

        For a running job: elapsed wall-clock plus the counter delta
        since the job started (process-wide attribution — see module
        docstring).  For a finished job: the final per-job counters.
        """
        record = self.registry.get(job_id)
        if record.status is JobStatus.RUNNING \
                and record.start_snapshot is not None:
            delta = diff_snapshots(record.start_snapshot,
                                   obs.metrics().snapshot())
            counters = delta.get("counters", {})
        else:
            counters = dict(record.counters)
        return {
            "status": record.status.value,
            "elapsed_seconds": record.elapsed_seconds(),
            "counters": counters,
        }

    def stats(self) -> Dict:
        """Service-level health block (the ``/v1/health`` body).

        ``live`` is trivially true when the process answers; ``ready``
        is the readiness half of the split — up, not draining, not
        stopping.  A full queue is *backpressure* (429 on submit), not
        unreadiness; it is reported separately as ``queue_full``.
        ``workers_alive`` is the slot count while the scheduler thread
        runs, and 0 once it has stopped.
        """
        by_status: Dict[str, int] = {}
        for record in self.registry.list():
            by_status[record.status.value] = \
                by_status.get(record.status.value, 0) + 1
        scheduler = self._scheduler
        alive = (self.workers
                 if scheduler is not None and scheduler.is_alive() else 0)
        queued = len(self._queue)
        return {
            "live": True,
            "ready": self.ready,
            "draining": self._draining,
            "workers": self.workers,
            "workers_alive": alive,
            "queued": queued,
            "max_queue": self.max_queue,
            "queue_full": (self.max_queue is not None
                           and queued >= self.max_queue),
            "leaked_threads": list(self._leaked),
            "jobs": by_status,
            "store": self.store.stats(),
            "journal": (self.journal.stats()
                        if self.journal is not None else None),
        }

    # ------------------------------------------------------------------
    # The scheduler
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        """The scheduler thread: start queued jobs while a slot is free
        (not while draining), time out overdue ones, and otherwise sleep
        until a job is queued, a job finishes, or the earliest deadline
        falls due."""
        while True:
            with self._cond:
                if self._stopping:
                    return
                while (self._queue and not self._draining
                       and len(self._running_locked()) < self.workers):
                    self._launch_locked(
                        self.registry.get(self._queue.popleft()))
                due = self._next_deadline_locked()
                now = time.time()
                if due is None or now < due:
                    self._cond.wait(None if due is None else due - now)
                    continue
            self.expire()

    def _launch_locked(self, record: JobRecord) -> None:
        """Start ``record`` on a thread of its own, in a free slot."""
        thread = threading.Thread(target=self._job_thread, args=(record,),
                                  name=f"serve-job-{record.job_id}",
                                  daemon=True)
        record.status = JobStatus.RUNNING
        record.started_at = time.time()
        record.worker = thread.name
        self._job_threads[record.job_id] = thread
        thread.start()

    def _running_locked(self) -> List[JobRecord]:
        """The jobs holding a slot: live job threads still ``RUNNING``."""
        records = map(self.registry.get, self._job_threads)
        return [record for record in records
                if record.status is JobStatus.RUNNING]

    def _next_deadline_locked(self) -> Optional[float]:
        """When the earliest deadline among the running jobs falls due."""
        return min((record.started_at + record.deadline_seconds
                    for record in self._running_locked()
                    if record.started_at is not None
                    and record.deadline_seconds is not None),
                   default=None)

    def expire(self, now: Optional[float] = None) -> int:
        """Time out every running job past its deadline; returns how
        many were timed out.

        A job holds its slot while it is ``RUNNING``, so marking it
        ``TIMEOUT`` under the scheduler's lock frees the slot in the
        same step, and the scheduler can start the next queued job at
        once.
        The job's thread, which Python cannot kill, runs on without a
        slot; :meth:`_finalize` never lets its late result overwrite
        the ``TIMEOUT``.  ``now`` injects the clock (tests).
        """
        current = now if now is not None else time.time()
        expired: List[JobRecord] = []
        with self._cond:
            for record in self.registry.list(JobStatus.RUNNING):
                deadline = record.deadline_seconds
                if deadline is None or record.started_at is None \
                        or current < record.started_at + deadline:
                    continue
                with record.lock:
                    if record.status is not JobStatus.RUNNING:
                        continue  # finished between list() and lock
                    record.status = JobStatus.TIMEOUT
                    record.error = (
                        f"JobDeadlineExceeded: job {record.job_id} "
                        f"exceeded its {deadline:.3f}s deadline "
                        f"(running {current - record.started_at:.3f}s "
                        f"on {record.worker or 'unknown worker'})")
                    record.finished_at = current
                expired.append(record)
            if expired:
                self._cond.notify_all()
        for record in expired:
            obs.count("serve.jobs_timed_out")
            self._journal_finish(record)
        return len(expired)

    def _job_thread(self, record: JobRecord) -> None:
        """A job thread's body: run the job, then give its slot back."""
        try:
            record.start_snapshot = obs.metrics().snapshot()
            if record.kind == KIND_FUZZ:
                self._run_fuzz_job(record)
            else:
                self._run_job(record)
        except Exception as exc:  # noqa: BLE001 - fail the job only
            obs.count("serve.worker_loop_errors")
            # An exception outside the per-job isolation boundary
            # (e.g. dispatch) must not strand the record RUNNING.
            self._strand_failed(record, exc)
        finally:
            with self._cond:
                del self._job_threads[record.job_id]
                self._cond.notify_all()

    def _strand_failed(self, record: JobRecord, exc: BaseException) -> None:
        record.error = exception_chain(exc)
        self._finalize(record, JobStatus.FAILED)
        obs.count("serve.jobs_stranded")

    def _run_job(self, record: JobRecord) -> None:
        try:
            # Write-ahead: a failing start append fails this job (the
            # journal can no longer promise recovery for it) but never
            # the service.
            self._journal_start(record)
            # In-flight coalescing: an identical job may have finished
            # (and filed its report) between submission and now.
            if self.store.get(record.digest) is not None:
                obs.count("serve.store_hits")
                self._finish_hit(record)
                return
            faults.trip("serve.run_job", key=record.implementation)
            config = AnalysisConfig.from_dict(record.payload)
            with obs.span("serve.job", job=record.job_id,
                          implementation=record.implementation):
                report = ProChecker.from_config(config).analyze()
            payload = report.to_dict()
            self.store.put(record.digest, payload,
                           key=job_key(config))
            counters: Dict[str, float] = {}
            if report.stats is not None:
                counters = dict(report.stats.runtime
                                .get("metrics", {})
                                .get("counters", {}))
            self._finalize(record, JobStatus.DONE, counters=counters,
                           done_counter="serve.jobs_completed")
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            record.error = exception_chain(exc)
            self._finalize(record, JobStatus.FAILED)

    def _run_fuzz_job(self, record: JobRecord) -> None:
        """Run one fuzz campaign on this job thread (no store)."""
        try:
            self._journal_start(record)
            faults.trip("serve.run_job", key=record.implementation)
            config = FuzzConfig.from_dict(record.payload)
            with obs.span("serve.fuzz_job", job=record.job_id,
                          implementation=record.implementation):
                result = Fuzzer(config).run()
            record.result = result.summary()
            delta = diff_snapshots(record.start_snapshot,
                                   obs.metrics().snapshot())
            self._finalize(record, JobStatus.DONE,
                           counters=dict(delta.get("counters", {})),
                           done_counter="serve.fuzz_jobs_completed")
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            record.error = exception_chain(exc)
            self._finalize(record, JobStatus.FAILED)

    def _finalize(self, record: JobRecord, status: JobStatus,
                  counters: Optional[Dict[str, float]] = None,
                  done_counter: str = "serve.jobs_completed") -> None:
        """Terminal transition, raced against :meth:`expire`: a record
        already timed out stays ``TIMEOUT`` — the late completion is
        counted, never resurrected."""
        with record.lock:
            if record.status in TERMINAL_STATUSES:
                obs.count("serve.late_completions")
                return
            record.status = status
            record.finished_at = time.time()
            if counters is not None:
                record.counters = counters
        if status is JobStatus.DONE:
            obs.count(done_counter)
        else:
            obs.count("serve.jobs_failed")
        self._journal_finish(record)

    def _finish_hit(self, record: JobRecord) -> None:
        with record.lock:
            if record.status in TERMINAL_STATUSES:
                obs.count("serve.late_completions")
                return
            record.status = JobStatus.DONE
            record.store_hit = True
            record.counters = {}
            record.finished_at = time.time()
        self._journal_finish(record)

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _journal_submit(self, record: JobRecord) -> None:
        """Write-ahead: raising here fails the *submission* — the job
        is neither registered nor queued, so the caller can retry."""
        if self.journal is not None:
            self.journal.append_submit(record)

    def _journal_start(self, record: JobRecord) -> None:
        if self.journal is not None:
            self.journal.append_start(record)

    def _journal_finish(self, record: JobRecord) -> None:
        """Best-effort: the job's outcome is already decided (and a
        DONE analysis is in the store), so a failing finish append is
        counted and tolerated — a replay resolves the job as a store
        hit instead of losing the verdict."""
        if self.journal is None:
            return
        try:
            self.journal.append_finish(record)
        except Exception:  # noqa: BLE001 - durability must not undo work
            obs.count("serve.journal_append_failures")
