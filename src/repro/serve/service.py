"""The scheduler: a durable job queue drained by a supervised worker fleet.

The split mirrors Klever's bridge/scheduler architecture: the HTTP layer
(:mod:`repro.serve.http`) only translates requests, this module owns the
queue, the worker fleet, the result-store short-circuit and — since the
resilience layer — the write-ahead journal, the drain lifecycle, the
deadline watchdog and queue admission control.

Every job travels one of two paths:

- **store hit** — the job's content address is already filed: the record
  is marked ``DONE`` *at submission time*, with ``store_hit=True`` and an
  empty per-job counter delta.  No extraction, no model checking — the
  acceptance criterion "second identical submission consumes zero
  ``engine.*``/``mc.*`` work" is checked against exactly this emptiness.
- **cold run** — a worker thread dequeues the job, re-checks the store
  (an identical job submitted while the first was still running
  coalesces into a hit here), then runs the full pipeline via
  :meth:`ProChecker.from_config(...).analyze()
  <repro.core.prochecker.ProChecker.analyze>` — inheriting the engine's
  process-pool fan-out, group timeout, in-process fallback and crash
  isolation — and files the finished report.

A third path exists for ``"type": "fuzz"`` payloads: a long-running
fuzz campaign (:mod:`repro.fuzz`) executed on a worker thread.
Campaigns are **store-exempt** — they always run cold; their
``FuzzResult.summary()`` is filed inline on the job record.

Resilience layer:

- **journal** (:mod:`repro.serve.journal`) — with a journal attached,
  every submit/start/finish is logged write-ahead; a restarted service
  replays unfinished jobs deterministically (store hits stay O(1),
  running-at-crash jobs re-run cold).  A failing *start* append fails
  the job, never the worker; a failing *finish* append is counted and
  tolerated — the job's report is already in the store, so a replay
  resolves it as a hit (the journal self-heals through the store).
- **drain** — :meth:`AnalysisService.drain` stops admission and
  dequeueing; in-flight jobs finish, queued jobs stay ``QUEUED`` (and
  journaled) for the next incarnation.  ``repro serve`` wires SIGTERM
  and SIGINT to exactly this.
- **deadlines + watchdog** (:mod:`repro.serve.watchdog`) — a running
  job past its ``deadline_seconds`` is marked ``TIMEOUT``; its hung
  worker is abandoned and a replacement spawned
  (``serve.workers_respawned``), so capacity never decays.
- **backpressure** — with ``max_queue`` set, submissions beyond the
  queue bound raise :class:`QueueFullError`, which the HTTP layer maps
  to ``429`` + ``Retry-After``; :class:`~repro.serve.client.ServeClient`
  retries those with jittered exponential backoff.

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

import queue
import threading
import time
from typing import Dict, List, Optional, Set

from .. import faults, obs
from ..core.engine import exception_chain
from ..core.prochecker import AnalysisConfig, ProChecker
from ..fuzz import FuzzConfig, Fuzzer, campaign_digest
from ..obs.metrics import diff_snapshots
from ..store import ResultStore, job_digest, job_key
from .jobs import (KIND_FUZZ, TERMINAL_STATUSES, JobRecord, JobRegistry,
                   JobStatus)
from .journal import JobJournal
from .watchdog import Watchdog


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
    """Durable job queue + supervised worker fleet in front of the
    verification pipeline."""

    def __init__(self, store: ResultStore, workers: int = 2,
                 default_engine_jobs: Optional[int] = 1,
                 journal: Optional[JobJournal] = None,
                 max_queue: Optional[int] = None,
                 default_deadline_seconds: Optional[float] = None,
                 watchdog_interval_seconds: float = 0.25,
                 join_timeout_seconds: float = 30.0,
                 retry_after_seconds: float = 1.0):
        """``workers`` concurrent jobs; each job's *internal* check-phase
        width defaults to ``default_engine_jobs`` when the submitted
        config leaves ``jobs`` unset (``None`` delegates to the config's
        own default of all cores — sensible for a single-job service,
        oversubscribed for a wide worker fleet).

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
        self.watchdog_interval_seconds = watchdog_interval_seconds
        self.join_timeout_seconds = join_timeout_seconds
        self.retry_after_seconds = retry_after_seconds
        self.registry = JobRegistry()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._fleet_lock = threading.Lock()
        self._abandoned: Set[str] = set()
        self._leaked: List[str] = []
        self._worker_seq = 0
        self._watchdog: Optional[Watchdog] = None
        self._started = False
        self._stopping = False
        self._draining = False
        self._recovered = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "AnalysisService":
        if self._started:
            return self
        self._started = True
        self._stopping = False
        self._draining = False
        self._rebuild_queue()
        if self.journal is not None and not self._recovered:
            self._recover()
        with self._fleet_lock:
            while len(self._threads) < self.workers:
                self._spawn_worker_locked()
        self._watchdog = Watchdog(
            self, interval_seconds=self.watchdog_interval_seconds).start()
        return self

    def drain(self, wait: bool = True,
              timeout: Optional[float] = None) -> bool:
        """Enter drain mode: stop accepting and dequeueing new work.

        In-flight jobs run to completion; queued jobs stay ``QUEUED``
        (journaled — the next incarnation replays them).  With
        ``wait=True``, blocks until no job is ``RUNNING`` (bounded by
        ``timeout``); returns whether the service is fully idle.
        """
        already = self._draining
        self._draining = True
        if not already:
            obs.count("serve.drains")
        if wait:
            return self.wait_idle(timeout)
        return not self.registry.list(JobStatus.RUNNING)

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no job is ``RUNNING``; returns False on timeout."""
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while self.registry.list(JobStatus.RUNNING):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)
        return True

    def stop(self, wait: bool = True) -> None:
        """Stop the fleet.  Queued jobs are left ``QUEUED`` (journaled —
        a restart or a fresh :meth:`start` picks them back up); workers
        exit after their current job.  Idempotent, and restartable:
        ``stop()`` then ``start()`` spawns a fresh fleet over the same
        registry and queue.
        """
        if not self._started or self._stopping:
            return
        self._stopping = True
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        with self._fleet_lock:
            threads = list(self._threads)
        for _ in threads:
            self._queue.put(None)
        if wait:
            leaked = []
            for thread in threads:
                thread.join(timeout=self.join_timeout_seconds)
                if thread.is_alive():
                    leaked.append(thread.name)
                    obs.count("serve.stop_leaked_threads")
            if leaked:
                # A leaked worker is stuck inside a job; write it off so
                # it retires (instead of rejoining a restarted fleet)
                # whenever its pipeline finally returns.
                with self._fleet_lock:
                    self._abandoned.update(leaked)
            self._leaked = leaked
        with self._fleet_lock:
            self._threads = []
        self._started = False
        self._stopping = False

    @property
    def started(self) -> bool:
        return self._started

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def ready(self) -> bool:
        """Readiness: accepting submissions (liveness is being up)."""
        return self._started and not self._draining and not self._stopping

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
                self._queue.put(record.job_id)
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
        service must not let one client sabotage the worker fleet),
        :class:`ServiceDrainingError` while draining and
        :class:`QueueFullError` past the queue bound.
        """
        self._admit()
        if payload.get("type") == KIND_FUZZ:
            return self._submit_fuzz(payload)
        config = AnalysisConfig.from_dict(payload)
        if config.fault_plan is not None:
            raise ServiceError(
                "fault-plan submissions are not accepted in service "
                "mode; use the one-shot CLI (--inject-fault) instead")
        if config.jobs is None and self.default_engine_jobs is not None:
            config.jobs = self.default_engine_jobs
        digest = job_digest(config)
        record = JobRecord(
            job_id=self.registry.allocate_id(),
            digest=digest,
            implementation=config.implementation,
            payload=config.to_dict(),
            deadline_seconds=self._resolve_deadline(payload),
        )
        self._journal_submit(record)
        self.registry.add(record)
        if self.store.get(digest) is not None:
            # O(1) path: identical job already analysed — serve it
            # straight from the store, consuming zero pipeline work.
            obs.count("serve.store_hits")
            self._finish_hit(record)
        else:
            obs.count("serve.jobs_queued")
            self._queue.put(record.job_id)
        return record

    def _submit_fuzz(self, payload: Dict) -> JobRecord:
        """Queue one fuzz campaign.

        Campaigns are *store-exempt*: they are open-ended discovery
        work, not content-addressed analyses — identical resubmission
        deliberately re-runs (the determinism contract makes that a
        byte-identical re-derivation, which is exactly what a CI
        re-check wants).  The campaign digest still names the job so
        clients can correlate runs.
        """
        config = FuzzConfig.from_dict(payload)
        record = JobRecord(
            job_id=self.registry.allocate_id(),
            digest=campaign_digest(config),
            implementation=config.implementation,
            payload=config.to_dict(),
            kind=KIND_FUZZ,
            deadline_seconds=self._resolve_deadline(payload),
        )
        self._journal_submit(record)
        self.registry.add(record)
        obs.count("serve.fuzz_jobs_queued")
        self._queue.put(record.job_id)
        return record

    def _admit(self) -> None:
        """Admission control: drain state first, then the queue bound."""
        if self._draining or self._stopping:
            obs.count("serve.drain_rejections")
            raise ServiceDrainingError(
                "service is draining and accepts no new jobs; retry "
                "against the restarted instance",
                retry_after_seconds=max(5.0, self.retry_after_seconds))
        if self.max_queue is not None \
                and self._queue.qsize() >= self.max_queue:
            obs.count("serve.queue_rejections")
            raise QueueFullError(
                f"queue is full ({self.max_queue} job(s) pending); "
                f"retry after backoff",
                retry_after_seconds=self.retry_after_seconds)

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
        """
        by_status: Dict[str, int] = {}
        for record in self.registry.list():
            by_status[record.status.value] = \
                by_status.get(record.status.value, 0) + 1
        with self._fleet_lock:
            alive = sum(1 for t in self._threads
                        if t.is_alive() and t.name not in self._abandoned)
        queued = self._queue.qsize()
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
    # The worker fleet (the scheduler side)
    # ------------------------------------------------------------------
    def _spawn_worker_locked(self) -> threading.Thread:
        """Spawn one worker (caller holds ``_fleet_lock``)."""
        index = self._worker_seq
        self._worker_seq += 1
        thread = threading.Thread(target=self._worker_loop,
                                  name=f"serve-worker-{index}",
                                  daemon=True)
        thread.start()
        self._threads.append(thread)
        return thread

    def _respawn_dead_workers(self) -> int:
        """Keep the fleet at strength: replace dead and abandoned
        workers (called from the watchdog scan).  Returns the number of
        workers respawned."""
        if not self._started or self._stopping:
            return 0
        respawned = 0
        with self._fleet_lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            effective = sum(1 for t in self._threads
                            if t.name not in self._abandoned)
            while effective < self.workers:
                self._spawn_worker_locked()
                effective += 1
                respawned += 1
                obs.count("serve.workers_respawned")
        return respawned

    def _abandon_worker(self, name: str) -> None:
        """Write off a worker stuck past its job's deadline: it exits
        the loop when its pipeline returns, and a replacement is
        spawned immediately."""
        if not name:
            return
        with self._fleet_lock:
            self._abandoned.add(name)
        self._respawn_dead_workers()

    def _retired(self) -> bool:
        """Whether the current worker has been written off (abandoned
        after a deadline, or leaked at stop) and must exit its loop."""
        name = threading.current_thread().name
        with self._fleet_lock:
            if name in self._abandoned:
                self._abandoned.discard(name)
                return True
        return False

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            if self._stopping or self._draining:
                # Drain/stop: leave the job QUEUED (it is journaled — a
                # restart replays it); keep cycling so the stop
                # sentinel is reached.
                continue
            record: Optional[JobRecord] = None
            try:
                record = self.registry.get(job_id)
                if record.kind == KIND_FUZZ:
                    self._run_fuzz_job(record)
                else:
                    self._run_job(record)
            except Exception as exc:  # noqa: BLE001 - worker must survive
                obs.count("serve.worker_loop_errors")
                if record is not None:
                    # An exception outside the per-job isolation
                    # boundary (e.g. dispatch) used to strand the
                    # record QUEUED forever; fail it instead.
                    self._strand_failed(record, exc)
            if self._retired():
                return

    def _strand_failed(self, record: JobRecord, exc: BaseException) -> None:
        record.error = exception_chain(exc)
        self._finalize(record, JobStatus.FAILED)
        obs.count("serve.jobs_stranded")

    def _run_job(self, record: JobRecord) -> None:
        record.status = JobStatus.RUNNING
        record.started_at = time.time()
        record.worker = threading.current_thread().name
        record.start_snapshot = obs.metrics().snapshot()
        try:
            # Write-ahead: a failing start append fails this job (the
            # journal can no longer promise recovery for it) but never
            # the worker.
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
        """Run one fuzz campaign on this worker thread (no store)."""
        record.status = JobStatus.RUNNING
        record.started_at = time.time()
        record.worker = threading.current_thread().name
        record.start_snapshot = obs.metrics().snapshot()
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
        """Terminal transition, raced against the watchdog: a record
        the watchdog already timed out stays ``TIMEOUT`` — the late
        completion is counted, never resurrected."""
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

    def _rebuild_queue(self) -> None:
        """Re-derive the queue from the registry (restart path).

        A previous fleet leaves stop sentinels behind, and a draining
        worker consumes a job id while leaving its record ``QUEUED`` —
        so on (re)start the registry, not the residual queue, is the
        source of truth: drop everything queued and re-enqueue every
        ``QUEUED`` record in submission order.
        """
        self._drain_residual_queue()
        for record in self.registry.list(JobStatus.QUEUED):
            self._queue.put(record.job_id)

    def _drain_residual_queue(self) -> None:
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                return
