"""``repro.serve`` — verification as a service.

A long-running mode (``repro serve --port N --workers K``) that turns
the one-shot pipeline into idempotent, addressable, concurrent jobs:

- :class:`AnalysisService` — thread-safe job queue and one scheduler
  thread that runs at most ``workers`` jobs at once, each on a thread
  of its own, with an O(1) short-circuit through the
  content-addressed result store (:mod:`repro.store`) for identical
  resubmissions;
- :mod:`repro.serve.http` — the versioned ``/v1`` HTTP JSON API
  (stdlib ``ThreadingHTTPServer``, no new dependencies);
- :class:`ServeClient` — a stdlib client for scripts, benches, tests.

Two job kinds share the queue: content-addressed analyses (store
short-circuit applies) and store-exempt ``fuzz`` campaigns
(:mod:`repro.fuzz`) whose summaries ride inline on the job record.

The resilience layer (PR 10) makes the service durable and
self-healing:

- :class:`JobJournal` — a write-ahead JSONL journal
  (``repro serve --journal DIR``); a restarted service replays every
  unfinished job deterministically;
- per-job deadlines — the scheduler marks an overdue job ``TIMEOUT``
  and frees its slot in one step, so a hung job never holds capacity;
- drain lifecycle (SIGTERM/SIGINT → finish in-flight, journal the
  rest) with a liveness/readiness health split;
- bounded-queue backpressure (``--max-queue`` → HTTP 429 +
  ``Retry-After``) and idempotency-aware client retries.
"""

from .client import (RETRY_CONNECT, RETRY_IDEMPOTENT, RETRY_NONE,
                     TERMINAL_JOB_STATUSES, ServeClient, ServeClientError)
from .http import ServiceHandler, ServiceHTTPServer, create_server
from .jobs import (KIND_ANALYSIS, KIND_FUZZ, TERMINAL_STATUSES, JobRecord,
                   JobRegistry, JobStatus)
from .journal import JobJournal, JournalError, JournalReplay
from .service import (AnalysisService, QueueFullError, ServiceDrainingError,
                      ServiceError)

__all__ = [
    "AnalysisService", "JobJournal", "JobRecord", "JobRegistry",
    "JobStatus", "JournalError", "JournalReplay", "KIND_ANALYSIS",
    "KIND_FUZZ", "QueueFullError", "RETRY_CONNECT", "RETRY_IDEMPOTENT",
    "RETRY_NONE", "ServeClient", "ServeClientError",
    "ServiceDrainingError", "ServiceError", "ServiceHandler",
    "ServiceHTTPServer", "TERMINAL_JOB_STATUSES", "TERMINAL_STATUSES",
    "create_server",
]
