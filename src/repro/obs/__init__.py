"""``repro.obs`` — the pipeline-wide observability layer.

Dependency-free tracing, metrics and profiling hooks threaded through
every ProChecker phase (conformance execution, Algorithm 1 extraction,
threat instrumentation, the CEGAR loop, model checking, CPV queries).

Two recording layers with different determinism guarantees:

- **spans** (:func:`span`, :func:`inc`) — hierarchical timed regions
  with counters attached to the innermost open span.  Counters recorded
  inside a per-property verification span are scheduling-invariant and
  feed the canonical block of
  :class:`~repro.obs.stats.PipelineStats`;
- **registry metrics** (:func:`count`, :func:`gauge_max`,
  :func:`observe`) — counters/gauges/histograms for quantities that
  legitimately vary with ``--jobs`` and cache warmth (cache hit rates,
  models built, per-worker utilisation).  Each write lands in the
  process registry and in every :func:`metrics_scope` open in the
  current ``contextvars`` context, so a unit of work (an analysis, a
  serve job) reads exactly its own counts from its scope, however many
  threads record at once.  Scopes nest and are written through.

Both cross the process-pool boundary explicitly: workers
:func:`reset` themselves, record, then ship ``drain_spans()`` payloads
and ``metrics().drain()`` snapshots home, where the engine adopts the
spans under its open phase span and folds the snapshots in with
:func:`merge` — so the reassembled trace is one tree keyed by property
id, whatever the worker scheduling was.

The module-level functions operate on one process-global
:class:`Observatory`; tests that need isolation construct their own
:class:`~repro.obs.spans.Tracer` / registry, or call :func:`reset`.
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      diff_snapshots)
from .sinks import (InMemorySink, JsonlTraceSink, SummarySink, iter_records,
                    read_trace, write_trace)
from .spans import ATTR_PROPERTY, Span, Tracer
from .stats import (PROPERTY_SPAN, REQUIRED_PHASES, PipelineStats,
                    audit_trace, trace_phase_names)

__all__ = [
    "ATTR_PROPERTY", "Counter", "Gauge", "Histogram", "InMemorySink",
    "JsonlTraceSink", "MetricsRegistry", "Observatory", "PROPERTY_SPAN",
    "PipelineStats", "REQUIRED_PHASES", "Span", "SummarySink", "Tracer",
    "adopt_spans", "audit_trace", "count", "diff_snapshots",
    "drain_spans", "gauge_max", "get_observatory", "inc", "iter_records",
    "merge", "metrics", "metrics_scope", "observe", "read_trace", "reset",
    "span", "trace_phase_names", "tracer", "write_trace",
]


class Observatory:
    """One process's tracer + metrics registry."""

    def __init__(self):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()


_lock = threading.Lock()
_observatory = Observatory()
#: the registries of every :func:`metrics_scope` open in this context
_scopes: contextvars.ContextVar[Tuple[MetricsRegistry, ...]] = \
    contextvars.ContextVar("repro_obs_scopes", default=())


def get_observatory() -> Observatory:
    return _observatory


def reset() -> Observatory:
    """Fresh tracer and registry, and no open scopes in this context
    (pool workers, test isolation: a worker forked from a scoped thread
    must never write to the parent's scopes, whose locks it copied)."""
    global _observatory
    with _lock:
        _observatory = Observatory()
    _scopes.set(())
    return _observatory


def tracer() -> Tracer:
    return _observatory.tracer


def metrics() -> MetricsRegistry:
    return _observatory.metrics


# ---------------------------------------------------------------------------
# Span layer (deterministic)
# ---------------------------------------------------------------------------
def span(name: str, **attributes):
    """Open a span on the current thread: ``with obs.span("cegar", ...)``."""
    return _observatory.tracer.span(name, **attributes)


def inc(name: str, value: float = 1) -> None:
    """Span-scoped counter: lands on the innermost open span (and rolls
    up into the enclosing property span's deterministic stats).  Also
    mirrored into the registries (see :func:`count`) so totals stay
    queryable even for work done outside any span."""
    _observatory.tracer.inc(name, value)
    count(name, value)


def drain_spans() -> List[Span]:
    """Remove and return every finished root span of this process."""
    return _observatory.tracer.drain()


def adopt_spans(payloads: Sequence[Dict]) -> None:
    """Graft serialized worker spans into the current trace position."""
    for payload in payloads:
        _observatory.tracer.adopt(Span.from_dict(payload))


# ---------------------------------------------------------------------------
# Registry layer (runtime / scheduling-dependent)
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def metrics_scope() -> Iterator[MetricsRegistry]:
    """Yield a fresh registry that also receives every registry write
    made in this context until the block exits (work on other threads
    is not in this context)."""
    registry = MetricsRegistry()
    token = _scopes.set(_scopes.get() + (registry,))
    try:
        yield registry
    finally:
        _scopes.reset(token)


def _registries() -> Tuple[MetricsRegistry, ...]:
    """The process registry plus every scope open in this context."""
    return (_observatory.metrics,) + _scopes.get()


def count(name: str, value: float = 1) -> None:
    """Registry-only counter (cache hits, models built, ...)."""
    for registry in _registries():
        registry.counter(name).inc(value)


def gauge_max(name: str, value: float) -> None:
    """High-water-mark gauge (largest Büchi product, ...)."""
    for registry in _registries():
        registry.gauge(name).record(value)


def observe(name: str, value: float,
            buckets: Optional[Sequence[float]] = None) -> None:
    """Histogram observation (per-property seconds, states per check)."""
    for registry in _registries():
        registry.histogram(name, buckets).observe(value)


def merge(payload: Dict) -> None:
    """Fold a worker's drained registry into the process registry and
    every scope open in this context."""
    for registry in _registries():
        registry.merge(payload)
