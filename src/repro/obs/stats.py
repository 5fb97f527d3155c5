"""Aggregated pipeline statistics and the trace-completeness audit.

:class:`PipelineStats` is the block embedded in every
:class:`~repro.core.report.AnalysisReport`: per-phase span counts and
wall-clock, per-property counters reassembled from the trace (keyed by
property id), their catalog-wide totals, verdict tallies, and the
runtime metrics snapshot (cache hit rates, models built, per-worker
utilisation).

Determinism contract: the **canonical** projection
(:meth:`PipelineStats.canonical_dict` / :meth:`canonical_json`) contains
only scheduling-invariant data — per-property counters, their sums and
the verdict tallies.  Every counter in it is recorded on the span tree
*inside* a per-property verification span, and each property's
verification is a pure function of ``(UE FSM, MME model, property)``, so
a ``--jobs 4`` run serialises byte-identically to a ``--jobs 1`` run.
Wall-clock, cache-warmth effects (models built, hits) and worker
utilisation live in the observed ``phases``/``runtime`` blocks, which
are reported but excluded from the canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from .. import schema
from .spans import ATTR_PROPERTY, Span

#: Span name of the per-property unit of work the engine schedules.
PROPERTY_SPAN = "verify.property"

#: Span names every full pipeline run must exhibit — the CI audit fails
#: if any is missing from an emitted trace, which guards against new
#: pipeline code silently escaping instrumentation.
REQUIRED_PHASES = frozenset({
    "pipeline.analyze",      # end-to-end run
    "pipeline.extract",      # stage 1+2 dispatch (cache-aware)
    "conformance.run",       # instrumented conformance execution
    "extraction.extract",    # Algorithm 1
    "pipeline.verify",       # check-phase fan-out
    PROPERTY_SPAN,           # one per property
    "cegar",                 # MC <-> CPV refinement loop
    "threat.instrument",     # adversarial model construction
    "mc.check",              # model-checker queries
    "cpv.validate",          # counterexample feasibility
})


@dataclass
class PipelineStats:
    """Aggregated observability data for one analysis run."""

    implementation: str = ""
    jobs: int = 1
    #: per-property counters, reassembled from the trace (property id ->
    #: counter name -> value); scheduling-invariant
    properties: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: catalog-wide sums of the per-property counters
    totals: Dict[str, float] = field(default_factory=dict)
    #: verdict tallies ("verified"/"violated"/"not-applicable" -> count)
    verdicts: Dict[str, int] = field(default_factory=dict)
    #: per-phase observation: span name -> {"count", "seconds"}
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: runtime metrics (the run's metrics scope, worker utilisation,
    #: wall-clock)
    runtime: Dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def collect(cls, root: Span, results: Sequence,
                implementation: str, jobs: int,
                metrics: Optional[Dict] = None) -> "PipelineStats":
        """Build the stats block from one analysis' span tree.

        ``results`` are the run's ``PropertyResult``\\ s (duck-typed);
        property spans belonging to other implementations (an
        ``analyze_many`` batch shares one tree) are filtered out by
        their ``implementation`` attribute.
        """
        stats = cls(implementation=implementation, jobs=jobs)
        for span, _depth in root.walk():
            phase = stats.phases.setdefault(
                span.name, {"count": 0, "seconds": 0.0})
            phase["count"] += 1
            phase["seconds"] += span.duration
            if span.name != PROPERTY_SPAN:
                continue
            owner = span.attributes.get("implementation", implementation)
            if owner != implementation:
                continue
            identifier = str(span.attributes.get(ATTR_PROPERTY, "?"))
            rollup = span.total_counters()
            stats.properties[identifier] = {
                name: rollup[name] for name in sorted(rollup)}
        for counters in stats.properties.values():
            for name, value in counters.items():
                stats.totals[name] = stats.totals.get(name, 0) + value
        for result in results:
            verdict = result.outcome.value
            stats.verdicts[verdict] = stats.verdicts.get(verdict, 0) + 1
        stats.runtime = {
            "elapsed_seconds": root.duration,
            "metrics": metrics or {},
            "workers": _worker_utilisation(results),
        }
        return stats

    # ------------------------------------------------------------------
    def canonical_dict(self) -> Dict:
        """The scheduling-invariant projection (see module docstring)."""
        return {
            "implementation": self.implementation,
            "properties": {identifier: dict(counters)
                           for identifier, counters
                           in sorted(self.properties.items())},
            "totals": dict(sorted(self.totals.items())),
            "verdicts": dict(sorted(self.verdicts.items())),
        }

    def canonical_json(self) -> str:
        """Byte-comparable form: identical across ``--jobs`` widths."""
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":"))

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        return schema.stamp({
            "implementation": self.implementation,
            "jobs": self.jobs,
            "properties": {identifier: dict(counters)
                           for identifier, counters
                           in self.properties.items()},
            "totals": dict(self.totals),
            "verdicts": dict(self.verdicts),
            "phases": {name: dict(data)
                       for name, data in self.phases.items()},
            "runtime": self.runtime,
        })

    @classmethod
    def from_dict(cls, payload: Dict) -> "PipelineStats":
        schema.check(payload, "PipelineStats")
        return cls(
            implementation=payload.get("implementation", ""),
            jobs=payload.get("jobs", 1),
            properties={identifier: dict(counters)
                        for identifier, counters
                        in payload.get("properties", {}).items()},
            totals=dict(payload.get("totals", {})),
            verdicts=dict(payload.get("verdicts", {})),
            phases={name: dict(data)
                    for name, data in payload.get("phases", {}).items()},
            runtime=dict(payload.get("runtime", {})),
        )

    # ------------------------------------------------------------------
    def format_table(self) -> str:
        """The human summary: phases, hot counters, cache behaviour."""
        lines = [f"pipeline profile — {self.implementation} "
                 f"({self.jobs} worker(s), "
                 f"{self.runtime.get('elapsed_seconds', 0.0):.2f}s)"]
        lines.append(f"  {'phase':<22} {'count':>7} {'seconds':>9}")
        order = sorted(self.phases,
                       key=lambda name: -self.phases[name]["seconds"])
        for name in order:
            data = self.phases[name]
            lines.append(f"  {name:<22} {int(data['count']):>7} "
                         f"{data['seconds']:>9.3f}")
        if self.totals:
            lines.append("  counters:")
            for name, value in sorted(self.totals.items()):
                lines.append(f"    {name:<28} {value:>12g}")
        if self.verdicts:
            tally = ", ".join(f"{count} {verdict}" for verdict, count
                              in sorted(self.verdicts.items()))
            lines.append(f"  verdicts: {tally}")
        counters = self.runtime.get("metrics", {}).get("counters", {})
        if counters:
            lines.append("  runtime counters:")
            for name, value in sorted(counters.items()):
                lines.append(f"    {name:<28} {value:>12g}")
        workers = self.runtime.get("workers", {})
        if workers:
            lines.append("  workers:")
            for name, data in sorted(workers.items()):
                lines.append(f"    {name:<20} "
                             f"{int(data['properties']):>3} properties "
                             f"{data['busy_seconds']:>8.3f}s busy")
        return "\n".join(lines)


def _worker_utilisation(results: Iterable) -> Dict[str, Dict[str, float]]:
    workers: Dict[str, Dict[str, float]] = {}
    for result in results:
        name = getattr(result, "worker", "") or "unknown"
        entry = workers.setdefault(
            name, {"properties": 0, "busy_seconds": 0.0})
        entry["properties"] += 1
        entry["busy_seconds"] += getattr(result, "elapsed_seconds", 0.0)
    return workers


# ---------------------------------------------------------------------------
# Trace audit
# ---------------------------------------------------------------------------
def trace_phase_names(path: str) -> Set[str]:
    """Distinct span names appearing in a JSONL trace file."""
    names: Set[str] = set()
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("type") == "span":
                names.add(record["name"])
    return names


def audit_trace(path: str,
                required: Iterable[str] = REQUIRED_PHASES) -> List[str]:
    """Names from ``required`` missing from the trace (empty = healthy)."""
    present = trace_phase_names(path)
    return sorted(set(required) - present)
