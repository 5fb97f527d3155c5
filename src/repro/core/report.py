"""Analysis reports: per-property verdicts and the Table I detection view."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from .. import schema
from ..mc import Trace
from ..obs.stats import PipelineStats
from ..properties.spec import Property


class Verdict(str, enum.Enum):
    """The outcomes a property verification can produce.

    A ``str`` mixin keeps the enum wire- and comparison-compatible with
    the historical string verdicts (``Verdict.VERIFIED == "verified"``),
    while giving the CLI exit-code mapping and the report logic one
    typed source of truth.

    ``ERROR`` is the crash-isolation outcome: the checker itself failed
    (an exception raised while checking this property), and
    the exception chain is recorded in the result's ``evidence``.  It is
    never a statement about the implementation — the paper's Table I
    requires every property to receive *a* verdict, so an engine fault
    must not erase the other 61.
    """

    VERIFIED = "verified"
    VIOLATED = "violated"
    NOT_APPLICABLE = "not-applicable"
    ERROR = "error"


@dataclass
class PropertyResult:
    """Outcome of verifying one property against one implementation."""

    property: Property
    outcome: Verdict
    counterexample: Optional[Trace] = None
    evidence: str = ""
    iterations: int = 0
    refinements: int = 0
    states_explored: int = 0
    elapsed_seconds: float = 0.0
    #: which engine worker produced this verdict ("MainProcess" if serial)
    worker: str = ""

    def __post_init__(self):
        self.outcome = Verdict(self.outcome)

    @property
    def violated(self) -> bool:
        return self.outcome is Verdict.VIOLATED

    def summary(self) -> str:
        extra = ""
        if self.iterations > 1:
            extra = f" ({self.iterations} CEGAR iterations)"
        return (f"{self.property.identifier}: {self.outcome.value}{extra} "
                f"[{self.elapsed_seconds:.2f}s]")

    def signature(self) -> tuple:
        """Verdict-semantic identity: what the analysis *concluded*.

        Deliberately excludes exploration effort (``states_explored``,
        ``evidence``, iteration counts): those describe *how* the
        checker reached the verdict and legitimately change when the
        engine improves (e.g. on-the-fly product search visits far
        fewer states than the materialised reference).  Two runs agree
        exactly when their signatures agree per property.
        """
        return (self.property.identifier, self.outcome.value)

    def to_dict(self) -> Dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return schema.stamp({
            "property": self.property.identifier,
            "category": self.property.category,
            "kind": self.property.kind,
            "attack_id": self.property.attack_id,
            "verdict": self.outcome.value,
            "evidence": self.evidence,
            "iterations": self.iterations,
            "refinements": self.refinements,
            "states_explored": self.states_explored,
            "elapsed_seconds": self.elapsed_seconds,
            "worker": self.worker,
            "counterexample": (self.counterexample.to_dict()
                               if self.counterexample is not None else None),
        })

    @classmethod
    def from_dict(cls, payload: Dict) -> "PropertyResult":
        """Rebuild a result; the property is resolved from the catalog.

        Raises :class:`~repro.core.schema.SchemaVersionError` when the
        payload declares a wire-format major this reader does not know.
        """
        from ..properties import property_by_id
        schema.check(payload, "PropertyResult")
        trace = payload.get("counterexample")
        return cls(
            property=property_by_id(payload["property"]),
            outcome=Verdict(payload["verdict"]),
            counterexample=Trace.from_dict(trace) if trace else None,
            evidence=payload.get("evidence", ""),
            iterations=payload.get("iterations", 0),
            refinements=payload.get("refinements", 0),
            states_explored=payload.get("states_explored", 0),
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            worker=payload.get("worker", ""),
        )


@dataclass
class AnalysisReport:
    """The full ProChecker run for one implementation."""

    implementation: str
    fsm_summary: Dict[str, int] = field(default_factory=dict)
    extraction_seconds: float = 0.0
    coverage_percent: float = 0.0
    conformance_cases: int = 0
    log_lines: int = 0
    results: List[PropertyResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: worker-pool width the engine used for the check phase
    jobs: int = 1
    #: wall-clock of the check phase alone (excludes extraction)
    verification_seconds: float = 0.0
    #: aggregated observability block (phases, counters, runtime metrics)
    stats: Optional[PipelineStats] = None
    #: consensus-extraction stability evidence (chaos runs only); not
    #: part of :meth:`verdict_signature` — link noise must never change
    #: what the analysis *concluded*, only how confident the model is
    stability: Optional[Dict] = None

    # ------------------------------------------------------------------
    def violated(self) -> List[PropertyResult]:
        return [r for r in self.results if r.violated]

    def verified(self) -> List[PropertyResult]:
        return [r for r in self.results
                if r.outcome is Verdict.VERIFIED]

    def errors(self) -> List[PropertyResult]:
        """Properties whose *checker* failed (crash-isolation outcome)."""
        return [r for r in self.results if r.outcome is Verdict.ERROR]

    def detected_attacks(self) -> Set[str]:
        """Table I view: attack ids whose property was violated."""
        return {r.property.attack_id for r in self.violated()
                if r.property.attack_id}

    def result_for(self, property_id: str) -> PropertyResult:
        for result in self.results:
            if result.property.identifier == property_id:
                return result
        raise KeyError(property_id)

    def counts(self) -> Dict[str, int]:
        return {
            "properties": len(self.results),
            "verified": len(self.verified()),
            "violated": len(self.violated()),
            "errors": len(self.errors()),
            "attacks": len(self.detected_attacks()),
        }

    def verdict_signature(self) -> tuple:
        """Canonical tuple of per-property verdicts.

        Independent of timing and of how the engine scheduled the work —
        a parallel run must produce a signature identical to a serial
        run's (the engine's determinism contract).
        """
        return tuple(result.signature() for result in self.results)

    def worker_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-worker share of the check phase (count + busy seconds)."""
        metrics: Dict[str, Dict[str, float]] = {}
        for result in self.results:
            name = result.worker or "unknown"
            entry = metrics.setdefault(
                name, {"properties": 0, "busy_seconds": 0.0})
            entry["properties"] += 1
            entry["busy_seconds"] += result.elapsed_seconds
        return metrics

    def to_dict(self) -> Dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return schema.stamp({
            "implementation": self.implementation,
            "fsm_summary": dict(self.fsm_summary),
            "extraction_seconds": self.extraction_seconds,
            "coverage_percent": self.coverage_percent,
            "conformance_cases": self.conformance_cases,
            "log_lines": self.log_lines,
            "elapsed_seconds": self.elapsed_seconds,
            "jobs": self.jobs,
            "verification_seconds": self.verification_seconds,
            "counts": self.counts(),
            "detected_attacks": sorted(self.detected_attacks()),
            "results": [result.to_dict() for result in self.results],
            "stats": self.stats.to_dict() if self.stats is not None
            else None,
            "stability": (dict(self.stability)
                          if self.stability is not None else None),
        })

    @classmethod
    def from_dict(cls, payload: Dict) -> "AnalysisReport":
        """Rebuild a report; rejects unknown wire-format majors."""
        schema.check(payload, "AnalysisReport")
        stats = payload.get("stats")
        return cls(
            implementation=payload["implementation"],
            fsm_summary=dict(payload.get("fsm_summary", {})),
            extraction_seconds=payload.get("extraction_seconds", 0.0),
            coverage_percent=payload.get("coverage_percent", 0.0),
            conformance_cases=payload.get("conformance_cases", 0),
            log_lines=payload.get("log_lines", 0),
            results=[PropertyResult.from_dict(item)
                     for item in payload.get("results", [])],
            elapsed_seconds=payload.get("elapsed_seconds", 0.0),
            jobs=payload.get("jobs", 1),
            verification_seconds=payload.get("verification_seconds", 0.0),
            stats=PipelineStats.from_dict(stats) if stats else None,
            stability=payload.get("stability"),
        )

    def format_table(self) -> str:
        """Human-readable per-property table (for examples/CLI output)."""
        lines = [f"ProChecker analysis of {self.implementation!r}: "
                 f"{self.fsm_summary.get('states', '?')} states, "
                 f"{self.fsm_summary.get('transitions', '?')} transitions, "
                 f"coverage {self.coverage_percent:.1f}%"]
        lines.append(f"{'property':<10} {'category':<9} {'verdict':<10} "
                     f"{'attack':<28} time")
        for result in self.results:
            lines.append(
                f"{result.property.identifier:<10} "
                f"{result.property.category:<9} "
                f"{result.outcome.value:<10} "
                f"{(result.property.attack_id or '-'):<28} "
                f"{result.elapsed_seconds:.2f}s")
        counts = self.counts()
        errors = (f", {counts['errors']} checker errors"
                  if counts["errors"] else "")
        lines.append(
            f"total: {counts['properties']} properties, "
            f"{counts['verified']} verified, {counts['violated']} violated, "
            f"{counts['attacks']} distinct attacks{errors}")
        return "\n".join(lines)
