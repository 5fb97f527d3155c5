"""The ProChecker pipeline (Fig. 2): extraction then verification.

One :class:`ProChecker` instance analyses one implementation:

1. run the (instrumented) conformance suite → information-rich log;
2. extract the implementation FSM (Algorithm 1) + coverage;
3. pair it with the hand-built core-network model (Hussain et al.);
4. for every property: either the CEGAR MC↔CPV loop (LTL properties) or
   the corresponding testbed/CPV experiment (observational properties);
5. produce an :class:`~repro.core.report.AnalysisReport`.

Stage 1+2 go through the process-wide
:data:`~repro.core.engine.extraction_cache`, and stage 4 through the
:class:`~repro.core.engine.VerificationEngine`, which shares the
property-invariant CEGAR inputs and can fan the catalog out over a
worker pool (``jobs``).  Configure runs declaratively::

    config = AnalysisConfig("srsue", jobs=4, category="privacy")
    report = ProChecker.from_config(config).analyze()

or analyse several implementations through one shared pool::

    reports = analyze_many(["reference", "srsue", "oai"])
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

from .. import faults, obs
from ..baselines import lteinspector_mme
from ..fsm import FiniteStateMachine
from ..lte.implementations import REGISTRY
from ..obs.stats import PipelineStats
from ..properties.spec import Property
from .cegar import CegarContext
from .engine import (AnalysisConfig, ImplementationRun, VerificationEngine,
                     extraction_cache, verify_one)
from .report import AnalysisReport, PropertyResult


class ProCheckerError(Exception):
    """Raised on pipeline misconfiguration."""


class ProChecker:
    """Property-guided formal verification of one LTE implementation."""

    def __init__(self, implementation: str,
                 mme_model: Optional[FiniteStateMachine] = None,
                 config: Optional[AnalysisConfig] = None):
        if implementation not in REGISTRY:
            raise ProCheckerError(
                f"unknown implementation {implementation!r}; "
                f"available: {sorted(REGISTRY)}")
        if config is not None and config.implementation != implementation:
            raise ProCheckerError(
                f"config targets {config.implementation!r}, "
                f"not {implementation!r}")
        self.implementation = implementation
        self.ue_class = REGISTRY[implementation]
        self.config = config or AnalysisConfig(implementation=implementation)
        #: the paper uses the manually constructed open-source core
        #: network model (no access to a commercial core)
        self.mme_model = mme_model or lteinspector_mme()
        self._extracted: Optional[FiniteStateMachine] = None
        self._extraction_seconds = 0.0
        self._coverage_percent = 0.0
        self._conformance_cases = 0
        self._log_lines = 0
        self._stability = None
        self._context: Optional[CegarContext] = None

    @classmethod
    def from_config(cls, config: AnalysisConfig) -> "ProChecker":
        """The config-object entry point of the redesigned API."""
        return cls(config.implementation, config=config)

    @property
    def stability(self):
        """The consensus :class:`~repro.extraction.StabilityReport` of
        the last extraction, or ``None`` for single-run extractions."""
        return self._stability

    # ------------------------------------------------------------------
    # Stage 1+2: conformance run and model extraction
    # ------------------------------------------------------------------
    def extract(self) -> FiniteStateMachine:
        """Run the conformance suite under instrumentation and extract
        the implementation FSM.

        Goes through the process-wide extraction cache, so repeated
        instances — and the other implementations of an
        :func:`analyze_many` batch — share one conformance run each.
        Cached on the instance after the first call.
        """
        if self._extracted is not None:
            return self._extracted
        with obs.span("pipeline.extract",
                      implementation=self.implementation):
            record = extraction_cache.get(
                self.implementation, chaos=self.config.chaos,
                chaos_runs=self.config.chaos_runs)
        self._extracted = record.fsm
        self._extraction_seconds = record.extraction_seconds
        self._coverage_percent = record.coverage_percent
        self._conformance_cases = record.conformance_cases
        self._log_lines = record.log_lines
        self._stability = record.stability
        return record.fsm

    # ------------------------------------------------------------------
    # Stage 3+4: verification
    # ------------------------------------------------------------------
    def _cegar_context(self) -> CegarContext:
        if self._context is None:
            self._context = CegarContext(
                self.extract(), self.mme_model,
                mc_cache_dir=self.config.mc_cache_dir)
        return self._context

    def verify_property(self, prop: Property) -> PropertyResult:
        """Verify a single property against the extracted model."""
        return verify_one(prop, self.implementation, self._cegar_context())

    def _implementation_run(self) -> ImplementationRun:
        return ImplementationRun(
            implementation=self.implementation,
            properties=self.config.resolved_properties(),
            context=self._cegar_context(),
        )

    # ------------------------------------------------------------------
    # Stage 5: the full run
    # ------------------------------------------------------------------
    def analyze(self) -> AnalysisReport:
        """Verify every property the config selects (default: all 62)."""
        reports = _analyze([self], self.config.resolved_jobs())
        return reports[self.implementation]

    def _report_skeleton(self, jobs: int) -> AnalysisReport:
        return AnalysisReport(
            implementation=self.implementation,
            fsm_summary=self.extract().summary(),
            extraction_seconds=self._extraction_seconds,
            coverage_percent=self._coverage_percent,
            conformance_cases=self._conformance_cases,
            log_lines=self._log_lines,
            jobs=jobs,
            stability=(self._stability.to_dict()
                       if self._stability is not None else None),
        )


ConfigLike = Union[str, AnalysisConfig]


def analyze_many(configs: Sequence[ConfigLike],
                 jobs: Optional[int] = None
                 ) -> Dict[str, AnalysisReport]:
    """Analyse several implementations through one shared worker pool.

    Each entry is an implementation name or a full
    :class:`AnalysisConfig`.  Extractions run once each (via the
    extraction cache); the property groups of *all* implementations are
    interleaved in a single engine invocation, so a pool of ``jobs``
    workers stays busy across implementation boundaries.  ``jobs``
    defaults to the widest request among the configs.
    """
    resolved = [config if isinstance(config, AnalysisConfig)
                else AnalysisConfig(implementation=config)
                for config in configs]
    checkers = [ProChecker.from_config(config) for config in resolved]
    return _analyze(checkers, jobs if jobs is not None
                    else max(config.resolved_jobs() for config in resolved))


def _analyze(checkers: Sequence[ProChecker],
             jobs: int) -> Dict[str, AnalysisReport]:
    """The one analysis body: extract each checker, verify them all in
    one engine invocation, and assemble one report per implementation.

    The shared engine takes its group timeout and fault plan from the
    first config that sets each.  The fault plan is installed for this
    analysis only; without one, whatever plan is installed process-wide
    (``repro serve --inject-fault``) is left alone, counters included.
    """
    configs = [checker.config for checker in checkers]
    group_timeout = next((c.group_timeout_seconds for c in configs
                          if c.group_timeout_seconds is not None), None)
    plan = next((c.fault_plan for c in configs
                 if c.fault_plan is not None), None)
    previous_plan = faults.installed()
    if plan is not None:
        faults.install(plan)
    try:
        batch = ",".join(checker.implementation for checker in checkers)
        with obs.metrics_scope() as scope, \
                obs.span("pipeline.analyze", implementation=batch) as root:
            runs = [checker._implementation_run() for checker in checkers]
            engine = VerificationEngine(jobs, group_timeout=group_timeout)
            with obs.span("pipeline.verify", implementation=batch,
                          jobs=engine.jobs) as vspan:
                outcomes = engine.verify(runs)
        metrics = scope.snapshot()
    finally:
        if plan is not None:
            faults.install(previous_plan)

    reports: Dict[str, AnalysisReport] = {}
    for checker in checkers:
        report = checker._report_skeleton(engine.jobs)
        report.results = outcomes[checker.implementation]
        report.verification_seconds = vspan.duration
        report.elapsed_seconds = root.duration
        # Per-implementation stats come out of the one shared trace: the
        # collector filters property spans by their implementation
        # attribute, so each report sees only its own rollups.
        report.stats = PipelineStats.collect(
            root, report.results, checker.implementation, engine.jobs,
            metrics)
        reports[checker.implementation] = report
    return reports


# The PR 1 ``analyze_implementation()`` deprecation shim ended its
# grace period with the repro.api facade: use
# ``ProChecker.from_config(AnalysisConfig(...)).analyze()`` or
# :func:`analyze_many`.
