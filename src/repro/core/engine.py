"""Parallel property-verification engine with shared caches.

The check phase of the pipeline is embarrassingly parallel: once the
implementation FSM is extracted and the core-network model fixed, every
property verdict is a pure function of ``(UE FSM, MME model, property)``.
This module exploits that in three layers:

1. a process-wide :class:`ExtractionCache` keyed by implementation (and
   chaos spec), so benchmarks, CLI commands and repeated
   :class:`~repro.core.prochecker.ProChecker` instances run the
   conformance suite and Algorithm 1 exactly once per implementation;
2. per-run sharing of the property-invariant CEGAR inputs via
   :class:`~repro.core.cegar.CegarContext` — the harvestable-message
   reachability query, the :class:`CounterexampleValidator` and the
   threat-instrumented base model for each distinct
   :class:`~repro.threat.ThreatConfig` (the 49 LTL properties share only
   21 configurations, and cached models keep their warm state graphs);
3. a ``concurrent.futures`` worker pool (``jobs=N``, default
   ``os.cpu_count()``) that fans property *groups* out over processes,
   one group per shared threat configuration so cache locality survives
   the fan-out.

Scheduling never changes verdicts: results are reassembled in catalog
order and every verdict is byte-identical to a serial run
(:meth:`~repro.core.report.AnalysisReport.verdict_signature`).

Fault tolerance (the crash-isolation contract): a single property's
failure must never erase the other 61 verdicts.  Checker exceptions are
caught at the group boundary and become :attr:`Verdict.ERROR` results
carrying the exception chain as evidence.  The pool runs every group
once; a group whose worker crashed or that overran its timeout is run
again in-process once the pool is torn down (a dead worker breaks the
whole ``ProcessPoolExecutor``), so :meth:`VerificationEngine.verify`
always returns a complete outcome map.  Crashes, timeouts and
degradations are counted in the :mod:`repro.obs` metrics registry
(``engine.group_*``).  The deterministic
fault-injection harness (:mod:`repro.faults`) has trip points at
``engine.verify_group`` and ``engine.verify_one`` so every one of those
paths is exercisable on demand.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, \
    wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults, obs, schema
from ..conformance import TestCase, full_suite, measure_coverage, \
    run_conformance
from ..extraction import (StabilityReport, consensus_extract,
                          extract_model, table_for_implementation)
from ..fsm import FiniteStateMachine
from ..lte.channel import ChaosConfig
from ..lte.implementations import REGISTRY
from ..properties.catalog import ALL_PROPERTIES
from ..properties.spec import (CATEGORY_PRIVACY, CATEGORY_SECURITY,
                               EXTRACTED_VOCAB, KIND_LTL, KIND_TESTBED,
                               Property)
from ..testbed import run_attack
from .cegar import CegarContext, CegarResult, check_with_cegar, \
    threat_config_key
from .report import PropertyResult, Verdict


class EngineError(Exception):
    """Raised on engine misconfiguration (bad filters, empty runs)."""


# ---------------------------------------------------------------------------
# Analysis configuration (the redesigned pipeline entry point)
# ---------------------------------------------------------------------------
@dataclass
class AnalysisConfig:
    """Declarative description of one analysis run.

    Consumed by :meth:`ProChecker.from_config` and :func:`analyze_many`;
    every knob the CLI exposes maps onto one field here.
    """

    implementation: str
    #: select catalog properties by identifier ("SEC-01", ...)
    property_ids: Optional[Sequence[str]] = None
    #: restrict the catalog to "security" or "privacy"
    category: Optional[str] = None
    #: worker processes for the check phase; ``None`` → ``os.cpu_count()``
    jobs: Optional[int] = None
    #: wall-clock budget for one pooled property group; ``None`` → no limit
    group_timeout_seconds: Optional[float] = None
    #: deterministic fault plan to install for this run (debugging /
    #: resilience testing; see :mod:`repro.faults`)
    fault_plan: Optional[faults.FaultPlan] = None
    #: seeded radio-link impairment schedule for the conformance run
    #: (``None`` → perfect link; see :class:`repro.lte.channel.ChaosConfig`)
    chaos: Optional[ChaosConfig] = None
    #: with chaos: number of distinct-seed runs merged by the consensus
    #: extractor (1 → single perturbed run, no consensus machinery)
    chaos_runs: int = 1
    #: directory for the persistent cross-run MC verdict cache
    #: (``None`` → off).  A warmth knob, not an identity knob: it can
    #: never change verdicts, so it is excluded from the result-store
    #: job key the same way scheduling knobs are.
    mc_cache_dir: Optional[str] = None

    def resolved_properties(self) -> List[Property]:
        """The property list this configuration selects, catalog order."""
        selected = list(ALL_PROPERTIES)
        if self.category is not None:
            if self.category not in (CATEGORY_SECURITY, CATEGORY_PRIVACY):
                raise EngineError(f"unknown category {self.category!r}")
            selected = [p for p in selected if p.category == self.category]
        if self.property_ids is not None:
            wanted = list(self.property_ids)
            by_id = {p.identifier: p for p in selected}
            missing = [i for i in wanted if i not in by_id]
            if missing:
                raise EngineError(f"unknown property ids: {missing}")
            selected = [by_id[i] for i in wanted]
        return selected

    def resolved_jobs(self) -> int:
        if self.jobs is not None:
            return max(1, int(self.jobs))
        return max(1, os.cpu_count() or 1)

    # ------------------------------------------------------------------
    # Wire form (the job payload of ``POST /v1/jobs``)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-ready job payload (round-trips via :meth:`from_dict`)."""
        return schema.stamp({
            "implementation": self.implementation,
            "property_ids": (list(self.property_ids)
                             if self.property_ids is not None else None),
            "category": self.category,
            "jobs": self.jobs,
            "group_timeout_seconds": self.group_timeout_seconds,
            "fault_plan": (self.fault_plan.to_dict()
                           if self.fault_plan is not None else None),
            "chaos": (self.chaos.to_dict()
                      if self.chaos is not None else None),
            "chaos_runs": self.chaos_runs,
            "mc_cache_dir": self.mc_cache_dir,
        })

    @classmethod
    def from_dict(cls, payload: Dict) -> "AnalysisConfig":
        """Rebuild a config from a job payload.

        Raises :class:`~repro.schema.SchemaVersionError` on an unknown
        wire-format major and :class:`EngineError` on a payload without
        an implementation.  Keys this version does not know (such as the
        retry and cache switches or the CEGAR iteration budget older
        payloads carry) are ignored.
        """
        schema.check(payload, "AnalysisConfig")
        implementation = payload.get("implementation")
        if not implementation:
            raise EngineError("job payload lacks an 'implementation'")
        chaos = payload.get("chaos")
        plan = payload.get("fault_plan")
        return cls(
            implementation=implementation,
            property_ids=payload.get("property_ids"),
            category=payload.get("category"),
            jobs=payload.get("jobs"),
            group_timeout_seconds=payload.get("group_timeout_seconds"),
            fault_plan=(faults.FaultPlan.from_dict(plan)
                        if plan is not None else None),
            chaos=(ChaosConfig.from_dict(chaos)
                   if chaos is not None else None),
            chaos_runs=payload.get("chaos_runs", 1),
            mc_cache_dir=payload.get("mc_cache_dir"),
        )


# ---------------------------------------------------------------------------
# Process-wide extraction cache
# ---------------------------------------------------------------------------
@dataclass
class ExtractionRecord:
    """One cached conformance run + extraction."""

    implementation: str
    fsm: FiniteStateMachine
    extraction_seconds: float
    coverage_percent: float
    conformance_cases: int
    log_lines: int
    #: consensus-extraction evidence; only set for chaos runs with
    #: ``chaos_runs >= 2``
    stability: Optional[StabilityReport] = None


def run_extraction(implementation: str,
                   cases: Optional[Sequence[TestCase]] = None,
                   chaos: Optional[ChaosConfig] = None,
                   chaos_runs: int = 1) -> ExtractionRecord:
    """Uncached pipeline front half: conformance run + Algorithm 1.

    ``cases`` replaces the implementation's full conformance suite (the
    pipeline always runs the full one; tests drive small suites).  With
    ``chaos`` set and ``chaos_runs >= 2``, the front half becomes a
    consensus extraction (:func:`repro.extraction.consensus_extract`):
    N distinct-seed perturbed runs merged into a majority machine, with
    the clean-run FSM of the same suite as the subgraph baseline (from
    the shared cache for the full suite).
    """
    if implementation not in REGISTRY:
        raise EngineError(f"unknown implementation {implementation!r}; "
                          f"available: {sorted(REGISTRY)}")
    ue_class = REGISTRY[implementation]
    suite = list(cases) if cases is not None else full_suite(implementation)
    table = table_for_implementation(ue_class)
    stability: Optional[StabilityReport] = None
    if chaos is not None and chaos_runs >= 2:
        clean = (extraction_cache.get(implementation) if cases is None
                 else run_extraction(implementation, cases))
        consensus = consensus_extract(implementation, chaos, chaos_runs,
                                      cases=suite, clean_fsm=clean.fsm)
        fsm = consensus.fsm
        stability = consensus.report
        log_text = consensus.log_text
        extraction_seconds = consensus.extraction_seconds
        conformance_cases = consensus.conformance_cases
        log_lines = consensus.log_lines
    else:
        outcome = run_conformance(implementation, suite, instrument=True,
                                  chaos=chaos)
        fsm, stats = extract_model(outcome.log_text, table,
                                   name=f"{implementation}_ue")
        log_text = outcome.log_text
        extraction_seconds = stats.elapsed_seconds
        conformance_cases = outcome.executed
        log_lines = stats.log_lines
    with obs.span("conformance.coverage", implementation=implementation):
        coverage = measure_coverage(ue_class, log_text, implementation)
    return ExtractionRecord(
        implementation=implementation,
        fsm=fsm,
        extraction_seconds=extraction_seconds,
        coverage_percent=coverage.percent,
        conformance_cases=conformance_cases,
        log_lines=log_lines,
        stability=stability,
    )


class ExtractionCache:
    """Process-wide memo of conformance runs and extracted models.

    Keyed by implementation plus, for chaos runs, the chaos spec and the
    consensus width; every entry is an extraction of the full
    conformance suite.  Each build counts ``extraction.cache_misses``
    and each reuse ``extraction.cache_hits``, so a
    :func:`repro.obs.metrics_scope` around an analysis shows that it
    executed exactly one conformance run per implementation.

    Concurrency: misses build under a *per-key* lock, so two threads
    extracting different implementations proceed in parallel and only
    same-key callers block on one build (then share its record).
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._records: Dict[Tuple, ExtractionRecord] = {}
        self._building: Dict[Tuple, threading.Lock] = {}

    @classmethod
    def fingerprint(cls, implementation: str,
                    chaos: Optional[ChaosConfig] = None,
                    chaos_runs: int = 1) -> Tuple:
        if chaos is None:
            return (implementation,)
        # ChaosConfig is a frozen dataclass of hashable fields, so the
        # instance itself is a sound cache-key component.
        return (implementation, "chaos", chaos, chaos_runs)

    def _lookup(self, key: Tuple) -> Optional[ExtractionRecord]:
        with self._lock:
            record = self._records.get(key)
            if record is not None:
                obs.count("extraction.cache_hits")
            return record

    def get(self, implementation: str,
            chaos: Optional[ChaosConfig] = None,
            chaos_runs: int = 1) -> ExtractionRecord:
        key = self.fingerprint(implementation, chaos, chaos_runs)
        record = self._lookup(key)
        if record is not None:
            return record
        with self._lock:
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = self._building[key] = threading.Lock()
        with build_lock:
            # Another caller may have finished the build while we waited.
            record = self._lookup(key)
            if record is not None:
                return record
            obs.count("extraction.cache_misses")
            record = run_extraction(implementation, chaos=chaos,
                                    chaos_runs=chaos_runs)
            with self._lock:
                self._records[key] = record
                self._building.pop(key, None)
            return record

    def clear(self) -> None:
        with self._lock:
            self._records.clear()
            self._building.clear()


#: The process-wide singleton every pipeline entry point goes through.
extraction_cache = ExtractionCache()


# ---------------------------------------------------------------------------
# Single-property verification (pure function of its arguments)
# ---------------------------------------------------------------------------
def _worker_name() -> str:
    return multiprocessing.current_process().name


def verify_one(prop: Property, implementation: str,
               context: CegarContext) -> PropertyResult:
    """Verify one property; the unit of work the engine schedules.

    Every call happens under one ``verify.property`` span — the unit the
    observability layer reassembles traces around after a pooled run.
    """
    faults.trip("engine.verify_one", key=prop.identifier)
    with obs.span(obs.PROPERTY_SPAN, property=prop.identifier,
                  implementation=implementation, kind=prop.kind) as span:
        if prop.kind == KIND_LTL:
            result = _verify_ltl(prop, context)
        elif prop.kind == KIND_TESTBED:
            result = _verify_testbed(prop, implementation)
        else:
            raise EngineError(f"unknown property kind {prop.kind!r}")
    obs.observe("verify.seconds", span.duration)
    return result


def exception_chain(exc: BaseException) -> str:
    """Compact, deterministic rendering of an exception and its causes."""
    parts: List[str] = []
    seen = set()
    current: Optional[BaseException] = exc
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        parts.append(f"{type(current).__name__}: {current}")
        current = current.__cause__ or current.__context__
    return " <- caused by ".join(parts)


def error_result(prop: Property, exc: BaseException) -> PropertyResult:
    """The crash-isolation outcome: a checker failure as a result row."""
    obs.count("engine.property_errors")
    return PropertyResult(
        property=prop,
        outcome=Verdict.ERROR,
        evidence=f"checker error: {exception_chain(exc)}",
        worker=_worker_name(),
    )


def _safe_verify_one(prop: Property, implementation: str,
                     context: CegarContext) -> PropertyResult:
    """:func:`verify_one` with the group-boundary catch applied.

    Any exception the checker raises for this property — including
    injected faults — becomes a :attr:`Verdict.ERROR` result instead of
    aborting the group, so every other property still gets its verdict.
    """
    try:
        return verify_one(prop, implementation, context)
    except Exception as exc:  # noqa: BLE001 - the isolation boundary
        return error_result(prop, exc)


def _verify_ltl(prop: Property, context: CegarContext) -> PropertyResult:
    # Called through the module global: tracers wrap
    # ``repro.core.engine.check_with_cegar``.
    cegar: CegarResult = check_with_cegar(
        context, prop.formula_for(EXTRACTED_VOCAB), prop.threat,
        name=prop.identifier)
    outcome = Verdict.VERIFIED if cegar.verified else Verdict.VIOLATED
    evidence = ""
    if cegar.is_attack:
        evidence = ("realizable counterexample; adversarial steps: "
                    + ", ".join(dict.fromkeys(
                        cegar.attack.adversary_actions())))
    return PropertyResult(
        property=prop,
        outcome=outcome,
        counterexample=cegar.attack,
        evidence=evidence,
        iterations=cegar.iterations,
        refinements=len(cegar.refinements),
        states_explored=cegar.states_explored,
        elapsed_seconds=cegar.elapsed_seconds,
        worker=_worker_name(),
    )


def _verify_testbed(prop: Property, implementation: str) -> PropertyResult:
    with obs.span("testbed.attack", attack=prop.testbed_attack) as span:
        outcome = run_attack(prop.testbed_attack, implementation)
        obs.inc("testbed.attacks")
    if not outcome.applicable:
        result_outcome = Verdict.NOT_APPLICABLE
    elif outcome.succeeded:
        result_outcome = Verdict.VIOLATED
    else:
        result_outcome = Verdict.VERIFIED
    return PropertyResult(
        property=prop,
        outcome=result_outcome,
        evidence=outcome.evidence,
        iterations=1,
        elapsed_seconds=span.duration,
        worker=_worker_name(),
    )


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------
def group_properties(properties: Sequence[Property]) -> List[List[Property]]:
    """Partition properties into engine tasks.

    LTL properties sharing a :class:`ThreatConfig` form one group so the
    shared instrumented model (and its memoised state graph) is built
    once per group even across process boundaries; each testbed property
    is its own group (independent simulator runs).
    """
    groups: Dict[Tuple, List[Property]] = {}
    order: List[Tuple] = []
    for prop in properties:
        if prop.kind == KIND_LTL:
            key = ("ltl", threat_config_key(prop.threat))
        else:
            key = ("testbed", prop.identifier)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(prop)
    return [groups[key] for key in order]


@dataclass
class ImplementationRun:
    """One implementation's share of an engine invocation."""

    implementation: str
    properties: Sequence[Property]
    #: the in-process CEGAR context (e.g. a ProChecker's persistent one),
    #: used by the serial path and by groups that fall back from the pool;
    #: pool workers build their own from its machines and cache directory
    context: CegarContext


# Worker-process state, installed once per worker by the pool initializer:
# implementation -> the worker's own CegarContext.
_WORKER_STATE: Dict[str, CegarContext] = {}


def _init_worker(payloads: Dict[str, Tuple],
                 fault_plan: Optional[Dict] = None) -> None:
    # Under the ``fork`` start method the child inherits the parent's
    # observatory — including whatever spans the parent has open.  Reset
    # so the worker records only its own work, as fresh root spans the
    # parent can adopt back.  The fault plan is re-installed explicitly
    # (covering non-fork start methods) and its call counters zeroed, so
    # every worker counts k-th-call triggers from zero.
    obs.reset()
    faults.install(faults.FaultPlan.from_dict(fault_plan)
                   if fault_plan is not None else None)
    # A fresh context per worker: the parent's lock and model cache must
    # not cross the fork.
    _WORKER_STATE.clear()
    for implementation, (ue_fsm, mme_fsm, mc_cache_dir) in payloads.items():
        _WORKER_STATE[implementation] = CegarContext(
            ue_fsm, mme_fsm, mc_cache_dir=mc_cache_dir)


def _verify_group(task: Tuple[str, List[Property]]
                  ) -> Tuple[List[Tuple[str, PropertyResult]],
                             List[Dict], Dict]:
    """Worker-side task: verify one group, ship results *and* telemetry.

    The ``verify.property`` spans finish as roots in the worker (nothing
    is open above them there); their serialised forms plus a drain of the
    worker's metrics registry ride back with the results so the parent
    can reassemble one trace and one registry for the whole run.

    Each property is verified through the group-boundary catch: a
    checker exception errors *that property* (``Verdict.ERROR``), not
    the group.
    """
    implementation, props = task
    faults.trip("engine.verify_group", key=props[0].identifier)
    context = _WORKER_STATE[implementation]
    results = [(prop.identifier,
                _safe_verify_one(prop, implementation, context))
               for prop in props]
    spans = [span.to_dict() for span in obs.drain_spans()]
    return results, spans, obs.metrics().drain()


def _verify_in_process(run: ImplementationRun, props: Sequence[Property]
                       ) -> Dict[Tuple[str, str], PropertyResult]:
    """Verify ``props`` of ``run`` in this process, one after another.

    Serves both the serial path and groups that failed in the pool; the
    group-boundary catch applies here too, so even a deterministic
    in-process failure yields ``Verdict.ERROR`` rows rather than
    aborting the run.
    """
    return {(run.implementation, prop.identifier):
            _safe_verify_one(prop, run.implementation, run.context)
            for prop in props}


class VerificationEngine:
    """Fans property groups out over a process pool (or runs serially).

    ``jobs=1`` (or a single task) short-circuits to an in-process loop —
    no pool, no pickling — which is also the deterministic baseline the
    parallel path is validated against.

    The pooled path is fault-tolerant: every group is submitted once,
    with an optional per-group timeout (``group_timeout``).  If a group
    crashed its worker or overran the timeout, the pool is torn down
    and each failed group runs in-process under an ``engine.fallback``
    span.  Because every verdict is a pure function of its inputs, none
    of this changes results — a degraded run's verdicts are
    byte-identical to a clean run's (modulo ``Verdict.ERROR`` rows for
    properties whose checker deterministically fails everywhere).
    """

    def __init__(self, jobs: Optional[int] = None,
                 group_timeout: Optional[float] = None):
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.group_timeout = group_timeout

    # ------------------------------------------------------------------
    def verify(self, runs: Sequence[ImplementationRun]
               ) -> Dict[str, List[PropertyResult]]:
        """Verify every run's properties; results keep input order."""
        if not runs:
            raise EngineError("no implementation runs given")
        seen = set()
        for run in runs:
            if run.implementation in seen:
                raise EngineError(
                    f"duplicate run for {run.implementation!r}")
            seen.add(run.implementation)

        tasks: List[Tuple[str, List[Property]]] = []
        for run in runs:
            tasks.extend((run.implementation, group)
                         for group in group_properties(run.properties))

        if self.jobs <= 1 or len(tasks) <= 1:
            outcomes: Dict[Tuple[str, str], PropertyResult] = {}
            for run in runs:
                outcomes.update(_verify_in_process(run, run.properties))
        else:
            outcomes = self._verify_pooled(runs, tasks)

        return {run.implementation:
                [outcomes[(run.implementation, prop.identifier)]
                 for prop in run.properties]
                for run in runs}

    # ------------------------------------------------------------------
    def _verify_pooled(self, runs: Sequence[ImplementationRun],
                       tasks: List[Tuple[str, List[Property]]]
                       ) -> Dict[Tuple[str, str], PropertyResult]:
        """One pooled pass over ``tasks``; failed groups run in-process.

        With a timeout, once no pooled group has finished for
        ``group_timeout`` seconds (counted from the pass start or the
        last finish), every group still pending counts as timed out — a
        hung worker cannot be cancelled, only torn down with the pool.
        Without one it waits for every group.
        """
        payloads = {run.implementation:
                    (run.context.ue_fsm, run.context.mme_fsm,
                     run.context.mc_cache_dir)
                    for run in runs}
        plan = faults.installed()
        width = min(self.jobs, len(tasks))
        pool = ProcessPoolExecutor(
            max_workers=width, mp_context=self._mp_context(),
            initializer=_init_worker,
            initargs=(payloads, plan.to_dict() if plan is not None
                      else None))
        outcomes: Dict[Tuple[str, str], PropertyResult] = {}
        failed: List[Tuple[str, List[Property]]] = []
        try:
            futures: List[Optional[Future]] = []
            for task in tasks:
                try:
                    futures.append(pool.submit(_verify_group, task))
                except BrokenProcessPool:
                    # A worker died before this group was submitted.
                    futures.append(None)
            pending = {future for future in futures if future is not None}
            while pending:
                done, pending = futures_wait(
                    pending, timeout=self.group_timeout,
                    return_when=FIRST_COMPLETED)
                if not done:
                    break  # no group finished in time: the rest are late
            for task, future in zip(tasks, futures):
                if future in pending:
                    obs.count("engine.group_timeouts")
                elif future is None or future.exception() is not None:
                    obs.count("engine.group_crashes")
                else:
                    group_results, spans, metrics = future.result()
                    obs.adopt_spans(spans)
                    obs.merge(metrics)
                    for identifier, result in group_results:
                        outcomes[(task[0], identifier)] = result
                    continue
                failed.append(task)
        except BaseException:
            self._teardown_pool(pool)
            raise
        if failed:
            # The pool may hold hung or dead workers (a broken pool
            # refuses further submissions anyway).
            self._teardown_pool(pool)
        else:
            pool.shutdown(wait=True)

        runs_by_impl = {run.implementation: run for run in runs}
        for implementation, props in failed:
            obs.count("engine.group_degradations")
            with obs.span("engine.fallback", implementation=implementation,
                          group=props[0].identifier):
                outcomes.update(_verify_in_process(
                    runs_by_impl[implementation], props))
        return outcomes

    @staticmethod
    def _teardown_pool(pool: ProcessPoolExecutor) -> None:
        """Shut a pool down hard, reclaiming hung or dead workers."""
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already dead is fine
                obs.count("engine.worker_terminate_failures")

    @staticmethod
    def _mp_context():
        """Prefer ``fork`` (cheap workers, no re-import) when available."""
        try:
            return multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return multiprocessing.get_context()
