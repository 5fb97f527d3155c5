"""Noise-tolerant consensus FSM extraction over chaos-perturbed runs.

Algorithm 1 mines one FSM from one instrumented conformance run; on a
perfect link that run is deterministic, so one run is enough.  On a lossy
link the observation sequence is noisy, and automata learning is only
sound under non-deterministic observations with *repeated queries and
agreement checks* (the "Learn, Check, Test" lesson).  This module is that
machinery: run the instrumented suite N times under distinct chaos seeds,
extract one FSM per run, merge into a support-annotated machine, keep the
transitions a majority of runs agree on, and quarantine the rest.

The consensus invariant on the reference implementation at default rates
is strict: every transition is supported by every run (zero quarantined,
zero flaky) and the clean-run FSM is a *subgraph* of the consensus FSM —
impairments may add absorbed-retransmission evidence but never remove or
alter behaviour.  The :class:`StabilityReport` records how far a given
implementation/rate combination is from that ideal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..conformance import TestCase, full_suite, run_conformance
from ..fsm import FiniteStateMachine, Transition
from ..lte.channel import ChaosConfig
from ..lte.implementations import REGISTRY
from .extractor import extract_model
from .signatures import table_for_implementation

#: The channel impairment counters totalled into the stability report.
CHAOS_COUNTERS = (
    "channel.chaos.dropped", "channel.chaos.duplicated",
    "channel.chaos.reordered", "channel.chaos.corrupted",
    "channel.chaos.delayed",
)


class ConsensusError(Exception):
    """Raised on invalid consensus-extraction configuration."""


@dataclass(frozen=True)
class TransitionSupport:
    """How many (and which) runs observed one transition."""

    transition: Transition
    support: int
    runs: Tuple[int, ...]

    def to_dict(self) -> Dict:
        return {"transition": self.transition.describe(),
                "support": self.support, "runs": list(self.runs)}


@dataclass
class StabilityReport:
    """Run-to-run agreement evidence for one consensus extraction."""

    implementation: str
    runs: int
    seeds: Tuple[int, ...]
    threshold: int
    chaos: Dict
    run_fingerprints: Tuple[str, ...]
    consensus_fingerprint: str
    #: fraction of run pairs whose FSM fingerprints agree exactly
    fingerprint_agreement: float
    support: List[TransitionSupport] = field(default_factory=list)
    #: below-threshold transitions, excluded from the consensus machine
    quarantined: List[TransitionSupport] = field(default_factory=list)
    #: kept transitions that not every run observed
    flaky: List[TransitionSupport] = field(default_factory=list)
    #: summed ``channel.chaos.*`` counter activity across all runs
    impairments: Dict[str, int] = field(default_factory=dict)
    clean_fingerprint: Optional[str] = None
    clean_is_subgraph: Optional[bool] = None

    @property
    def stable(self) -> bool:
        """Nothing quarantined, and the clean FSM (when known) embeds."""
        return (not self.quarantined
                and self.clean_is_subgraph is not False)

    def to_dict(self) -> Dict:
        return {
            "implementation": self.implementation,
            "runs": self.runs,
            "seeds": list(self.seeds),
            "threshold": self.threshold,
            "chaos": self.chaos,
            "run_fingerprints": list(self.run_fingerprints),
            "consensus_fingerprint": self.consensus_fingerprint,
            "fingerprint_agreement": self.fingerprint_agreement,
            "support": [entry.to_dict() for entry in self.support],
            "quarantined": [entry.to_dict()
                            for entry in self.quarantined],
            "flaky": [entry.to_dict() for entry in self.flaky],
            "impairments": dict(self.impairments),
            "clean_fingerprint": self.clean_fingerprint,
            "clean_is_subgraph": self.clean_is_subgraph,
            "stable": self.stable,
        }


@dataclass
class ConsensusExtraction:
    """The consensus machine plus everything the pipeline needs from
    the underlying runs (run 0's log stands in for coverage metrics —
    every run executes the identical case list)."""

    fsm: FiniteStateMachine
    report: StabilityReport
    log_text: str
    log_lines: int
    extraction_seconds: float
    conformance_cases: int


def merge_with_support(fsms: Sequence[FiniteStateMachine]
                       ) -> Dict[Transition, Tuple[int, ...]]:
    """Union the machines' transitions, tracking which runs saw each."""
    votes: Dict[Transition, List[int]] = {}
    for index, fsm in enumerate(fsms):
        for transition in fsm.transitions:
            votes.setdefault(transition, []).append(index)
    return {transition: tuple(runs)
            for transition, runs in votes.items()}


def _agreement(fingerprints: Sequence[str]) -> float:
    """Fraction of run pairs with byte-equal FSM fingerprints."""
    total = len(fingerprints) * (len(fingerprints) - 1) // 2
    if total == 0:
        return 1.0
    agreeing = sum(
        1
        for i in range(len(fingerprints))
        for j in range(i + 1, len(fingerprints))
        if fingerprints[i] == fingerprints[j])
    return agreeing / total


def consensus_extract(implementation: str,
                      chaos: ChaosConfig,
                      runs: int,
                      cases: Optional[Sequence[TestCase]] = None,
                      threshold: Optional[int] = None,
                      clean_fsm: Optional[FiniteStateMachine] = None
                      ) -> ConsensusExtraction:
    """Run the suite ``runs`` times under seeds ``chaos.seed + i`` and
    merge the per-run FSMs into a majority-consensus machine.

    ``threshold`` is the minimum number of supporting runs a transition
    needs to enter the consensus machine (default: strict majority).
    ``clean_fsm``, when given, is the perfect-link baseline checked for
    subgraph containment.

    ``runs=1`` is the degenerate-but-well-defined base case: the
    consensus machine *is* the single run's machine, every transition
    has full support, fingerprint agreement is 1.0 (zero pairs) and the
    report is stable — so callers can treat ``chaos_runs`` as a plain
    knob from 1 upward.  ``runs < 1`` is a configuration error.
    """
    if implementation not in REGISTRY:
        raise ConsensusError(
            f"unknown implementation {implementation!r}; "
            f"available: {sorted(REGISTRY)}")
    if runs < 1:
        raise ConsensusError(
            f"consensus needs at least 1 run, got {runs}")
    if threshold is None:
        threshold = runs // 2 + 1
    if not 1 <= threshold <= runs:
        raise ConsensusError(
            f"threshold {threshold} outside [1, {runs}]")

    ue_class = REGISTRY[implementation]
    table = table_for_implementation(ue_class)
    suite = list(cases) if cases is not None else full_suite(implementation)
    name = f"{implementation}_ue"

    fsms: List[FiniteStateMachine] = []
    impairments = {counter: 0 for counter in CHAOS_COUNTERS}
    log_text = ""
    log_lines = 0
    extraction_seconds = 0.0
    conformance_cases = 0
    with obs.span("extraction.consensus",
                  implementation=implementation, runs=runs,
                  chaos=chaos.describe()):
        for index in range(runs):
            seeded = chaos.with_seed(chaos.seed + index)
            with obs.metrics_scope() as scope:
                outcome = run_conformance(implementation, suite,
                                          instrument=True, chaos=seeded)
            counters = scope.snapshot()["counters"]
            for counter in CHAOS_COUNTERS:
                impairments[counter] += int(counters.get(counter, 0))
            fsm, stats = extract_model(outcome.log_text, table, name=name)
            fsms.append(fsm)
            extraction_seconds += stats.elapsed_seconds
            if index == 0:
                log_text = outcome.log_text
                log_lines = stats.log_lines
                conformance_cases = outcome.executed

    votes = merge_with_support(fsms)
    consensus = FiniteStateMachine(name=name,
                                   initial_state=table.initial_state)
    support: List[TransitionSupport] = []
    quarantined: List[TransitionSupport] = []
    flaky: List[TransitionSupport] = []
    for transition in sorted(votes):
        entry = TransitionSupport(transition, len(votes[transition]),
                                  votes[transition])
        support.append(entry)
        if entry.support < threshold:
            quarantined.append(entry)
            continue
        consensus.add_transition(transition.source, transition.target,
                                 transition.conditions,
                                 transition.actions)
        if entry.support < runs:
            flaky.append(entry)
    obs.count("extraction.consensus.quarantined", len(quarantined))

    fingerprints = tuple(fsm.fingerprint() for fsm in fsms)
    report = StabilityReport(
        implementation=implementation,
        runs=runs,
        seeds=tuple(chaos.seed + index for index in range(runs)),
        threshold=threshold,
        chaos=chaos.to_dict(),
        run_fingerprints=fingerprints,
        consensus_fingerprint=consensus.fingerprint(),
        fingerprint_agreement=_agreement(fingerprints),
        support=support,
        quarantined=quarantined,
        flaky=flaky,
        impairments=impairments,
    )
    if clean_fsm is not None:
        report.clean_fingerprint = clean_fsm.fingerprint()
        report.clean_is_subgraph = set(clean_fsm.transitions) <= set(
            consensus.transitions)
    return ConsensusExtraction(
        fsm=consensus,
        report=report,
        log_text=log_text,
        log_lines=log_lines,
        extraction_seconds=extraction_seconds,
        conformance_cases=conformance_cases,
    )
