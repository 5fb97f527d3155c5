"""The CEGAR verification loop: MC counterexamples validated by the CPV.

Section IV-B: the threat-instrumented model is checked by the symbolic
model checker; a counterexample's adversarial steps are handed to the
cryptographic protocol verifier; if some step is infeasible under the
Dolev-Yao assumptions, the abstraction is refined so "the adversary does
not exercise the offending action in the future iterations", and the
check reruns — until the property verifies or a realizable counterexample
is found.

The CPV bridge maps model-level adversary commands onto DY questions:

- ``adv_drop_* / adv_pass_*`` — always feasible (channel control);
- ``adv_replay_dl_<m>`` — feasible per the message's replay scope: plain
  messages always; ``authentication_request`` (AUTN under the permanent
  key) if *harvestable* — derivable by driving the core network with
  adversary-constructible messages, computed by searching the MME model
  (the P1 capture phase as a reachability query); session-protected
  messages only if the network genuinely sent them earlier in the trace;
- ``adv_inject_dl_<m>`` — feasible iff the injected term is synthesisable
  from adversary knowledge: plaintext always, a message claiming a valid
  MAC only if the MAC key is derivable (it is not), so forged-MAC
  injections are refuted and refined away;
- ``adv_inject_ul_<m>`` — feasible only for plaintext uplink messages.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .. import faults, obs
from ..cpv.deduction import Knowledge
from ..cpv.terms import Mac, Pair, Term, const, secret_key
from ..fsm import FiniteStateMachine, NULL_ACTION
from ..mc import (CheckRequest, CheckResult, McVerdictCache, ModelChecker,
                  Trace)
from ..lte import constants as c
from ..mc.model import Model
from ..threat import Refinement, ThreatConfig, ThreatInstrumentor

#: Uplink messages an adversary can fabricate from public data.
CONSTRUCTIBLE_UPLINK = frozenset({
    c.ATTACH_REQUEST, c.IDENTITY_RESPONSE, c.AUTH_SYNC_FAILURE,
    c.AUTH_MAC_FAILURE, c.DETACH_REQUEST, c.TAU_REQUEST,
})

_K_NAS = secret_key("k_nas_int")
_K_SUBSCRIBER = secret_key("k_subscriber")


def message_term(name: str, forged_mac: bool = False) -> Term:
    """The DY term an adversary must synthesise to inject ``name``.

    ``forged_mac=True`` models an injection claiming integrity validity:
    the term then contains a MAC under the (secret) session or permanent
    key, which the synthesis check will reject.
    """
    body = const(name)
    if not forged_mac:
        return body
    key = _K_SUBSCRIBER if name == c.AUTHENTICATION_REQUEST else _K_NAS
    return Pair(body, Mac(body, key))


def harvestable_messages(mme_fsm: FiniteStateMachine) -> Set[str]:
    """Messages the adversary can make the core network emit.

    Reachability over the MME model restricted to adversary-constructible
    stimuli — formalising the P1 capture phase: an ``attach_request``
    claiming any IMSI makes the network mint a genuine (MAC-valid)
    ``authentication_request``.
    """
    reachable = {mme_fsm.initial_state}
    harvested: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for transition in mme_fsm.transitions:
            if transition.source not in reachable:
                continue
            trigger = transition.trigger
            # Only stimuli the adversary can fabricate count: the message
            # *name* is public, but authenticated uplink messages (e.g.
            # authentication_response, which embeds RES under K) are not
            # synthesisable.
            if not trigger.startswith("internal_") \
                    and trigger not in CONSTRUCTIBLE_UPLINK:
                continue
            if transition.target not in reachable:
                reachable.add(transition.target)
                changed = True
            for action in transition.actions:
                if action != NULL_ACTION and action not in harvested:
                    harvested.add(action)
                    changed = True
    return harvested


@dataclass
class StepVerdict:
    """CPV feasibility verdict for one adversarial counterexample step."""

    label: str
    feasible: bool
    reason: str
    refinement: Optional[Refinement] = None


@dataclass
class CegarResult:
    """Outcome of the full CEGAR loop for one property."""

    property_name: str
    verified: bool
    attack: Optional[Trace] = None
    iterations: int = 0
    refinements: List[Refinement] = field(default_factory=list)
    step_verdicts: List[StepVerdict] = field(default_factory=list)
    states_explored: int = 0
    elapsed_seconds: float = 0.0
    mc_results: List[CheckResult] = field(default_factory=list)

    @property
    def is_attack(self) -> bool:
        return not self.verified and self.attack is not None


class CounterexampleValidator:
    """The CPV side of the loop: per-step feasibility (Section IV-B)."""

    def __init__(self, mme_fsm: FiniteStateMachine):
        with obs.span("cpv.harvest"):
            self.harvestable = harvestable_messages(mme_fsm)
        obs.count("cpv.validators_built")

    def validate(self, trace: Trace) -> List[StepVerdict]:
        verdicts: List[StepVerdict] = []
        honest_sent: Set[str] = set()
        knowledge = Knowledge({const(m) for m in CONSTRUCTIBLE_UPLINK})
        for step in trace.steps:
            label = step.label
            if label.startswith(("mme_t", "ue_t")):
                # Honest transmission: the adversary observes it.
                message = step.state.get("chan_dl") \
                    if label.startswith("mme_t") else \
                    step.state.get("chan_ul")
                if isinstance(message, str) and message != "none":
                    honest_sent.add(message)
                    knowledge.observe(const(message))
                continue
            if not label.startswith("adv_"):
                continue
            verdicts.append(self._judge(label, step.state, honest_sent,
                                        knowledge))
        return verdicts

    def _judge(self, label: str, state: Dict, honest_sent: Set[str],
               knowledge: Knowledge) -> StepVerdict:
        if label.startswith(("adv_pass", "adv_drop")):
            return StepVerdict(label, True, "channel control suffices")
        if label.startswith("adv_replay_dl_"):
            message = label[len("adv_replay_dl_"):]
            scope = c.REPLAY_SCOPE.get(message, "session")
            if scope == "plain":
                return StepVerdict(label, True,
                                   "plaintext message; replay trivial")
            if scope == "global":
                if message in self.harvestable or message in honest_sent:
                    return StepVerdict(
                        label, True,
                        "verifiable across sessions (AUTN under the "
                        "permanent key); harvestable via the capture "
                        "phase")
                return StepVerdict(
                    label, False, "message never obtainable",
                    Refinement("no_replay", message))
            if message in honest_sent:
                return StepVerdict(
                    label, True,
                    "captured in-session; MAC still verifies under the "
                    "current NAS context")
            return StepVerdict(
                label, False,
                "session-protected message never observed in this "
                "security context; replay requires a prior capture",
                Refinement("replay_needs_capture", message))
        if label.startswith("adv_inject_dl_"):
            message = label[len("adv_inject_dl_"):]
            claims_mac = state.get("dl_mac_valid") == 1 \
                and state.get("dl_plain") != 1
            term = message_term(message, forged_mac=claims_mac)
            if knowledge.can_construct(term):
                return StepVerdict(label, True,
                                   "term synthesisable from knowledge")
            return StepVerdict(
                label, False,
                "MAC key underivable: the forged message cannot be "
                "constructed",
                Refinement("no_forge", message))
        if label.startswith("adv_inject_ul_"):
            message = label[len("adv_inject_ul_"):]
            if message in CONSTRUCTIBLE_UPLINK:
                return StepVerdict(label, True,
                                   "plaintext uplink message constructible")
            return StepVerdict(
                label, False,
                "protected uplink message cannot be constructed",
                Refinement("no_inject_ul", message))
        return StepVerdict(label, True, "no adversarial content")


def threat_config_key(config: ThreatConfig) -> Tuple:
    """Hashable *canonical* identity of a threat configuration.

    Two properties whose adversaries have the same capabilities produce
    the same instrumented model, so the key doubles as the sharing key
    for :class:`CegarContext`'s model cache.  The capability tuples are
    sets semantically — a config listing ``(a, b)`` and one listing
    ``(b, a)`` instrument identically — so every component is sorted:
    field order never splits the cache (the catalog's 49 LTL properties
    must dedup to 21 shared configurations).
    """
    return (tuple(sorted(config.replay_dl)),
            tuple(sorted(config.inject_dl)),
            tuple(sorted(config.inject_ul)),
            config.allow_drop,
            tuple(sorted(config.internal_triggers)),
            tuple(sorted((r.kind, r.message)
                         for r in config.refinements)))


def threat_config_digest(config: ThreatConfig) -> str:
    """Stable digest of the canonical threat key (persistent-cache use).

    Refinements are part of the canonical key, so each CEGAR iteration
    of a refined configuration addresses its own verdict-cache entry —
    a warm re-run hits on *every* iteration, not just the first.
    """
    return hashlib.sha256(
        repr(threat_config_key(config)).encode()).hexdigest()


class CegarContext:
    """Property-invariant CEGAR inputs, shared across a verification run.

    Once the two machines are fixed, the harvestable-message set, the
    :class:`CounterexampleValidator` built on it, and the
    threat-instrumented model for a given :class:`ThreatConfig` are all
    pure functions of their inputs — recomputing them per property (62
    times per run) is wasted work.  Instances are thread-safe; for
    process pools each worker holds its own context.
    """

    def __init__(self, ue_fsm: FiniteStateMachine,
                 mme_fsm: FiniteStateMachine,
                 mc_cache_dir: Optional[str] = None):
        self.ue_fsm = ue_fsm
        self.mme_fsm = mme_fsm
        self._lock = threading.Lock()
        self._validator: Optional[CounterexampleValidator] = None
        self._models: Dict[Tuple, Model] = {}
        self.model_builds = 0
        self.model_hits = 0
        #: the run's one supported checking entry point; with a cache
        #: directory configured, verdicts persist across runs
        self.checker = ModelChecker(
            cache=(McVerdictCache(mc_cache_dir)
                   if mc_cache_dir else None))

    @property
    def validator(self) -> CounterexampleValidator:
        with self._lock:
            if self._validator is None:
                self._validator = CounterexampleValidator(self.mme_fsm)
            return self._validator

    def model_for(self, config: ThreatConfig) -> Model:
        """The instrumented model for ``config``, built at most once.

        The cached model keeps its warm state graph
        (:meth:`repro.mc.model.Model.graph`), so later properties with
        the same adversary skip the state-space re-exploration
        entirely.
        """
        key = threat_config_key(config)
        with self._lock:
            model = self._models.get(key)
            if model is None:
                self.model_builds += 1
                obs.count("cegar.model_cache_misses")
                model = ThreatInstrumentor(self.ue_fsm, self.mme_fsm,
                                           config).build("IMP_shared")
                self._models[key] = model
            else:
                self.model_hits += 1
                obs.count("cegar.model_cache_hits")
            return model


def check_with_cegar(
    ue_fsm: FiniteStateMachine,
    mme_fsm: FiniteStateMachine,
    formula_text: str,
    config: ThreatConfig,
    name: str = "property",
    max_iterations: int = 8,
    context: Optional[CegarContext] = None,
) -> CegarResult:
    """Run the full MC↔CPV loop for one LTL property.

    ``context`` shares the property-invariant inputs (validator, base
    models) across calls; verdicts are identical with or without it.
    """
    result = CegarResult(property_name=name, verified=False)
    with obs.span("cegar", property=name) as span:
        validator = context.validator if context is not None \
            else CounterexampleValidator(mme_fsm)
        checker = context.checker if context is not None \
            else ModelChecker()
        current_config = config

        while result.iterations < max_iterations:
            result.iterations += 1
            obs.inc("cegar.iterations")
            faults.trip("cegar.iteration", key=name)
            if context is not None:
                model = context.model_for(current_config)
            else:
                model = ThreatInstrumentor(ue_fsm, mme_fsm,
                                           current_config).build(name)
            mc_result = checker.check(model, CheckRequest(
                formula=formula_text, name=name,
                threat_digest=threat_config_digest(current_config)))
            result.mc_results.append(mc_result)
            result.states_explored = max(result.states_explored,
                                         mc_result.states_explored)
            if mc_result.holds:
                result.verified = True
                break
            with obs.span("cpv.validate", property=name):
                verdicts = validator.validate(mc_result.counterexample)
            obs.inc("cpv.step_verdicts", len(verdicts))
            result.step_verdicts = verdicts
            infeasible = [v for v in verdicts if not v.feasible]
            if not infeasible:
                # Every adversarial step is realizable: a genuine attack.
                result.attack = mc_result.counterexample
                break
            refinement = infeasible[0].refinement
            if refinement is None \
                    or refinement in current_config.refinements:
                # Cannot refine further; report the counterexample as-is
                # but flag it unvalidated.
                result.attack = mc_result.counterexample
                break
            result.refinements.append(refinement)
            obs.inc("cegar.refinements")
            current_config = current_config.refined(refinement)

    result.elapsed_seconds = span.duration
    return result
