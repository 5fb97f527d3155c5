"""Lockstep differential execution of fuzz schedules.

The oracle is the one the paper's whole pipeline is built on — "the
extracted FSM *is* the conformance claim" — applied differentially: the
same schedule runs against the target implementation and against the
compliant reference, on two identical, fully deterministic testbeds
(fixed MSIN, fixed crafted RAND, no chaos randomness).  After every step
both harnesses report the instrumented observation vector the extractor
itself logs (EMM state, security-context and GUTI flags, the downlink
COUNT window, and the uplink messages the step elicited).  The first
step where the vectors differ is a *deviation*: the target left the
behaviour its specification-compliant twin exhibits, with zero prior
knowledge of any seeded bug.

Coverage feedback is extracted-FSM transition coverage: the UE's air
handler is wrapped so every delivered downlink yields a
``(state_before, trigger, state_after, actions)`` key, directly
comparable with the target's extracted :class:`Transition` tuples.
Keys outside the extracted machine ("off-model") mark the frontier the
corpus scheduler chases, per CovFUZZ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..conformance.testcase import ConformanceError, TestContext
from ..fsm import NULL_ACTION, FiniteStateMachine
from ..lte import constants as c
from ..lte.channel import corrupt_frame
from ..lte.implementations import IMPLEMENTATION_NAMES, create_ue
from ..lte.messages import NasMessage, message_name
from ..lte.security import DIR_DOWNLINK
from .schedule import FuzzScheduleError, Step

#: A coverage key: (state_before, trigger, state_after, actions).
CoverageKey = Tuple[str, str, str, Tuple[str, ...]]

#: Observation-vector fields compared between target and reference.
OBSERVATION_FIELDS = ("state", "ctx", "guti", "dl_count", "uplink",
                      "skipped", "error")


def fsm_coverage_universe(fsm: FiniteStateMachine) -> Set[CoverageKey]:
    """The extracted machine's transitions as coverage keys."""
    return {(t.source, t.trigger, t.target, tuple(t.actions))
            for t in fsm.transitions}


class _Harness:
    """One implementation wired to a fresh deterministic testbed."""

    def __init__(self, implementation: str):
        if implementation not in IMPLEMENTATION_NAMES:
            raise FuzzScheduleError(
                f"unknown implementation {implementation!r}; "
                f"choose from {IMPLEMENTATION_NAMES}")
        self.implementation = implementation
        self.ctx = TestContext(
            lambda subscriber, link, clock=None: create_ue(
                implementation, subscriber, link, clock=clock))
        self.coverage: List[CoverageKey] = []
        #: per link history record: its frame's name if it went uplink
        self._uplink_name_at: List[Optional[str]] = []
        self._install_tracer()

    # ------------------------------------------------------------------
    def _install_tracer(self) -> None:
        """Wrap the UE air handler to record per-delivery coverage."""
        ue = self.ctx.ue
        link = self.ctx.link
        inner = ue.air_msg_handler

        def traced(frame: bytes) -> None:
            trigger = self._frame_name(frame)
            state_before = ue.emm_state
            mark = len(link.history)
            try:
                inner(frame)
            finally:
                actions = tuple(self._uplink_names(mark))
                self.coverage.append(
                    (state_before, trigger, ue.emm_state,
                     actions or (NULL_ACTION,)))

        link.attach_ue(traced)

    @staticmethod
    def _frame_name(frame: bytes) -> str:
        return message_name(frame) or "malformed"

    def _uplink_names(self, mark: int) -> List[str]:
        """Names of the uplink frames sent since history index ``mark``.

        Each record is named once, though a delivery's coverage key and
        its step's observation both ask for it.
        """
        named = self._uplink_name_at
        for record in self.ctx.link.history[len(named):]:
            named.append(self._frame_name(record.frame)
                         if record.direction == "uplink" else None)
        return [name for name in named[mark:] if name is not None]

    # ------------------------------------------------------------------
    def run_step(self, step: Step) -> Dict[str, object]:
        mark = len(self.ctx.link.history)
        skipped = False
        error = ""
        try:
            skipped = not self._dispatch(step)
        except ConformanceError:
            # A probe precondition is unmet (e.g. nothing to protect
            # with) — the step is a deterministic no-op, not a verdict.
            skipped = True
        except Exception as exc:  # noqa: BLE001 - implementation crash
            # The implementation (not the harness) blew up: that *is*
            # an observation, compared like any other field.
            error = type(exc).__name__
        ue = self.ctx.ue
        return {
            "state": ue.emm_state,
            "ctx": int(bool(ue.has_security_ctx)),
            "guti": int(ue.current_guti is not None),
            "dl_count": int(ue.dl_count),
            "uplink": self._uplink_names(mark),
            "skipped": skipped,
            "error": error,
        }

    def _dispatch(self, step: Step) -> bool:
        """Execute one step; False means it was skipped (no stimulus)."""
        op = step.get("op")
        if op == "attach":
            self.ctx.attach()
            return True
        if op == "mute":
            self.ctx.mute_mme()
            return True
        if op == "replay":
            return self.ctx.replay_downlink(str(step["name"]),
                                            int(step.get("index", -1)))
        if op == "auth":
            self.ctx.send_auth_request(int(step.get("seq", 1)),
                                       int(step.get("ind", 0)),
                                       bool(step.get("valid_mac", True)))
            return True
        if op == "craft":
            return self._craft(step)
        raise FuzzScheduleError(f"unknown fuzz step op {op!r}")

    # ------------------------------------------------------------------
    def _craft(self, step: Step) -> bool:
        fields = dict(step.get("fields") or {})
        for key, value in list(fields.items()):
            if value == "$imsi":
                fields[key] = str(self.ctx.subscriber.imsi)
            elif value == "$guti":
                fields[key] = str(self.ctx.ue.current_guti or "")
        mutations = list(step.get("mutations") or ())
        for mutation in mutations:
            self._apply_field_mutation(fields, mutation)
        message = NasMessage(name=str(step["name"]), fields=fields)
        if not self._protect(message, str(step.get("protection",
                                                   "plain"))):
            return False
        for mutation in mutations:
            self._apply_envelope_mutation(message, mutation)
        frame = message.to_wire()
        for mutation in mutations:
            frame = self._apply_wire_mutation(frame, mutation)
        self.ctx.link.inject_downlink(frame)
        return True

    def _protect(self, message: NasMessage, protection: str) -> bool:
        if protection == "plain":
            return True
        if protection == "protected":
            ctx_obj = self.ctx.mme.security_ctx
            if ctx_obj is None:
                return False
            _, tag, count = ctx_obj.protect(
                message.payload_bytes(), DIR_DOWNLINK, cipher=False)
            message.sec_header = c.SEC_HDR_INTEGRITY
            message.mac = tag
            message.count = count
            return True
        if protection == "bad_mac":
            message.sec_header = c.SEC_HDR_INTEGRITY
            message.mac = b"\xde\xad\xbe\xef" * 2
            message.count = 99
            return True
        raise FuzzScheduleError(f"unknown protection {protection!r}")

    @staticmethod
    def _apply_field_mutation(fields: Dict[str, object],
                              mutation: Dict[str, object]) -> None:
        kind = mutation.get("kind")
        if kind == "drop_field":
            fields.pop(str(mutation["field"]), None)
        elif kind == "dup_field":
            name = str(mutation["field"])
            if name in fields:
                fields[name + "_dup"] = fields[name]
        elif kind == "set_field":
            fields[str(mutation["field"])] = mutation.get("value")

    @staticmethod
    def _apply_envelope_mutation(message: NasMessage,
                                 mutation: Dict[str, object]) -> None:
        kind = mutation.get("kind")
        if kind == "sec_header":
            message.sec_header = int(mutation["value"])  # type: ignore
        elif kind == "count":
            message.count = int(mutation["value"])  # type: ignore

    @staticmethod
    def _apply_wire_mutation(frame: bytes,
                             mutation: Dict[str, object]) -> bytes:
        if mutation.get("kind") != "bitflip" or not frame:
            return frame
        position = int(mutation["position"]) % len(frame)  # type: ignore
        mask = int(mutation["mask"]) & 0xFF  # type: ignore
        return corrupt_frame(frame, position, mask or 1)


@dataclass
class ExecutionResult:
    """One lockstep run: per-step observation pairs and coverage."""

    schedule: List[Step]
    target: List[Dict[str, object]]
    reference: List[Dict[str, object]]
    coverage: FrozenSet[CoverageKey] = field(default_factory=frozenset)
    divergence_index: Optional[int] = None

    @property
    def diverged(self) -> bool:
        return self.divergence_index is not None

    def divergence_signature(self) -> Optional[Tuple]:
        """A stable identity for *what* differed (not where).

        Hashing the (observed, expected) pair — rather than the step
        index — keeps the signature invariant under the minimiser's
        step removals, which is what makes ddmin sound here.
        """
        if self.divergence_index is None:
            return None
        index = self.divergence_index
        observed, expected = self.target[index], self.reference[index]
        return (tuple((key, _freeze(observed[key]))
                      for key in OBSERVATION_FIELDS),
                tuple((key, _freeze(expected[key]))
                      for key in OBSERVATION_FIELDS))


def _freeze(value):
    return tuple(value) if isinstance(value, list) else value


def run_schedule(implementation: str, steps: Sequence[Step],
                 reference: str = "reference") -> ExecutionResult:
    """Execute one schedule in lockstep on target and reference."""
    target = _Harness(implementation)
    baseline = _Harness(reference)
    observed: List[Dict[str, object]] = []
    expected: List[Dict[str, object]] = []
    divergence: Optional[int] = None
    for index, step in enumerate(steps):
        observed.append(target.run_step(step))
        expected.append(baseline.run_step(step))
        if divergence is None and observed[-1] != expected[-1]:
            divergence = index
    return ExecutionResult(
        schedule=list(steps),
        target=observed,
        reference=expected,
        coverage=frozenset(target.coverage),
        divergence_index=divergence,
    )
