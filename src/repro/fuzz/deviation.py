"""Deviation artifacts: minimised, replayable, content-addressed.

A deviation is a schedule that drives the target implementation off the
behaviour of its specification-compliant twin.  Before it is filed, the
raw schedule goes through greedy delta debugging (:func:`minimize`):
drop whole steps, then individual mutations and template fields, as
long as the divergence *signature* — the (observed, expected)
observation pair, not its position — survives.  The result is the
smallest stimulus program this reduction finds, stable under re-runs.

The artifact digest is a sha256 over the canonical JSON of everything
that determines the deviation (implementations, minimised schedule,
observed/expected vectors), so identical campaigns file byte-identical
artifacts, the same content-address discipline
:func:`repro.store.job_digest` uses for analysis reports.

:func:`classify` maps a deviation onto the paper's Table I issue ids
*post hoc* — it is labelling for reports and CI assertions; discovery
itself never consults it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import schema
from ..lte import constants as c
from .executor import (OBSERVATION_FIELDS, ExecutionResult, _freeze,
                       run_schedule)
from .schedule import Step, canonical_json, clone_schedule


@dataclass
class Deviation:
    """One confirmed divergence between target and reference."""

    implementation: str
    reference: str
    #: the minimised schedule (replayable via ``repro fuzz --replay``)
    schedule: List[Step]
    #: index of the first diverging step in the minimised schedule
    step_index: int
    #: target / reference observation vectors at the diverging step
    observed: Dict[str, object]
    expected: Dict[str, object]
    #: Table I issue id (``"I1"``..``"I6"``) or "" for a novel deviation
    classification: str = ""
    #: campaign exec counter when the raw input was found
    found_at_exec: int = 0
    #: schedule length before minimisation (reduction evidence)
    raw_steps: int = 0
    minimize_execs: int = 0

    @property
    def digest(self) -> str:
        """Content address over everything that defines the deviation."""
        identity = {
            "implementation": self.implementation,
            "reference": self.reference,
            "schedule": self.schedule,
            "step_index": self.step_index,
            "observed": self.observed,
            "expected": self.expected,
        }
        return hashlib.sha256(
            canonical_json(identity).encode()).hexdigest()

    def signature(self) -> Tuple:
        """The (observed, expected) signature, in the executor's frozen
        form — replays compare against exactly this."""
        return (tuple((key, _freeze(self.observed[key]))
                      for key in OBSERVATION_FIELDS),
                tuple((key, _freeze(self.expected[key]))
                      for key in OBSERVATION_FIELDS))

    def to_dict(self) -> Dict[str, object]:
        return schema.stamp({
            "digest": self.digest,
            "implementation": self.implementation,
            "reference": self.reference,
            "schedule": clone_schedule(self.schedule),
            "step_index": self.step_index,
            "observed": dict(self.observed),
            "expected": dict(self.expected),
            "classification": self.classification,
            "found_at_exec": self.found_at_exec,
            "raw_steps": self.raw_steps,
            "minimize_execs": self.minimize_execs,
        })

    @classmethod
    def from_dict(cls, payload: Dict) -> "Deviation":
        schema.check(payload, kind="deviation")
        return cls(
            implementation=str(payload["implementation"]),
            reference=str(payload.get("reference", "reference")),
            schedule=clone_schedule(payload["schedule"]),
            step_index=int(payload["step_index"]),
            observed=dict(payload["observed"]),
            expected=dict(payload["expected"]),
            classification=str(payload.get("classification", "")),
            found_at_exec=int(payload.get("found_at_exec", 0)),
            raw_steps=int(payload.get("raw_steps", 0)),
            minimize_execs=int(payload.get("minimize_execs", 0)),
        )


# ---------------------------------------------------------------------------
# Minimisation (greedy ddmin over steps, then mutations, then fields)
# ---------------------------------------------------------------------------
Runner = Callable[[Sequence[Step]], ExecutionResult]


def minimize(steps: Sequence[Step], signature: Tuple,
             runner: Runner) -> Tuple[List[Step], int]:
    """Shrink a diverging schedule while its signature is preserved.

    Returns ``(minimised steps, executions spent)``.  Greedy single
    removals to a fixpoint — quadratic worst case, but schedules are
    capped at a handful of steps so the bound is tens of executions.
    """
    current = clone_schedule(steps)
    execs = 0

    def survives(candidate: Sequence[Step]) -> bool:
        nonlocal execs
        execs += 1
        result = runner(candidate)
        return (result.diverged
                and result.divergence_signature() == signature)

    changed = True
    while changed:
        changed = False
        for index in range(len(current) - 1, -1, -1):
            if len(current) == 1:
                break
            candidate = current[:index] + current[index + 1:]
            if survives(candidate):
                current = candidate
                changed = True
    for index, step in enumerate(current):
        for list_key in ("mutations",):
            entries = list(step.get(list_key) or ())
            for entry in list(entries):
                trimmed = [e for e in entries if e is not entry]
                candidate = clone_schedule(current)
                candidate[index][list_key] = clone_schedule(trimmed)
                if survives(candidate):
                    current = candidate
                    entries = trimmed
        fields = dict(current[index].get("fields") or {})
        for name in sorted(fields):
            candidate = clone_schedule(current)
            remaining = dict(candidate[index].get("fields") or {})
            remaining.pop(name, None)
            candidate[index]["fields"] = remaining
            if survives(candidate):
                current = candidate
    return current, execs


def build_deviation(implementation: str, reference: str,
                    raw_steps: Sequence[Step], signature: Tuple,
                    found_at_exec: int,
                    runner: Optional[Runner] = None) -> Optional[Deviation]:
    """Minimise a diverging schedule and file it as an artifact.

    Returns ``None`` if the divergence does not reproduce (it always
    should — executions are deterministic — but a non-reproducing input
    must never be filed as evidence).
    """
    runner = runner or (lambda steps: run_schedule(
        implementation, steps, reference=reference))
    minimised, execs = minimize(raw_steps, signature, runner)
    final = runner(minimised)
    execs += 1
    if not final.diverged or final.divergence_signature() != signature:
        return None
    index = final.divergence_index
    assert index is not None
    deviation = Deviation(
        implementation=implementation,
        reference=reference,
        schedule=minimised,
        step_index=index,
        observed=dict(final.target[index]),
        expected=dict(final.reference[index]),
        found_at_exec=found_at_exec,
        raw_steps=len(raw_steps),
        minimize_execs=execs,
    )
    deviation.classification = classify(deviation) or ""
    return deviation


# ---------------------------------------------------------------------------
# Post-hoc Table I labelling
# ---------------------------------------------------------------------------
def classify(deviation: Deviation) -> Optional[str]:
    """Map a deviation onto a Table I issue id, or ``None`` if novel.

    Pure pattern matching on the *evidence* (which stimulus, which
    responses) — the fuzzer never reads this during discovery, so a
    re-found Table I bug really was re-discovered, not replayed.
    """
    step = deviation.schedule[deviation.step_index]
    op = step.get("op")
    name = str(step.get("name", ""))
    observed_uplink = tuple(deviation.observed.get("uplink") or ())
    expected_uplink = tuple(deviation.expected.get("uplink") or ())
    responded = [up for up in observed_uplink if up not in expected_uplink]

    if op == "replay":
        if name == c.AUTHENTICATION_REQUEST:
            # Divergent handling of a replayed AKA challenge is the
            # SQN-acceptance family, whatever the responses were.
            return "I3"
        if (name == c.SECURITY_MODE_COMMAND
                and c.SECURITY_MODE_COMPLETE in responded):
            return "I6"
        if name in c.PROTECTED_DOWNLINK:
            return "I1"
        return None
    if op == "auth" and c.AUTHENTICATION_RESPONSE in responded:
        return "I3"
    if op == "craft":
        mutations = list(step.get("mutations") or ())
        downgraded = any(m.get("kind") == "sec_header"
                         and m.get("value") == c.SEC_HDR_PLAIN
                         for m in mutations)
        plain = step.get("protection", "plain") == "plain" or downgraded
        if name == c.IDENTITY_REQUEST \
                and c.IDENTITY_RESPONSE in responded:
            # Answering an identity probe the reference ignores leaks
            # the IMSI on demand, whatever the probe's protection was.
            return "I5"
        if plain and name in c.PROTECTED_DOWNLINK:
            return "I2"
        return None
    if op == "attach":
        if (c.AUTHENTICATION_RESPONSE in expected_uplink
                and c.AUTHENTICATION_RESPONSE not in observed_uplink):
            return "I4"
    return None
