"""Observational distinguishability for linkability/privacy queries.

The paper uses "ProVerif's capability to reason about observational
equivalence" to find the P2 linkability attack: *can the adversary
distinguish two UEs based on their responses to a (replayed)
authentication_request?*  We model each world as a :class:`Frame` — the
ordered, labelled observations the adversary collects on the channel — and
decide distinguishability with a sound fragment of static equivalence:

1. **Label oracle** — differing response-type sequences (e.g. one UE
   answers ``authentication_response`` while the other answers
   ``auth_mac_failure``) are directly observable; this is exactly the
   distinction P2/I6 and the prior 3G linkability attack exploit.
2. **Equality tests** — for every pair of frame positions the adversary
   compares the terms for syntactic equality (a recipe test ``w_i = w_j``);
   a pair equal in one world but not the other distinguishes (this catches
   GUTI/TMSI-reuse linkability).
3. **Derivability tests** — a term derivable from one frame's knowledge
   but not the other's distinguishes (e.g. a plaintext IMSI in one world).

The fragment is sound (every "distinguishable" verdict is a real test) and
complete for the attack classes in the paper's Table I, all of which hinge
on message-type or value-reuse observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from .deduction import Knowledge
from .terms import Term


@dataclass
class Frame:
    """The adversary's observations in one experiment world."""

    observations: List[Tuple[str, Term]] = field(default_factory=list)

    def observe(self, label: str, term: Term) -> None:
        self.observations.append((label, term))

    @property
    def labels(self) -> List[str]:
        return [label for label, _ in self.observations]

    @property
    def terms(self) -> List[Term]:
        return [term for _, term in self.observations]

    def knowledge(self, initial: Sequence[Term] = ()) -> Knowledge:
        knowledge = Knowledge(set(initial))
        knowledge.observe_all(self.terms)
        return knowledge

    def __len__(self) -> int:
        return len(self.observations)


@dataclass
class DistinguishabilityResult:
    """Verdict with the concrete distinguishing test, for attack reports."""

    distinguishable: bool
    test: str = ""

    def __bool__(self) -> bool:
        return self.distinguishable


def distinguishable(
    first: Frame,
    second: Frame,
    probe_terms: Sequence[Term] = (),
    initial_knowledge: Sequence[Term] = (),
) -> DistinguishabilityResult:
    """Can a Dolev-Yao adversary tell the two worlds apart?

    ``probe_terms`` are extra candidate terms for derivability tests
    (e.g. a victim's IMSI) beyond the frames' own contents.
    """
    # Test 1: response-type (label) sequences.
    if first.labels != second.labels:
        for index, (a, b) in enumerate(zip(first.labels, second.labels)):
            if a != b:
                return DistinguishabilityResult(
                    True, f"position {index}: {a!r} vs {b!r}")
        return DistinguishabilityResult(
            True, f"lengths differ: {len(first)} vs {len(second)}")

    # Test 2: pairwise equality of observed terms.
    for i in range(len(first)):
        for j in range(i + 1, len(first)):
            eq_first = first.terms[i] == first.terms[j]
            eq_second = second.terms[i] == second.terms[j]
            if eq_first != eq_second:
                world = "first" if eq_first else "second"
                return DistinguishabilityResult(
                    True,
                    f"test w{i} = w{j} holds only in {world} world")

    # Test 3: derivability of probe terms.  Only explicitly supplied
    # probes are tested: a DY adversary can only pose tests over terms it
    # can itself name (recipes over public data and prior knowledge), not
    # over the other world's secrets.
    knowledge_first = first.knowledge(initial_knowledge)
    knowledge_second = second.knowledge(initial_knowledge)
    for term in probe_terms:
        in_first = knowledge_first.can_construct(term)
        in_second = knowledge_second.can_construct(term)
        if in_first != in_second:
            world = "first" if in_first else "second"
            return DistinguishabilityResult(
                True, f"term {term} derivable only in {world} world")

    return DistinguishabilityResult(False, "no distinguishing test found")
