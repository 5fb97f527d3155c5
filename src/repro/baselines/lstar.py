"""Active automata learning (L*) baseline — the paper's rejected alternative.

Related work (Section VIII): "in a black-box setting active-learning has
been used to extract the FSM of a system. However, the extracted FSM does
not have a proper indication of states and in our white-box setup we have
a lot more information to utilize"; such approaches are "prohibitively
expensive as they require a significantly high time and number of
queries".

This module implements that alternative — Angluin-style L* adapted to
Mealy machines (the de Ruiter & Poll protocol-learning setting) — so the
claim is measurable: the learner interrogates a UE implementation through
a black-box test harness (reset + abstract input symbols, observing the
response message type) and infers a Mealy machine.  The comparison
benchmark contrasts its query cost and the semantic poverty of its output
(opaque state numbers, no data predicates) with ProChecker's extraction
from one instrumented conformance run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..lte import constants as c
from ..lte.channel import RadioLink
from ..lte.hss import Hss
from ..lte.identifiers import make_subscriber
from ..lte.implementations import REGISTRY
from ..lte.messages import NasMessage, message_name
from ..lte.security import DIR_DOWNLINK, SecurityContext
from ..lte.timers import SimClock

NO_OUTPUT = "-"


# ---------------------------------------------------------------------------
# The system under learning: a black-box UE behind a test harness
# ---------------------------------------------------------------------------
class LteUeSUL:
    """Black-box access to a UE implementation.

    The harness plays the network side like a protocol-learning mapper:
    it owns the session crypto (it mints authentication vectors and
    derives the NAS context when the UE completes authentication) so that
    abstract symbols such as ``smc_valid`` can be concretised — exactly
    the setup of the TLS/SSH learning papers the paper cites.
    """

    #: the abstract input alphabet
    ALPHABET = (
        "power_on",
        "identity_request",
        "auth_request_fresh",
        "auth_request_bad_mac",
        "smc_valid",
        "attach_accept_valid",
        "attach_reject",
        "paging_matching",
        "detach_request_protected",
    )

    def __init__(self, implementation: str = "reference"):
        self.ue_class = REGISTRY[implementation]
        self.resets = 0
        self.symbols_sent = 0
        self.reset()

    # -- SUL interface -----------------------------------------------------
    def reset(self) -> None:
        self.resets += 1
        self.clock = SimClock()
        self.link = RadioLink()
        self.subscriber = make_subscriber("000000001")
        self.hss = Hss()
        self.hss.provision(self.subscriber)
        self.ue = self.ue_class(self.subscriber, self.link,
                                clock=self.clock)
        self._context: Optional[SecurityContext] = None
        self._pending_vector = None
        self._mark = 0

    def step(self, symbol: str) -> str:
        """Apply one abstract input; return the UE's response type."""
        self.symbols_sent += 1
        self._mark = len(self.link.history)
        handler = getattr(self, "_input_" + symbol, None)
        if handler is None:
            raise ValueError(f"unknown input symbol {symbol!r}")
        handler()
        return self._response()

    def _response(self) -> str:
        responses = []
        for record in self.link.history[self._mark:]:
            if record.direction != "uplink":
                continue
            responses.append(message_name(record.frame) or "garbage")
        # The harness observes the UE's full reaction; multi-message
        # reactions concatenate (rare: only attach bursts).
        return "+".join(responses) if responses else NO_OUTPUT

    # -- concrete input mapping ---------------------------------------------
    def _send_plain(self, name: str, **fields) -> None:
        message = NasMessage(name=name, fields=fields)
        self.link.inject_downlink(message.to_wire())

    def _send_protected(self, name: str, **fields) -> None:
        message = NasMessage(name=name, fields=fields)
        if self._context is None:
            # no context: send with a garbage MAC, as a tester would
            message.sec_header = c.SEC_HDR_INTEGRITY
            message.mac = b"\x00" * 8
            message.count = 0
        else:
            body = message.payload_bytes()
            _, tag, count = self._context.protect(body, DIR_DOWNLINK,
                                                  cipher=False)
            message.sec_header = c.SEC_HDR_INTEGRITY
            message.mac = tag
            message.count = count
        self.link.inject_downlink(message.to_wire())

    def _input_power_on(self) -> None:
        self.ue.power_on()

    def _input_identity_request(self) -> None:
        self._send_plain(c.IDENTITY_REQUEST, identity_type="imsi")

    def _input_auth_request_fresh(self) -> None:
        vector = self.hss.get_auth_vector(str(self.subscriber.imsi))
        self._pending_vector = vector
        self._send_plain(c.AUTHENTICATION_REQUEST,
                         rand=vector.rand,
                         sqn_seq=vector.autn_sqn.seq,
                         sqn_ind=vector.autn_sqn.ind,
                         autn_mac=vector.autn_mac)
        if c.AUTHENTICATION_RESPONSE in self._response():
            # the UE answered: the session keys are now established on
            # the harness side too (the mapper's crypto state)
            self._context = SecurityContext(kasme=vector.kasme)

    def _input_auth_request_bad_mac(self) -> None:
        self._send_plain(c.AUTHENTICATION_REQUEST,
                         rand=b"\x01" * 16, sqn_seq=9, sqn_ind=9,
                         autn_mac=b"\x00" * 8)

    def _input_smc_valid(self) -> None:
        self._send_protected(c.SECURITY_MODE_COMMAND,
                             selected_eia="eia1", selected_eea="eea0")

    def _input_attach_accept_valid(self) -> None:
        self._send_protected(c.ATTACH_ACCEPT,
                             guti="00101-0001-01-0000c0de")

    def _input_attach_reject(self) -> None:
        self._send_plain(c.ATTACH_REJECT, cause=c.CAUSE_EPS_NOT_ALLOWED)

    def _input_paging_matching(self) -> None:
        paging_id = str(self.ue.current_guti or self.subscriber.imsi)
        self._send_plain(c.PAGING, paging_id=paging_id)

    def _input_detach_request_protected(self) -> None:
        self._send_protected(c.DETACH_REQUEST, reattach=0)


# ---------------------------------------------------------------------------
# Mealy-machine L*
# ---------------------------------------------------------------------------
@dataclass
class MealyMachine:
    """The learner's hypothesis: opaque numbered states."""

    initial: int
    transitions: Dict[Tuple[int, str], Tuple[int, str]]

    @property
    def states(self) -> List[int]:
        found = {self.initial}
        for (source, _symbol), (target, _out) in self.transitions.items():
            found.add(source)
            found.add(target)
        return sorted(found)

    def run(self, word: Sequence[str]) -> List[str]:
        state = self.initial
        outputs = []
        for symbol in word:
            state, output = self.transitions[(state, symbol)]
            outputs.append(output)
        return outputs


@dataclass
class LearningStats:
    membership_queries: int = 0
    equivalence_tests: int = 0
    resets: int = 0
    symbols: int = 0
    rounds: int = 0


class LStarLearner:
    """Angluin's L* for Mealy machines over a resettable SUL."""

    def __init__(self, sul: LteUeSUL,
                 alphabet: Optional[Sequence[str]] = None):
        self.sul = sul
        self.alphabet = tuple(alphabet or sul.ALPHABET)
        self.prefixes: List[Tuple[str, ...]] = [()]
        self.suffixes: List[Tuple[str, ...]] = [
            (symbol,) for symbol in self.alphabet]
        self.table: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]], str] = {}
        self.stats = LearningStats()

    # -- queries ------------------------------------------------------------
    def _output(self, word: Tuple[str, ...]) -> str:
        """The SUL's output for the *last* symbol of ``word``."""
        self.sul.reset()
        result = NO_OUTPUT
        for symbol in word:
            result = self.sul.step(symbol)
        self.stats.membership_queries += 1
        return result

    def _cell(self, prefix: Tuple[str, ...],
              suffix: Tuple[str, ...]) -> str:
        key = (prefix, suffix)
        if key not in self.table:
            self.table[key] = self._output(prefix + suffix)
        return self.table[key]

    def _row(self, prefix: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(self._cell(prefix, suffix)
                     for suffix in self.suffixes)

    # -- table maintenance ----------------------------------------------------
    def _close(self) -> bool:
        """Ensure every one-step extension's row has a representative."""
        rows = {self._row(prefix) for prefix in self.prefixes}
        for prefix in list(self.prefixes):
            for symbol in self.alphabet:
                extension = prefix + (symbol,)
                if self._row(extension) not in rows:
                    self.prefixes.append(extension)
                    return False
        return True

    def _hypothesis(self) -> MealyMachine:
        representatives: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        for prefix in self.prefixes:
            representatives.setdefault(self._row(prefix), prefix)
        state_ids = {row: index for index, row
                     in enumerate(representatives)}
        transitions: Dict[Tuple[int, str], Tuple[int, str]] = {}
        for row, prefix in representatives.items():
            source = state_ids[row]
            for symbol in self.alphabet:
                target_row = self._row(prefix + (symbol,))
                output = self._cell(prefix, (symbol,))
                transitions[(source, symbol)] = (state_ids[target_row],
                                                 output)
        initial = state_ids[self._row(())]
        return MealyMachine(initial, transitions)

    # -- equivalence oracle ----------------------------------------------------
    def _find_counterexample(self, hypothesis: MealyMachine,
                             depth: int = 4) -> Optional[Tuple[str, ...]]:
        """Bounded-exhaustive conformance testing up to ``depth``."""
        for length in range(1, depth + 1):
            for word in itertools.product(self.alphabet, repeat=length):
                self.stats.equivalence_tests += 1
                self.sul.reset()
                actual = [self.sul.step(symbol) for symbol in word]
                if hypothesis.run(word) != actual:
                    return tuple(word)
        return None

    def _handle_counterexample(self, word: Tuple[str, ...]) -> None:
        """Add all suffixes of the counterexample (classic L*M)."""
        for start in range(len(word)):
            suffix = word[start:]
            if suffix not in self.suffixes:
                self.suffixes.append(suffix)

    # -- main loop ---------------------------------------------------------------
    def learn(self, max_rounds: int = 10,
              equivalence_depth: int = 3) -> MealyMachine:
        for _ in range(max_rounds):
            self.stats.rounds += 1
            while not self._close():
                pass
            hypothesis = self._hypothesis()
            counterexample = self._find_counterexample(
                hypothesis, depth=equivalence_depth)
            if counterexample is None:
                break
            self._handle_counterexample(counterexample)
        self.stats.resets = self.sul.resets
        self.stats.symbols = self.sul.symbols_sent
        return self._hypothesis()


def learn_ue_model(implementation: str = "reference",
                   max_rounds: int = 10,
                   equivalence_depth: int = 3
                   ) -> Tuple[MealyMachine, LearningStats]:
    """Learn a UE's Mealy machine black-box; returns (model, cost)."""
    sul = LteUeSUL(implementation)
    learner = LStarLearner(sul)
    machine = learner.learn(max_rounds=max_rounds,
                            equivalence_depth=equivalence_depth)
    return machine, learner.stats
