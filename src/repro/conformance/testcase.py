"""Conformance test-case abstraction and execution context.

A test case is "a protocol level functional test case, testing a separate
protocol interaction" (Section VI).  Each case is a Python callable over a
:class:`TestContext`, which wires a fresh UE implementation to a real
MME/HSS over a radio link and offers the network-side probe operations the
3GPP test harness has: observing uplink traffic, injecting or replaying
downlink frames, crafting (in)correctly protected messages, and driving
the clock.

Negative cases (bad MAC, stale SQN, replay, plaintext injection) use the
same probe powers an in-lab tester — or an attacker — has; they both
exercise the implementation's failure handling for the extractor and act
as the paper's "additional test cases" for the open-source stacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .. import obs
from ..lte import constants as c
from ..lte.channel import ChaosConfig, RadioLink
from ..lte.hss import Hss
from ..lte.identifiers import Subscriber, make_subscriber
from ..lte.messages import NasMessage, message_name
from ..lte.mme import MmeNas
from ..lte.security import DIR_DOWNLINK
from ..lte.timers import SimClock


class ConformanceError(Exception):
    """Raised when a test case cannot run (harness error, not a verdict)."""


@dataclass
class TestCase:
    """Registry entry for one conformance test case."""

    identifier: str
    procedure: str
    description: str
    run: Callable[["TestContext"], None]
    #: which open-source implementation needed this case added (the paper
    #: added 9 to srsLTE and 7 to OAI beyond their stock suites)
    added_for: tuple = ()


class TestContext:
    """Everything one test-case execution needs."""

    #: Cap on retransmission-timer firings the chaos settle loop will
    #: drive per attach — far above the worst case (five supervised
    #: messages x five sends each) but finite, so a wedged procedure
    #: terminates the case instead of spinning.
    SETTLE_LIMIT = 64

    def __init__(self, ue_factory: Callable[..., object],
                 msin: str = "000000001",
                 chaos: Optional[ChaosConfig] = None,
                 chaos_stream: str = ""):
        self.clock = SimClock()
        self.link = RadioLink(chaos=chaos,
                              chaos_stream=chaos_stream or msin)
        self.subscriber: Subscriber = make_subscriber(msin)
        self.hss = Hss()
        self.hss.provision(self.subscriber)
        self.mme = MmeNas(self.hss, self.link, clock=self.clock)
        self.ue = ue_factory(self.subscriber, self.link, clock=self.clock)
        self.notes: List[str] = []

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    #: UE states in which the attach procedure is still in flight and a
    #: pending retransmission timer is the only way it can progress.
    _ATTACH_TRANSIENT_STATES = (
        c.EMM_REGISTERED_INITIATED,
        c.EMM_REGISTERED_INITIATED_AUTHENTICATED,
        c.EMM_REGISTERED_INITIATED_SECURE,
    )

    def attach(self) -> None:
        """Run the full attach procedure (Fig. 1, happy path).

        Under chaos, a dropped supervised message leaves the procedure
        waiting on a retransmission timer: fire pending expiries until
        the attach settles (the absorption loop).  On a perfect link
        (no chaos) the loop never runs — clean-run behaviour and logs
        are bit-for-bit unchanged.
        """
        self.ue.power_on()
        if self.link.chaos is not None:
            self._settle_attach()
        if self.ue.emm_state != c.EMM_REGISTERED:
            self.notes.append(
                f"attach ended in {self.ue.emm_state}")

    def _settle_attach(self) -> None:
        rounds = 0
        while (self.ue.emm_state in self._ATTACH_TRANSIENT_STATES
               and self.clock.pending()
               and rounds < self.SETTLE_LIMIT):
            self.clock.fire_next()
            rounds += 1

    def advance(self, seconds: float) -> int:
        return self.clock.advance(seconds)

    # ------------------------------------------------------------------
    # Observe
    # ------------------------------------------------------------------
    def uplink_messages(self) -> List[NasMessage]:
        return self.link.captured_messages("uplink")

    def downlink_messages(self) -> List[NasMessage]:
        return self.link.captured_messages("downlink")

    def last_uplink(self) -> Optional[NasMessage]:
        messages = self.uplink_messages()
        return messages[-1] if messages else None

    def uplink_names(self) -> List[str]:
        return [message.name for message in self.uplink_messages()]

    def captured_downlink_frame(self, name: str,
                                index: int = -1) -> Optional[bytes]:
        """The raw bytes of a previously transmitted downlink message."""
        matches = []
        for record in self.link.history:
            if record.direction != "downlink":
                continue
            frame_name = message_name(record.frame)
            if frame_name is None:
                obs.count("channel.malformed_frames")
            elif frame_name == name:
                matches.append(record.frame)
        if not matches:
            return None
        return matches[index]

    # ------------------------------------------------------------------
    # Probe (network-side powers)
    # ------------------------------------------------------------------
    def mute_mme(self) -> None:
        """Take over the network side: MME stops reacting to uplink."""
        self.link.detach_mme()

    def send_plain(self, name: str, fields: Optional[Dict] = None) -> None:
        """Inject a plaintext downlink message."""
        message = NasMessage(name=name, fields=dict(fields or {}))
        self.link.inject_downlink(message.to_wire())

    def send_protected(self, name: str, fields: Optional[Dict] = None,
                       new_ctx: bool = False) -> None:
        """Inject a message correctly protected with the session context."""
        if self.mme.security_ctx is None:
            raise ConformanceError("no session security context to protect "
                                   "with; run attach first")
        message = NasMessage(name=name, fields=dict(fields or {}))
        body = message.payload_bytes()
        _, tag, count = self.mme.security_ctx.protect(
            body, DIR_DOWNLINK, cipher=False)
        message.sec_header = (c.SEC_HDR_INTEGRITY_NEW_CTX if new_ctx
                              else c.SEC_HDR_INTEGRITY)
        message.mac = tag
        message.count = count
        self.link.inject_downlink(message.to_wire())

    def send_badly_protected(self, name: str,
                             fields: Optional[Dict] = None) -> None:
        """Inject a message with a garbage MAC (integrity-failure probe)."""
        message = NasMessage(name=name, fields=dict(fields or {}))
        message.sec_header = c.SEC_HDR_INTEGRITY
        message.mac = b"\xde\xad\xbe\xef\xde\xad\xbe\xef"
        message.count = 99
        self.link.inject_downlink(message.to_wire())

    def replay_downlink(self, name: str, index: int = -1) -> bool:
        """Replay a previously captured downlink frame byte-for-byte."""
        frame = self.captured_downlink_frame(name, index)
        if frame is None:
            return False
        self.link.inject_downlink(frame)
        return True

    def send_auth_request(self, seq: int, ind: int,
                          valid_mac: bool = True) -> None:
        """Craft an authentication_request with a chosen SQN."""
        from ..lte.security import f1_mac
        from ..lte.sqn import Sqn

        sqn = Sqn(seq, ind)
        rand = b"\x01" * 16
        mac = (f1_mac(self.subscriber.permanent_key, rand, sqn)
               if valid_mac else b"\x00" * 8)
        self.send_plain(c.AUTHENTICATION_REQUEST, {
            "rand": rand, "sqn_seq": seq, "sqn_ind": ind, "autn_mac": mac,
        })

    def note(self, text: str) -> None:
        self.notes.append(text)
