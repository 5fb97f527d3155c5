"""The radio link between UE and MME as two unidirectional channels.

Mirrors the paper's modelling choice: "we model each communication between
two FSMs ... with two unidirectional channels", each of which may be
adversary controlled.  An :class:`Interceptor` installed on a direction
sees every frame *as bytes* and may pass, drop, modify or substitute it —
the same capabilities the Dolev-Yao adversary has in the formal model, so
testbed attack scripts line up one-to-one with counterexample steps.

Beyond the adversary, the link can model an *imperfect medium*: a
:class:`ChaosConfig` installed on the link applies a seeded, deterministic
impairment schedule (drop / duplicate / reorder / byte-corrupt / delay)
inside :meth:`RadioLink._transmit`.  Impairments happen *on the wire*,
before interception — the adversary taps the cable, so it sees the frame
as the weather left it.  Every impairment is recorded as provenance on
the :class:`ChannelRecord` history, so two runs with the same seed
produce byte-identical histories (the determinism contract the consensus
extractor in :mod:`repro.extraction.consensus` builds on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Protocol, Tuple

from .. import faults, obs
from . import constants as c
from .messages import NasMessage, message_name

DIR_UPLINK = "uplink"      # UE -> MME
DIR_DOWNLINK = "downlink"  # MME -> UE

#: Impairment provenance tags recorded on :class:`ChannelRecord`.
IMPAIR_DROP = "drop"
IMPAIR_DUPLICATE = "duplicate"
IMPAIR_REORDER = "reorder"
IMPAIR_CORRUPT = "corrupt"
IMPAIR_DELAY = "delay"
IMPAIR_FAULT = "fault"      # targeted drop via the repro.faults site

#: ``repro.faults`` site tripped for every chaos-eligible transmission,
#: keyed ``"<direction>:<message name>"`` — a ``raise`` fault here forces
#: a targeted drop of exactly that message (``nth=0`` drops every copy).
FAULT_SITE_IMPAIR = "channel.impair"


class ChaosConfigError(ValueError):
    """Raised for malformed chaos specifications."""


def corrupt_frame(frame: bytes, position: int, mask: int) -> bytes:
    """XOR one byte of ``frame`` at ``position`` with ``mask``.

    The single-byte corruption primitive shared by the chaos schedule
    (position/mask drawn from the stream RNG) and the fuzzer's
    ``bitflip`` mutation (position/mask carried in the mutation record,
    so artifacts replay byte-for-byte).  Empty frames pass through.
    """
    if not frame:
        return frame
    return (frame[:position] + bytes([frame[position] ^ mask])
            + frame[position + 1:])


class Interceptor(Protocol):
    """In-path adversary hook for one channel direction."""

    def intercept(self, direction: str,
                  frame: bytes) -> Optional[bytes]:
        """Return the frame to deliver (possibly modified), or ``None`` to
        drop it silently."""


@dataclass
class ChannelRecord:
    """One frame observed on the link (the channel's pcap).

    ``frame`` is always the bytes the *sender* put on the air; a
    corrupted delivery keeps the original here and notes ``impairment``.
    """

    direction: str
    frame: bytes
    delivered: bool
    injected: bool = False
    #: Impairment provenance: one of the ``IMPAIR_*`` tags, or ``None``
    #: for an unimpaired transmission.
    impairment: Optional[str] = None


@dataclass(frozen=True)
class ImpairmentRates:
    """Per-direction impairment probabilities (each in ``[0, 1]``).

    The five rates partition a single uniform draw, so at most one
    impairment applies per frame and their sum must stay ``<= 1``.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        total = 0.0
        for name in ("drop", "duplicate", "reorder", "corrupt", "delay"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ChaosConfigError(
                    f"impairment rate {name}={value!r} outside [0, 1]")
            total += value
        if total > 1.0 + 1e-9:
            raise ChaosConfigError(
                f"impairment rates sum to {total:.3f} > 1")

    def any(self) -> bool:
        return (self.drop or self.duplicate or self.reorder
                or self.corrupt or self.delay) > 0.0


#: Parse keys accepted by :meth:`ChaosConfig.parse` -> rate field.
_RATE_KEYS = {"drop": "drop", "dup": "duplicate", "duplicate": "duplicate",
              "reorder": "reorder", "corrupt": "corrupt", "delay": "delay"}

#: Default drop rate for :meth:`ChaosConfig.default` — low enough that
#: three consecutive losses of the same supervised message (the only way
#: to outrun a retransmission timer) are vanishingly rare.
DEFAULT_DROP_RATE = 0.05


@dataclass(frozen=True)
class ChaosConfig:
    """A seeded, deterministic radio-link impairment schedule.

    ``messages`` scopes the impairments to a message-name whitelist;
    the default scope is :data:`repro.lte.constants
    .ATTACH_SUPERVISED_DOWNLINK` — the messages whose loss the TS 24.301
    retransmission discipline absorbs, which is what makes the headline
    guarantee (chaos run ≡ clean run at default rates) hold.  ``None``
    means every frame is eligible (``scope=all``), with no absorption
    guarantee.

    Determinism: each ``(seed, stream, direction)`` triple owns an
    independent :class:`random.Random`, and only chaos-eligible frames
    consume randomness — the schedule is a pure function of the eligible
    frame sequence, never of wall-clock time or interleaving.
    """

    uplink: ImpairmentRates = ImpairmentRates()
    downlink: ImpairmentRates = ImpairmentRates()
    seed: int = 0
    #: How many pump rounds a ``delay`` impairment holds a frame for.
    delay_rounds: int = 1
    messages: Optional[Tuple[str, ...]] = field(
        default=c.ATTACH_SUPERVISED_DOWNLINK)

    def __post_init__(self):
        if self.delay_rounds < 1:
            raise ChaosConfigError("delay_rounds must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def default(cls, seed: int = 0) -> "ChaosConfig":
        """The reference schedule: downlink drops at a sub-abort rate,
        scoped to the retransmission-supervised attach messages."""
        return cls(downlink=ImpairmentRates(drop=DEFAULT_DROP_RATE),
                   seed=seed)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "ChaosConfig":
        """Parse the CLI form ``key=rate[,key=rate...]``.

        Keys are ``drop/dup/reorder/corrupt/delay``, optionally prefixed
        ``ul.``/``dl.`` (unprefixed applies to both directions); plus
        ``scope=attach|all``, ``delay_rounds=K`` and ``seed=S`` (an
        in-text seed overrides the ``seed`` argument, so
        ``parse(config.describe())`` round-trips without threading the
        seed separately).  The literal text ``default`` yields
        :meth:`default`.  Example::

            drop=0.05,dup=0.02,dl.corrupt=0.01,scope=all
        """
        if text.strip() == "default":
            return cls.default(seed=seed)
        uplink: Dict[str, float] = {}
        downlink: Dict[str, float] = {}
        messages: Optional[Tuple[str, ...]] = c.ATTACH_SUPERVISED_DOWNLINK
        delay_rounds = 1
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ChaosConfigError(
                    f"bad chaos item {item!r}; expected key=value")
            key, _, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise ChaosConfigError(
                        f"bad chaos seed {value!r}") from None
                continue
            if key == "scope":
                if value == "all":
                    messages = None
                elif value == "attach":
                    messages = c.ATTACH_SUPERVISED_DOWNLINK
                else:
                    raise ChaosConfigError(
                        f"bad chaos scope {value!r}; one of attach, all")
                continue
            if key == "delay_rounds":
                try:
                    delay_rounds = int(value)
                except ValueError:
                    raise ChaosConfigError(
                        f"bad delay_rounds {value!r}") from None
                continue
            directions = (uplink, downlink)
            if key.startswith("ul."):
                key, directions = key[3:], (uplink,)
            elif key.startswith("dl."):
                key, directions = key[3:], (downlink,)
            rate_field = _RATE_KEYS.get(key)
            if rate_field is None:
                raise ChaosConfigError(
                    f"unknown chaos key {key!r}; one of "
                    f"{sorted(set(_RATE_KEYS))} (+ scope, delay_rounds)")
            try:
                rate = float(value)
            except ValueError:
                raise ChaosConfigError(
                    f"bad chaos rate {value!r} for {key!r}") from None
            for target in directions:
                target[rate_field] = rate
        return cls(uplink=ImpairmentRates(**uplink),
                   downlink=ImpairmentRates(**downlink),
                   seed=seed, delay_rounds=delay_rounds,
                   messages=messages)

    # ------------------------------------------------------------------
    def rates_for(self, direction: str) -> ImpairmentRates:
        return self.uplink if direction == DIR_UPLINK else self.downlink

    def with_seed(self, seed: int) -> "ChaosConfig":
        return replace(self, seed=seed)

    def describe(self) -> str:
        """The canonical spec text; :meth:`parse` inverts it exactly.

        ``parse(config.describe()) == config`` holds for every config
        whose scope is expressible in the spec grammar (``attach`` or
        ``all``); a custom message tuple renders as the informational
        ``scope=<n>msgs``, which parse rejects by design.  Rates use
        ``repr`` so float precision survives the round-trip.
        """
        parts = []
        for direction, rates in (("ul", self.uplink), ("dl", self.downlink)):
            for name in ("drop", "duplicate", "reorder", "corrupt",
                         "delay"):
                value = getattr(rates, name)
                if value:
                    parts.append(f"{direction}.{name}={value!r}")
        if self.delay_rounds != 1:
            parts.append(f"delay_rounds={self.delay_rounds}")
        parts.append(f"seed={self.seed}")
        if self.messages is None:
            parts.append("scope=all")
        elif tuple(self.messages) == c.ATTACH_SUPERVISED_DOWNLINK:
            parts.append("scope=attach")
        else:
            parts.append(f"scope={len(self.messages)}msgs")
        return ",".join(parts)

    def to_dict(self) -> Dict:
        return {
            "uplink": vars(self.uplink).copy(),
            "downlink": vars(self.downlink).copy(),
            "seed": self.seed,
            "delay_rounds": self.delay_rounds,
            "messages": (None if self.messages is None
                         else list(self.messages)),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ChaosConfig":
        messages = payload.get("messages", list(
            c.ATTACH_SUPERVISED_DOWNLINK))
        return cls(
            uplink=ImpairmentRates(**payload.get("uplink", {})),
            downlink=ImpairmentRates(**payload.get("downlink", {})),
            seed=payload.get("seed", 0),
            delay_rounds=payload.get("delay_rounds", 1),
            messages=None if messages is None else tuple(messages),
        )


class RadioLink:
    """Connects a UE and an MME; delivery is queued and in-order.

    Deliveries are *queued* and pumped after the sending handler returns
    (the event-driven architecture of Section II-D): a handler always runs
    to completion before the next message is dispatched, so instrumented
    logs nest correctly per stimulus.  The pump starts automatically on
    the first top-level send, so callers still see a synchronous API —
    ``ue.power_on()`` returns once the whole exchange has settled.

    If a handler raises, the pump clears every queued and held frame
    before re-raising: leftover frames must not deliver inside the *next*
    stimulus's block, where they would corrupt extraction log nesting.
    Abandoned frames are counted as ``channel.aborted_deliveries``.

    ``inject_uplink``/``inject_downlink`` (adversary-originated traffic)
    bypass both the interceptor and the chaos schedule: attack probes
    must land exactly as scripted.
    """

    def __init__(self, chaos: Optional[ChaosConfig] = None,
                 chaos_stream: str = ""):
        self._ue_handler: Optional[Callable[[bytes], None]] = None
        self._mme_handler: Optional[Callable[[bytes], None]] = None
        self.interceptor: Optional[Interceptor] = None
        self.history: List[ChannelRecord] = []
        self._queue: List = []
        self._pumping = False
        self.chaos: Optional[ChaosConfig] = None
        self._chaos_stream = ""
        self._chaos_rng: Dict[str, random.Random] = {}
        #: reorder holds: frames deferred behind the current stimulus.
        self._held: List[Tuple[str, bytes]] = []
        #: delay holds: ``[direction, frame, remaining pump rounds]``.
        self._delayed: List[List] = []
        if chaos is not None:
            self.configure_chaos(chaos, chaos_stream)

    # -- chaos -----------------------------------------------------------
    def configure_chaos(self, chaos: Optional[ChaosConfig],
                        stream: str = "") -> None:
        """Install (or clear) the impairment schedule.

        ``stream`` decorrelates links sharing one seed (the conformance
        runner passes the test-case identifier, so case ordering never
        changes a case's schedule).
        """
        self.chaos = chaos
        self._chaos_stream = stream
        self._chaos_rng = {}
        if chaos is not None:
            for direction in (DIR_UPLINK, DIR_DOWNLINK):
                self._chaos_rng[direction] = random.Random(
                    f"{chaos.seed}|{stream}|{direction}")

    @staticmethod
    def _frame_name(frame: bytes) -> Optional[str]:
        name = message_name(frame)
        if name is None:
            obs.count("channel.malformed_frames")
        return name

    def _chaos_action(self, direction: str,
                      frame: bytes) -> Optional[str]:
        """The impairment (if any) the schedule assigns this frame.

        Only eligible frames consume randomness, so the schedule is a
        deterministic function of the eligible-frame sequence.
        """
        config = self.chaos
        if config is None:
            return None
        rates = config.rates_for(direction)
        eligible = rates.any()
        if eligible and config.messages is not None:
            eligible = self._frame_name(frame) in config.messages
        if not eligible:
            return None
        draw = self._chaos_rng[direction].random()
        edge = 0.0
        for action, rate in ((IMPAIR_DROP, rates.drop),
                             (IMPAIR_DUPLICATE, rates.duplicate),
                             (IMPAIR_REORDER, rates.reorder),
                             (IMPAIR_CORRUPT, rates.corrupt),
                             (IMPAIR_DELAY, rates.delay)):
            edge += rate
            if draw < edge:
                return action
        return None

    def _corrupted(self, direction: str, frame: bytes) -> bytes:
        """Flip one byte, position and XOR mask drawn from the stream."""
        rng = self._chaos_rng[direction]
        position = rng.randrange(len(frame)) if frame else 0
        mask = rng.randrange(1, 256)
        return corrupt_frame(frame, position, mask)

    def _fault_dropped(self, direction: str, frame: bytes) -> bool:
        """``channel.impair`` fault site: a ``raise`` fault = forced drop."""
        if faults.installed() is None:
            return False
        try:
            faults.trip(FAULT_SITE_IMPAIR,
                        key=f"{direction}:{self._frame_name(frame)}")
        except faults.InjectedFault:
            obs.count("channel.chaos.dropped")
            self.history.append(ChannelRecord(
                direction, frame, delivered=False,
                impairment=IMPAIR_FAULT))
            return True
        return False

    # -- endpoint registration ------------------------------------------
    def attach_ue(self, handler: Callable[[bytes], None]) -> None:
        self._ue_handler = handler

    def attach_mme(self, handler: Callable[[bytes], None]) -> None:
        self._mme_handler = handler

    def detach_mme(self) -> Optional[Callable[[bytes], None]]:
        """Unplug the MME (test harness takes over the network side)."""
        handler, self._mme_handler = self._mme_handler, None
        return handler

    def detach_ue(self) -> Optional[Callable[[bytes], None]]:
        handler, self._ue_handler = self._ue_handler, None
        return handler

    # -- transmission ----------------------------------------------------
    def send_uplink(self, frame: bytes) -> bool:
        """UE -> MME. Returns whether the frame was delivered."""
        return self._transmit(DIR_UPLINK, frame, self._mme_handler)

    def send_downlink(self, frame: bytes) -> bool:
        """MME -> UE."""
        return self._transmit(DIR_DOWNLINK, frame, self._ue_handler)

    def _transmit(self, direction: str, frame: bytes,
                  handler: Optional[Callable[[bytes], None]]) -> bool:
        if self._fault_dropped(direction, frame):
            return False
        action = self._chaos_action(direction, frame)
        if action == IMPAIR_DROP:
            obs.count("channel.chaos.dropped")
            self.history.append(ChannelRecord(
                direction, frame, delivered=False, impairment=action))
            return False
        if action == IMPAIR_REORDER:
            # Deferred behind every delivery of the current stimulus:
            # released (in order held) when the pump drains.
            obs.count("channel.chaos.reordered")
            self._held.append((direction, frame))
            self._pump()
            return True
        if action == IMPAIR_DELAY:
            obs.count("channel.chaos.delayed")
            self._delayed.append(
                [direction, frame, self.chaos.delay_rounds])
            return True
        payload = frame
        if action == IMPAIR_CORRUPT:
            obs.count("channel.chaos.corrupted")
            payload = self._corrupted(direction, frame)
        # A duplicated frame's first copy is the genuine transmission;
        # only the extra copy carries the provenance tag.
        first = None if action == IMPAIR_DUPLICATE else action
        delivered = self._deliver(direction, frame, payload,
                                  impairment=first)
        if action == IMPAIR_DUPLICATE:
            obs.count("channel.chaos.duplicated")
            self._deliver(direction, frame, payload,
                          impairment=IMPAIR_DUPLICATE)
        return delivered

    def _deliver(self, direction: str, original: bytes, payload: bytes,
                 impairment: Optional[str] = None) -> bool:
        """Interception + history + queueing for one wire copy."""
        delivered_frame: Optional[bytes] = payload
        if self.interceptor is not None:
            delivered_frame = self.interceptor.intercept(direction,
                                                         payload)
        handler_present = (self._ue_handler if direction == DIR_DOWNLINK
                           else self._mme_handler) is not None
        delivered = delivered_frame is not None and handler_present
        self.history.append(ChannelRecord(direction, original,
                                          delivered=delivered,
                                          impairment=impairment))
        if not delivered:
            return False
        self._enqueue(direction, delivered_frame)
        return True

    def _enqueue(self, direction: str, frame: bytes) -> None:
        self._queue.append((direction, frame))
        self._pump()

    def _release_held(self) -> bool:
        """Deliver reorder-held frames; True if anything was enqueued."""
        held, self._held = self._held, []
        progressed = False
        for direction, frame in held:
            if self._deliver(direction, frame, frame,
                             impairment=IMPAIR_REORDER):
                progressed = True
        return progressed

    def _age_delayed(self) -> bool:
        """One pump round passed: age delay holds, deliver the due ones."""
        if not self._delayed:
            return False
        due, remaining = [], []
        for entry in self._delayed:
            entry[2] -= 1
            (due if entry[2] <= 0 else remaining).append(entry)
        self._delayed = remaining
        progressed = False
        for direction, frame, _ in due:
            if self._deliver(direction, frame, frame,
                             impairment=IMPAIR_DELAY):
                progressed = True
        return progressed

    def _pump(self) -> None:
        """Drain the delivery queue unless a delivery is already running."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while True:
                while self._queue:
                    direction, frame = self._queue.pop(0)
                    handler = (self._ue_handler
                               if direction == DIR_DOWNLINK
                               else self._mme_handler)
                    if handler is not None:
                        handler(frame)
                if self._release_held():
                    continue
                if self._age_delayed():
                    continue
                break
        except BaseException:
            abandoned = (len(self._queue) + len(self._held)
                         + len(self._delayed))
            if abandoned:
                obs.count("channel.aborted_deliveries", abandoned)
            self._queue.clear()
            self._held.clear()
            self._delayed.clear()
            raise
        finally:
            self._pumping = False

    # -- adversary-originated traffic ------------------------------------
    def inject_downlink(self, frame: bytes) -> bool:
        """Deliver an adversary-crafted frame to the UE (no interception,
        no chaos — probes land exactly as scripted)."""
        self.history.append(ChannelRecord(DIR_DOWNLINK, frame,
                                          delivered=True, injected=True))
        if self._ue_handler is None:
            return False
        self._enqueue(DIR_DOWNLINK, frame)
        return True

    def inject_uplink(self, frame: bytes) -> bool:
        """Deliver an adversary-crafted frame to the MME."""
        self.history.append(ChannelRecord(DIR_UPLINK, frame,
                                          delivered=True, injected=True))
        if self._mme_handler is None:
            return False
        self._enqueue(DIR_UPLINK, frame)
        return True

    # -- observation -------------------------------------------------------
    def captured(self, direction: Optional[str] = None) -> List[bytes]:
        """All frames that crossed the link (sniffing is always possible)."""
        return [record.frame for record in self.history
                if direction is None or record.direction == direction]

    def captured_messages(self, direction: Optional[str] = None
                          ) -> List[NasMessage]:
        frames = self.captured(direction)
        messages = []
        for frame in frames:
            try:
                messages.append(NasMessage.from_wire(frame))
            except Exception:  # noqa: BLE001 - malformed frames are skipped
                obs.count("channel.malformed_frames")
                continue
        return messages
