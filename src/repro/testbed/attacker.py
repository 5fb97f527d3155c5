"""The in-path attacker toolkit for the testbed.

Implements the Dolev-Yao capabilities on real frames: sniffing (every
frame that crossed any link is in the link history), selective dropping
(a MITM relay with a drop filter — the P3 tool), replaying captured
frames byte-for-byte (the P1/P2/I-series tool), and crafting plaintext
messages (the injection attacks).  Response observation helpers build the
CPV :class:`~repro.cpv.equivalence.Frame` objects the linkability
experiments compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..cpv.equivalence import Frame
from ..cpv.terms import Atom, KIND_DATA, Term, const, pair
# Imported as ``frame_name``: several methods take a ``message_name``.
from ..lte.messages import NasMessage, message_name as frame_name
from .simulator import Testbed


@dataclass
class DropFilter:
    """Selective packet dropping by message name (the P3 MITM relay).

    "The attacker, by inferring the message type (from the packet
    meta-data ...), can selectively drop relevant packets until the
    security procedure is abandoned" — here the filter inspects the
    parsed name, a strict superset of what packet-length inference gives.
    """

    drop_names: Tuple[str, ...]
    direction: str = "downlink"
    dropped: List[str] = field(default_factory=list)
    #: the withheld frames, byte-for-byte — the attacker's capture buffer
    dropped_frames: List[bytes] = field(default_factory=list)

    def intercept(self, direction: str, frame: bytes) -> Optional[bytes]:
        if direction != self.direction:
            return frame
        name = frame_name(frame)
        if name is None:  # pass unparseable frames through
            obs.count("channel.malformed_frames")
            return frame
        if name in self.drop_names:
            self.dropped.append(name)
            self.dropped_frames.append(frame)
            return None
        return frame


class Attacker:
    """Adversary controlling the radio environment of a testbed."""

    def __init__(self, testbed: Testbed):
        self.testbed = testbed
        self.captured: List[Tuple[str, str, bytes]] = []

    # -- sniffing ---------------------------------------------------------
    def sniff(self) -> None:
        """Record every frame currently in any link's history."""
        self.captured = []
        for name, station in self.testbed.stations.items():
            for record in station.link.history:
                self.captured.append((name, record.direction, record.frame))

    def captured_frame(self, message_name: str, direction: str = "downlink",
                       index: int = -1) -> Optional[bytes]:
        self.sniff()
        matches = []
        for _station, frame_direction, frame in self.captured:
            if frame_direction != direction:
                continue
            name = frame_name(frame)
            if name is None:  # skip unparseable captures
                obs.count("channel.malformed_frames")
            elif name == message_name:
                matches.append(frame)
        if not matches:
            return None
        return matches[index]

    # -- channel control --------------------------------------------------
    def install_drop_filter(self, station_name: str,
                            drop_names: Sequence[str],
                            direction: str = "downlink") -> DropFilter:
        drop_filter = DropFilter(tuple(drop_names), direction)
        self.testbed.station(station_name).link.interceptor = drop_filter
        return drop_filter

    def cut_network(self, station_name: str) -> None:
        """Detach the MME so the UE only hears the attacker."""
        self.testbed.station(station_name).link.detach_mme()

    # -- injection / replay -------------------------------------------------
    def replay_to_ue(self, station_name: str, frame: bytes) -> None:
        self.testbed.station(station_name).link.inject_downlink(frame)

    def replay_to_all_ues(self, frame: bytes) -> None:
        """The P2 step: a rogue base station replays to every UE in cell."""
        for station in self.testbed.stations.values():
            station.link.inject_downlink(frame)

    def inject_plain_to_ue(self, station_name: str, message_name: str,
                           fields: Optional[Dict] = None) -> None:
        message = NasMessage(name=message_name, fields=dict(fields or {}))
        self.replay_to_ue(station_name, message.to_wire())

    def inject_plain_to_mme(self, station_name: str, message_name: str,
                            fields: Optional[Dict] = None) -> None:
        message = NasMessage(name=message_name, fields=dict(fields or {}))
        self.testbed.station(station_name).link.inject_uplink(
            message.to_wire())

    # -- observation --------------------------------------------------------
    def response_frame(self, station_name: str,
                       since_index: int) -> Frame:
        """The UE's uplink responses after ``since_index`` as a CPV frame."""
        station = self.testbed.station(station_name)
        frame = Frame()
        for record in station.link.history[since_index:]:
            if record.direction != "uplink":
                continue
            try:
                message = NasMessage.from_wire(record.frame)
            except Exception:  # noqa: BLE001 - still an observation
                obs.count("channel.malformed_frames")
                frame.observe("unparseable", const("garbage"))
                continue
            frame.observe(message.name, _message_term(message))
        return frame

    def mark(self, station_name: str) -> int:
        """Current history position (pair with :meth:`response_frame`)."""
        return len(self.testbed.station(station_name).link.history)


def _message_term(message: NasMessage) -> Term:
    """A DY term view of an observed message (fields become atoms)."""
    parts: List[Term] = [const(message.name)]
    for key in sorted(message.fields):
        value = message.fields[key]
        rendered = value.hex() if isinstance(value, bytes) else str(value)
        parts.append(Atom(f"{key}:{rendered}", KIND_DATA, public=False))
    return pair(*parts)
