"""MME-side NAS layer implementation.

The network endpoint for one UE link: runs the attach/authentication/SMC
sequence, allocates GUTIs, and drives the network-initiated common
procedures (GUTI reallocation, paging, network detach) with the TS 24.301
retransmission discipline — T3450 is retransmitted four times and "on the
fifth expiry ... the network shall abort the reallocation procedure",
which is exactly the budget the P3 selective-denial attack spends.

The paper did not have core-network source access and used a hand-built
MME model for verification; this implementation exists for the *testbed*
(end-to-end attack validation) and to show the extraction pipeline also
works on the network side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from . import constants as c
from .channel import RadioLink
from .hss import Hss, HssError
from .identifiers import Guti, GutiAllocator, Imsi, redact
from .messages import MessageError, NasMessage
from .security import (AuthVector, DIR_DOWNLINK, DIR_UPLINK,
                       SecurityContext)
from .sqn import DEFAULT_SEQ_BITS
from .timers import SimClock


@dataclass
class MmeEvent:
    kind: str
    detail: str = ""


class MmeNas:
    """MME NAS endpoint serving a single UE over ``link``."""

    RECV_PREFIX = "recv_"
    SEND_PREFIX = "send_"

    STATE_VARIABLES = ("emm_state", "has_security_ctx", "t3450_retx",
                       "t3460_retx")

    def __init__(self, hss: Hss, link: RadioLink,
                 clock: Optional[SimClock] = None,
                 allocator: Optional[GutiAllocator] = None,
                 t3450_duration: float = 6.0,
                 t3460_duration: float = 6.0,
                 t3470_duration: float = 6.0):
        self.hss = hss
        self.link = link
        self.clock = clock or SimClock()
        self.allocator = allocator or GutiAllocator()
        self.t3450_duration = t3450_duration
        self.t3460_duration = t3460_duration
        self.t3470_duration = t3470_duration

        self.emm_state = c.MME_DEREGISTERED
        self.has_security_ctx = 0
        self.t3450_retx = 0
        self.t3460_retx = 0
        self.t3470_retx = 0
        self.t3555_retx = 0

        self.session_imsi: Optional[str] = None
        self.security_ctx: Optional[SecurityContext] = None
        self.pending_vector: Optional[AuthVector] = None
        self.current_guti: Optional[Guti] = None
        self.known_gutis: Dict[str, str] = {}
        self.events: List[MmeEvent] = []
        self._pending_attach_fields: Dict[str, object] = {}
        self._retransmit_payload: Optional[NasMessage] = None
        self.aborted_procedures: List[str] = []

        link.attach_mme(self.uplink_msg_handler)

    # ------------------------------------------------------------------
    def uplink_msg_handler(self, frame: bytes) -> None:
        try:
            msg = NasMessage.from_wire(frame)
        except MessageError as exc:
            self._note("malformed_frame", str(exc))
            return
        handler = getattr(self, self.RECV_PREFIX + msg.name, None)
        if handler is None:
            self._note("unhandled_message", msg.name)
            return
        handler(msg)

    # ------------------------------------------------------------------
    # Attach + common procedures
    # ------------------------------------------------------------------
    def recv_attach_request(self, msg: NasMessage) -> None:
        imsi = msg.get_str("imsi")
        guti = msg.get_str("guti")
        if not imsi and guti in self.known_gutis:
            imsi = self.known_gutis[guti]
        if not imsi:
            # Unknown temporary identity: ask for the permanent one.
            # Supervised by T3470 (TS 24.301 Section 5.4.4.3).
            self.emm_state = c.MME_COMMON_PROCEDURE_INITIATED
            self.t3470_retx = 0
            self._arm_t3470({"identity_type": "imsi"})
            self._send(c.IDENTITY_REQUEST, {"identity_type": "imsi"})
            return
        self.session_imsi = imsi
        self._pending_attach_fields = dict(msg.fields)
        self._start_authentication()

    def recv_identity_response(self, msg: NasMessage) -> None:
        self.clock.stop(c.T3470)
        self.t3470_retx = 0
        imsi = msg.get_str("imsi")
        if not imsi:
            self._send(c.ATTACH_REJECT, {"cause": c.CAUSE_IMSI_UNKNOWN})
            self.emm_state = c.MME_DEREGISTERED
            return
        self.session_imsi = imsi
        self._start_authentication()

    def _start_authentication(self) -> None:
        try:
            vector = self.hss.get_auth_vector(self.session_imsi)
        except HssError:
            # unknown subscriber (or attacker-chosen junk identity)
            self._send(c.ATTACH_REJECT, {"cause": c.CAUSE_IMSI_UNKNOWN})
            self.emm_state = c.MME_DEREGISTERED
            return
        self.pending_vector = vector
        self.emm_state = c.MME_COMMON_PROCEDURE_INITIATED
        request = {
            "rand": vector.rand,
            "sqn_seq": vector.autn_sqn.seq,
            "sqn_ind": vector.autn_sqn.ind,
            "autn_mac": vector.autn_mac,
        }
        self.t3460_retx = 0
        self._arm_t3460(request)
        self._send(c.AUTHENTICATION_REQUEST, request)

    def recv_authentication_response(self, msg: NasMessage) -> None:
        if self.pending_vector is None:
            self._note("unexpected_auth_response", "")
            return
        res = msg.get_bytes("res")
        if res != self.pending_vector.xres:
            self._send(c.AUTHENTICATION_REJECT, {})
            self.emm_state = c.MME_DEREGISTERED
            return
        self.clock.stop(c.T3460)
        self.security_ctx = SecurityContext(
            kasme=self.pending_vector.kasme)
        self.has_security_ctx = 1
        # T3460 also supervises the SMC phase (TS 24.301 Section 5.4.3.2):
        # a lost SECURITY MODE COMMAND is retransmitted, not wedged.
        smc_fields = {"selected_eia": "eia1", "selected_eea": "eea0"}
        self.t3460_retx = 0
        self._arm_t3460(smc_fields, name=c.SECURITY_MODE_COMMAND,
                        protected=True)
        self._send(c.SECURITY_MODE_COMMAND, smc_fields, protected=True)

    def recv_auth_mac_failure(self, msg: NasMessage) -> None:
        self.clock.stop(c.T3460)
        self._note("auth_mac_failure", "aborting attach")
        self._send(c.ATTACH_REJECT, {"cause": c.CAUSE_ILLEGAL_UE})
        self.emm_state = c.MME_DEREGISTERED

    def recv_auth_sync_failure(self, msg: NasMessage) -> None:
        if self.session_imsi is None:
            self._note("unexpected_sync_failure", "no session")
            return
        resync_seq = max(0, msg.get_int("resync_seq"))
        if resync_seq + 1 >= 1 << DEFAULT_SEQ_BITS:
            # The next vector's SEQ would not fit the 48-bit SQN.
            self._note("malformed_auts", f"resync_seq {resync_seq}")
            return
        self.clock.stop(c.T3460)
        try:
            self.hss.resynchronise(self.session_imsi, resync_seq)
        except HssError:
            self._note("sync_failure_unknown_imsi",
                       redact(self.session_imsi))
            return
        self._note("auth_sync_failure", f"resync to {resync_seq}")
        self._start_authentication()

    def recv_security_mode_complete(self, msg: NasMessage) -> None:
        if not self._verify_uplink(msg):
            return
        self.clock.stop(c.T3460)
        self.t3460_retx = 0
        guti = self.allocator.allocate(
            _imsi_from_string(self.session_imsi))
        self.current_guti = guti
        self.known_gutis[str(guti)] = self.session_imsi
        self.t3450_retx = 0
        self._arm_t3450(c.ATTACH_ACCEPT,
                        {"guti": str(guti), "tai_list": "1"})
        self._send(c.ATTACH_ACCEPT,
                   {"guti": str(guti), "tai_list": "1"},
                   protected=True)

    def recv_security_mode_reject(self, msg: NasMessage) -> None:
        self.clock.stop(c.T3460)
        self.t3460_retx = 0
        self._note("smc_rejected_by_ue", "")
        self.emm_state = c.MME_DEREGISTERED

    def recv_attach_complete(self, msg: NasMessage) -> None:
        if not self._verify_uplink(msg):
            return
        self.clock.stop(c.T3450)
        self.emm_state = c.MME_REGISTERED

    # ------------------------------------------------------------------
    def recv_tracking_area_update_request(self, msg: NasMessage) -> None:
        if not self._verify_uplink(msg):
            return
        self._send(c.TAU_ACCEPT, {"tai_list": "1,2"}, protected=True)

    def recv_tracking_area_update_complete(self, msg: NasMessage) -> None:
        self._verify_uplink(msg)

    def recv_service_request(self, msg: NasMessage) -> None:
        if not self._verify_uplink(msg):
            self._send(c.SERVICE_REJECT, {"cause": c.CAUSE_CONGESTION})
            return
        self._note("service_granted", "")

    def recv_detach_request(self, msg: NasMessage) -> None:
        if msg.sec_header != c.SEC_HDR_PLAIN and not self._verify_uplink(msg):
            return
        self._send(c.DETACH_ACCEPT, {})
        self.emm_state = c.MME_DEREGISTERED
        self.security_ctx = None
        self.has_security_ctx = 0

    def recv_detach_accept(self, msg: NasMessage) -> None:
        if self.emm_state == c.MME_DEREGISTERED_INITIATED:
            self.emm_state = c.MME_DEREGISTERED
            self.security_ctx = None
            self.has_security_ctx = 0

    def recv_guti_reallocation_complete(self, msg: NasMessage) -> None:
        if not self._verify_uplink(msg):
            return
        self.clock.stop(c.T3450)
        self.t3450_retx = 0
        self._note("guti_reallocation_done", str(self.current_guti))

    # ------------------------------------------------------------------
    # Network-initiated procedures
    # ------------------------------------------------------------------
    def initiate_guti_reallocation(self) -> None:
        guti = self.allocator.allocate(_imsi_from_string(self.session_imsi))
        previous = self.current_guti
        self.current_guti = guti
        self.known_gutis[str(guti)] = self.session_imsi
        if previous is not None:
            self.known_gutis.pop(str(previous), None)
        self.t3450_retx = 0
        fields = {"guti": str(guti)}
        self._arm_t3450(c.GUTI_REALLOCATION_COMMAND, fields)
        self._send(c.GUTI_REALLOCATION_COMMAND, fields, protected=True)

    def initiate_configuration_update(self) -> None:
        """5G Configuration Update (TS 24.501): supervised by T3555,
        retransmitted four times, aborted on the fifth expiry — the same
        drop budget P3 exploits in 4G."""
        guti = self.allocator.allocate(_imsi_from_string(self.session_imsi))
        previous = self.current_guti
        self.current_guti = guti
        self.known_gutis[str(guti)] = self.session_imsi
        if previous is not None:
            self.known_gutis.pop(str(previous), None)
        fields = {"guti": str(guti)}
        self._arm_t3555(fields)
        self._send(c.CONFIGURATION_UPDATE_COMMAND, fields, protected=True)

    def recv_configuration_update_complete(self, msg: NasMessage) -> None:
        if not self._verify_uplink(msg):
            return
        self.clock.stop(c.T3555)
        self.t3555_retx = 0
        self._note("configuration_update_done", str(self.current_guti))

    def _arm_t3555(self, fields: Dict[str, object]) -> None:
        def on_expiry():
            limit = c.TIMER_MAX_RETRANSMISSIONS[c.T3555]
            if self.t3555_retx < limit:
                self.t3555_retx += 1
                self._send(c.CONFIGURATION_UPDATE_COMMAND, fields,
                           protected=True)
                self._arm_t3555(fields)
            else:
                self.aborted_procedures.append(
                    c.CONFIGURATION_UPDATE_COMMAND)
                self._note("procedure_aborted", "configuration_update")
                self.t3555_retx = 0

        self.clock.start(c.T3555, self.t3450_duration, on_expiry)

    def send_information(self, network_name: str,
                         ciphered: bool = False) -> None:
        """EMM INFORMATION — optionally ciphered (EEA over the payload)."""
        self._send(c.EMM_INFORMATION, {"network_name": network_name},
                   protected=True, ciphered=ciphered)

    def initiate_paging(self) -> None:
        paging_id = str(self.current_guti or self.session_imsi or "")
        self._send(c.PAGING, {"paging_id": paging_id})

    def initiate_detach(self, reattach: bool = False) -> None:
        self.emm_state = c.MME_DEREGISTERED_INITIATED
        self._send(c.DETACH_REQUEST, {"reattach": int(reattach)},
                   protected=True)

    # ------------------------------------------------------------------
    # Timers (the P3 retransmission budget)
    # ------------------------------------------------------------------
    def _arm_t3450(self, name: str, fields: Dict[str, object]) -> None:
        def on_expiry():
            limit = c.TIMER_MAX_RETRANSMISSIONS[c.T3450]
            if self.t3450_retx < limit:
                self.t3450_retx += 1
                self._send(name, fields, protected=True)
                self._arm_t3450(name, fields)
            else:
                # Fifth expiry: abort; both sides keep the old state.
                self.aborted_procedures.append(name)
                self._note("procedure_aborted", name)
                self.t3450_retx = 0

        self.clock.start(c.T3450, self.t3450_duration, on_expiry)

    def _arm_t3460(self, request: Dict[str, object],
                   name: str = c.AUTHENTICATION_REQUEST,
                   protected: bool = False) -> None:
        def on_expiry():
            limit = c.TIMER_MAX_RETRANSMISSIONS[c.T3460]
            if self.t3460_retx < limit:
                self.t3460_retx += 1
                self._send(name, request, protected=protected)
                self._arm_t3460(request, name=name, protected=protected)
            else:
                self.aborted_procedures.append(name)
                self._note("procedure_aborted",
                           "authentication"
                           if name == c.AUTHENTICATION_REQUEST
                           else "security_mode_control")
                self.t3460_retx = 0

        self.clock.start(c.T3460, self.t3460_duration, on_expiry)

    def _arm_t3470(self, request: Dict[str, object]) -> None:
        def on_expiry():
            limit = c.TIMER_MAX_RETRANSMISSIONS[c.T3470]
            if self.t3470_retx < limit:
                self.t3470_retx += 1
                self._send(c.IDENTITY_REQUEST, request)
                self._arm_t3470(request)
            else:
                self.aborted_procedures.append(c.IDENTITY_REQUEST)
                self._note("procedure_aborted", "identification")
                self.t3470_retx = 0

        self.clock.start(c.T3470, self.t3470_duration, on_expiry)

    # ------------------------------------------------------------------
    def _verify_uplink(self, msg: NasMessage) -> bool:
        if self.security_ctx is None:
            self._note("uplink_without_ctx", msg.name)
            return False
        if msg.sec_header == c.SEC_HDR_PLAIN:
            self._note("uplink_plain_rejected", msg.name)
            return False
        body = msg.payload_bytes()
        if msg.mac is None or msg.count is None:
            return False
        if not self.security_ctx.verify(body, msg.mac, msg.count,
                                        DIR_UPLINK):
            self._note("uplink_mac_failure", msg.name)
            return False
        if not self.security_ctx.accept_ul_count(msg.count):
            self._note("uplink_replay", msg.name)
            return False
        return True

    def _send(self, name: str, fields: Dict[str, object],
              protected: bool = False, ciphered: bool = False) -> None:
        msg = NasMessage(name=name, fields=dict(fields))
        if protected and self.security_ctx is not None:
            body = msg.payload_bytes()
            new_ctx = (name == c.SECURITY_MODE_COMMAND)
            # MAC-then-encrypt over the plaintext payload: the receiver
            # deciphers with the frame's COUNT and verifies the tag over
            # the recovered plaintext.
            _, tag, count = self.security_ctx.protect(
                body, DIR_DOWNLINK, cipher=False)
            msg.mac = tag
            msg.count = count
            if ciphered:
                from .security import nas_cipher
                msg.ciphertext = nas_cipher(
                    self.security_ctx.k_nas_enc, count, DIR_DOWNLINK,
                    body)
                msg.sec_header = c.SEC_HDR_INTEGRITY_CIPHERED
            else:
                msg.sec_header = (c.SEC_HDR_INTEGRITY_NEW_CTX if new_ctx
                                  else c.SEC_HDR_INTEGRITY)
        self.link.send_downlink(msg.to_wire())

    def _note(self, kind: str, detail: str) -> None:
        self.events.append(MmeEvent(kind, detail))


def _imsi_from_string(text: str) -> Imsi:
    return Imsi(text[:3], text[3:5], text[5:])
