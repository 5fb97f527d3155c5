"""MME NAS behaviour tests: procedures, timers, uplink verification."""

from repro.lte import constants as c
from repro.lte.channel import RadioLink
from repro.lte.hss import Hss, HssError
from repro.lte.identifiers import make_subscriber
from repro.lte.messages import NasMessage
from repro.lte.mme import MmeNas
from repro.lte.timers import SimClock
from repro.lte.ue import UeNas

import pytest


class Harness:
    def __init__(self):
        self.clock = SimClock()
        self.link = RadioLink()
        self.subscriber = make_subscriber("000000001")
        self.hss = Hss()
        self.hss.provision(self.subscriber)
        self.mme = MmeNas(self.hss, self.link, clock=self.clock)
        self.ue = UeNas(self.subscriber, self.link, clock=self.clock)

    def attach(self):
        self.ue.power_on()
        assert self.mme.emm_state == c.MME_REGISTERED
        return self

    def inject_uplink(self, name, **fields):
        msg = NasMessage(name=name, fields=fields)
        self.link.inject_uplink(msg.to_wire())

    def downlink_names(self):
        return [m.name for m in self.link.captured_messages("downlink")]


class TestHss:
    def test_unknown_imsi_rejected(self):
        hss = Hss()
        with pytest.raises(HssError):
            hss.get_auth_vector("00101000000099")

    def test_vectors_advance_sqn(self):
        harness = Harness()
        imsi = str(harness.subscriber.imsi)
        first = harness.hss.get_auth_vector(imsi)
        second = harness.hss.get_auth_vector(imsi)
        assert second.autn_sqn.seq == first.autn_sqn.seq + 1

    def test_resynchronise_jumps_forward(self):
        harness = Harness()
        imsi = str(harness.subscriber.imsi)
        harness.hss.resynchronise(imsi, 50)
        vector = harness.hss.get_auth_vector(imsi)
        assert vector.autn_sqn.seq == 51


class TestAttachFlow:
    def test_full_attach_reaches_registered(self):
        Harness().attach()

    def test_identity_request_when_unknown_guti(self):
        harness = Harness()
        harness.inject_uplink(c.ATTACH_REQUEST,
                              guti="00101-0001-01-ffffffff")
        assert c.IDENTITY_REQUEST in harness.downlink_names()

    def test_known_guti_reattach_skips_identity(self):
        harness = Harness().attach()
        guti = str(harness.mme.current_guti)
        harness.mme.emm_state = c.MME_DEREGISTERED
        harness.link.detach_ue()
        harness.inject_uplink(c.ATTACH_REQUEST, guti=guti)
        names = harness.downlink_names()
        assert names[-1] == c.AUTHENTICATION_REQUEST

    def test_wrong_res_rejected(self):
        harness = Harness()
        harness.link.detach_ue()
        harness.inject_uplink(c.ATTACH_REQUEST,
                              imsi=str(harness.subscriber.imsi))
        harness.inject_uplink(c.AUTHENTICATION_RESPONSE, res=b"\x00" * 8)
        assert c.AUTHENTICATION_REJECT in harness.downlink_names()
        assert harness.mme.emm_state == c.MME_DEREGISTERED

    def test_sync_failure_resynchronises_and_retries(self):
        harness = Harness()
        harness.link.detach_ue()
        harness.inject_uplink(c.ATTACH_REQUEST,
                              imsi=str(harness.subscriber.imsi))
        harness.inject_uplink(c.AUTH_SYNC_FAILURE, resync_seq=30)
        auth_requests = [m for m in
                         harness.link.captured_messages("downlink")
                         if m.name == c.AUTHENTICATION_REQUEST]
        assert len(auth_requests) == 2
        assert auth_requests[-1].fields["sqn_seq"] == 31

    @pytest.mark.parametrize("resync_seq, retried", [
        ((1 << 43) - 2, True),      # the last SEQ the HSS can still mint
        ((1 << 43) - 1, False),
        (2 ** 60, False),
        (2 ** 65, False),           # beyond the wire's 64-bit integers
    ])
    def test_out_of_range_resync_is_dropped(self, resync_seq, retried):
        harness = Harness()
        harness.link.detach_ue()
        harness.inject_uplink(c.ATTACH_REQUEST,
                              imsi=str(harness.subscriber.imsi))
        harness.mme.recv_auth_sync_failure(NasMessage(
            name=c.AUTH_SYNC_FAILURE, fields={"resync_seq": resync_seq}))
        auth_requests = [m for m in
                         harness.link.captured_messages("downlink")
                         if m.name == c.AUTHENTICATION_REQUEST]
        if retried:
            assert auth_requests[-1].fields["sqn_seq"] == resync_seq + 1
        else:
            assert len(auth_requests) == 1
            assert harness.mme.events[-1].kind == "malformed_auts"

    def test_mac_failure_aborts(self):
        harness = Harness()
        harness.link.detach_ue()
        harness.inject_uplink(c.ATTACH_REQUEST,
                              imsi=str(harness.subscriber.imsi))
        harness.inject_uplink(c.AUTH_MAC_FAILURE, cause=20)
        assert c.ATTACH_REJECT in harness.downlink_names()


class TestUplinkVerification:
    def test_plain_protected_uplink_rejected(self):
        harness = Harness().attach()
        harness.link.detach_ue()
        harness.inject_uplink(c.TAU_REQUEST, tracking_area=2)
        assert c.TAU_ACCEPT not in harness.downlink_names()
        assert any(e.kind == "uplink_plain_rejected"
                   for e in harness.mme.events)

    def test_replayed_uplink_rejected(self):
        harness = Harness().attach()
        smc_complete = next(
            r.frame for r in harness.link.history
            if r.direction == "uplink"
            and NasMessage.from_wire(r.frame).name
            == c.SECURITY_MODE_COMPLETE)
        harness.link.inject_uplink(smc_complete)
        assert any(e.kind == "uplink_replay" for e in harness.mme.events)

    def test_plain_detach_accepted_kickoff_vector(self):
        """The standards-level kick-off flaw on the network side."""
        harness = Harness().attach()
        harness.link.detach_ue()
        harness.inject_uplink(c.DETACH_REQUEST, switch_off=1)
        assert harness.mme.emm_state == c.MME_DEREGISTERED


class TestNetworkInitiated:
    def test_guti_reallocation_completes(self):
        harness = Harness().attach()
        old = str(harness.mme.current_guti)
        harness.mme.initiate_guti_reallocation()
        assert str(harness.mme.current_guti) != old
        assert not harness.clock.is_running(c.T3450)

    def test_t3450_retransmits_then_aborts(self):
        """Four retransmissions; the fifth expiry aborts (P3 budget)."""
        harness = Harness().attach()
        harness.link.detach_ue()
        harness.mme.initiate_guti_reallocation()
        for _ in range(6):
            harness.clock.advance(10.0)
        sent = [m for m in harness.link.captured_messages("downlink")
                if m.name == c.GUTI_REALLOCATION_COMMAND]
        assert len(sent) == 5                       # initial + 4 retx
        assert harness.mme.aborted_procedures == [
            c.GUTI_REALLOCATION_COMMAND]

    def test_response_stops_retransmission(self):
        harness = Harness().attach()
        harness.mme.initiate_guti_reallocation()
        harness.clock.advance(60.0)
        sent = [m for m in harness.link.captured_messages("downlink")
                if m.name == c.GUTI_REALLOCATION_COMMAND]
        assert len(sent) == 1

    def test_paging_uses_current_guti(self):
        harness = Harness().attach()
        harness.link.detach_ue()
        harness.mme.initiate_paging()
        paging = harness.link.captured_messages("downlink")[-1]
        assert paging.fields["paging_id"] == str(harness.mme.current_guti)

    def test_network_detach(self):
        harness = Harness().attach()
        harness.mme.initiate_detach()
        assert harness.mme.emm_state == c.MME_DEREGISTERED
        assert harness.ue.emm_state == c.EMM_DEREGISTERED

    def test_ciphered_information_deciphered_by_ue(self):
        harness = Harness().attach()
        harness.mme.send_information("SecretNet", ciphered=True)
        events = [e for e in harness.ue.events
                  if e.kind == "emm_information"]
        assert events[-1].detail == "SecretNet"

    def test_ciphered_payload_opaque_on_the_wire(self):
        harness = Harness().attach()
        harness.mme.send_information("SecretNet", ciphered=True)
        frame = harness.link.history[-1].frame
        assert b"SecretNet" not in frame
        message = NasMessage.from_wire(frame)
        assert message.ciphertext is not None

    def test_ciphered_frame_useless_without_context(self):
        harness = Harness().attach()
        harness.mme.send_information("SecretNet", ciphered=True)
        frame = harness.link.history[-1].frame
        # a second, fresh UE (different keys) cannot decipher it
        other = Harness()
        other.link.detach_mme()
        other.ue.power_on()
        before = len(other.ue.events)
        other.link.inject_downlink(frame)
        kinds = [e.kind for e in other.ue.events[before:]]
        assert "emm_information" not in kinds

    def test_t3460_retransmits_auth(self):
        harness = Harness()
        harness.link.detach_ue()
        harness.inject_uplink(c.ATTACH_REQUEST,
                              imsi=str(harness.subscriber.imsi))
        for _ in range(6):
            harness.clock.advance(10.0)
        sent = [m for m in harness.link.captured_messages("downlink")
                if m.name == c.AUTHENTICATION_REQUEST]
        assert len(sent) == 5
        assert c.AUTHENTICATION_REQUEST in harness.mme.aborted_procedures


class TestTimerExhaustionUnderFrameLoss:
    """TS 24.301 Section 10.2: each supervised downlink is retransmitted
    on expiry up to TIMER_MAX_RETRANSMISSIONS and the procedure aborts on
    the next expiry.  Unlike the detach_ue-based tests above, these drive
    the timers through *actual* downlink frame loss (the ``channel.impair``
    fault site drops every copy on the wire) with the peer UE attached."""

    @staticmethod
    def _drop_every(message):
        from repro import faults
        faults.install(faults.FaultPlan.parse(
            [f"channel.impair@downlink:{message}:raise:0:all"]))

    @staticmethod
    def _cleanup():
        from repro import faults
        faults.clear()

    def _sent(self, harness, name):
        return [m for m in harness.link.captured_messages("downlink")
                if m.name == name]

    def test_t3450_guti_reallocation_exhausts_and_aborts(self):
        harness = Harness().attach()
        old_guti = str(harness.ue.current_guti)
        self._drop_every(c.GUTI_REALLOCATION_COMMAND)
        try:
            harness.mme.initiate_guti_reallocation()
            for _ in range(6):
                harness.clock.advance(10.0)
        finally:
            self._cleanup()
        sent = self._sent(harness, c.GUTI_REALLOCATION_COMMAND)
        limit = c.TIMER_MAX_RETRANSMISSIONS[c.T3450]
        assert len(sent) == limit + 1               # initial + 4 retx
        # Every retransmission carries the identical payload.
        assert all(m.fields == sent[0].fields for m in sent)
        assert harness.mme.aborted_procedures == [
            c.GUTI_REALLOCATION_COMMAND]
        assert not harness.clock.is_running(c.T3450)
        # The UE never saw a command: it keeps the old identity.
        assert str(harness.ue.current_guti) == old_guti

    def test_t3450_attach_accept_exhausts_and_aborts(self):
        harness = Harness()
        self._drop_every(c.ATTACH_ACCEPT)
        try:
            harness.ue.power_on()
            harness.clock.stop(c.T3410)   # isolate the MME supervision
            for _ in range(6):
                harness.clock.advance(10.0)
        finally:
            self._cleanup()
        sent = self._sent(harness, c.ATTACH_ACCEPT)
        assert len(sent) == c.TIMER_MAX_RETRANSMISSIONS[c.T3450] + 1
        assert all(m.fields == sent[0].fields for m in sent)
        assert harness.mme.aborted_procedures == [c.ATTACH_ACCEPT]
        assert harness.mme.emm_state != c.MME_REGISTERED

    def test_t3460_authentication_exhausts_and_aborts(self):
        harness = Harness()
        self._drop_every(c.AUTHENTICATION_REQUEST)
        try:
            harness.ue.power_on()
            harness.clock.stop(c.T3410)
            for _ in range(6):
                harness.clock.advance(10.0)
        finally:
            self._cleanup()
        sent = self._sent(harness, c.AUTHENTICATION_REQUEST)
        assert len(sent) == c.TIMER_MAX_RETRANSMISSIONS[c.T3460] + 1
        # Same vector on every copy: rand/autn never change mid-attempt.
        assert all(m.fields == sent[0].fields for m in sent)
        assert harness.mme.aborted_procedures == [c.AUTHENTICATION_REQUEST]
        assert not harness.clock.is_running(c.T3460)

    def test_t3460_security_mode_command_exhausts_and_aborts(self):
        harness = Harness()
        self._drop_every(c.SECURITY_MODE_COMMAND)
        try:
            harness.ue.power_on()
            harness.clock.stop(c.T3410)
            for _ in range(6):
                harness.clock.advance(10.0)
        finally:
            self._cleanup()
        sent = self._sent(harness, c.SECURITY_MODE_COMMAND)
        assert len(sent) == c.TIMER_MAX_RETRANSMISSIONS[c.T3460] + 1
        assert all(m.fields == sent[0].fields for m in sent)
        assert harness.mme.aborted_procedures == [c.SECURITY_MODE_COMMAND]
        assert any(e.kind == "procedure_aborted"
                   and e.detail == "security_mode_control"
                   for e in harness.mme.events)

    def test_t3470_identity_request_exhausts_and_aborts(self):
        harness = Harness()
        self._drop_every(c.IDENTITY_REQUEST)
        try:
            harness.inject_uplink(c.ATTACH_REQUEST,
                                  guti="00101-0001-01-ffffffff")
            assert harness.clock.is_running(c.T3470)
            for _ in range(6):
                harness.clock.advance(10.0)
        finally:
            self._cleanup()
        sent = self._sent(harness, c.IDENTITY_REQUEST)
        assert len(sent) == c.TIMER_MAX_RETRANSMISSIONS[c.T3470] + 1
        assert all(m.fields == sent[0].fields for m in sent)
        assert harness.mme.aborted_procedures == [c.IDENTITY_REQUEST]
        assert not harness.clock.is_running(c.T3470)

    def test_delivered_response_resets_supervision(self):
        """A *delivered* retransmission completes the procedure: drop
        only the first two SECURITY MODE COMMAND copies."""
        from repro import faults
        faults.install(faults.FaultPlan.of(
            faults.FaultSpec(site="channel.impair",
                             key=f"downlink:{c.SECURITY_MODE_COMMAND}",
                             kind=faults.KIND_RAISE, nth=1,
                             scope=faults.SCOPE_ALL),
            faults.FaultSpec(site="channel.impair",
                             key=f"downlink:{c.SECURITY_MODE_COMMAND}",
                             kind=faults.KIND_RAISE, nth=2,
                             scope=faults.SCOPE_ALL)))
        try:
            harness = Harness()
            harness.ue.power_on()
            harness.clock.stop(c.T3410)
            for _ in range(6):
                harness.clock.advance(10.0)
        finally:
            self._cleanup()
        # Third copy got through; the UE answered and attach completed.
        assert harness.mme.aborted_procedures == []
        assert harness.mme.emm_state == c.MME_REGISTERED
        assert harness.ue.emm_state == c.EMM_REGISTERED
