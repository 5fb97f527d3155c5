"""Failure injection: the NAS handlers must survive hostile input.

Logical-vulnerability analysis presumes the parsing layer does not crash;
these tests fuzz the air interface of every implementation with random
bytes, random field soup, and bit-flipped genuine frames, asserting that
(a) nothing raises out of the handler, and (b) garbage never silently
advances the protocol state.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.lte import constants as c
from repro.lte.channel import RadioLink
from repro.lte.hss import Hss
from repro.lte.identifiers import make_subscriber
from repro.lte.implementations import REGISTRY
from repro.lte.messages import NasMessage
from repro.lte.mme import MmeNas
from repro.lte.timers import SimClock


def attached_ue(implementation="reference"):
    clock = SimClock()
    link = RadioLink()
    subscriber = make_subscriber("000000001")
    hss = Hss()
    hss.provision(subscriber)
    MmeNas(hss, link, clock=clock)
    ue = REGISTRY[implementation](subscriber, link, clock=clock)
    ue.power_on()
    link.detach_mme()
    return ue, link


class TestRandomBytes:
    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=120))
    def test_ue_survives_garbage_frames(self, payload):
        ue, _link = attached_ue()
        state_before = ue.emm_state
        ue.air_msg_handler(payload)
        # garbage can never be a valid protected/known message
        assert ue.emm_state == state_before

    @settings(max_examples=40, deadline=None)
    @given(st.binary(max_size=120))
    def test_mme_survives_garbage_frames(self, payload):
        clock = SimClock()
        link = RadioLink()
        subscriber = make_subscriber("000000002")
        hss = Hss()
        hss.provision(subscriber)
        mme = MmeNas(hss, link, clock=clock)
        state_before = mme.emm_state
        mme.uplink_msg_handler(payload)
        assert mme.emm_state == state_before


def genuine_downlink(link):
    return [r.frame for r in link.history if r.direction == "downlink"]


class TestBitFlips:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2000),
           st.integers(min_value=0, max_value=7),
           st.sampled_from(("reference", "srsue", "oai")))
    # A SEQ bit of the authentication_request (frame byte 89) once
    # overflowed the 8-byte SQN packing in f1_mac.
    @example(position=186, bit=3, implementation="reference")
    def test_flipped_genuine_frames_never_crash(self, position, bit,
                                                implementation):
        ue, link = attached_ue(implementation)
        genuine = genuine_downlink(link)
        frame = bytearray(genuine[position % len(genuine)])
        index = position % len(frame)
        frame[index] ^= 1 << bit
        ue.air_msg_handler(bytes(frame))   # must not raise

    @pytest.mark.parametrize("implementation", ("reference", "srsue", "oai"))
    def test_every_single_bit_flip_is_survived(self, implementation):
        """Exhaustive: each flip of each genuine frame, on a fresh UE."""
        _ue, link = attached_ue(implementation)
        for frame in genuine_downlink(link):
            for index in range(len(frame)):
                for bit in range(8):
                    flipped = bytearray(frame)
                    flipped[index] ^= 1 << bit
                    ue, _link = attached_ue(implementation)
                    ue.air_msg_handler(bytes(flipped))   # must not raise


class TestMmeFieldSoup:
    _values = st.one_of(st.integers(-(2**40), 2**40),
                        st.text(max_size=20),
                        st.binary(max_size=20))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(c.UPLINK_MESSAGES),
           st.dictionaries(
               st.sampled_from(("imsi", "guti", "res", "resync_seq",
                                "switch_off", "tracking_area")),
               _values, max_size=4))
    def test_mme_survives_hostile_uplink(self, name, fields):
        clock = SimClock()
        link = RadioLink()
        subscriber = make_subscriber("000000003")
        hss = Hss()
        hss.provision(subscriber)
        mme = MmeNas(hss, link, clock=clock)
        message = NasMessage(name=name, fields=fields)
        mme.uplink_msg_handler(message.to_wire())   # must not raise


class TestFieldSoup:
    _soup_values = st.one_of(
        st.integers(-(2**40), 2**40),
        st.text(max_size=20,
                alphabet=st.characters(blacklist_categories=("Cs",))),
        st.binary(max_size=20))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(c.DOWNLINK_MESSAGES),
           st.dictionaries(
               st.sampled_from(("guti", "cause", "paging_id", "rand",
                                "sqn_seq", "sqn_ind", "autn_mac",
                                "identity_type", "reattach",
                                "network_name")),
               _soup_values, max_size=5))
    def test_wellformed_frames_with_hostile_fields(self, name, fields):
        """Structurally valid frames with adversarial field values go
        through the full unpack/sanity/MAC path without crashing."""
        ue, _link = attached_ue()
        message = NasMessage(name=name, fields=fields)
        ue.air_msg_handler(message.to_wire())
