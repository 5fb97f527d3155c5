"""CPV secrecy/indistinguishability experiment tests."""

import pytest

from repro.cpv.terms import Atom, KIND_DATA
from repro.lte import constants as c
from repro.lte.messages import message_name
from repro.testbed import Testbed, run_attack
from repro.testbed.experiments import _channel_knowledge

IMPLEMENTATIONS = ("reference", "srsue", "oai")

#: the honest attach exchange, in link order
ATTACH_EXCHANGE = [
    c.ATTACH_REQUEST, c.AUTHENTICATION_REQUEST, c.AUTHENTICATION_RESPONSE,
    c.SECURITY_MODE_COMMAND, c.SECURITY_MODE_COMPLETE, c.ATTACH_ACCEPT,
    c.ATTACH_COMPLETE,
]

#: experiments whose property is VERIFIED (violated=False) everywhere
VERIFIED_EVERYWHERE = (
    "SECRECY-permanent-key",
    "SECRECY-session-keys",
    "SECRECY-imsi-guti-attach",
    "GUTI-reattach",
    "ATTACH-replay-indistinguishable",
)


def attached(implementation):
    testbed = Testbed(implementation)
    station = testbed.add_ue("victim")
    testbed.attach_all()
    return testbed, station


class TestRealAttach:
    """The channel the secrecy experiments reason about."""

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_link_history_is_the_attach_exchange(self, implementation):
        """Each milestone follows its cause: the UE answers a challenge,
        security mode completes before the accept, and registration
        completes after the network accepts."""
        _testbed, station = attached(implementation)
        assert [message_name(record.frame)
                for record in station.link.history] == ATTACH_EXCHANGE

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_channel_knowledge_holds_the_imsi(self, implementation):
        """Positive control for the secrecy experiments: what crossed
        the channel IS derivable (the IMSI travels in the attach)."""
        testbed, station = attached(implementation)
        imsi = Atom(f"imsi:{station.subscriber.imsi}", KIND_DATA)
        assert _channel_knowledge(testbed, "victim").can_construct(imsi)


class TestSecrecyExperiments:
    @pytest.mark.parametrize("experiment", VERIFIED_EVERYWHERE)
    def test_verified_on_all_implementations(self, experiment):
        for implementation in IMPLEMENTATIONS:
            result = run_attack(experiment, implementation)
            assert not result.succeeded, (experiment, implementation,
                                          result.evidence)

    def test_permanent_key_evidence_mentions_underivability(self):
        result = run_attack("SECRECY-permanent-key", "reference")
        assert "underivable" in result.evidence

    def test_guti_reattach_uses_temporary_identity(self):
        result = run_attack("GUTI-reattach", "reference")
        assert "GUTI" in result.evidence


class TestDerivedLinkability:
    def test_i5_leak_makes_imsi_observable_only_on_oai(self):
        """The I5 identity leak is the one channel that exposes the IMSI
        post-attach — and only OAI has it."""
        for implementation in IMPLEMENTATIONS:
            result = run_attack("I5", implementation)
            assert result.succeeded == (implementation == "oai")

    def test_p2_and_i6_share_the_response_oracle(self):
        """Both linkability attacks reduce to the response-type oracle
        the CPV equivalence engine formalises."""
        p2 = run_attack("P2", "srsue")
        i6 = run_attack("I6", "srsue")
        assert p2.succeeded and i6.succeeded
        assert p2.details["victim"] != p2.details["bystander"]
        assert i6.details["victim"] != i6.details["bystander"]
