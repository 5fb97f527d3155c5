"""Correspondence properties of real testbed traffic.

Poses the authenticity (correspondence) properties of Section VI over
the link history of an actual attach exchange: each milestone message
must follow the message that causes it.
"""

from repro.lte import constants as c
from repro.lte.messages import message_name
from repro.testbed import Testbed


def attach_history(implementation="reference"):
    """Run a real attach; the names of its link frames, in order."""
    testbed = Testbed(implementation)
    station = testbed.add_ue("victim")
    testbed.attach_all()
    return [message_name(record.frame) for record in station.link.history]


def corresponds(history, effect, cause, injective=False):
    """Whether every ``effect`` is preceded by a ``cause`` — a distinct
    one for each ``effect`` when ``injective``."""
    causes = 0
    for name in history:
        if name == cause:
            causes += 1
        elif name == effect:
            if causes == 0:
                return False
            if injective:
                causes -= 1
    return True


class TestAttachCorrespondence:
    def test_registration_implies_network_acceptance(self):
        history = attach_history()
        assert c.ATTACH_COMPLETE in history
        assert corresponds(history, c.ATTACH_COMPLETE, c.ATTACH_ACCEPT)

    def test_authentication_implies_challenge(self):
        history = attach_history()
        assert c.AUTHENTICATION_RESPONSE in history
        assert corresponds(history, c.AUTHENTICATION_RESPONSE,
                           c.AUTHENTICATION_REQUEST, injective=True)

    def test_acceptance_implies_security_mode_completion(self):
        history = attach_history()
        assert c.ATTACH_ACCEPT in history
        assert corresponds(history, c.ATTACH_ACCEPT,
                           c.SECURITY_MODE_COMPLETE)

    def test_fabricated_claim_fails(self):
        history = attach_history()
        history.append(c.ATTACH_COMPLETE)    # a second registration...
        assert not corresponds(history, c.ATTACH_COMPLETE, c.ATTACH_ACCEPT,
                               injective=True)   # ...with no second accept
