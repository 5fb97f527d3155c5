"""Observational distinguishability (linkability) tests."""

from repro.cpv.equivalence import Frame, distinguishable
from repro.cpv.terms import Atom, KIND_DATA, Mac, const, nonce, secret_key

K = secret_key("k")


def frame_of(*observations):
    frame = Frame()
    for label, term in observations:
        frame.observe(label, term)
    return frame


class TestLabelOracle:
    def test_different_response_types_distinguish(self):
        """The P2 test: auth_response vs auth_mac_failure."""
        victim = frame_of(("authentication_response", const("res")))
        other = frame_of(("auth_mac_failure", const("fail")))
        verdict = distinguishable(victim, other)
        assert verdict
        assert "authentication_response" in verdict.test

    def test_different_lengths_distinguish(self):
        victim = frame_of(("a", const("x")))
        other = frame_of(("a", const("x")), ("b", const("y")))
        assert distinguishable(victim, other)

    def test_identical_frames_indistinguishable(self):
        first = frame_of(("a", const("x")))
        second = frame_of(("a", const("x")))
        assert not distinguishable(first, second)


class TestEqualityTests:
    def test_value_reuse_distinguishes(self):
        """GUTI reuse: w0 = w1 holds in one world only."""
        guti = Atom("guti:1234", KIND_DATA)
        fresh = Atom("guti:5678", KIND_DATA)
        linkable = frame_of(("paging", guti), ("paging", guti))
        unlinkable = frame_of(("paging", guti), ("paging", fresh))
        verdict = distinguishable(linkable, unlinkable)
        assert verdict
        assert "w0 = w1" in verdict.test

    def test_same_reuse_pattern_indistinguishable(self):
        a = Atom("id:a", KIND_DATA)
        b = Atom("id:b", KIND_DATA)
        first = frame_of(("m", a), ("m", a))
        second = frame_of(("m", b), ("m", b))
        assert not distinguishable(first, second)


class TestDerivabilityTests:
    def test_probe_term_distinguishes(self):
        imsi = Atom("imsi:001010000000001", KIND_DATA)
        leaking = frame_of(("identity_response", imsi))
        silent = frame_of(("identity_response",
                           Mac(const("guti"), K)))
        verdict = distinguishable(leaking, silent, probe_terms=[imsi])
        assert verdict

    def test_equal_knowledge_indistinguishable(self):
        n = nonce("n")
        first = frame_of(("m", Mac(n, K)))
        second = frame_of(("m", Mac(n, K)))
        assert not distinguishable(first, second, probe_terms=[n])


class TestLinkabilityExperiment:
    """The P2-style experiment: replay a captured message to every UE in a
    cell and compare the victim's response frame with a bystander's."""

    def test_p2_style_experiment(self):
        verdict = distinguishable(
            frame_of(("authentication_response", const("res"))),
            frame_of(("auth_mac_failure", const("fail"))))
        assert verdict.distinguishable

    def test_uniform_responses_safe(self):
        verdict = distinguishable(
            frame_of(("auth_mac_failure", const("fail"))),
            frame_of(("auth_mac_failure", const("fail"))))
        assert not verdict.distinguishable
