"""Lockstep executor: the differential oracle and coverage feedback."""

from repro.core import ProChecker
from repro.fuzz import fsm_coverage_universe, run_schedule

ATTACH = [{"op": "attach"}]
REPLAY_ACCEPT = [{"op": "attach"},
                 {"op": "replay", "name": "attach_accept", "index": 0}]


class TestOracleSoundness:
    def test_reference_vs_itself_never_diverges(self):
        result = run_schedule("reference", REPLAY_ACCEPT,
                              reference="reference")
        assert not result.diverged
        assert result.divergence_signature() is None

    def test_clean_attach_agrees_everywhere(self):
        for implementation in ("srsue", "oai"):
            result = run_schedule(implementation, ATTACH)
            assert not result.diverged, implementation


class TestDivergence:
    def test_srsue_replay_diverges(self):
        result = run_schedule("srsue", REPLAY_ACCEPT)
        assert result.diverged
        assert result.divergence_index == 1
        observed = result.target[1]
        expected = result.reference[1]
        assert observed["uplink"] != expected["uplink"]

    def test_signature_is_position_independent(self):
        # The same divergence found behind an extra no-op step must
        # carry the same signature — that is what makes ddmin sound.
        padded = [{"op": "attach"}, {"op": "mute"},
                  {"op": "replay", "name": "attach_accept", "index": 0}]
        a = run_schedule("srsue", REPLAY_ACCEPT)
        b = run_schedule("srsue", padded)
        assert a.diverged and b.diverged
        assert a.divergence_signature() == b.divergence_signature()

    def test_execution_is_deterministic(self):
        first = run_schedule("srsue", REPLAY_ACCEPT)
        second = run_schedule("srsue", REPLAY_ACCEPT)
        assert first.target == second.target
        assert first.coverage == second.coverage


class TestCoverage:
    def test_attach_exercises_extracted_transitions(self):
        universe = fsm_coverage_universe(ProChecker("srsue").extract())
        result = run_schedule("srsue", ATTACH)
        assert result.coverage
        assert result.coverage & universe

    def test_crash_free_on_hostile_steps(self):
        hostile = [
            {"op": "replay", "name": "nonexistent_message", "index": 5},
            {"op": "craft", "name": "attach_accept",
             "protection": "bad_mac",
             "mutations": [{"kind": "bitflip", "position": 3,
                            "mask": 255}]},
            {"op": "auth", "seq": 2 ** 28 - 1, "ind": 31,
             "valid_mac": False},
        ]
        result = run_schedule("srsue", hostile)
        assert len(result.target) == len(hostile)

    def test_unencodable_field_is_a_message_error(self):
        # No generated schedule sets a field outside signed 64 bits; a
        # hand-written one observes the codec's own error type.
        oversized = [{"op": "attach"},
                     {"op": "craft", "name": "attach_accept",
                      "protection": "plain",
                      "mutations": [{"kind": "set_field",
                                     "field": "cause", "value": 2 ** 63}]}]
        result = run_schedule("srsue", oversized)
        assert result.target[1]["error"] == "MessageError"
        assert not result.diverged
