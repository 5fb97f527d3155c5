"""Consensus FSM extraction under chaos-perturbed radio links."""

import threading

import pytest

from repro.conformance import full_suite, standard_suite
from repro.extraction import (ConsensusError, StabilityReport,
                              consensus_extract, merge_with_support)
from repro.extraction import consensus as consensus_module
from repro.core.engine import run_extraction
from repro.fsm import FiniteStateMachine
from repro.lte.channel import ChaosConfig, ImpairmentRates


def machine(*transitions):
    fsm = FiniteStateMachine(name="m", initial_state="s0")
    for source, target, trigger in transitions:
        fsm.add_transition(source, target, (trigger,))
    return fsm


class TestMergeWithSupport:
    def test_union_tracks_supporting_runs(self):
        a = machine(("s0", "s1", "go"), ("s1", "s0", "back"))
        b = machine(("s0", "s1", "go"))
        votes = merge_with_support([a, b])
        support = {t.trigger: runs for t, runs in votes.items()}
        assert support["go"] == (0, 1)
        assert support["back"] == (0,)

    def test_empty_input(self):
        assert merge_with_support([]) == {}


class TestValidation:
    def test_unknown_implementation_rejected(self):
        with pytest.raises(ConsensusError):
            consensus_extract("nope", ChaosConfig.default(), runs=3)

    def test_zero_runs_rejected(self):
        with pytest.raises(ConsensusError):
            consensus_extract("reference", ChaosConfig.default(), runs=0)

    def test_negative_runs_rejected(self):
        with pytest.raises(ConsensusError):
            consensus_extract("reference", ChaosConfig.default(), runs=-3)

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ConsensusError):
            consensus_extract("reference", ChaosConfig.default(),
                              runs=3, threshold=4)


class TestSingleRunBaseCase:
    """``runs=1`` is well-defined: the consensus machine *is* the single
    run's machine, agreement is trivially 1.0 and the report is stable."""

    def test_single_run_matches_clean_extraction(self):
        suite = standard_suite()[:6]
        clean = run_extraction("reference", suite)
        outcome = consensus_extract("reference", ChaosConfig.default(),
                                    runs=1, cases=suite,
                                    clean_fsm=clean.fsm)
        report = outcome.report
        assert report.fingerprint_agreement == 1.0
        assert report.stable
        assert report.quarantined == []
        assert report.flaky == []
        assert report.run_fingerprints == (clean.fsm.fingerprint(),)
        assert report.consensus_fingerprint == clean.fsm.fingerprint()
        assert report.clean_is_subgraph is True
        assert outcome.fsm.fingerprint() == clean.fsm.fingerprint()

    def test_single_run_deterministic(self):
        suite = standard_suite()[:4]
        first = consensus_extract("reference", ChaosConfig.default(),
                                  runs=1, cases=suite)
        second = consensus_extract("reference", ChaosConfig.default(),
                                   runs=1, cases=suite)
        assert (first.report.consensus_fingerprint
                == second.report.consensus_fingerprint)


class TestConsensusOnReference:
    """The headline guarantee: at default rates every impairment is
    absorbed by the retransmission discipline, so N noisy runs and the
    clean run all extract the same machine."""

    CASES = None  # full suite

    def test_default_rates_are_fully_absorbed(self):
        suite = standard_suite()[:6]
        clean = run_extraction("reference", suite)
        outcome = consensus_extract("reference", ChaosConfig.default(),
                                    runs=3, cases=suite,
                                    clean_fsm=clean.fsm)
        report = outcome.report
        assert report.quarantined == []
        assert report.flaky == []
        assert report.fingerprint_agreement == 1.0
        assert report.clean_is_subgraph is True
        assert report.consensus_fingerprint == clean.fsm.fingerprint()
        assert report.stable
        assert outcome.fsm.fingerprint() == clean.fsm.fingerprint()

    def test_determinism_across_invocations(self):
        suite = standard_suite()[:4]
        chaos = ChaosConfig.default(seed=11)
        first = consensus_extract("reference", chaos, runs=2, cases=suite)
        second = consensus_extract("reference", chaos, runs=2, cases=suite)
        assert (first.report.run_fingerprints
                == second.report.run_fingerprints)
        assert (first.report.consensus_fingerprint
                == second.report.consensus_fingerprint)
        assert first.report.impairments == second.report.impairments

    def test_aggressive_unscoped_chaos_quarantines(self):
        """scope=all loss (no absorption guarantee) must surface as
        quarantined or flaky transitions, never silently merge."""
        suite = standard_suite()[:6]
        chaos = ChaosConfig(
            downlink=ImpairmentRates(drop=0.5),
            uplink=ImpairmentRates(drop=0.2),
            messages=None, seed=3)
        clean = run_extraction("reference", suite)
        outcome = consensus_extract("reference", chaos, runs=3,
                                    cases=suite, clean_fsm=clean.fsm)
        report = outcome.report
        assert report.fingerprint_agreement < 1.0
        assert report.quarantined or report.flaky
        assert not report.stable
        assert sum(report.impairments.values()) > 0

    def test_report_serializes(self):
        suite = standard_suite()[:3]
        outcome = consensus_extract("reference", ChaosConfig.default(),
                                    runs=2, cases=suite)
        payload = outcome.report.to_dict()
        assert payload["runs"] == 2
        assert payload["seeds"] == [0, 1]
        assert payload["stable"] is True
        assert isinstance(payload["chaos"], dict)
        assert all(isinstance(entry["transition"], str)
                   for entry in payload["support"])


class TestEngineIntegration:
    def test_run_extraction_attaches_stability(self):
        suite = standard_suite()[:4]
        record = run_extraction("reference", suite,
                                chaos=ChaosConfig.default(), chaos_runs=3)
        assert isinstance(record.stability, StabilityReport)
        assert record.stability.stable
        assert record.stability.clean_is_subgraph is True

    def test_single_chaos_run_has_no_stability(self):
        suite = standard_suite()[:4]
        record = run_extraction("reference", suite,
                                chaos=ChaosConfig.default(), chaos_runs=1)
        assert record.stability is None
        assert record.fsm.transitions


class TestConcurrentImpairments:
    """``impairments`` enters the stored stability report, so an
    extraction must count only its own channel impairments while
    another one runs on a second thread."""

    CHAOS = ChaosConfig.parse("drop=0.2,dup=0.1", seed=3)
    IMPLEMENTATIONS = ("reference", "srsue")

    def _impairments(self, implementation):
        suite = full_suite(implementation)[:12]
        outcome = consensus_extract(implementation, self.CHAOS, runs=2,
                                    cases=suite)
        return outcome.report.impairments

    def test_overlapping_extractions_report_their_solo_impairments(
            self, monkeypatch):
        solo = {implementation: self._impairments(implementation)
                for implementation in self.IMPLEMENTATIONS}
        assert all(sum(counts.values()) > 0 for counts in solo.values())

        # Lockstep: both threads start each conformance run together
        # and neither returns from it before the other's run is done,
        # so every run overlaps the other thread's.
        barrier = threading.Barrier(len(self.IMPLEMENTATIONS),
                                    timeout=60.0)
        run_conformance = consensus_module.run_conformance

        def lockstep(*args, **kwargs):
            barrier.wait()
            outcome = run_conformance(*args, **kwargs)
            barrier.wait()
            return outcome

        monkeypatch.setattr(consensus_module, "run_conformance", lockstep)
        overlapped = {}

        def extract(implementation):
            overlapped[implementation] = self._impairments(implementation)

        threads = [threading.Thread(target=extract, args=(implementation,))
                   for implementation in self.IMPLEMENTATIONS]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
            assert not thread.is_alive()
        assert overlapped == solo
