"""Chaos channel ↔ analysis pipeline: the byte-identity guarantee.

The headline contract of the chaos subsystem: at the default sub-abort
impairment rates the retransmission discipline absorbs every loss, so a
chaos-perturbed analysis must produce the byte-identical verdict
signature and canonical PipelineStats of a clean run — noise changes the
report's *stability* block, never its conclusions.
"""

import json

from repro.core import AnalysisConfig, ProChecker
from repro.core.report import AnalysisReport
from repro.lte.channel import ChaosConfig
from repro.properties import ALL_PROPERTIES

SUBSET = [prop.identifier for prop in ALL_PROPERTIES[:6]]


def _analyze(chaos=None, chaos_runs=1):
    config = AnalysisConfig("reference", jobs=1, property_ids=SUBSET,
                            chaos=chaos, chaos_runs=chaos_runs)
    return ProChecker.from_config(config).analyze()


class TestChaosAnalysisIdentity:
    def test_verdicts_and_canonical_stats_byte_identical(self):
        clean = _analyze()
        chaotic = _analyze(chaos=ChaosConfig.default(seed=0),
                           chaos_runs=2)
        assert clean.verdict_signature() == chaotic.verdict_signature()
        assert (clean.stats.canonical_json()
                == chaotic.stats.canonical_json())

    def test_stability_attached_only_under_consensus_chaos(self):
        clean = _analyze()
        chaotic = _analyze(chaos=ChaosConfig.default(seed=0),
                           chaos_runs=2)
        assert clean.stability is None
        assert chaotic.stability is not None
        assert chaotic.stability["stable"] is True
        assert chaotic.stability["quarantined"] == []

    def test_stability_round_trips_through_report_dict(self):
        chaotic = _analyze(chaos=ChaosConfig.default(seed=0),
                           chaos_runs=2)
        payload = json.loads(json.dumps(chaotic.to_dict()))
        restored = AnalysisReport.from_dict(payload)
        assert restored.stability == chaotic.stability
        assert restored.verdict_signature() == chaotic.verdict_signature()
