"""End-to-end pipeline tests: the Table I detection matrix."""

import pytest

from repro.core import ProChecker, ProCheckerError, Verdict
from repro.properties import property_by_id
from repro.properties.expected import (NEW_ATTACKS,
                                       PRIOR_DETECTED,
                                       PRIOR_NOT_APPLICABLE)


@pytest.fixture(scope="module")
def reports():
    return {impl: ProChecker(impl).analyze()
            for impl in ("reference", "srsue", "oai")}


class TestPipelineBasics:
    def test_unknown_implementation_rejected(self):
        with pytest.raises(ProCheckerError):
            ProChecker("huawei")

    def test_extraction_cached(self):
        checker = ProChecker("reference")
        assert checker.extract() is checker.extract()

    def test_report_metadata(self, reports):
        report = reports["srsue"]
        assert report.fsm_summary["states"] >= 8
        assert report.coverage_percent == 100.0
        assert report.extraction_seconds > 0
        assert report.log_lines > 1000
        assert len(report.results) == 62

    def test_single_property_verification(self):
        checker = ProChecker("reference")
        result = checker.verify_property(property_by_id("SEC-37"))
        assert result.outcome == Verdict.VERIFIED


class TestDetectionMatrix:
    """RQ1: the verdicts reproduce the paper's Table I exactly."""

    @pytest.mark.parametrize("attack_id", sorted(NEW_ATTACKS))
    def test_new_attacks(self, reports, attack_id):
        for implementation, should_detect in NEW_ATTACKS[
                attack_id].items():
            detected = attack_id in reports[
                implementation].detected_attacks()
            assert detected == should_detect, (attack_id, implementation)

    @pytest.mark.parametrize("attack_id", PRIOR_DETECTED)
    def test_prior_attacks_detected_everywhere(self, reports, attack_id):
        for implementation, report in reports.items():
            assert attack_id in report.detected_attacks(), implementation

    @pytest.mark.parametrize("attack_id", PRIOR_NOT_APPLICABLE)
    def test_dash_rows_not_applicable(self, reports, attack_id):
        """Table I marks these rows '-' (not evaluated)."""
        for report in reports.values():
            assert attack_id not in report.detected_attacks()

    def test_paper_headline_counts(self, reports):
        """3 new protocol attacks + per-implementation issues + at least
        the 12 applicable prior attacks."""
        for implementation, report in reports.items():
            attacks = report.detected_attacks()
            assert {"P1", "P2", "P3"} <= attacks
            prior = {a for a in attacks if a.startswith("PRIOR-")}
            assert len(prior) == 12

    def test_srsue_issue_set(self, reports):
        issues = {a for a in reports["srsue"].detected_attacks()
                  if a.startswith("I")}
        assert issues == {"I1", "I3", "I4", "I6"}

    def test_oai_issue_set(self, reports):
        issues = {a for a in reports["oai"].detected_attacks()
                  if a.startswith("I")}
        assert issues == {"I1", "I2", "I5", "I6"}

    def test_reference_has_no_implementation_issues(self, reports):
        issues = {a for a in reports["reference"].detected_attacks()
                  if a.startswith("I")}
        assert issues == set()


class TestVerdictQuality:
    def test_no_unexpected_violations(self, reports):
        """Every violated property maps to a known Table I attack."""
        for implementation, report in reports.items():
            for result in report.violated():
                assert result.property.attack_id, (
                    implementation, result.property.identifier)

    def test_violations_carry_evidence(self, reports):
        for report in reports.values():
            for result in report.violated():
                assert result.counterexample is not None \
                    or result.evidence

    def test_format_table_renders(self, reports):
        text = reports["srsue"].format_table()
        assert "SEC-01" in text
        assert "violated" in text

    def test_result_lookup(self, reports):
        result = reports["oai"].result_for("PRIV-08")
        assert result.outcome == Verdict.VIOLATED
        with pytest.raises(KeyError):
            reports["oai"].result_for("NOPE-1")

    def test_not_applicable_verdict(self, reports):
        result = reports["reference"].result_for("PRIV-07")
        assert result.outcome == Verdict.NOT_APPLICABLE
