"""Report structure tests."""

import pytest

from repro.core.report import AnalysisReport, PropertyResult, Verdict
from repro.properties import property_by_id
from repro.threat import ThreatConfig
from repro.properties.spec import Property, KIND_LTL


def make_property(identifier="SEC-X", attack_id=""):
    return Property(identifier, "security", KIND_LTL, "test property",
                    formula="G (true)", threat=ThreatConfig(),
                    attack_id=attack_id)


def make_report():
    report = AnalysisReport(implementation="srsue",
                            fsm_summary={"states": 9, "transitions": 40},
                            coverage_percent=100.0)
    report.results.append(PropertyResult(
        make_property("SEC-A"), Verdict.VERIFIED, elapsed_seconds=0.1))
    report.results.append(PropertyResult(
        make_property("SEC-B", attack_id="P1"), Verdict.VIOLATED,
        evidence="replay accepted", iterations=2, elapsed_seconds=0.2))
    report.results.append(PropertyResult(
        make_property("SEC-C", attack_id="P1"), Verdict.VIOLATED))
    return report


class TestVerdictEnum:
    def test_members_and_values(self):
        assert Verdict.VERIFIED.value == "verified"
        assert Verdict.VIOLATED.value == "violated"
        assert Verdict.NOT_APPLICABLE.value == "not-applicable"

    def test_error_member(self):
        assert Verdict.ERROR.value == "error"
        result = PropertyResult(make_property(), "error",
                                evidence="checker error: boom")
        assert result.outcome is Verdict.ERROR
        assert not result.violated

    def test_string_coercion_in_constructor(self):
        result = PropertyResult(make_property(), "violated")
        assert result.outcome is Verdict.VIOLATED

    def test_to_dict_emits_plain_strings(self):
        # from_dict resolves the property from the catalog, so the
        # round-trip needs a real identifier
        result = PropertyResult(property_by_id("SEC-37"), Verdict.VERIFIED)
        assert result.to_dict()["verdict"] == "verified"
        restored = PropertyResult.from_dict(result.to_dict())
        assert restored.outcome is Verdict.VERIFIED


class TestPropertyResult:
    def test_violated_flag(self):
        result = PropertyResult(make_property(), Verdict.VIOLATED)
        assert result.violated
        assert not PropertyResult(make_property(),
                                  Verdict.VERIFIED).violated

    def test_summary_mentions_cegar_iterations(self):
        result = PropertyResult(make_property(), Verdict.VERIFIED,
                                iterations=3, elapsed_seconds=1.0)
        assert "3 CEGAR iterations" in result.summary()

    def test_summary_quiet_for_single_iteration(self):
        result = PropertyResult(make_property(), Verdict.VERIFIED,
                                iterations=1)
        assert "CEGAR" not in result.summary()


class TestAnalysisReport:
    def test_partitions(self):
        report = make_report()
        assert len(report.verified()) == 1
        assert len(report.violated()) == 2

    def test_attack_ids_deduplicated(self):
        report = make_report()
        assert report.detected_attacks() == {"P1"}

    def test_counts(self):
        counts = make_report().counts()
        assert counts == {"properties": 3, "verified": 1,
                          "violated": 2, "errors": 0, "attacks": 1}

    def test_result_lookup(self):
        report = make_report()
        assert report.result_for("SEC-B").violated
        with pytest.raises(KeyError):
            report.result_for("SEC-Z")

    def test_format_table(self):
        text = make_report().format_table()
        assert "srsue" in text
        assert "SEC-A" in text
        assert "P1" in text
        assert "total: 3 properties" in text
        assert "checker errors" not in text   # quiet when error-free

    def test_error_partition_and_counts(self):
        report = make_report()
        report.results.append(PropertyResult(
            make_property("SEC-D"), Verdict.ERROR,
            evidence="checker error: InjectedFault: boom"))
        assert [r.property.identifier for r in report.errors()] == ["SEC-D"]
        assert report.counts()["errors"] == 1
        # an errored property is not a detection
        assert report.detected_attacks() == {"P1"}
        assert "1 checker errors" in report.format_table()
