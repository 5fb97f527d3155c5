"""Wire-format versioning: schema_version stamping and major rejection."""

import pytest

from repro import schema
from repro.core import AnalysisConfig, AnalysisReport, PropertyResult, Verdict
from repro.obs.stats import PipelineStats
from repro.properties import property_by_id
from repro.store import job_digest


def _small_report():
    result = PropertyResult(property=property_by_id("SEC-01"),
                            outcome=Verdict.VERIFIED,
                            evidence="holds", iterations=1)
    return AnalysisReport(implementation="reference", results=[result])


class TestSchemaModule:
    def test_current_version_parses(self):
        major, minor = schema.parse_version(schema.SCHEMA_VERSION)
        assert (major, minor) == (1, 2)
        assert schema.CURRENT_MAJOR == 1

    def test_stamp_sets_key(self):
        payload = schema.stamp({"x": 1})
        assert payload[schema.SCHEMA_KEY] == schema.SCHEMA_VERSION

    def test_check_accepts_current_and_legacy(self):
        assert schema.check({schema.SCHEMA_KEY: "1.0"}) == (1, 0)
        # Pre-versioning payloads are grandfathered in (None, no raise).
        assert schema.check({"implementation": "oai"}) is None

    def test_check_accepts_future_minor(self):
        # Minor bumps are additive by policy: old readers must accept.
        assert schema.check({schema.SCHEMA_KEY: "1.7"}) == (1, 7)

    def test_check_rejects_future_major(self):
        with pytest.raises(schema.SchemaVersionError, match="major"):
            schema.check({schema.SCHEMA_KEY: "99.0"}, "AnalysisReport")

    def test_check_rejects_malformed(self):
        for bad in ("one.zero", "", "v1.0", "1.x"):
            with pytest.raises(schema.SchemaVersionError):
                schema.check({schema.SCHEMA_KEY: bad})

    def test_error_is_a_value_error(self):
        assert issubclass(schema.SchemaVersionError, ValueError)


class TestReportVersioning:
    def test_report_round_trip_current(self):
        report = _small_report()
        payload = report.to_dict()
        assert payload[schema.SCHEMA_KEY] == schema.SCHEMA_VERSION
        assert (payload["results"][0][schema.SCHEMA_KEY]
                == schema.SCHEMA_VERSION)
        rebuilt = AnalysisReport.from_dict(payload)
        assert rebuilt.verdict_signature() == report.verdict_signature()

    def test_report_rejects_future_major(self):
        payload = _small_report().to_dict()
        payload[schema.SCHEMA_KEY] = "99.0"
        with pytest.raises(schema.SchemaVersionError):
            AnalysisReport.from_dict(payload)

    def test_property_result_rejects_future_major(self):
        payload = _small_report().results[0].to_dict()
        payload[schema.SCHEMA_KEY] = "99.0"
        with pytest.raises(schema.SchemaVersionError):
            PropertyResult.from_dict(payload)

    def test_report_accepts_future_minor(self):
        payload = _small_report().to_dict()
        payload[schema.SCHEMA_KEY] = "1.9"
        payload["brand_new_optional_field"] = True
        rebuilt = AnalysisReport.from_dict(payload)
        assert rebuilt.implementation == "reference"

    def test_legacy_unversioned_payload_accepted(self):
        payload = _small_report().to_dict()
        del payload[schema.SCHEMA_KEY]
        for item in payload["results"]:
            del item[schema.SCHEMA_KEY]
        rebuilt = AnalysisReport.from_dict(payload)
        assert len(rebuilt.results) == 1


class TestStatsVersioning:
    def test_stats_round_trip(self):
        stats = PipelineStats()
        payload = stats.to_dict()
        assert payload[schema.SCHEMA_KEY] == schema.SCHEMA_VERSION
        PipelineStats.from_dict(payload)

    def test_stats_rejects_future_major(self):
        payload = PipelineStats().to_dict()
        payload[schema.SCHEMA_KEY] = "99.0"
        with pytest.raises(schema.SchemaVersionError):
            PipelineStats.from_dict(payload)

    def test_canonical_dict_stays_unversioned(self):
        # canonical_dict feeds determinism comparisons and must stay
        # byte-identical across releases, so it is deliberately unstamped.
        assert schema.SCHEMA_KEY not in PipelineStats().canonical_dict()


class TestConfigVersioning:
    def test_config_round_trip(self):
        config = AnalysisConfig("srsue", property_ids=["SEC-01", "SEC-02"],
                                jobs=2)
        payload = config.to_dict()
        assert payload[schema.SCHEMA_KEY] == schema.SCHEMA_VERSION
        assert not {"use_extraction_cache", "share_cegar_inputs",
                    "max_group_retries", "retry_backoff_seconds"} \
            & set(payload)
        rebuilt = AnalysisConfig.from_dict(payload)
        assert rebuilt.implementation == "srsue"
        assert rebuilt.property_ids == ["SEC-01", "SEC-02"]
        assert rebuilt.jobs == 2
        # A payload written before the retry and cache switches were
        # removed (a client submit, a journal entry) still loads and
        # keeps its job identity.
        parent_era = dict(payload, use_extraction_cache=False,
                          share_cegar_inputs=False, max_group_retries=5,
                          retry_backoff_seconds=0.5)
        restored = AnalysisConfig.from_dict(parent_era)
        assert restored == rebuilt
        assert job_digest(restored) == job_digest(config)

    def test_config_rejects_future_major(self):
        payload = AnalysisConfig("oai").to_dict()
        payload[schema.SCHEMA_KEY] = "99.0"
        with pytest.raises(schema.SchemaVersionError):
            AnalysisConfig.from_dict(payload)
