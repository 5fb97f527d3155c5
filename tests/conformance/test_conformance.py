"""Conformance framework tests: suite composition, runner, coverage."""

import hashlib

import pytest

from repro.conformance import (ConformanceRunner, additional_cases,
                               coverage_gain, full_suite, generated_suite,
                               handler_universe, measure_coverage,
                               run_conformance, standard_suite)
from repro.lte.implementations import REGISTRY


class TestSuiteComposition:
    def test_standard_suite_covers_all_procedures(self):
        procedures = {case.procedure for case in standard_suite()}
        assert {"attach", "authentication", "security-mode",
                "guti-reallocation", "tracking-area-update", "paging",
                "detach", "identity"} <= procedures

    def test_additional_case_counts_match_paper(self):
        """Nine added for srsLTE, seven for OAI (Section VI)."""
        added = additional_cases()
        assert sum(1 for case in added if "srsue" in case.added_for) == 9
        assert sum(1 for case in added if "oai" in case.added_for) == 7

    def test_full_suite_filters_by_implementation(self):
        srsue_ids = {case.identifier for case in full_suite("srsue")}
        oai_ids = {case.identifier for case in full_suite("oai")}
        reference_ids = {case.identifier
                         for case in full_suite("reference")}
        assert "TC_X_REJ_1" in srsue_ids
        assert "TC_X_REJ_1" not in oai_ids
        assert "TC_X_ID_1" in oai_ids
        # the reference gets every case (its suite is "complete")
        assert srsue_ids <= reference_ids
        assert oai_ids <= reference_ids

    def test_unique_identifiers(self):
        identifiers = [case.identifier for case in full_suite()]
        assert len(identifiers) == len(set(identifiers))

    def test_generated_suite_scales(self):
        base = len(full_suite())
        assert len(generated_suite(multiplier=3)) == 3 * base


class TestRunner:
    def test_unknown_implementation_rejected(self):
        with pytest.raises(ValueError):
            ConformanceRunner("nokia")

    def test_all_cases_execute_cleanly(self, conformance_runs):
        for impl, run in conformance_runs.items():
            assert not run.failures, (impl, [f.error
                                             for f in run.failures])

    def test_instrumented_run_produces_log(self, conformance_runs):
        run = conformance_runs["reference"]
        assert run.log_lines() > 1000
        assert "TESTCASE TC_ATTACH_1" in run.log_text

    def test_uninstrumented_run_has_no_log(self):
        result = run_conformance("reference", standard_suite()[:2],
                                 instrument=False)
        assert result.log_text == ""
        assert result.executed == 2

    def test_fresh_subscriber_per_case(self, conformance_runs):
        """Each case gets its own context (MSIN sweep)."""
        run = conformance_runs["reference"]
        assert run.executed == len(full_suite("reference"))


class TestGoldenLogs:
    """Each stack's instrumented log text, byte for byte.

    The digests were taken before the testbed's primitives were
    memoised; the log feeds extraction, so any change moves verdicts.
    """

    @pytest.mark.parametrize("implementation,digest", [
        ("reference", "df839a280afb941f0cc31d60c1fc0836"
                      "37fdedad2e98cc347b0247491d0d5337"),
        ("srsue", "166f0673401be636b522491e673894b1"
                  "c0687b533440ef4cc040113218b3c5c6"),
        ("oai", "6df91d94384d39e52cadd95f8710de5e"
                "5844a977e0d0abdd6c556a7d64935b8d"),
    ])
    def test_log_digest(self, conformance_runs, implementation, digest):
        log_text = conformance_runs[implementation].log_text
        assert hashlib.sha256(log_text.encode()).hexdigest() == digest


class TestCoverage:
    def test_handler_universe(self):
        universe = handler_universe(REGISTRY["srsue"])
        assert "parse_attach_accept" in universe
        assert "send_attach_request" in universe

    def test_full_suite_reaches_total_coverage(self, conformance_runs):
        for impl, run in conformance_runs.items():
            report = measure_coverage(REGISTRY[impl], run.log_text, impl)
            assert report.percent == 100.0, (impl, report.uncovered())

    def test_additional_cases_enrich_the_extracted_model(self):
        """The added probes do not just cover handlers — they witness
        behaviours (transitions) the stock suite never exercises."""
        from repro.extraction import extract_model, \
            table_for_implementation
        table = table_for_implementation(REGISTRY["srsue"])
        base_run = run_conformance("srsue", standard_suite())
        full_run = run_conformance("srsue", full_suite("srsue"))
        base_fsm, _ = extract_model(base_run.log_text, table)
        full_fsm, _ = extract_model(full_run.log_text, table)
        assert len(full_fsm.transitions) > len(base_fsm.transitions)

    def test_coverage_gain_from_additional_cases(self):
        base_run = run_conformance("srsue", standard_suite())
        full_run = run_conformance("srsue", full_suite("srsue"))
        base = measure_coverage(REGISTRY["srsue"], base_run.log_text)
        extended = measure_coverage(REGISTRY["srsue"], full_run.log_text)
        gain = coverage_gain(base, extended)
        assert gain["extended_percent"] >= gain["base_percent"]

    def test_per_testcase_attribution(self, conformance_runs):
        run = conformance_runs["reference"]
        report = measure_coverage(REGISTRY["reference"], run.log_text)
        covering = report.testcases_covering("recv_attach_accept")
        assert "TC_ATTACH_1" in covering

    def test_stimulus_pairs_collected(self, conformance_runs):
        run = conformance_runs["reference"]
        report = measure_coverage(REGISTRY["reference"], run.log_text)
        assert ("EMM_REGISTERED_INITIATED", "authentication_request") \
            in report.stimulus_pairs
