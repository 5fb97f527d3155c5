"""Parallel verification engine: determinism, caching, serialization.

The engine's contract is that parallelism and caching are pure
performance features: a pooled run must produce byte-identical verdicts
to the serial path, and a full analysis must execute exactly one
conformance run + extraction per implementation regardless of how many
``ProChecker`` instances participate.
"""

import json
import threading

import pytest

import repro.obs as obs
from repro.core import (AnalysisConfig, EngineError, ExtractionCache,
                        ProChecker, ProCheckerError, analyze_many,
                        extraction_cache, group_properties)
from repro.cli import main as cli_main
from repro.conformance import full_suite
from repro.core.engine import run_extraction
from repro.core.report import AnalysisReport, PropertyResult
from repro.obs import PipelineStats, audit_trace, read_trace
from repro.properties import ALL_PROPERTIES, property_by_id
from repro.testbed import AttackOutcome, AttackResult, run_attack

IMPLEMENTATIONS = ("reference", "srsue", "oai")


@pytest.fixture(scope="module")
def serial_reports():
    return {impl: ProChecker.from_config(
                AnalysisConfig(impl, jobs=1)).analyze()
            for impl in IMPLEMENTATIONS}


# ---------------------------------------------------------------------------
# Determinism: pooled == serial
# ---------------------------------------------------------------------------
class TestParallelDeterminism:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_parallel_matches_serial(self, serial_reports, implementation):
        parallel = ProChecker.from_config(
            AnalysisConfig(implementation, jobs=4)).analyze()
        serial = serial_reports[implementation]
        assert parallel.verdict_signature() == serial.verdict_signature()
        assert parallel.jobs == 4
        assert serial.jobs == 1
        assert parallel.counts() == serial.counts()
        assert parallel.detected_attacks() == serial.detected_attacks()

    def test_results_stay_in_catalog_order(self, serial_reports):
        parallel = ProChecker.from_config(
            AnalysisConfig("srsue", jobs=4)).analyze()
        identifiers = [r.property.identifier for r in parallel.results]
        assert identifiers == [p.identifier for p in ALL_PROPERTIES]
        assert identifiers == [r.property.identifier
                               for r in serial_reports["srsue"].results]

    def test_worker_metrics_cover_all_properties(self):
        report = ProChecker.from_config(
            AnalysisConfig("reference", jobs=2)).analyze()
        metrics = report.worker_metrics()
        assert sum(m["properties"] for m in metrics.values()) == 62
        for stats in metrics.values():
            assert stats["busy_seconds"] >= 0.0

    def test_analyze_many_matches_individual_runs(self, serial_reports):
        reports = analyze_many(IMPLEMENTATIONS, jobs=2)
        assert set(reports) == set(IMPLEMENTATIONS)
        for implementation, report in reports.items():
            assert report.verdict_signature() \
                == serial_reports[implementation].verdict_signature()


# ---------------------------------------------------------------------------
# Observability: stats determinism, trace reassembly, CLI emission
# ---------------------------------------------------------------------------
class TestObservability:
    def test_canonical_stats_identical_across_jobs(self, serial_reports):
        """The ISSUE's headline contract: --jobs 4 aggregates to the
        byte-identical canonical PipelineStats of a --jobs 1 run."""
        parallel = ProChecker.from_config(
            AnalysisConfig("reference", jobs=4)).analyze()
        serial = serial_reports["reference"]
        assert serial.stats is not None
        assert parallel.stats is not None
        assert parallel.stats.canonical_json() \
            == serial.stats.canonical_json()
        assert parallel.stats.jobs == 4
        assert serial.stats.jobs == 1

    def test_stats_cover_every_property(self, serial_reports):
        stats = serial_reports["srsue"].stats
        assert set(stats.properties) \
            == {p.identifier for p in ALL_PROPERTIES}
        assert sum(stats.verdicts.values()) == 62
        # every LTL property runs at least one CEGAR iteration
        assert stats.totals["cegar.iterations"] >= 49
        assert stats.phases["verify.property"]["count"] == 62
        assert stats.runtime["elapsed_seconds"] > 0

    def test_stats_round_trip_through_report(self, serial_reports):
        report = serial_reports["oai"]
        payload = json.loads(json.dumps(report.to_dict()))
        restored = AnalysisReport.from_dict(payload)
        assert restored.stats is not None
        assert restored.stats.canonical_json() \
            == report.stats.canonical_json()
        assert restored.stats.jobs == report.stats.jobs
        assert restored.stats.phases == report.stats.phases

    def test_worker_spans_reassemble_into_one_trace(self):
        """Spans recorded inside pool workers come home and graft under
        the parent's verify phase — one tree, keyed by property id."""
        obs.reset()
        extraction_cache.clear()
        ProChecker.from_config(
            AnalysisConfig("reference", jobs=4)).analyze()
        roots = obs.drain_spans()
        analyze_roots = [r for r in roots if r.name == "pipeline.analyze"]
        assert len(analyze_roots) == 1
        root = analyze_roots[0]
        verify_phases = root.find("pipeline.verify")
        assert len(verify_phases) == 1
        property_spans = verify_phases[0].find("verify.property")
        assert sorted(span.attributes["property"]
                      for span in property_spans) \
            == sorted(p.identifier for p in ALL_PROPERTIES)

    def test_cli_trace_out_profile_and_audit(self, tmp_path, capsys):
        obs.reset()
        extraction_cache.clear()
        trace = tmp_path / "trace.jsonl"
        code = cli_main(["analyze", "reference", "--jobs", "2",
                         "--trace-out", str(trace), "--profile"])
        assert code == 0
        captured = capsys.readouterr()
        assert "pipeline profile" in captured.out
        assert str(trace) in captured.err
        # a cold full run exhibits every required pipeline phase
        assert audit_trace(str(trace)) == []
        stats_records = [r for r in read_trace(str(trace))
                         if r["type"] == "pipeline_stats"]
        assert len(stats_records) == 1
        restored = PipelineStats.from_dict(stats_records[0]["stats"])
        assert sum(restored.verdicts.values()) == 62


# ---------------------------------------------------------------------------
# Extraction cache
# ---------------------------------------------------------------------------
def cache_traffic(scope):
    """``(builds, hits)`` of the extraction cache seen by ``scope``."""
    counters = scope.snapshot()["counters"]
    return (counters.get("extraction.cache_misses", 0),
            counters.get("extraction.cache_hits", 0))


class TestExtractionCache:
    def test_one_conformance_run_across_instances(self):
        extraction_cache.clear()
        with obs.metrics_scope() as scope:
            first = ProChecker("srsue").extract()
            second = ProChecker("srsue").extract()
        builds, hits = cache_traffic(scope)
        assert builds == 1
        assert hits >= 1
        assert first is second

    def test_full_analysis_runs_conformance_once(self):
        extraction_cache.clear()
        with obs.metrics_scope() as scope:
            ProChecker.from_config(AnalysisConfig("reference")).analyze()
        assert cache_traffic(scope)[0] == 1

    def test_custom_suite_bypasses_the_cache(self):
        """Small suites go to ``run_extraction`` directly; the shared
        cache only ever holds full-suite extractions."""
        extraction_cache.clear()
        with obs.metrics_scope() as bypass:
            custom = run_extraction("srsue", full_suite("srsue")[:10])
        assert cache_traffic(bypass) == (0, 0)
        with obs.metrics_scope() as scope:
            # The custom run filed no entry: this get builds.
            cached = extraction_cache.get("srsue")
            assert cache_traffic(scope) == (1, 0)
            assert custom.conformance_cases < cached.conformance_cases
            assert ProChecker("srsue").extract() is cached.fsm
        assert cache_traffic(scope) == (1, 1)


class TestExtractionCacheConcurrency:
    """Regression: ``get`` used to hold the cache-wide lock across the
    whole conformance run + extraction, serialising concurrent callers
    for *different* implementations behind one build."""

    def _patched_cache(self, monkeypatch, started, release):
        from repro.core import engine as engine_module
        from repro.core.engine import ExtractionRecord

        def fake_extraction(implementation, cases=None, chaos=None,
                            chaos_runs=1):
            if implementation == "slow":
                started.set()
                assert release.wait(timeout=10.0), "slow build never freed"
            return ExtractionRecord(implementation, fsm=None,
                                    extraction_seconds=0.0,
                                    coverage_percent=0.0,
                                    conformance_cases=0, log_lines=0)

        monkeypatch.setattr(engine_module, "run_extraction",
                            fake_extraction)
        return ExtractionCache()

    @staticmethod
    def _scoped_get(cache, implementation, scopes, results=None):
        """``cache.get`` on this thread, counted in a scope of its own
        (a scope does not follow work onto other threads)."""
        with obs.metrics_scope() as scope:
            scopes.append(scope)
            record = cache.get(implementation)
        if results is not None:
            results.append(record)

    def test_different_keys_build_concurrently(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        cache = self._patched_cache(monkeypatch, started, release)
        scopes = []
        slow = threading.Thread(target=self._scoped_get,
                                args=(cache, "slow", scopes))
        slow.start()
        try:
            assert started.wait(timeout=10.0)
            # the slow build is in flight and must not block this key
            with obs.metrics_scope() as scope:
                record = cache.get("fast")
            assert record.implementation == "fast"
            assert slow.is_alive()
        finally:
            release.set()
            slow.join(timeout=10.0)
        assert not slow.is_alive()
        assert cache_traffic(scopes[0]) == (1, 0)
        assert cache_traffic(scope) == (1, 0)

    def test_same_key_callers_share_one_build(self, monkeypatch):
        started, release = threading.Event(), threading.Event()
        cache = self._patched_cache(monkeypatch, started, release)
        results, scopes = [], []
        threads = [threading.Thread(
            target=self._scoped_get, args=(cache, "slow", scopes, results))
            for _ in range(3)]
        for thread in threads:
            thread.start()
        assert started.wait(timeout=10.0)
        release.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert len(results) == 3
        assert all(record is results[0] for record in results)
        # One caller built; the other two shared its record.
        traffic = sorted(cache_traffic(scope) for scope in scopes)
        assert traffic == [(0, 1), (0, 1), (1, 0)]


class TestSuiteFingerprint:
    """Every cache entry extracts the full suite, so the key is the
    implementation (plus the chaos spec, covered below)."""

    def test_default_suite_key_is_stable(self):
        assert ExtractionCache.fingerprint("srsue") \
            == ExtractionCache.fingerprint("srsue")
        assert ExtractionCache.fingerprint("srsue") \
            != ExtractionCache.fingerprint("oai")


# ---------------------------------------------------------------------------
# AnalysisConfig
# ---------------------------------------------------------------------------
class TestAnalysisConfig:
    def test_property_id_filter(self):
        config = AnalysisConfig("reference",
                                property_ids=("SEC-01", "PRIV-08"))
        selected = config.resolved_properties()
        assert [p.identifier for p in selected] == ["SEC-01", "PRIV-08"]

    def test_category_filter(self):
        config = AnalysisConfig("reference", category="privacy")
        selected = config.resolved_properties()
        assert selected
        assert all(p.category == "privacy" for p in selected)

    def test_unknown_property_id_rejected(self):
        with pytest.raises(EngineError):
            AnalysisConfig("reference",
                           property_ids=("NOPE-1",)).resolved_properties()

    def test_unknown_category_rejected(self):
        with pytest.raises(EngineError):
            AnalysisConfig("reference",
                           category="astrology").resolved_properties()

    def test_resolved_jobs_floor(self):
        assert AnalysisConfig("reference", jobs=0).resolved_jobs() == 1
        assert AnalysisConfig("reference", jobs=3).resolved_jobs() == 3
        assert AnalysisConfig("reference").resolved_jobs() >= 1

    def test_config_implementation_mismatch_rejected(self):
        with pytest.raises(ProCheckerError):
            ProChecker("oai", config=AnalysisConfig("srsue"))

    @pytest.mark.parametrize("removed", [
        "properties", "cases", "use_extraction_cache",
        "share_cegar_inputs", "max_group_retries", "retry_backoff_seconds",
        "max_cegar_iterations"])
    def test_removed_option_is_rejected(self, removed):
        # The wire form ignores these keys (older payloads still load);
        # a caller passing one directly is told at once.
        with pytest.raises(TypeError):
            AnalysisConfig("reference", **{removed: None})

    def test_single_analysis_is_a_batch_of_one(self):
        """``ProChecker.analyze`` and ``analyze_many`` share one body, so
        a one-config batch yields the same report, stats included."""
        config = AnalysisConfig("srsue", jobs=1,
                                property_ids=("SEC-01", "SEC-37", "PRIV-08"))
        single = ProChecker.from_config(config).analyze()
        batch = analyze_many([config])["srsue"]
        assert single.verdict_signature() == batch.verdict_signature()
        assert single.stats.canonical_json() == batch.stats.canonical_json()
        assert (single.jobs, single.conformance_cases, single.fsm_summary) \
            == (batch.jobs, batch.conformance_cases, batch.fsm_summary)

    def test_grouping_covers_catalog_without_duplicates(self):
        groups = group_properties(ALL_PROPERTIES)
        flattened = [p.identifier for group in groups for p in group]
        assert sorted(flattened) \
            == sorted(p.identifier for p in ALL_PROPERTIES)
        assert len(groups) < len(ALL_PROPERTIES)  # LTL configs shared


# ---------------------------------------------------------------------------
# Deprecation shim (removed with the repro.api facade)
# ---------------------------------------------------------------------------
def test_analyze_implementation_shim_removed():
    """The PR 1 shim completed its deprecation cycle; the supported
    entry points are ProChecker.from_config / analyze_many (re-exported
    by repro.api)."""
    import repro
    import repro.api
    import repro.core
    for module in (repro, repro.core, repro.api):
        assert not hasattr(module, "analyze_implementation")
        assert "analyze_implementation" not in module.__all__


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------
class TestSerialization:
    def test_property_result_round_trip(self, serial_reports):
        report = serial_reports["srsue"]
        for result in (report.result_for("SEC-37"),
                       report.result_for("SEC-01")):
            payload = json.loads(json.dumps(result.to_dict()))
            restored = PropertyResult.from_dict(payload)
            assert restored.signature() == result.signature()
            if result.counterexample is not None:
                assert restored.counterexample.initial_state \
                    == result.counterexample.initial_state
                assert len(restored.counterexample.steps) \
                    == len(result.counterexample.steps)

    def test_report_round_trip(self, serial_reports):
        report = serial_reports["oai"]
        payload = json.loads(json.dumps(report.to_dict()))
        restored = AnalysisReport.from_dict(payload)
        assert restored.verdict_signature() == report.verdict_signature()
        assert restored.implementation == report.implementation
        assert restored.jobs == report.jobs
        assert restored.detected_attacks() == report.detected_attacks()

    def test_attack_result_round_trip(self):
        result = run_attack("I3", "srsue")
        payload = json.loads(json.dumps(result.to_dict(), default=str))
        restored = AttackResult.from_dict(payload)
        assert restored.attack_id == result.attack_id
        assert restored.succeeded == result.succeeded
        assert restored.evidence == result.evidence

    def test_attack_outcome_alias(self):
        assert AttackOutcome is AttackResult


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
class TestCli:
    def test_verify_json_output(self, capsys):
        code = cli_main(["verify", "reference", "SEC-37", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["property"] == "SEC-37"
        assert payload["verdict"] == "verified"

    def test_verify_not_applicable_exit_code(self):
        # PRIV-07 is a dash row for the reference UE in Table I.
        assert cli_main(["verify", "reference", "PRIV-07",
                         "--quiet"]) == 3

    def test_verify_violated_exit_code(self):
        assert cli_main(["verify", "srsue", "SEC-01", "--quiet"]) == 1

    def test_attack_json_output(self, capsys):
        code = cli_main(["attack", "P1", "reference", "--json"])
        assert code == 1  # attack succeeded
        payload = json.loads(capsys.readouterr().out)
        assert payload["attack_id"] == "P1"
        assert payload["succeeded"] is True

    def test_analyze_json_output(self, capsys):
        code = cli_main(["analyze", "reference", "--jobs", "2", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["implementation"] == "reference"
        assert payload["jobs"] == 2
        assert len(payload["results"]) == 62


class TestExtractionCacheChaosKeys:
    """Chaos extractions are cached under their own (config, runs) key,
    never aliasing the clean entry."""

    def test_chaos_key_distinct_from_clean(self):
        from repro.lte.channel import ChaosConfig

        extraction_cache.clear()
        clean = extraction_cache.get("reference")
        chaotic = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(), chaos_runs=2)
        assert chaotic is not clean
        assert clean.stability is None
        assert chaotic.stability is not None
        assert chaotic.stability.runs == 2

    def test_same_chaos_config_hits_the_cache(self):
        from repro.lte.channel import ChaosConfig

        extraction_cache.clear()
        first = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(), chaos_runs=2)
        with obs.metrics_scope() as scope:
            second = extraction_cache.get(
                "reference", chaos=ChaosConfig.default(), chaos_runs=2)
        assert second is first
        assert cache_traffic(scope) == (0, 1)

    def test_different_seed_is_a_different_key(self):
        from repro.lte.channel import ChaosConfig

        extraction_cache.clear()
        first = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(seed=0), chaos_runs=2)
        other = extraction_cache.get(
            "reference", chaos=ChaosConfig.default(seed=9), chaos_runs=2)
        assert other is not first
