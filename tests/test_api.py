"""The supported public surface: ``repro.api`` exports and stability."""

import pytest

import repro
import repro.api as api
import repro.core
import repro.core.engine
import repro.core.report
import repro.fuzz
import repro.mc
import repro.mc.buchi
import repro.mc.checker
import repro.serve

#: Names deleted from the public surface, with the object that held them.
REMOVED = [
    (repro, "analyze_implementation"),
    (repro.core, "analyze_implementation"),
    (api, "analyze_implementation"),
    (repro.mc, "check_ltl"),
    (repro.mc, "check_invariant"),
    (repro.mc.checker, "check_ltl"),
    (repro.mc.checker, "check_invariant"),
    (repro.mc, "check_ltl_materialised"),
    (repro.mc, "STRATEGY_ON_THE_FLY"),
    (repro.mc, "STRATEGY_MATERIALISED"),
    (repro.mc.CheckRequest, "strategy"),
    (repro.mc, "CheckerError"),
    (repro.core, "VERDICT_VERIFIED"),
    (repro.core, "VERDICT_VIOLATED"),
    (repro.core, "VERDICT_NOT_APPLICABLE"),
    (repro.core, "VERDICT_ERROR"),
    (repro.core.report, "VERDICT_VERIFIED"),
    (repro.core.report, "VERDICT_VIOLATED"),
    (repro.core.report, "VERDICT_NOT_APPLICABLE"),
    (repro.core.report, "VERDICT_ERROR"),
    (repro.core.report.PropertyResult, "verdict"),
    (repro.serve, "Watchdog"),
    (api, "Watchdog"),
    (repro.mc, "buchi_cache_stats"),
    (repro.mc.buchi, "buchi_cache_stats"),
    (repro.core.engine.ExtractionCache, "stats"),
    (repro.fuzz.FuzzConfig, "jobs"),
    (repro.mc.Model, "enabled_commands"),
    (repro.mc.Model, "apply"),
    (repro.mc.Model, "successors"),
    (repro.mc.StateGraph, "literal_evaluator"),
    (repro.mc.StateGraph, "label_evaluator"),
    (repro.mc.BuchiAutomaton, "state_satisfies"),
    (repro.mc.Expr, "compile"),
    (repro.mc.Atom, "compile"),
]


class TestFacade:
    def test_all_is_explicit_and_complete(self):
        assert api.__all__
        for name in api.__all__:
            assert hasattr(api, name), f"__all__ names missing {name}"

    def test_core_entry_points_exported(self):
        for name in ("AnalysisConfig", "ProChecker", "AnalysisReport",
                     "PropertyResult", "Verdict", "analyze_many"):
            assert name in api.__all__

    def test_versioning_exported(self):
        assert api.SCHEMA_VERSION == repro.SCHEMA_VERSION
        assert "SchemaVersionError" in api.__all__

    def test_service_surface_exported(self):
        for name in ("AnalysisService", "ServeClient", "create_server",
                     "ResultStore", "job_digest", "JobStatus"):
            assert name in api.__all__

    def test_no_private_leaks(self):
        assert not [name for name in api.__all__
                    if name.startswith("_")]

    def test_facade_objects_are_the_canonical_ones(self):
        # The facade re-exports, it does not wrap: identity must hold so
        # isinstance checks work across both import paths.
        from repro.core import AnalysisConfig, ProChecker
        assert api.AnalysisConfig is AnalysisConfig
        assert api.ProChecker is ProChecker


class TestShimRemoval:
    @pytest.mark.parametrize("owner, name", REMOVED, ids=[
        f"{owner.__name__}.{name}" for owner, name in REMOVED])
    def test_removed_name_is_gone(self, owner, name):
        assert not hasattr(owner, name)

    def test_smoke_analysis_through_facade(self):
        config = api.AnalysisConfig("reference", property_ids=["SEC-37"])
        report = api.ProChecker.from_config(config).analyze()
        assert report.results[0].outcome is api.Verdict.VERIFIED
