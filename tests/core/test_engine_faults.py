"""Fault-tolerant engine: crash isolation, timeouts, serial fallback.

Every test drives the engine through :mod:`repro.faults`, the
deterministic fault-injection harness: a fault fires on the k-th call to
a named site, so crashed workers, hung groups and raising checkers are
reproducible on demand.  The contract under test is the ISSUE's
acceptance criterion — with a fault injected into any one property
group, ``analyze``/``analyze_many`` still return a *complete* report
whose healthy verdicts are byte-identical to a fault-free serial run.
"""

import json
import time

import pytest

import repro.obs as obs
from repro import faults
from repro.cli import main as cli_main
from repro.core import (AnalysisConfig, ProChecker, Verdict, analyze_many,
                        exception_chain)
from repro.core.engine import error_result
from repro.properties import ALL_PROPERTIES, property_by_id

#: a small cross-section: the SEC-01 LTL group (SEC-01/02/05 share one
#: threat config), a second LTL group, and one testbed property
SUBSET = ("SEC-01", "SEC-02", "SEC-05", "PRIV-01", "SEC-10", "SEC-11")


@pytest.fixture(autouse=True)
def clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture(scope="module")
def baseline():
    """Fault-free serial run of the full catalog (the golden verdicts)."""
    faults.clear()
    return ProChecker.from_config(
        AnalysisConfig("reference", jobs=1)).analyze()


def signatures_by_id(report):
    return {sig[0]: sig for sig in report.verdict_signature()}


def engine_counters(report):
    counters = report.stats.runtime["metrics"]["counters"]
    return {name: value for name, value in counters.items()
            if name.startswith("engine.")}


# ---------------------------------------------------------------------------
# The harness itself
# ---------------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_full_form(self):
        spec = faults.FaultSpec.parse("engine.verify_group@SEC-01:exit:2:all")
        assert spec.site == "engine.verify_group"
        assert spec.key == "SEC-01"
        assert spec.kind == faults.KIND_EXIT
        assert spec.nth == 2
        assert spec.scope == faults.SCOPE_ALL

    def test_parse_defaults(self):
        spec = faults.FaultSpec.parse("cegar.iteration:raise")
        assert spec.key is None
        assert spec.nth == 1
        assert spec.scope == faults.SCOPE_WORKER

    @pytest.mark.parametrize("bad", [
        "no-kind", "site:frobnicate", "site:raise:zero", "site:raise:-1",
        "a:raise:1:everywhere", "a:raise:1:all:extra", ":raise",
    ])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(faults.FaultSpecError):
            faults.FaultSpec.parse(bad)

    def test_round_trip(self):
        spec = faults.FaultSpec.parse("testbed.advance:hang:3")
        assert faults.FaultSpec.from_dict(spec.to_dict()) == spec
        plan = faults.FaultPlan.of(spec)
        assert faults.FaultPlan.from_dict(plan.to_dict()) == plan
        assert spec.describe() in plan.describe()


class TestTrip:
    def test_nth_zero_fires_on_every_matching_call(self):
        faults.install(faults.FaultPlan.parse(["site.x@k:raise:0:all"]))
        for _ in range(3):
            with pytest.raises(faults.InjectedFault):
                faults.trip("site.x", key="k")
        faults.trip("site.x", key="other")   # key mismatch: never fires

    def test_fires_on_nth_matching_call_only(self):
        faults.install(faults.FaultPlan.parse(["site.x@k:raise:3:all"]))
        faults.trip("site.x", key="k")
        faults.trip("site.x", key="other")   # key mismatch: not counted
        faults.trip("site.y", key="k")       # site mismatch: not counted
        faults.trip("site.x", key="k")
        with pytest.raises(faults.InjectedFault):
            faults.trip("site.x", key="k")
        faults.trip("site.x", key="k")       # nth passed: quiet again

    def test_worker_scope_does_not_fire_in_parent(self):
        faults.install(faults.FaultPlan.parse(["site.x:raise:1"]))
        faults.trip("site.x")                # scope=worker, main process
        assert faults.call_counts() == {"site.x:raise:1:worker": 1}

    def test_reset_counters_restarts_counting(self):
        faults.install(faults.FaultPlan.parse(["site.x:raise:2:all"]))
        faults.trip("site.x")
        faults.reset_counters()
        faults.trip("site.x")                # first call again, no fire
        with pytest.raises(faults.InjectedFault):
            faults.trip("site.x")

    def test_no_plan_is_a_no_op(self):
        faults.clear()
        faults.trip("anything", key="at-all")
        assert faults.call_counts() == {}


# ---------------------------------------------------------------------------
# Crash isolation: ERROR verdicts
# ---------------------------------------------------------------------------
class TestErrorVerdict:
    def test_exception_chain_walks_causes(self):
        try:
            try:
                raise KeyError("inner")
            except KeyError as inner:
                raise RuntimeError("outer") from inner
        except RuntimeError as exc:
            rendered = exception_chain(exc)
        assert rendered == "RuntimeError: outer <- caused by KeyError: 'inner'"

    def test_error_result_carries_chain_in_evidence(self):
        result = error_result(property_by_id("SEC-01"), ValueError("bad"))
        assert result.outcome is Verdict.ERROR
        assert "ValueError: bad" in result.evidence
        assert result.evidence.startswith("checker error:")

    def test_serial_run_isolates_a_raising_property(self, baseline):
        plan = faults.FaultPlan.parse(["engine.verify_one@SEC-02:raise:1:all"])
        report = ProChecker.from_config(AnalysisConfig(
            "reference", jobs=1, fault_plan=plan)).analyze()
        assert len(report.results) == 62
        errored = report.result_for("SEC-02")
        assert errored.outcome is Verdict.ERROR
        assert "InjectedFault" in errored.evidence
        assert report.counts()["errors"] == 1
        healthy = signatures_by_id(report)
        golden = signatures_by_id(baseline)
        for identifier, sig in golden.items():
            if identifier != "SEC-02":
                assert healthy[identifier] == sig

    def test_pooled_run_isolates_a_raising_property(self, baseline):
        plan = faults.FaultPlan.parse(["engine.verify_one@SEC-02:raise:1:all"])
        report = analyze_many([AnalysisConfig(
            "reference", jobs=4, fault_plan=plan)])["reference"]
        assert report.result_for("SEC-02").outcome is Verdict.ERROR
        # the raise is caught at the group boundary: the group's other
        # members (SEC-01, SEC-05 share SEC-02's threat config) are fine
        golden = signatures_by_id(baseline)
        healthy = signatures_by_id(report)
        for identifier in ("SEC-01", "SEC-05"):
            assert healthy[identifier] == golden[identifier]
        # isolation happened inside the worker: no group crashed or
        # fell back
        counters = engine_counters(report)
        assert "engine.group_crashes" not in counters
        assert "engine.group_degradations" not in counters
        assert report.stats.canonical_json() != ""   # stats still collected

    def test_error_surfaces_in_json_payload(self):
        plan = faults.FaultPlan.parse(["engine.verify_one@SEC-10:raise:1:all"])
        report = ProChecker.from_config(AnalysisConfig(
            "reference", jobs=1, property_ids=SUBSET,
            fault_plan=plan)).analyze()
        payload = json.loads(json.dumps(report.to_dict()))
        row = next(item for item in payload["results"]
                   if item["property"] == "SEC-10")
        assert row["verdict"] == "error"
        assert "InjectedFault" in row["evidence"]
        assert payload["counts"]["errors"] == 1


class TestFaultPlanScope:
    """A config's fault plan applies to its own analysis only."""

    PLAN = faults.FaultPlan.parse(["engine.verify_one@SEC-11:raise:0:all"])

    def _analyze(self, plan=None):
        return ProChecker.from_config(AnalysisConfig(
            "reference", jobs=1, property_ids=SUBSET,
            fault_plan=plan)).analyze()

    def test_plan_is_uninstalled_after_its_analysis(self):
        faulty = self._analyze(self.PLAN)
        assert faulty.result_for("SEC-11").outcome is Verdict.ERROR
        assert faults.installed() is None
        assert self._analyze().counts()["errors"] == 0

    def test_analyze_many_restores_the_installed_plan(self):
        process_wide = faults.FaultPlan.parse(["site.x:raise:2:all"])
        faults.install(process_wide)
        analyze_many([AnalysisConfig("reference", jobs=1,
                                     property_ids=SUBSET,
                                     fault_plan=self.PLAN)])
        assert faults.installed() is process_wide

    def test_planless_analysis_keeps_the_installed_plan(self):
        process_wide = faults.FaultPlan.parse(["site.x:raise:2:all"])
        faults.install(process_wide)
        faults.trip("site.x")
        assert self._analyze().counts()["errors"] == 0
        assert faults.installed() is process_wide
        # untouched, counters included: the next call is the second
        with pytest.raises(faults.InjectedFault):
            faults.trip("site.x")


# ---------------------------------------------------------------------------
# Pool resilience: crashed workers, timeouts, in-process fallback
# ---------------------------------------------------------------------------
class TestPoolResilience:
    def test_worker_exit_still_yields_full_report(self, baseline):
        """The acceptance criterion: an exit(13) in the SEC-01 group's
        worker at --jobs 4 must not cost a single verdict."""
        plan = faults.FaultPlan.parse(["engine.verify_group@SEC-01:exit:1"])
        report = analyze_many([AnalysisConfig(
            "reference", jobs=4, fault_plan=plan)])["reference"]
        assert len(report.results) == 62
        assert report.counts()["errors"] == 0
        # verdicts (order included) byte-identical to fault-free serial
        assert report.verdict_signature() == baseline.verdict_signature()
        counters = engine_counters(report)
        assert counters.get("engine.group_crashes", 0) >= 1
        # the fault is worker-scope, so the crashed groups complete via
        # the in-process fallback
        assert counters.get("engine.group_degradations", 0) >= 1
        # degradation never changes the canonical stats projection
        assert report.stats.canonical_json() \
            == baseline.stats.canonical_json()

    def test_hung_group_times_out_then_falls_back(self, baseline):
        """A group exceeding group_timeout_seconds is completed
        in-process without aborting the run."""
        spec = faults.FaultSpec("engine.verify_group", faults.KIND_HANG,
                                key="SEC-01", hang_seconds=60.0)
        report = analyze_many([AnalysisConfig(
            "reference", jobs=2, property_ids=SUBSET,
            fault_plan=faults.FaultPlan.of(spec),
            group_timeout_seconds=1.5)])["reference"]
        assert [r.property.identifier for r in report.results] \
            == list(SUBSET)
        assert report.counts()["errors"] == 0
        golden = signatures_by_id(baseline)
        assert all(signatures_by_id(report)[i] == golden[i]
                   for i in SUBSET)
        counters = engine_counters(report)
        assert counters.get("engine.group_timeouts", 0) >= 1
        assert counters.get("engine.group_degradations", 0) >= 1

    def test_hung_group_is_detected_once_progress_stops(self, baseline):
        """The group timeout bounds the wait for the next group to
        finish, not the pass: the full catalog's 34 groups at --jobs 2
        would otherwise get 17 waves x 2 s = 34 s before the hung
        group counts as late."""
        spec = faults.FaultSpec("engine.verify_group", faults.KIND_HANG,
                                key="SEC-01", hang_seconds=60.0)
        started = time.monotonic()
        report = analyze_many([AnalysisConfig(
            "reference", jobs=2, fault_plan=faults.FaultPlan.of(spec),
            group_timeout_seconds=2.0)])["reference"]
        elapsed = time.monotonic() - started
        assert elapsed < 17.0, f"the hung group was found after {elapsed:.1f}s"
        assert report.verdict_signature() == baseline.verdict_signature()
        assert report.counts()["errors"] == 0
        counters = engine_counters(report)
        assert counters.get("engine.group_timeouts", 0) >= 1
        assert counters["engine.group_degradations"] \
            == counters["engine.group_timeouts"]

    def test_clean_pooled_run_reports_no_resilience_events(self, baseline):
        report = analyze_many([AnalysisConfig(
            "reference", jobs=4, group_timeout_seconds=120.0)])["reference"]
        assert report.verdict_signature() == baseline.verdict_signature()
        assert engine_counters(report) == {}

    def test_fallback_span_marks_degraded_groups(self):
        obs.reset()
        plan = faults.FaultPlan.parse(["engine.verify_group@SEC-01:exit:1"])
        analyze_many([AnalysisConfig(
            "reference", jobs=4, property_ids=SUBSET, fault_plan=plan)])
        roots = obs.drain_spans()
        analyze_root = next(r for r in roots if r.name == "pipeline.analyze")
        fallbacks = analyze_root.find("engine.fallback")
        assert fallbacks
        assert any(span.attributes.get("group") == "SEC-01"
                   for span in fallbacks)

    def test_each_failed_group_falls_back_once(self):
        """Every group is submitted to the pool once, so each group that
        crashed or timed out runs in-process exactly once."""
        obs.reset()
        plan = faults.FaultPlan.parse(["engine.verify_group@SEC-01:exit:1"])
        report = analyze_many([AnalysisConfig(
            "reference", jobs=2, property_ids=SUBSET,
            fault_plan=plan)])["reference"]
        counters = engine_counters(report)
        failed = (counters.get("engine.group_crashes", 0)
                  + counters.get("engine.group_timeouts", 0))
        assert failed >= 1
        assert counters["engine.group_degradations"] == failed
        roots = obs.drain_spans()
        analyze_root = next(r for r in roots if r.name == "pipeline.analyze")
        groups = [span.attributes["group"]
                  for span in analyze_root.find("engine.fallback")]
        assert "SEC-01" in groups
        assert sorted(groups) == sorted(set(groups))
        assert len(groups) == failed
        assert report.counts()["errors"] == 0


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------
class TestCliFaultInjection:
    def test_bad_spec_is_a_usage_error(self, capsys):
        code = cli_main(["analyze", "reference", "--inject-fault",
                         "engine.verify_group:frobnicate"])
        assert code == 2
        assert "bad --inject-fault" in capsys.readouterr().err

    def test_error_verdict_maps_to_exit_code_4(self, capsys):
        code = cli_main(["analyze", "reference", "--jobs", "1",
                         "--inject-fault",
                         "engine.verify_one@SEC-11:raise:1:all", "--json"])
        assert code == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["errors"] == 1
        assert faults.installed() is None   # plan cleared after the run

    def test_degraded_run_exits_clean(self, capsys):
        """A worker-scope exit fault degrades but loses no verdict, so
        the exit code stays 0 — robustness is not an error."""
        code = cli_main(["analyze", "reference", "--jobs", "4",
                         "--inject-fault",
                         "engine.verify_group@SEC-01:exit:1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["errors"] == 0
        assert len(payload["results"]) == 62
