"""Service mode end to end: queue, workers, store hits, HTTP /v1 API."""

import json
import time

import pytest

from repro import obs, schema
from repro.cli import main as cli_main
from repro.core import AnalysisConfig, AnalysisReport, extraction_cache
from repro.core import engine as engine_module
from repro.serve import (AnalysisService, JobStatus, ServeClient,
                         ServeClientError, ServiceError, create_server)
from repro.store import ResultStore, job_digest

SMALL = ["SEC-01", "SEC-02"]


@pytest.fixture()
def service(tmp_path):
    svc = AnalysisService(ResultStore(tmp_path / "store"), workers=2,
                         default_engine_jobs=1)
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture()
def client(service):
    server = create_server("127.0.0.1", 0, service, quiet=True)
    import threading
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield ServeClient(f"http://127.0.0.1:{server.port}")
    server.shutdown()
    server.server_close()


def _wait(service, job_id, timeout=60.0):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.job(job_id)
        if record.status in (JobStatus.DONE, JobStatus.FAILED,
                             JobStatus.TIMEOUT):
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish")


class TestAnalysisService:
    def test_job_runs_and_report_lands_in_store(self, service):
        config = AnalysisConfig("srsue", property_ids=SMALL)
        record = service.submit(config.to_dict())
        assert record.status in (JobStatus.QUEUED, JobStatus.RUNNING,
                                 JobStatus.DONE)
        done = _wait(service, record.job_id)
        assert done.status is JobStatus.DONE
        assert done.store_hit is False
        payload = service.report(done.digest)
        report = AnalysisReport.from_dict(payload)
        assert {r.property.identifier for r in report.results} == set(SMALL)

    def test_resubmission_is_a_zero_work_store_hit(self, service):
        config = AnalysisConfig("srsue", property_ids=SMALL)
        first = _wait(service, service.submit(config.to_dict()).job_id)
        assert first.counters, "a cold run must record engine activity"

        before = obs.metrics().snapshot()
        second = service.submit(config.to_dict())
        # The hit is decided at submit time: no queueing, no worker.
        assert second.status is JobStatus.DONE
        assert second.store_hit is True
        assert second.counters == {}
        delta = obs.diff_snapshots(before, obs.metrics().snapshot())
        worked = [name for name in delta.get("counters", {})
                  if name.split(".")[0] in ("engine", "mc", "extraction",
                                            "cegar")]
        assert worked == [], f"store hit did real work: {worked}"
        assert second.digest == first.digest

    def test_hit_serves_identical_verdicts(self, service):
        config = AnalysisConfig("srsue", property_ids=SMALL)
        first = _wait(service, service.submit(config.to_dict()).job_id)
        second = service.submit(config.to_dict())
        original = AnalysisReport.from_dict(service.report(first.digest))
        served = AnalysisReport.from_dict(service.report(second.digest))
        assert served.verdict_signature() == original.verdict_signature()

    def test_jobs_width_does_not_defeat_the_store(self, service):
        narrow = AnalysisConfig("srsue", property_ids=SMALL, jobs=1)
        _wait(service, service.submit(narrow.to_dict()).job_id)
        wide = AnalysisConfig("srsue", property_ids=SMALL, jobs=4)
        assert service.submit(wide.to_dict()).store_hit is True

    def test_fault_plan_jobs_rejected(self, service):
        payload = AnalysisConfig("srsue", property_ids=SMALL).to_dict()
        payload["fault_plan"] = {"faults": [
            {"site": "engine.verify_group", "kind": "raise", "nth": 1}]}
        with pytest.raises((ServiceError, Exception)):
            service.submit(payload)

    def test_future_major_submission_rejected(self, service):
        payload = AnalysisConfig("srsue", property_ids=SMALL).to_dict()
        payload[schema.SCHEMA_KEY] = "99.0"
        with pytest.raises(schema.SchemaVersionError):
            service.submit(payload)

    def test_unknown_job_raises(self, service):
        with pytest.raises(KeyError):
            service.job("j999999")

    def test_stats_shape(self, service):
        stats = service.stats()
        assert stats["workers"] == 2
        assert "store" in stats and "jobs" in stats
        assert stats["live"] is True and stats["ready"] is True
        assert stats["draining"] is False
        assert stats["journal"] is None  # no --journal configured


class TestPerJobCounters:
    """Each job runs in a metrics scope of its own, so overlapping jobs
    never pick up each other's work."""

    PROPERTIES = ["SEC-01", "SEC-02", "SEC-03", "PRIV-01"]

    @pytest.mark.parametrize("width", [1, 2])
    def test_overlapping_jobs_count_exactly_their_own_work(
            self, tmp_path, monkeypatch, width):
        # Every property verification sleeps first — in this process
        # and in forked pool workers alike — so the two jobs verify at
        # the same time.
        verify_one = engine_module.verify_one

        def slow_verify_one(*args, **kwargs):
            time.sleep(0.1)
            return verify_one(*args, **kwargs)

        monkeypatch.setattr(engine_module, "verify_one", slow_verify_one)
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=2, default_engine_jobs=width)
        # Both queued before the scheduler starts, so both start at once.
        records = [service.submit(AnalysisConfig(
            implementation, property_ids=self.PROPERTIES).to_dict())
            for implementation in ("srsue", "oai")]
        service.start()
        try:
            finished = [_wait(service, record.job_id)
                        for record in records]
        finally:
            service.stop()
        for record in finished:
            assert record.status is JobStatus.DONE, record.error
            report = AnalysisReport.from_dict(service.report(record.digest))
            # Recorded with obs.inc inside property spans: the report's
            # totals are exactly this job's work.
            totals = report.stats.totals
            assert totals["mc.checks"] > 0
            assert {name: record.counters.get(name)
                    for name in totals} == totals


class TestHTTPApi:
    def test_health(self, client):
        health = client.health()
        assert health[schema.SCHEMA_KEY] == schema.SCHEMA_VERSION
        assert health["workers"] == 2

    def test_submit_wait_fetch_roundtrip(self, client):
        config = AnalysisConfig("srsue", property_ids=SMALL)
        submitted = client.submit(config)
        assert submitted["status"] in ("queued", "running", "done")
        assert submitted[schema.SCHEMA_KEY] == schema.SCHEMA_VERSION
        done = client.wait(submitted["job_id"])
        assert done["status"] == "done"
        report = AnalysisReport.from_dict(client.report(done["digest"]))
        assert len(report.results) == len(SMALL)

    def test_second_submission_hits_store(self, client):
        config = AnalysisConfig("srsue", property_ids=SMALL)
        client.wait(client.submit(config)["job_id"])
        second = client.submit(config)
        assert second["status"] == "done"
        assert second["store_hit"] is True
        assert second["counters"] == {}

    def test_served_report_matches_one_shot_cli(self, client, capsys):
        # The acceptance check: a report served over HTTP carries the
        # same verdict signature as the same analysis run one-shot via
        # the CLI — byte-identical once both sides re-hydrate.
        extraction_cache.clear()
        assert cli_main(["analyze", "srsue", "--json", "--jobs", "1"]) == 0
        one_shot = AnalysisReport.from_dict(
            json.loads(capsys.readouterr().out))
        done = client.wait(client.submit(AnalysisConfig("srsue"))["job_id"],
                           timeout=120)
        served = AnalysisReport.from_dict(client.report(done["digest"]))
        assert served.verdict_signature() == one_shot.verdict_signature()

    def test_list_jobs_filters(self, client):
        config = AnalysisConfig("srsue", property_ids=SMALL)
        client.wait(client.submit(config)["job_id"])
        listed = client.jobs(status="done", implementation="srsue")
        assert listed, "expected at least one done srsue job"
        assert all(job["implementation"] == "srsue" for job in listed)
        assert client.jobs(implementation="oai") == []

    def test_bad_schema_major_is_400(self, client):
        payload = AnalysisConfig("srsue", property_ids=SMALL).to_dict()
        payload[schema.SCHEMA_KEY] = "99.0"
        with pytest.raises(ServeClientError, match="400"):
            client.submit(payload)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServeClientError, match="404"):
            client.job("j424242")

    def test_unknown_report_is_404(self, client):
        with pytest.raises(ServeClientError, match="404"):
            client.report("0" * 64)

    def test_bad_status_filter_is_400(self, client):
        with pytest.raises(ServeClientError, match="400"):
            client.jobs(status="exploded")
