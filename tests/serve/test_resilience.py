"""The service resilience layer: journal recovery, drain, scheduler
deadlines, backpressure, and the client retry discipline."""

import sys
import threading
import time

import pytest

from repro import faults, obs
from repro.core import AnalysisConfig
from repro.serve import (AnalysisService, JobJournal, JobStatus,
                         QueueFullError, ServeClient, ServeClientError,
                         ServiceDrainingError, create_server)
from repro.serve import service as service_module
from repro.store import ResultStore

SMALL = ["SEC-01"]
OTHER = ["SEC-02"]
TERMINAL = (JobStatus.DONE, JobStatus.FAILED, JobStatus.TIMEOUT)

PIPELINE_COUNTERS = ("engine", "mc", "extraction", "cegar")


def _config(implementation="srsue", props=SMALL, **extra):
    payload = AnalysisConfig(implementation, property_ids=props).to_dict()
    payload.update(extra)
    return payload


def _wait(service, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = service.job(job_id)
        if record.status in TERMINAL:
            return record
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not reach a terminal status")


def _wait_running(service, job_id, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.job(job_id).status is JobStatus.RUNNING:
            return
        time.sleep(0.01)
    raise AssertionError(f"job {job_id} never started running")


def _job_thread(service, job_id):
    """The thread running ``job_id`` (``None`` once it has ended)."""
    with service._cond:
        return service._job_threads.get(job_id)


def _pipeline_work(before, after):
    delta = obs.diff_snapshots(before, after)
    return [name for name in delta.get("counters", {})
            if name.split(".")[0] in PIPELINE_COUNTERS]


def _counter_delta(before, after, name):
    delta = obs.diff_snapshots(before, after)
    return delta.get("counters", {}).get(name, 0)


class TestJournalRecovery:
    def test_restart_replays_queued_jobs_to_done(self, tmp_path):
        # Crash simulation: submissions journal + queue, but the fleet
        # never starts — exactly the state a SIGKILL leaves behind.
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        first = crashed.submit(_config(props=SMALL))
        second = crashed.submit(_config(props=OTHER))

        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            for job_id in (first.job_id, second.job_id):
                assert _wait(revived, job_id).status is JobStatus.DONE
            assert revived.report(first.digest) is not None
            assert revived.report(second.digest) is not None
        finally:
            revived.stop()

    def test_replayed_store_hit_consumes_zero_pipeline_work(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        journal = JobJournal(journal_dir)
        warm = AnalysisService(ResultStore(store_dir), workers=1,
                               journal=journal)
        warm.start()
        try:
            done = _wait(warm, warm.submit(_config()).job_id)
            assert done.status is JobStatus.DONE
        finally:
            warm.stop()
        # Crash after an identical job was journaled but never ran.
        resubmitted = AnalysisService(ResultStore(store_dir), workers=1,
                                      journal=JobJournal(journal_dir))
        ghost = resubmitted.submit(_config())
        # A submit-time store hit finishes immediately; rewind it to
        # the journaled-but-unfinished state a crash between the
        # submit append and the finish append would leave.
        assert ghost.store_hit is True

        del resubmitted
        journal2 = JobJournal(journal_dir)
        replayed = journal2.replay()
        assert replayed.pending == []  # the finish append closed it

        # Now the genuinely interesting case: a submit append with no
        # finish (crash mid-submission).  Journal it by hand.
        record = warm.job(done.job_id)
        record.job_id = "j000099"
        journal2.append_submit(record)

        before = obs.metrics().snapshot()
        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            hit = _wait(revived, "j000099")
            assert hit.status is JobStatus.DONE
            assert hit.store_hit is True
            assert hit.counters == {}
            worked = _pipeline_work(before, obs.metrics().snapshot())
            assert worked == [], f"replayed hit did real work: {worked}"
        finally:
            revived.stop()

    def test_running_at_crash_reruns_cold(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        journal = JobJournal(journal_dir)
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=journal)
        record = crashed.submit(_config())
        # The worker had picked it up when the process died.
        record.worker = "serve-worker-0"
        journal.append_start(record)

        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            done = _wait(revived, record.job_id)
            assert done.status is JobStatus.DONE
            assert done.store_hit is False, "must re-run cold"
            assert done.counters, "a cold re-run records engine activity"
        finally:
            revived.stop()

    def test_replay_advances_the_id_counter(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        assert crashed.submit(_config()).job_id == "j000001"

        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            fresh = revived.submit(_config(props=OTHER))
            assert fresh.job_id == "j000002"
            _wait(revived, fresh.job_id)
        finally:
            revived.stop()

    def test_replay_of_identical_pair_keeps_coalesce_invariant(
            self, tmp_path):
        # Satellite: journal replay of two identical submissions must
        # still produce exactly one cold run and one store hit.
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        crashed = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        twin_a = crashed.submit(_config())
        twin_b = crashed.submit(_config())
        assert twin_a.digest == twin_b.digest

        before = obs.metrics().snapshot()
        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            done_a = _wait(revived, twin_a.job_id)
            done_b = _wait(revived, twin_b.job_id)
            hits = [r for r in (done_a, done_b) if r.store_hit]
            cold = [r for r in (done_a, done_b) if not r.store_hit]
            assert len(hits) == 1 and len(cold) == 1
            assert hits[0].counters == {}
            assert cold[0].counters
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after, "serve.store_hits") == 1
        finally:
            revived.stop()
        # The journal closed both: a third incarnation replays nothing.
        assert JobJournal(journal_dir).replay().pending == []


class TestCoalesceRace:
    def test_identical_pair_one_cold_run_one_hit(self, tmp_path):
        # Both submissions land while the store is still empty (the
        # fleet has not started), so neither can short-circuit at
        # submit time — the dequeue-time store re-check must coalesce.
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        twin_a = service.submit(_config())
        twin_b = service.submit(_config())
        assert twin_a.status is JobStatus.QUEUED
        assert twin_b.status is JobStatus.QUEUED

        before = obs.metrics().snapshot()
        service.start()
        try:
            done_a = _wait(service, twin_a.job_id)
            done_b = _wait(service, twin_b.job_id)
            assert done_a.status is JobStatus.DONE
            assert done_b.status is JobStatus.DONE
            hits = [r for r in (done_a, done_b) if r.store_hit]
            cold = [r for r in (done_a, done_b) if not r.store_hit]
            assert len(hits) == 1 and len(cold) == 1
            assert hits[0].counters == {}, \
                "a coalesced hit must record zero per-job work"
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after, "serve.store_hits") == 1
        finally:
            service.stop()


class TestWatchdog:
    def test_hung_job_times_out_while_fleet_keeps_working(self, tmp_path):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            scope="all", hang_seconds=1.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=2)
        service.start()
        try:
            before = obs.metrics().snapshot()
            hung = service.submit(_config("srsue",
                                          deadline_seconds=0.25))
            _wait_running(service, hung.job_id)
            hung_thread = _job_thread(service, hung.job_id)
            other = service.submit(_config("reference", props=OTHER))

            timed_out = _wait(service, hung.job_id, timeout=5.0)
            assert timed_out.status is JobStatus.TIMEOUT
            assert timed_out.error.startswith("JobDeadlineExceeded")
            # Marked within the deadline margin — long before the
            # 1.0s hang would have released the worker.
            assert timed_out.elapsed_seconds() <= 0.8

            assert _wait(service, other.job_id).status is JobStatus.DONE
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after,
                                  "serve.jobs_timed_out") == 1
            # Capacity survived: a post-timeout job still completes.
            extra = service.submit(_config("reference", props=SMALL))
            assert _wait(service, extra.job_id).status is JobStatus.DONE
        finally:
            faults.clear()
            service.stop()
        # stop() does not wait for a timed-out job's thread: join it
        # here so it cannot run on into another test.
        hung_thread.join(timeout=10.0)
        assert not hung_thread.is_alive()

    def test_scan_with_injected_clock_is_deterministic(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        record = service.submit(_config(deadline_seconds=1.0))
        # Not yet running: no deadline applies.
        assert service.expire(now=record.submitted_at + 100.0) == 0
        record.status = JobStatus.RUNNING
        record.started_at = 1000.0
        record.worker = "serve-job-j000001"
        assert service.expire(now=1000.9) == 0
        assert service.expire(now=1001.1) == 1
        assert record.status is JobStatus.TIMEOUT
        assert "1.000s deadline" in record.error
        # Terminal: a second pass finds nothing to do.
        assert service.expire(now=1002.0) == 0

    def test_late_completion_cannot_resurrect_a_timeout(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        record = service.submit(_config(deadline_seconds=0.1))
        record.status = JobStatus.RUNNING
        record.started_at = 0.0
        service.expire(now=10.0)
        assert record.status is JobStatus.TIMEOUT
        before = obs.metrics().snapshot()
        service._finalize(record, JobStatus.DONE, counters={"x": 1})
        assert record.status is JobStatus.TIMEOUT
        assert record.counters == {}
        assert _counter_delta(before, obs.metrics().snapshot(),
                              "serve.late_completions") == 1

    def test_timeout_frees_the_slot_for_the_next_job(self, tmp_path):
        # One slot: the job queued behind the hung one can only run if
        # the timeout hands the slot over while the hang goes on.
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            scope="all", hang_seconds=3.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            started = time.monotonic()
            hung = service.submit(_config("srsue", deadline_seconds=0.25))
            behind = service.submit(_config("reference", props=OTHER))
            assert service.job(behind.job_id).status is JobStatus.QUEUED
            _wait_running(service, hung.job_id)
            hung_thread = _job_thread(service, hung.job_id)
            done = _wait(service, behind.job_id, timeout=10.0)
            assert done.status is JobStatus.DONE
            assert time.monotonic() - started < 3.0, \
                "the queued job waited for the hang to end"
            assert service.job(hung.job_id).status is JobStatus.TIMEOUT
        finally:
            faults.clear()
            service.stop()
        # stop() does not wait for a timed-out job's thread: join it
        # here so it cannot run on into another test.
        hung_thread.join(timeout=10.0)
        assert not hung_thread.is_alive()

    def test_stop_does_not_wait_for_a_timed_out_job(self, tmp_path):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            scope="all", hang_seconds=3.0)))
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            hung = service.submit(_config("srsue", deadline_seconds=0.25))
            _wait_running(service, hung.job_id)
            hung_thread = _job_thread(service, hung.job_id)
            assert _wait(service, hung.job_id, timeout=5.0).status \
                is JobStatus.TIMEOUT
            assert hung_thread.is_alive(), "the hang ended too early"
            before = obs.metrics().snapshot()
            started = time.monotonic()
            service.stop(wait=True)
            stopped_in = time.monotonic() - started
        finally:
            faults.clear()
        try:
            assert stopped_in < 1.0, \
                f"stop() waited {stopped_in:.2f}s for a timed-out job"
            assert service.stats()["leaked_threads"] == [hung_thread.name]
            assert _counter_delta(before, obs.metrics().snapshot(),
                                  "serve.stop_leaked_threads") == 1
        finally:
            hung_thread.join(timeout=10.0)
        assert not hung_thread.is_alive()

    def test_slots_bound_the_jobs_running_at_once(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=3)
        lock = threading.Lock()
        running = {"now": 0, "peak": 0}

        def short_job(record):
            with lock:
                running["now"] += 1
                running["peak"] = max(running["peak"], running["now"])
            time.sleep(0.005)
            with lock:
                running["now"] -= 1
            service._finalize(record, JobStatus.DONE)

        service._run_job = short_job
        # Queued before the scheduler starts, so it sees all of them.
        records = [service.submit(_config(props=[f"SEC-{n:02d}"]))
                   for n in range(1, 25)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        service.start()
        try:
            for record in records:
                assert _wait(service, record.job_id, timeout=30.0).status \
                    is JobStatus.DONE
            assert running["peak"] == 3
        finally:
            sys.setswitchinterval(switch_interval)
            service.stop()


class TestBackpressureAndDrain:
    def test_queue_bound_rejects_with_retry_after(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1, max_queue=1)
        service.submit(_config())  # fills the (unstarted) queue
        before = obs.metrics().snapshot()
        with pytest.raises(QueueFullError) as excinfo:
            service.submit(_config(props=OTHER))
        assert excinfo.value.retry_after_seconds > 0
        assert _counter_delta(before, obs.metrics().snapshot(),
                              "serve.queue_rejections") == 1

    def test_concurrent_submissions_never_overrun_the_bound(self, tmp_path):
        # Eight distinct jobs released at once against a bound of two:
        # the bound check and the enqueue must be one step.
        payloads = [_config(props=[f"SEC-{n:02d}"]) for n in range(1, 9)]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_number in range(20):
                service = AnalysisService(
                    ResultStore(tmp_path / f"store-{round_number}"),
                    workers=1, max_queue=2)
                barrier = threading.Barrier(len(payloads))
                admitted = []

                def submit(payload):
                    barrier.wait()
                    try:
                        admitted.append(service.submit(payload))
                    except QueueFullError:
                        pass

                threads = [threading.Thread(target=submit, args=(payload,))
                           for payload in payloads]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10.0)
                    assert not thread.is_alive()
                assert len(admitted) == 2, \
                    f"round {round_number}: {len(admitted)} jobs admitted"
                assert service.stats()["queued"] == 2
        finally:
            sys.setswitchinterval(switch_interval)

    def test_http_429_and_client_retry_succeeds(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1, max_queue=1)
        service.submit(_config())
        server = create_server("127.0.0.1", 0, service, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            impatient = ServeClient(base, retries=0)
            with pytest.raises(ServeClientError) as excinfo:
                impatient.submit(_config(props=OTHER))
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after >= 1

            # A retrying client succeeds once capacity frees: the
            # injected sleep starts the fleet, which drains the queue.
            def free_capacity(_delay):
                service.start()
                deadline = time.monotonic() + 10.0
                while service.stats()["queued"] > 0 \
                        and time.monotonic() < deadline:
                    time.sleep(0.01)

            patient = ServeClient(base, retries=2, sleep=free_capacity)
            accepted = patient.submit(_config(props=OTHER))
            assert accepted["status"] in ("queued", "running", "done")
            patient.wait(accepted["job_id"])
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_draining_rejects_submissions(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            assert service.ready is True
            assert service.drain(wait=True, timeout=5.0) is True
            assert service.ready is False
            assert service.stats()["draining"] is True
            with pytest.raises(ServiceDrainingError):
                service.submit(_config())
        finally:
            service.stop()

    def test_drain_leaves_queued_jobs_queued(self, tmp_path, monkeypatch):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            scope="all", hang_seconds=0.8)))
        monkeypatch.setattr(service_module, "JOIN_TIMEOUT_SECONDS", 0.1)
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            busy = service.submit(_config("srsue"))
            _wait_running(service, busy.job_id)
            parked = service.submit(_config("srsue", props=OTHER))
            service.drain(wait=False)
            time.sleep(0.3)
            # The lone slot is still held by the hung first job, and a
            # draining scheduler must not start the second even once
            # the slot is free — it stays QUEUED for the next
            # incarnation.
            assert service.job(parked.job_id).status is JobStatus.QUEUED
        finally:
            faults.clear()
            service.stop(wait=False)

    def test_readiness_endpoint_splits_from_liveness(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        server = create_server("127.0.0.1", 0, service, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{server.port}")
        try:
            health = client.health()
            assert health["live"] is True
            assert health["ready"] is True
            assert health["draining"] is False
            assert client.ready() is True

            service.drain(wait=True, timeout=5.0)
            # Liveness stays 200 while draining; readiness flips 503.
            assert client.health()["draining"] is True
            assert client.ready() is False
            with pytest.raises(ServeClientError) as excinfo:
                client._request("GET", "/v1/health/ready")
            assert excinfo.value.status == 503
            assert excinfo.value.retry_after is not None
        finally:
            server.shutdown()
            server.server_close()
            service.stop()


class TestWorkerLoopStranding:
    def test_dispatch_failure_fails_the_job_not_the_worker(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            def explode(record):
                raise RuntimeError("dispatch exploded")

            service._run_job = explode
            before = obs.metrics().snapshot()
            doomed = service.submit(_config())
            failed = _wait(service, doomed.job_id)
            assert failed.status is JobStatus.FAILED
            assert "RuntimeError: dispatch exploded" in failed.error
            after = obs.metrics().snapshot()
            assert _counter_delta(before, after,
                                  "serve.jobs_stranded") == 1
            assert _counter_delta(before, after,
                                  "serve.worker_loop_errors") == 1

            # Regression core: the worker survived and the next job runs.
            service.__dict__.pop("_run_job")
            healthy = service.submit(_config(props=OTHER))
            assert _wait(service, healthy.job_id).status is JobStatus.DONE
        finally:
            service.__dict__.pop("_run_job", None)
            service.stop()


class TestStopLifecycle:
    def test_stop_is_idempotent_and_restartable(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=2)
        service.start()
        first = _wait(service, service.submit(_config()).job_id)
        assert first.status is JobStatus.DONE
        service.stop()
        service.stop()  # second stop is a no-op
        assert service.stats()["workers_alive"] == 0
        assert service.ready is False

        service.start()
        try:
            assert service.stats()["workers_alive"] == 2
            second = _wait(service,
                           service.submit(_config(props=OTHER)).job_id)
            assert second.status is JobStatus.DONE
        finally:
            service.stop()

    def test_restart_runs_jobs_queued_while_stopped(self, tmp_path):
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        service.stop()
        parked = service.submit(_config())
        assert parked.status is JobStatus.QUEUED
        service.start()
        try:
            assert _wait(service, parked.job_id).status is JobStatus.DONE
        finally:
            service.stop()

    def test_leaked_threads_are_counted_and_surfaced(self, tmp_path,
                                                     monkeypatch):
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="serve.run_job", key="srsue", kind="hang", nth=1,
            scope="all", hang_seconds=1.5)))
        monkeypatch.setattr(service_module, "JOIN_TIMEOUT_SECONDS", 0.1)
        service = AnalysisService(ResultStore(tmp_path / "store"),
                                  workers=1)
        service.start()
        try:
            hung = service.submit(_config("srsue"))
            _wait_running(service, hung.job_id)
            before = obs.metrics().snapshot()
            service.stop(wait=True)
            assert _counter_delta(before, obs.metrics().snapshot(),
                                  "serve.stop_leaked_threads") == 1
            assert service.stats()["leaked_threads"]
        finally:
            faults.clear()


class TestJournalFaultInjection:
    def test_failed_start_append_fails_the_job_not_the_worker(
            self, tmp_path):
        service = AnalysisService(
            ResultStore(tmp_path / "store"), workers=1,
            journal=JobJournal(tmp_path / "journal"))
        service.start()
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="journal.append", key="start", kind="raise", nth=1,
            scope="all")))
        try:
            doomed = service.submit(_config())
            failed = _wait(service, doomed.job_id)
            assert failed.status is JobStatus.FAILED
            assert "InjectedFault" in failed.error
            faults.clear()
            # The worker survived the journal failure.
            healthy = service.submit(_config(props=OTHER))
            assert _wait(service, healthy.job_id).status is JobStatus.DONE
        finally:
            faults.clear()
            service.stop()

    def test_failed_finish_append_is_tolerated(self, tmp_path):
        store_dir, journal_dir = tmp_path / "store", tmp_path / "journal"
        service = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        service.start()
        faults.install(faults.FaultPlan.of(faults.FaultSpec(
            site="journal.append", key="finish", kind="raise", nth=0,
            scope="all")))
        try:
            before = obs.metrics().snapshot()
            done = _wait(service, service.submit(_config()).job_id)
            # The verdict is already in the store — losing the finish
            # append must not undo the job.
            assert done.status is JobStatus.DONE
            assert _counter_delta(before, obs.metrics().snapshot(),
                                  "serve.journal_append_failures") >= 1
        finally:
            faults.clear()
            service.stop()
        # Self-healing: the journal shows the job unfinished, but the
        # replaying service resolves it as a store hit, not a re-run.
        before = obs.metrics().snapshot()
        revived = AnalysisService(ResultStore(store_dir), workers=1,
                                  journal=JobJournal(journal_dir))
        revived.start()
        try:
            hit = _wait(revived, done.job_id)
            assert hit.status is JobStatus.DONE
            assert hit.store_hit is True
            assert _pipeline_work(before, obs.metrics().snapshot()) == []
        finally:
            revived.stop()


class TestClientRetryDiscipline:
    def _client(self, monkeypatch, outcomes, **kwargs):
        sleeps = []
        clock = {"now": 0.0}

        def fake_sleep(delay):
            sleeps.append(delay)
            clock["now"] += max(delay, 0.001)

        client = ServeClient("http://test.invalid", sleep=fake_sleep,
                             clock=lambda: clock["now"], jitter_seed=7,
                             **kwargs)
        attempts = {"n": 0}

        def scripted(method, path, payload=None):
            attempts["n"] += 1
            outcome = outcomes[min(attempts["n"] - 1, len(outcomes) - 1)]
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_request", scripted)
        return client, sleeps, attempts

    def test_wait_backs_off_exponentially_with_a_cap(self, monkeypatch):
        outcomes = [{"status": "queued"}] * 6 + [{"status": "done"}]
        client, sleeps, attempts = self._client(monkeypatch, outcomes)
        record = client.wait("j1", timeout=100.0, poll_seconds=0.05,
                             poll_cap_seconds=0.4)
        assert record["status"] == "done"
        assert attempts["n"] == 7
        assert sleeps == [0.05, 0.1, 0.2, 0.4, 0.4, 0.4]

    def test_wait_honours_retry_after_from_429(self, monkeypatch):
        outcomes = [
            ServeClientError("429", status=429, retry_after=3.0),
            {"status": "done"},
        ]
        client, sleeps, _ = self._client(monkeypatch, outcomes)
        assert client.wait("j1", timeout=100.0)["status"] == "done"
        assert sleeps == [3.0]

    def test_wait_treats_timeout_status_as_terminal(self, monkeypatch):
        client, _, _ = self._client(monkeypatch, [{"status": "timeout"}])
        assert client.wait("j1")["status"] == "timeout"

    def test_wait_gives_up_at_the_deadline(self, monkeypatch):
        client, _, _ = self._client(monkeypatch, [{"status": "queued"}])
        with pytest.raises(ServeClientError, match="still queued"):
            client.wait("j1", timeout=1.0, poll_seconds=0.3)

    def test_wait_raises_non_retryable_errors(self, monkeypatch):
        outcomes = [ServeClientError("gone", status=404)]
        client, _, attempts = self._client(monkeypatch, outcomes)
        with pytest.raises(ServeClientError, match="gone"):
            client.wait("j1", timeout=10.0)
        assert attempts["n"] == 1

    def test_analysis_submit_retries_5xx(self, monkeypatch):
        outcomes = [
            ServeClientError("boom", status=500),
            ServeClientError("boom", status=503),
            {"job_id": "j1", "status": "queued"},
        ]
        client, sleeps, attempts = self._client(monkeypatch, outcomes,
                                                retries=3)
        assert client.submit({"implementation": "srsue"})["job_id"] == "j1"
        assert attempts["n"] == 3
        assert len(sleeps) == 2
        # Jittered exponential: each delay is in [base/2, base].
        for index, delay in enumerate(sleeps):
            base = min(2.0, 0.1 * (2 ** index))
            assert base / 2 <= delay <= base

    def test_analysis_submit_honours_retry_after(self, monkeypatch):
        outcomes = [
            ServeClientError("full", status=429, retry_after=2.0),
            {"job_id": "j1"},
        ]
        client, sleeps, _ = self._client(monkeypatch, outcomes, retries=1)
        client.submit({"implementation": "srsue"})
        assert sleeps == [2.0]

    def test_fuzz_submit_never_retries_http_errors(self, monkeypatch):
        outcomes = [ServeClientError("boom", status=500)]
        client, _, attempts = self._client(monkeypatch, outcomes,
                                           retries=3)
        with pytest.raises(ServeClientError, match="boom"):
            client.submit_fuzz("srsue")
        assert attempts["n"] == 1, \
            "a 5xx proves the request was read; a fuzz re-send could " \
            "start a duplicate campaign"

    def test_fuzz_submit_retries_connection_errors(self, monkeypatch):
        outcomes = [
            ServeClientError("unreachable"),  # status=None: connection
            {"job_id": "j1"},
        ]
        client, _, attempts = self._client(monkeypatch, outcomes,
                                           retries=2)
        assert client.submit_fuzz("srsue")["job_id"] == "j1"
        assert attempts["n"] == 2

    def test_backoff_jitter_stays_within_bounds(self):
        client = ServeClient("http://test.invalid", jitter_seed=11)
        for attempt in range(6):
            expected = min(2.0, 0.1 * (2 ** attempt))
            delay = client._backoff(attempt)
            assert expected / 2 <= delay <= expected
