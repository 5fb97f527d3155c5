"""The three workloads: request streams, closed loops and output checks.

A workload is a closed loop of *requests* the load generator makes of
the program and waits for: a ``repro analyze`` process (``table1``), a
``repro fuzz`` process (``fuzz``) or one served job (``serve_mix``).
Every request's inputs come from the workload seed; the program sees
only those inputs.  A request is a *repeat* when the same input was
already answered earlier in the same pass: the server answers it from
its store, the CLI computes it again.

A pass runs one loop and collects what the end-to-end and per-layer
metrics need.  Untraced passes run for ``--seconds``; traced runs use a
fixed request list sized from ``--seconds`` (so that counts repeat
exactly for a seed) and run it twice, untraced and traced, to measure
the tracing overhead.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import re
import subprocess
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import count, islice
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from measure import percentile
from programs import (OPERATION_LIMIT_S, Completed, Program, RssSampler,
                      kill_group, process_cpu_s, read_spans)

#: A setup launch is interleaved into CLI loops this often, so the
#: samples spread over the CPU's speed phases instead of sharing one.
SETUP_EVERY_S = 2.0

#: Requests every pass makes even when ``--seconds`` is very short, so
#: that each request population (first-time, repeat) is non-empty.
MIN_REQUESTS = 6

#: Executions each fuzz campaign is given: large enough that executions,
#: not interpreter start-up and extraction, dominate a campaign.
FUZZ_BUDGET = 1500

#: Fixed interval at which serve clients poll for job completion.
POLL_S = 0.02

#: Serve loop shape: two clients; every fourth batch of a client
#: resubmits one of its own completed batches, so the store serves it.
SERVE_CLIENTS = 2
REPEAT_EVERY = 4

#: The attack groups whose checks dominate model-checking cost: alone,
#: each takes 180-220 ms per stack at width 1 (2-vCPU x86 VM, Python
#: 3.11), the median group about 20 ms.  Every serve batch holds exactly
#: one, so jobs cost alike and the cold-job percentiles measure the
#: server, not which pairs of groups a run happened to draw.
HEAVY_GROUPS = ("I1", "I2", "I4")

#: Counts the program reports itself, cross-checked against the trace.
REPORTED_TOTALS = ("mc.checks", "mc.states_explored", "mc.product_states",
                   "cegar.iterations", "cegar.refinements",
                   "cpv.step_verdicts", "testbed.attacks")

_TERMINAL = ("done", "failed", "timeout")


@dataclass
class Request:
    """One operation of a pass."""

    #: client-observed seconds (launch to exit, or POST to report body)
    client_s: float
    #: seconds of a request the program computed (``None``: store hit)
    cold_s: Optional[float]
    repeat: bool
    verdicts: int = 0
    execs: int = 0
    failed: bool = False


@dataclass
class Pass:
    """Everything one loop measured."""

    setup_s: List[float] = field(default_factory=list)
    requests: List[Request] = field(default_factory=list)
    setup_failures: int = 0
    #: seconds the loop's requests were in progress
    window_s: float = 0.0
    peak_rss_bytes: int = 0
    #: CPU seconds of the program's process trees during the requests
    cpu_s: float = 0.0
    problems: List[str] = field(default_factory=list)
    spans: List[Dict] = field(default_factory=list)
    #: layer wrapper targets the traced processes could not find
    missing: set = field(default_factory=set)
    #: counts the program reported in its own output
    totals: Counter = field(default_factory=Counter)
    #: per-layer facts read from outputs rather than spans
    facts: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.requests) + len(self.setup_s) + self.setup_failures

    @property
    def failed(self) -> int:
        return (sum(1 for r in self.requests if r.failed)
                + self.setup_failures)


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------
def end_to_end(run: Pass) -> Dict[str, Tuple[float, int]]:
    """``name -> (value, samples)`` for every end-to-end metric.

    A failed request counts with :data:`OPERATION_LIMIT_S` as its
    latency, so it misses every latency limit, and adds nothing to a
    rate.
    """
    done = [r for r in run.requests if not r.failed]

    def latency(request: Request, value: Optional[float]) -> float:
        return OPERATION_LIMIT_S if request.failed else value

    clients = [latency(r, r.client_s) for r in run.requests]
    cold = [latency(r, r.cold_s) for r in run.requests
            if r.failed or r.cold_s is not None]
    hits = [latency(r, r.client_s) for r in run.requests if r.repeat]
    window = run.window_s
    return {
        "setup_s": (percentile(run.setup_s, 50), len(run.setup_s)),
        "peak_rss_mb": (run.peak_rss_bytes / 1e6, len(done)),
        "jobs_per_s": (len(done) / window, len(done)),
        "verdicts_per_s": (sum(r.verdicts for r in done) / window,
                           len(done)),
        "execs_per_s": (sum(r.execs for r in done) / window, len(done)),
        "analysis_p50_s": (percentile(clients, 50), len(clients)),
        "cold_job_p50_s": (percentile(cold, 50), len(cold)),
        "cold_job_p90_s": (percentile(cold, 90), len(cold)),
        "hit_job_p50_s": (percentile(hits, 50), len(hits)),
    }


# ---------------------------------------------------------------------------
# CLI workloads (table1, fuzz)
# ---------------------------------------------------------------------------
@dataclass
class CliRequest:
    """One CLI command and how to judge its output."""

    args: List[str]
    #: identity of the input, for repeat detection
    key: Tuple
    ok_codes: Tuple[int, ...]
    #: ``check(completed, run, repeat) -> (verdicts, execs)``; appends
    #: problems and reported totals to ``run``
    check: Callable[[Completed, Pass, bool], Tuple[int, int]]


def _setup_launch(program: Program, run: Pass, traced: bool) -> None:
    completed = program.run(["--help"], traced, "setup")
    if completed.returncode == 0 and not completed.timed_out:
        run.setup_s.append(completed.seconds)
    else:
        run.setup_failures += 1
        run.problems.append(f"setup launch exited {completed.returncode}")


def _cli_request(program: Program, run: Pass, request: CliRequest,
                 traced: bool, sampler: RssSampler, op: str,
                 seen: set) -> bool:
    """Run one CLI request into ``run``; returns whether it succeeded."""
    completed = program.run(request.args, traced, op, sampler)
    repeat = request.key in seen
    seen.add(request.key)
    run.window_s += completed.seconds
    run.cpu_s += completed.cpu_s
    run.spans.extend(completed.spans)
    run.missing.update(completed.missing)
    failed = (completed.timed_out
              or completed.returncode not in request.ok_codes)
    verdicts = execs = 0
    if failed:
        run.problems.append(
            f"{' '.join(request.args)} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-300:]}")
    else:
        try:
            verdicts, execs = request.check(completed, run, repeat)
        except (ValueError, KeyError, TypeError) as exc:
            failed = True
            run.problems.append(f"{' '.join(request.args)}: unreadable "
                                f"output ({exc!r})")
    run.requests.append(Request(completed.seconds, completed.seconds,
                                repeat, verdicts, execs, failed))
    return not failed


def run_cli(program: Program, plan: Iterator[CliRequest], seconds: float,
            trace: bool, trace_requests: int
            ) -> Tuple[Pass, Optional[Pass]]:
    """Closed loop of CLI requests, one process at a time.

    Untraced: until ``seconds`` have passed (at least
    :data:`MIN_REQUESTS`), with a setup launch every
    :data:`SETUP_EVERY_S`.  Traced: ``trace_requests`` requests, each
    run untraced then traced, with a setup launch of each kind before
    it, so both halves see the same speed phases.
    """
    if not trace:
        run = Pass()
        sampler = RssSampler()
        seen: set = set()
        deadline = time.perf_counter() + seconds
        next_setup = 0.0
        try:
            for index, request in enumerate(plan):
                now = time.perf_counter()
                if index >= MIN_REQUESTS and now >= deadline:
                    break
                if now >= next_setup:
                    _setup_launch(program, run, traced=False)
                    next_setup = now + SETUP_EVERY_S
                if not _cli_request(program, run, request, False, sampler,
                                    f"r{index}", seen):
                    break
        finally:
            sampler.close()
        run.peak_rss_bytes = sampler.peak
        return run, None

    passes = (Pass(), Pass())
    samplers = (RssSampler(), RssSampler())
    seens: Tuple[set, set] = (set(), set())
    try:
        for index, request in enumerate(islice(plan, trace_requests)):
            for traced in (False, True):
                run = passes[traced]
                _setup_launch(program, run, traced)
                _cli_request(program, run, request, traced,
                             samplers[traced], f"r{index}", seens[traced])
    finally:
        for sampler in samplers:
            sampler.close()
    for run, sampler in zip(passes, samplers):
        run.peak_rss_bytes = sampler.peak
    return passes


def table1_plan(seed: int, catalog_size: int,
                expected: Callable[[str], set]) -> Iterator[CliRequest]:
    """``repro analyze <impl> --json`` cycling reference, srsue, oai.

    Default engine width and cold caches, as a CLI user runs Table I.
    The seed only picks the implementation the cycle starts from.
    """
    impls = ("reference", "srsue", "oai")
    start = random.Random(f"perfbench|table1|{seed}").randrange(3)

    def check_for(impl: str):
        def check(completed: Completed, run: Pass, repeat: bool):
            report = json.loads(completed.stdout)
            detected = set(report["detected_attacks"])
            if detected != expected(impl):
                run.problems.append(
                    f"analyze {impl}: detected {sorted(detected)}, Table I "
                    f"expects {sorted(expected(impl))}")
            if report["counts"]["errors"]:
                run.problems.append(f"analyze {impl}: "
                                    f"{report['counts']['errors']} ERROR "
                                    f"verdicts")
            if len(report["results"]) != catalog_size:
                run.problems.append(f"analyze {impl}: "
                                    f"{len(report['results'])} verdicts")
            totals = report["stats"]["totals"]
            for name in REPORTED_TOTALS:
                run.totals[name] += totals.get(name, 0)
            run.totals["extraction.log_lines"] += report["log_lines"]
            return (len(report["results"]),
                    report["conformance_cases"]
                    + totals.get("testbed.attacks", 0))
        return check

    for index in count():
        impl = impls[(start + index) % 3]
        yield CliRequest(["analyze", impl, "--json"], (impl,), (0,),
                         check_for(impl))


def fuzz_plan(seed: int) -> Iterator[CliRequest]:
    """``repro fuzz`` campaigns cycling srsue, oai, reference.

    Campaigns come in blocks of three, one per implementation; every
    other block repeats the block before it (same implementation and
    campaign seed), so half the campaigns are repeats whose summaries
    must match their originals byte for byte.
    """
    rng = random.Random(f"perfbench|fuzz|{seed}")
    impls = ("srsue", "oai", "reference")
    jobs = str(os.cpu_count() or 1)
    originals: Dict[Tuple, str] = {}

    def check_for(impl: str, campaign_seed: int):
        def check(completed: Completed, run: Pass, repeat: bool):
            summary = json.loads(completed.stdout)
            deviations = summary["deviations"]
            if impl == "reference" and (deviations
                                        or completed.returncode != 0):
                run.problems.append(f"reference self-campaign (seed "
                                    f"{campaign_seed}) found deviations")
            if summary["execs"] != FUZZ_BUDGET:
                run.problems.append(f"fuzz {impl}: {summary['execs']} "
                                    f"execs for a {FUZZ_BUDGET} budget")
            canonical = json.dumps(summary, sort_keys=True)
            key = (impl, campaign_seed)
            if repeat and originals.get(key) != canonical:
                run.problems.append(f"fuzz {impl} seed {campaign_seed}: "
                                    f"repeat differs from its original")
            originals.setdefault(key, canonical)
            run.totals["fuzz.execs"] += summary["execs"]
            run.totals["fuzz.minimize_execs"] += summary["minimize_execs"]
            run.facts["fuzz.deviations"] += len(deviations)
            run.facts["fuzz.corpus_additions"] += summary["corpus_size"]
            executions = summary["execs"] + summary["minimize_execs"]
            return executions, executions
        return check

    block: List[int] = []
    for index in count():
        position = index % 3
        if position == 0 and (index // 3) % 2 == 0:
            block = [rng.randrange(1_000_000) for _ in impls]
        impl = impls[position]
        campaign_seed = block[position]
        yield CliRequest(
            ["fuzz", impl, "--seed", str(campaign_seed), "--budget-execs",
             str(FUZZ_BUDGET), "--jobs", jobs, "--json"],
            (impl, campaign_seed), (0, 6),
            check_for(impl, campaign_seed))


# ---------------------------------------------------------------------------
# serve_mix
# ---------------------------------------------------------------------------
def attack_groups(properties) -> Dict[str, List[str]]:
    """Table I attack id -> its property ids, catalog order."""
    groups: Dict[str, List[str]] = {}
    for prop in properties:
        if prop.attack_id:
            groups.setdefault(prop.attack_id, []).append(prop.identifier)
    return groups


def fresh_subsets(rng: random.Random,
                  names: List[str]) -> List[Tuple[str, ...]]:
    """Property subsets for the fresh batches, none ever repeated.

    Each subset is one of :data:`HEAVY_GROUPS` plus one other group,
    in rounds that give every heavy group one subset; when those pairs
    run out, subsets take a second other group.  The seed orders the
    other groups and the subsets within each round.  Since no subset
    repeats, only a deliberate resubmission is ever a store hit.
    """
    heavy = [name for name in HEAVY_GROUPS if name in names]
    others = [name for name in names if name not in heavy]
    if not heavy or not others:
        raise ValueError(f"attack groups {names} lack {HEAVY_GROUPS}")
    rng.shuffle(others)
    size = len(others)
    seen: set = set()
    subsets: List[Tuple[str, ...]] = []
    for extra in range(size):
        for shift in range(size):
            round_ = []
            for index, name in enumerate(heavy):
                # A stride of 7 gives the heavy groups of one round
                # different partners.
                start = shift + 7 * index
                subset = tuple(sorted({name, others[start % size],
                                       others[(start + extra) % size]}))
                if subset not in seen:
                    seen.add(subset)
                    round_.append(subset)
            rng.shuffle(round_)
            subsets.extend(round_)
    return subsets


@dataclass
class ServeJob:
    impl: str
    subset: Tuple[str, ...]
    repeat: bool
    posted_at: float
    client_s: Optional[float] = None
    record: Dict = field(default_factory=dict)
    report: Dict = field(default_factory=dict)
    error: str = ""


class ServeClient(threading.Thread):
    """One closed-loop client: a batch, then wait for all its jobs."""

    def __init__(self, index: int, port: int, schedule: Iterator,
                 deadline: Optional[float], batches: Optional[int],
                 payload: Callable[[str, Tuple[str, ...]], Dict]):
        super().__init__(name=f"serve-client-{index}", daemon=True)
        self.port = port
        self.schedule = schedule
        self.deadline = deadline
        self.batches = batches
        self.payload = payload
        self.jobs: List[ServeJob] = []
        self.problems: List[str] = []
        self.last_done = 0.0

    def _call(self, conn, method: str, path: str,
              body: Optional[Dict] = None) -> Tuple[int, Dict]:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def run(self) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=OPERATION_LIMIT_S)
        try:
            for number, (subset, repeat) in enumerate(self.schedule):
                if self.batches is not None and number >= self.batches:
                    break
                if (self.deadline is not None and number >= REPEAT_EVERY
                        and time.perf_counter() >= self.deadline):
                    break
                if not self._batch(conn, subset, repeat):
                    break
        except Exception as exc:  # noqa: BLE001 - report, never hang
            self.problems.append(f"{self.name}: {exc!r}")
        finally:
            conn.close()
            for job in self.jobs:
                if not job.report and not job.error:
                    job.error = "not answered"

    def _batch(self, conn, subset: Tuple[str, ...], repeat: bool) -> bool:
        pending: List[ServeJob] = []
        for impl in ("reference", "srsue", "oai"):
            job = ServeJob(impl, subset, repeat, time.perf_counter())
            self.jobs.append(job)
            status, body = self._call(conn, "POST", "/v1/jobs",
                                      self.payload(impl, subset))
            if status == 200:
                job.record = body
                self._fetch(conn, job)
            elif status == 202:
                job.record = body
                pending.append(job)
            else:
                job.error = f"refused with {status}: {body.get('error')}"
        limit = time.perf_counter() + OPERATION_LIMIT_S
        while pending and time.perf_counter() < limit:
            for job in list(pending):
                status, body = self._call(
                    conn, "GET", f"/v1/jobs/{job.record['job_id']}")
                if body.get("status") in _TERMINAL:
                    job.record = body
                    pending.remove(job)
                    self._fetch(conn, job)
            if pending:
                time.sleep(POLL_S)
        for job in pending:
            job.error = "timed out"
        self.last_done = time.perf_counter()
        return not any(job.error for job in self.jobs[-3:])

    def _fetch(self, conn, job: ServeJob) -> None:
        if job.record.get("status") != "done":
            job.error = (f"ended {job.record.get('status')}: "
                         f"{job.record.get('error', '')[:300]}")
            return
        status, body = self._call(conn, "GET",
                                  f"/v1/reports/{job.record['digest']}")
        job.client_s = time.perf_counter() - job.posted_at
        if status != 200:
            job.error = f"report fetch answered {status}"
            return
        job.report = body["report"]


def client_schedule(rng: random.Random, fresh: List[Tuple[str, ...]]
                    ) -> Iterator[Tuple[Tuple[str, ...], bool]]:
    """A client's batches: its fresh subsets, with every
    :data:`REPEAT_EVERY`-th batch a resubmission of an earlier one."""
    done: List[Tuple[str, ...]] = []
    fresh_iter = iter(fresh)
    for number in count(1):
        if number % REPEAT_EVERY == 0:
            yield rng.choice(done), True
        else:
            subset = next(fresh_iter)
            done.append(subset)
            yield subset, False


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, program: Program, store: Path, traced: bool):
        started = time.perf_counter()
        self.process, self.trace = program.popen(
            ["serve", "--port", "0", "--store-dir", str(store)], traced,
            "serve", stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        self.log: List[str] = []
        ports: "queue.Queue[Optional[int]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, args=(ports,),
                                        daemon=True)
        self._reader.start()
        try:
            self.port = ports.get(timeout=OPERATION_LIMIT_S)
            if self.port is None:
                raise OSError("exited before listening")
            self._wait_ready(started + OPERATION_LIMIT_S)
        except (queue.Empty, OSError) as exc:
            self.stop()
            raise RuntimeError(f"repro serve never became ready: "
                               f"{exc!r}; log: {self.log[-5:]}") from None
        self.setup_s = time.perf_counter() - started

    def _read(self, ports: "queue.Queue[Optional[int]]") -> None:
        for line in self.process.stderr:
            self.log.append(line.rstrip())
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                ports.put(int(match.group(1)))
        ports.put(None)

    def _wait_ready(self, limit: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=OPERATION_LIMIT_S)
            try:
                conn.request("GET", "/v1/health/ready")
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except OSError:
                if time.perf_counter() > limit:
                    raise
            finally:
                conn.close()
            time.sleep(0.005)

    def kill(self) -> None:
        """SIGKILL: for a server that was only started to time set-up."""
        kill_group(self.process)
        self._reader.join()

    def stop(self) -> Tuple[List[Dict], List[str]]:
        """SIGTERM (drain, then exit); returns the spans it recorded and
        the wrapper targets it could not find."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=OPERATION_LIMIT_S)
            except subprocess.TimeoutExpired:
                kill_group(self.process)
        self._reader.join()
        return read_spans(self.trace)


def serve_pass(program: Program, seed: int, store: Path, traced: bool,
               deadline_s: Optional[float], batches: Optional[int],
               setups: int, catalog, expected: Callable[[str], set],
               stamp: Callable[[Dict], Dict]) -> Pass:
    """One long-lived server, two closed-loop clients, fresh store."""
    run = Pass()
    groups = attack_groups(catalog)
    rng_name = f"perfbench|serve_mix|{seed}"
    fresh = fresh_subsets(random.Random(rng_name), sorted(groups))

    def payload(impl: str, subset: Tuple[str, ...]) -> Dict:
        ids = [pid for name in subset for pid in groups[name]]
        return stamp({"implementation": impl, "property_ids": ids})

    def measure_setups(tag: str) -> None:
        for number in range(setups):
            server = Server(program, store.with_name(
                f"{store.name}-setup-{tag}{number}"), traced)
            run.setup_s.append(server.setup_s)
            server.kill()

    measure_setups("a")
    server = Server(program, store, traced)
    run.setup_s.append(server.setup_s)
    sampler = RssSampler()
    sampler.watch(server.process.pid)
    cpu_before = process_cpu_s(server.process.pid)
    started = time.perf_counter()
    deadline = started + deadline_s if deadline_s is not None else None
    clients = [ServeClient(
        index, server.port,
        client_schedule(random.Random(f"{rng_name}|{index}"),
                        fresh[index::SERVE_CLIENTS]),
        deadline, batches, payload) for index in range(SERVE_CLIENTS)]
    try:
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        run.window_s = max(c.last_done for c in clients) - started
        run.cpu_s = process_cpu_s(server.process.pid) - cpu_before
    finally:
        sampler.close()
        spans, missing = server.stop()
        run.spans = spans
        run.missing.update(missing)
    run.peak_rss_bytes = sampler.peak
    measure_setups("b")
    extracted: set = set()
    for client in clients:
        run.problems.extend(client.problems)
        _judge_serve_jobs(client.jobs, run, expected, extracted)
    return run


def _signature(report: Dict) -> List:
    return [(r["property"], r["verdict"]) for r in report["results"]]


def _judge_serve_jobs(jobs: List[ServeJob], run: Pass,
                      expected: Callable[[str], set],
                      extracted: set) -> None:
    """Check one client's jobs and turn them into requests.

    ``extracted`` holds the implementations whose one extraction run
    has already been charged to a cold job of this pass.
    """
    cold_signatures: Dict[Tuple, List] = {}
    for job in jobs:
        if job.error:
            run.problems.append(f"{job.impl} {job.subset}: {job.error}")
            run.requests.append(Request(OPERATION_LIMIT_S, None,
                                        job.repeat, failed=True))
            continue
        record, report = job.record, job.report
        want = {a for a in job.subset if a in expected(job.impl)}
        if set(report["detected_attacks"]) != want:
            run.problems.append(f"{job.impl} {job.subset}: detected "
                                f"{report['detected_attacks']}, Table I "
                                f"expects {sorted(want)}")
        if report["counts"]["errors"]:
            run.problems.append(f"{job.impl} {job.subset}: ERROR verdicts")
        key = (job.impl, job.subset)
        if record["store_hit"] != job.repeat:
            run.problems.append(f"{job.impl} {job.subset}: store_hit is "
                                f"{record['store_hit']} on a "
                                f"{'repeat' if job.repeat else 'fresh'} "
                                f"batch")
        execs = 0
        cold_s: Optional[float] = None
        if record["store_hit"]:
            if record["counters"]:
                run.problems.append(f"store hit {key} did work: "
                                    f"{sorted(record['counters'])}")
            if cold_signatures.get(key) != _signature(report):
                run.problems.append(f"store hit {key}: verdicts differ "
                                    f"from its cold run")
        else:
            cold_signatures[key] = _signature(report)
            cold_s = record["finished_at"] - record["submitted_at"]
            totals = report["stats"]["totals"]
            for name in REPORTED_TOTALS:
                run.totals[name] += totals.get(name, 0)
            execs = totals.get("testbed.attacks", 0)
            run.facts["serve.queue_wait_s"] += (record["started_at"]
                                                - record["submitted_at"])
            if job.impl not in extracted:
                # The server extracts each implementation once; charge
                # the conformance executions to its first cold job.
                extracted.add(job.impl)
                execs += report["conformance_cases"]
        # Every job reads the store at submission and when its report
        # is fetched; a cold job also re-checks it when dequeued, then
        # files its report.
        run.totals["store.gets"] += 2 if record["store_hit"] else 3
        run.totals["store.puts"] += 0 if record["store_hit"] else 1
        run.facts["serve.http_s"] += job.client_s - (
            record["finished_at"] - record["submitted_at"])
        run.requests.append(Request(job.client_s, cold_s, job.repeat,
                                    len(report["results"]), execs))


def trace_size(seconds: int, per_request_s: float, multiple: int) -> int:
    """Fixed request count of a traced pass: about half of ``seconds``,
    a whole number of ``multiple``-sized blocks."""
    blocks = max(1, math.floor(seconds / 2 / per_request_s / multiple))
    return max(blocks * multiple, MIN_REQUESTS)
