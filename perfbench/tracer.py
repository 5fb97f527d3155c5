"""Span recorder and layer wrappers for the benchmark's traced run.

``launch.py`` loads this module into a program process, installs the
wrappers, then hands control to ``repro.cli.main``.  Each wrapper sits
at the name its caller looks up (``repro.core.engine.run_conformance``,
not ``repro.conformance.run_conformance``) and records one span per
call: id, parent, layer name, operation id, start, end and the work
counts the call's result carries.  Only layer boundaries are timed; a
hot inner function such as ``Model.successor_items`` is left alone, and
its effort is read from the counts instead.

The recorder is the benchmark's own rather than ``repro.obs``: the
program's tracer is part of the code under measurement, keeps at most
64 root spans, and drops absolute start times on export.

Spans cross two boundaries:

- thread pools: a task submitted to a ``ThreadPoolExecutor`` opens its
  spans under the span that was open in the submitting thread;
- engine pool workers: each worker's finished spans ride home inside the
  ``repro.obs`` span payloads that ``_verify_group`` already returns,
  and are grafted under the span open where the engine adopts them.

Times come from ``time.perf_counter`` (the system-wide monotonic clock
on Linux), so spans from forked workers share the parent's time base.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Name of the fake ``repro.obs`` span that carries worker spans home.
CARRIER = "perfbench.spans"


class Recorder:
    """In-memory spans of one program process, one stack per thread."""

    def __init__(self, op: str):
        self.op = op
        self.missing: List[str] = []
        self._fresh()
        os.register_at_fork(after_in_child=self._fresh)

    def _fresh(self) -> None:
        # A forked engine worker starts with no spans, no open stack and
        # a lock no other thread of its parent can be holding.
        self._lock = threading.Lock()
        self.pid = os.getpid()
        self._next = 0
        self.finished: List[Dict] = []
        self._local = threading.local()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        """Id of the span open on this thread (or inherited by it)."""
        stack = self._stack()
        if stack:
            return stack[-1]["id"]
        return getattr(self._local, "parent", None)

    def begin(self, name: str) -> Dict:
        with self._lock:
            self._next += 1
            span_id = f"{self.pid}.{self._next}"
        parent = self.current()
        record = {"id": span_id, "parent": parent, "name": name,
                  "op": self.op if parent is None else None,
                  "start": time.perf_counter(), "end": None, "counts": {}}
        self._stack().append(record)
        return record

    def end(self, record: Dict) -> None:
        record["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self.finished.append(record)

    def bind(self, fn: Callable) -> Callable:
        """``fn`` wrapped to open its spans under the caller's span."""
        parent = self.current()

        def run(*args, **kwargs):
            self._local.parent = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.parent = None
        return run

    def export(self) -> Dict:
        """Drain finished spans into a ``repro.obs`` span payload."""
        with self._lock:
            records, self.finished = self.finished, []
        return {"name": CARRIER, "attributes": {"records": records},
                "offset": 0.0, "duration": 0.0, "counters": {},
                "children": []}

    def adopt(self, records: List[Dict]) -> None:
        """Graft spans from a worker under this thread's open span."""
        parent = self.current()
        for record in records:
            if record["parent"] is None:
                record["parent"] = parent
                record["op"] = None
        with self._lock:
            self.finished.extend(records)

    def dump(self, path: str) -> None:
        with self._lock:
            spans = list(self.finished)
        with open(path, "w") as handle:
            json.dump({"op": self.op, "missing": self.missing,
                       "spans": spans}, handle)


def _wrap(recorder: Recorder, owner, attr: str, layer: str,
          after: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``after(record, args, result)`` may add counts (or the operation
    id) to the finished span.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        record = recorder.begin(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(record)
        if after is not None:
            after(record, args, result)
        return result

    setattr(owner, attr, wrapper)


def _set(**counts) -> Callable:
    """An ``after`` hook storing ``counts[key] = fn(args, result)``."""
    def after(record, args, result):
        for key, fn in counts.items():
            record["counts"][key] = fn(args, result)
    return after


def _set_op(fn: Callable) -> Callable:
    def after(record, args, result):
        record["op"] = fn(args, result)
    return after


def _wrap_carrier(recorder: Recorder, engine, obs) -> None:
    """Ship worker spans home through the engine's span channel."""
    verify_group = engine._verify_group

    @functools.wraps(verify_group)
    def shipping_verify_group(task):
        results, spans, metrics = verify_group(task)
        return results, list(spans) + [recorder.export()], metrics

    adopt_spans = obs.adopt_spans

    @functools.wraps(adopt_spans)
    def adopting(payloads):
        rest = []
        for payload in payloads:
            if payload.get("name") == CARRIER:
                recorder.adopt(payload["attributes"]["records"])
            else:
                rest.append(payload)
        return adopt_spans(rest)

    # Pickle sends the task function by name, so the worker resolves
    # ``repro.core.engine._verify_group`` to this wrapper as well.
    engine._verify_group = shipping_verify_group
    obs.adopt_spans = adopting


def _wrap_thread_pool(recorder: Recorder) -> None:
    from concurrent.futures import ThreadPoolExecutor

    submit = ThreadPoolExecutor.submit

    @functools.wraps(submit)
    def bound_submit(self, fn, /, *args, **kwargs):
        return submit(self, recorder.bind(fn), *args, **kwargs)

    ThreadPoolExecutor.submit = bound_submit


#: Layer wrappers: (module, attribute path, layer, after hook).
#: Pipeline layers come first; every command runs them.
PIPELINE = [
    ("repro.core.engine", "run_conformance", "conformance.run", None),
    ("repro.core.engine", "extract_model", "extraction.extract",
     _set(log_lines=lambda a, r: r[1].log_lines)),
    ("repro.core.engine", "VerificationEngine.verify", "engine.verify",
     _set(width=lambda a, r: a[0].jobs)),
    ("repro.core.engine", "_safe_verify_one", "engine.property", None),
    ("repro.core.engine", "check_with_cegar", "cegar",
     _set(iterations=lambda a, r: r.iterations,
          refinements=lambda a, r: len(r.refinements))),
    ("repro.core.engine", "run_attack", "testbed.attack", None),
    ("repro.core.cegar", "CounterexampleValidator.validate",
     "cpv.validate", _set(step_verdicts=lambda a, r: len(r))),
    ("repro.mc.api", "ModelChecker.check", "mc.check",
     _set(states_explored=lambda a, r: r.states_explored,
          product_states=lambda a, r: r.product_states)),
    ("repro.threat.instrumentor", "ThreatInstrumentor.build",
     "threat.build", None),
]

SERVE = [
    ("repro.serve.service", "AnalysisService.submit", "serve.submit",
     _set_op(lambda a, r: r.job_id)),
    ("repro.serve.service", "AnalysisService._run_job", "serve.job",
     _set_op(lambda a, r: a[1].job_id)),
    ("repro.store", "ResultStore.get", "store.get",
     _set(hit=lambda a, r: int(r is not None))),
    ("repro.store", "ResultStore.put", "store.put", None),
]

FUZZ = [
    ("repro.fuzz.fuzzer", "Fuzzer.run", "fuzz.campaign", None),
    ("repro.fuzz.fuzzer", "run_schedule", "fuzz.exec", None),
    ("repro.fuzz.fuzzer", "build_deviation", "fuzz.minimize", None),
    ("repro.fuzz.fuzzer", "mutate_schedule", "fuzz.mutate", None),
]


def install(recorder: Recorder, command: str) -> None:
    """Install the wrappers the ``repro`` subcommand ``command`` needs.

    A target that no longer exists is reported on stderr and listed in
    ``recorder.missing``; its layer then reads zero.
    """
    table = list(PIPELINE)
    if command == "serve":
        table += SERVE
    elif command == "fuzz":
        table += FUZZ
    for module_name, path, layer, hook in table:
        owner_path, _, attr = path.rpartition(".")
        try:
            owner = importlib.import_module(module_name)
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            recorder.missing.append(f"{module_name}.{path}")
            print(f"perfbench: cannot trace {module_name}.{path}",
                  file=sys.stderr)
            continue
        _wrap(recorder, owner, attr, layer, hook)
    engine = importlib.import_module("repro.core.engine")
    obs = importlib.import_module("repro.obs")
    if hasattr(engine, "_verify_group") and hasattr(obs, "adopt_spans"):
        _wrap_carrier(recorder, engine, obs)
    else:
        recorder.missing.append("repro.core.engine._verify_group")
    _wrap_thread_pool(recorder)
