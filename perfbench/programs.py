"""Starting, timing and watching the program under test.

Every program process runs from the checkout's ``src`` tree with the
interpreter that runs the benchmark.  An untraced process is launched
as ``python -m repro ...``; a traced one through ``launch.py``, which
writes its spans to a file the benchmark reads once the process ends.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from measure import tree_rss_bytes

#: Longest one operation may take before it counts as failed.
OPERATION_LIMIT_S = 60.0

#: Interval of the process-tree memory sampler.
RSS_INTERVAL_S = 0.02

PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def children_cpu_s() -> float:
    """CPU seconds of every reaped descendant of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def process_cpu_s(pid: int) -> float:
    """CPU seconds of a live process and its reaped children."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[11:15] are utime, stime, cutime and cstime in clock ticks.
    return sum(int(value) for value in fields[11:15]) / CLOCK_TICKS


class RssSampler:
    """Background sampler of the peak summed RSS of watched trees."""

    def __init__(self):
        self.peak = 0
        self._roots: Set[int] = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="rss-sampler", daemon=True)
        self._thread.start()

    def watch(self, pid: int) -> None:
        with self._lock:
            self._roots.add(pid)

    def unwatch(self, pid: int) -> None:
        with self._lock:
            self._roots.discard(pid)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_INTERVAL_S):
            with self._lock:
                roots = list(self._roots)
            for pid in roots:
                self.peak = max(self.peak,
                                tree_rss_bytes(pid, page_size=PAGE_SIZE))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Completed:
    """One finished program process."""

    returncode: Optional[int]
    stdout: str
    stderr: str
    seconds: float
    cpu_s: float
    spans: List[Dict] = field(default_factory=list)
    #: wrapper targets the traced process could not find
    missing: List[str] = field(default_factory=list)
    timed_out: bool = False


class Program:
    """Launches ``repro`` processes from one checkout."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        path = [str(root / "src")]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                        TMPDIR=str(work / "tmp"))
        self._launches = 0

    def argv(self, args: List[str], trace: Optional[Path],
             op: str) -> List[str]:
        if trace is None:
            return [sys.executable, "-m", "repro", *args]
        return [sys.executable, str(self.root / "perfbench" / "launch.py"),
                str(trace), op, "--", *args]

    def trace_path(self) -> Path:
        self._launches += 1
        return self.work / f"trace-{self._launches}.json"

    def popen(self, args: List[str], traced: bool, op: str,
              **kwargs) -> "tuple[subprocess.Popen, Optional[Path]]":
        trace = self.trace_path() if traced else None
        process = subprocess.Popen(
            self.argv(args, trace, op), cwd=self.root, env=self.env,
            start_new_session=True, **kwargs)
        return process, trace

    def run(self, args: List[str], traced: bool, op: str,
            sampler: Optional[RssSampler] = None) -> Completed:
        """Run one command to completion; time it launch to exit."""
        cpu_before = children_cpu_s()
        started = time.perf_counter()
        process, trace = self.popen(args, traced, op,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, text=True)
        if sampler is not None:
            sampler.watch(process.pid)
        timed_out = False
        try:
            stdout, stderr = process.communicate(timeout=OPERATION_LIMIT_S)
        except subprocess.TimeoutExpired:
            timed_out = True
            kill_group(process)
            stdout, stderr = process.communicate()
        except BaseException:
            # Interrupted (e.g. SIGTERM): leave no program process behind.
            kill_group(process)
            raise
        finally:
            if sampler is not None:
                sampler.unwatch(process.pid)
        seconds = time.perf_counter() - started
        spans, missing = read_spans(trace)
        return Completed(process.returncode, stdout, stderr, seconds,
                         children_cpu_s() - cpu_before, spans, missing,
                         timed_out)


def kill_group(process: subprocess.Popen) -> None:
    """SIGKILL a program process and everything in its session."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def read_spans(trace: Optional[Path]) -> Tuple[List[Dict], List[str]]:
    """Spans a traced process wrote, and the wrapper targets it could
    not find (nothing for an untraced process or a lost file)."""
    if trace is None or not trace.exists():
        return [], []
    payload = json.loads(trace.read_text())
    return payload["spans"], payload["missing"]
