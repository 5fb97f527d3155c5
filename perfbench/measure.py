"""The arithmetic the benchmark's metrics rest on.

Three pieces, kept free of I/O so the self-tests can pin them down:

- percentiles, and the rule for which tail percentile a sample set may
  report (the highest one with at least ten samples beyond it);
- self time: a span's duration minus the part of its interval that its
  child spans cover, where children may overlap because they ran on
  other threads or processes;
- process-tree memory: the resident set of a process plus all of its
  descendants, read from a ``/proc``-style directory.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail percentiles the summary may report, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (the inclusive method).

    ``pct`` is in [0, 100]; raises ``ValueError`` on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it in a sample of ``count``, or ``None`` when none qualifies.

    With 100 samples the p90 has exactly ten beyond it, so it is the
    first to qualify; with 1000 samples the p99 does.
    """
    for pct in TAIL_LADDER:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            return pct
    return None


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Tuple[object, object, float, float]]
               ) -> Dict[object, float]:
    """Self time of every span in ``(id, parent_id, start, end)`` form.

    A span's self time is its duration minus the length of the union of
    its children's intervals, each clipped to the span's own interval.
    Children that ran concurrently (on other threads or processes)
    overlap; the union counts their shared time once, so a parent whose
    two children ran side by side for its whole life has no self time.
    """
    bounds = {span_id: (start, end) for span_id, _, start, end in spans}
    children: Dict[object, List[Tuple[float, float]]] = {}
    for _span_id, parent, start, end in spans:
        if parent in bounds:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, (start, end) in bounds.items():
        clipped = [(max(child_start, start), min(child_end, end))
                   for child_start, child_end in children.get(span_id, ())]
        result[span_id] = max(0.0, (end - start) - union_length(clipped))
    return result


def tree_pids(root_pid: int, proc: str = "/proc") -> List[int]:
    """``root_pid`` and every live descendant, parents first.

    Reads ``<proc>/<pid>/task/<tid>/children``; a process that exits
    during the walk is skipped.
    """
    found: List[int] = []
    pending = [root_pid]
    while pending:
        pid = pending.pop(0)
        found.append(pid)
        try:
            tids = os.listdir(os.path.join(proc, str(pid), "task"))
        except OSError:
            continue
        for tid in tids:
            try:
                with open(os.path.join(proc, str(pid), "task", tid,
                                       "children")) as handle:
                    pending.extend(int(child)
                                   for child in handle.read().split())
            except (OSError, ValueError):
                continue
    return found


def tree_rss_bytes(root_pid: int, proc: str = "/proc",
                   page_size: int = 4096) -> int:
    """Summed resident set of ``root_pid`` and its descendants.

    Each process contributes the resident-page field of its ``statm``;
    pages shared between a parent and its forked workers count once per
    process, as ``ps`` counts them.  Vanished processes count zero.
    """
    total_pages = 0
    for pid in tree_pids(root_pid, proc):
        try:
            with open(os.path.join(proc, str(pid), "statm")) as handle:
                total_pages += int(handle.read().split()[1])
        except (OSError, ValueError, IndexError):
            continue
    return total_pages * page_size
