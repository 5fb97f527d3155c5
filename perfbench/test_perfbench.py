"""Self-tests of the benchmark's arithmetic, tracing and configuration.

Run from the repository root: ``python3 -m pytest perfbench -q``.
The last test runs the traced ``table1`` workload twice (about half a
minute) to show that per-layer counts repeat exactly for a seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from layers import END_TO_END, PER_LAYER
from measure import (percentile, self_times, tail_percentile, tree_pids,
                     tree_rss_bytes, union_length)
from tracer import CARRIER, Recorder
from workloads import HEAVY_GROUPS, fresh_subsets

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# Percentiles and the tail rule
# ---------------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(list(range(101)), 90) == pytest.approx(90.0)


def test_percentile_rejects_empty_sample():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (0, None), (39, None), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------
def test_union_length_merges_overlaps_once():
    assert union_length([(1, 6), (4, 9), (10, 11)]) == 9
    assert union_length([(2, 3), (0, 10)]) == 10
    assert union_length([]) == 0


def test_self_time_subtracts_nested_children():
    spans = [("root", None, 0.0, 10.0), ("child", "root", 2.0, 5.0),
             ("grandchild", "child", 3.0, 4.0)]
    result = self_times(spans)
    assert result["root"] == pytest.approx(7.0)
    assert result["child"] == pytest.approx(2.0)
    assert result["grandchild"] == pytest.approx(1.0)


def test_self_time_counts_concurrent_children_once():
    # Two children on other threads overlap in [4, 6]; a third runs past
    # the parent's end and is clipped to it.
    spans = [("batch", None, 0.0, 10.0), ("a", "batch", 1.0, 6.0),
             ("b", "batch", 4.0, 9.0), ("c", "batch", 9.5, 12.0)]
    result = self_times(spans)
    assert result["batch"] == pytest.approx(10.0 - 8.0 - 0.5)
    assert result["a"] == pytest.approx(5.0)
    assert result["c"] == pytest.approx(2.5)


def test_self_time_of_fully_covered_parent_is_zero():
    spans = [("p", None, 0.0, 4.0), ("x", "p", 0.0, 3.0),
             ("y", "p", 1.0, 4.0)]
    assert self_times(spans)["p"] == 0.0


def test_span_with_unknown_parent_is_a_root():
    spans = [("lone", "gone", 1.0, 2.0)]
    assert self_times(spans)["lone"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Process-tree memory
# ---------------------------------------------------------------------------
def _fake_process(proc: Path, pid: int, resident_pages: int,
                  children_by_task: dict) -> None:
    base = proc / str(pid)
    (base / "task").mkdir(parents=True)
    (base / "statm").write_text(f"9999 {resident_pages} 0 0 0 0 0\n")
    for tid, children in children_by_task.items():
        (base / "task" / str(tid)).mkdir()
        (base / "task" / str(tid) / "children").write_text(
            " ".join(str(c) for c in children) + (" " if children else ""))


def test_tree_rss_sums_every_descendant(tmp_path):
    # 10 has children 11 (via its main thread) and 12 (via a second
    # thread); 11 has child 13; 14 is listed but already gone.
    _fake_process(tmp_path, 10, 100, {10: [11], 15: [12, 14]})
    _fake_process(tmp_path, 11, 20, {11: [13]})
    _fake_process(tmp_path, 12, 3, {12: []})
    _fake_process(tmp_path, 13, 1, {13: []})
    assert tree_pids(10, str(tmp_path)) == [10, 11, 12, 14, 13]
    assert tree_rss_bytes(10, str(tmp_path), page_size=4096) \
        == (100 + 20 + 3 + 1) * 4096
    assert tree_rss_bytes(11, str(tmp_path), page_size=1) == 21


def test_tree_rss_of_live_process_tree_is_positive():
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(5)"])
    try:
        import os
        assert child.pid in tree_pids(os.getpid())
        assert tree_rss_bytes(child.pid) > 0
    finally:
        child.kill()
        child.wait()


# ---------------------------------------------------------------------------
# The span recorder
# ---------------------------------------------------------------------------
def test_recorder_nests_spans_per_thread_and_across_pools():
    recorder = Recorder("op-1")
    outer = recorder.begin("outer")
    inner = recorder.begin("inner")
    recorder.end(inner)

    seen = {}

    def task():
        span = recorder.begin("pooled")
        recorder.end(span)
        seen["span"] = span

    bound = recorder.bind(task)
    thread = threading.Thread(target=bound)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.end(outer)

    assert outer["parent"] is None and outer["op"] == "op-1"
    assert inner["parent"] == outer["id"] and inner["op"] is None
    assert seen["span"]["parent"] == outer["id"]


def test_recorder_carries_worker_spans_home():
    worker = Recorder("op-2")
    span = worker.begin("mc.check")
    worker.end(span)
    payload = worker.export()
    assert payload["name"] == CARRIER and worker.finished == []

    parent = Recorder("op-2")
    verify = parent.begin("engine.verify")
    parent.adopt(json.loads(json.dumps(payload))["attributes"]["records"])
    parent.end(verify)
    adopted = [s for s in parent.finished if s["name"] == "mc.check"]
    assert adopted[0]["parent"] == verify["id"]


# ---------------------------------------------------------------------------
# Workload inputs and the benchmark's declared metrics
# ---------------------------------------------------------------------------
def test_fresh_subsets_hold_one_heavy_group_and_never_repeat():
    import random

    names = sorted(HEAVY_GROUPS + tuple(f"g{i}" for i in range(19)))
    subsets = fresh_subsets(random.Random(7), names)
    assert len(subsets) == len(set(subsets)) > 200
    for subset in subsets:
        assert len(set(subset) & set(HEAVY_GROUPS)) == 1
    # The first rounds pair each heavy group with every other group.
    pairs = subsets[:3 * 19]
    assert all(len(subset) == 2 for subset in pairs)
    for heavy in HEAVY_GROUPS:
        partners = {g for subset in pairs if heavy in subset
                    for g in subset if g != heavy}
        assert len(partners) == 19
    assert fresh_subsets(random.Random(7), names) == subsets
    assert fresh_subsets(random.Random(8), names) != subsets


def test_benchmark_json_declares_the_metrics_the_code_reports():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == PER_LAYER


def _traced_counts(seed: int) -> dict:
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "table1",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170,
        check=True)
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    assert payload["correct"], result.stdout
    return {name: metric["value"]
            for name, metric in payload["metrics"].items()
            if metric["unit"] == "count"}


def test_traced_counts_repeat_exactly_for_a_seed():
    first = _traced_counts(3)
    assert first["mc.states_explored"] > 0
    assert _traced_counts(3) == first
