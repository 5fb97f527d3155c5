"""Table I — the detection matrix (RQ1).

Reruns the full ProChecker pipeline (conformance run -> extraction ->
62-property CEGAR verification) per implementation, asserts the verdicts
against the paper's Table I, and benchmarks the pipeline.  The printed
matrix is the reproduction of the table's filled/empty circles.
"""

import json
import os
import time

import pytest

import repro.obs as obs
from repro.core import AnalysisConfig, ProChecker, analyze_many, \
    extraction_cache
from repro.properties.expected import (IMPLEMENTATIONS,
                                       NEW_ATTACKS as TABLE_I_NEW,
                                       PRIOR_DETECTED
                                       as TABLE_I_PRIOR_DETECTED,
                                       PRIOR_NOT_APPLICABLE
                                       as TABLE_I_PRIOR_DASH)


def _print_matrix(reports):
    print("\nTable I reproduction (x = attack found):")
    header = f"{'attack':34s}" + "".join(f"{impl:>11s}"
                                         for impl in IMPLEMENTATIONS)
    print(header)
    rows = list(TABLE_I_NEW) + list(TABLE_I_PRIOR_DETECTED) \
        + list(TABLE_I_PRIOR_DASH)
    for attack in rows:
        marks = []
        for impl in IMPLEMENTATIONS:
            if attack in TABLE_I_PRIOR_DASH:
                marks.append("-")
            else:
                marks.append("x" if attack
                             in reports[impl].detected_attacks() else ".")
        print(f"{attack:34s}" + "".join(f"{m:>11s}" for m in marks))


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_full_pipeline(benchmark, implementation):
    """Benchmark one implementation's full 62-property analysis."""
    extraction_cache.clear()
    config = AnalysisConfig(implementation)
    report = benchmark.pedantic(
        lambda: ProChecker.from_config(config).analyze(),
        rounds=1, iterations=1)
    # One full analysis = exactly one conformance run + extraction.
    runtime = report.stats.runtime["metrics"]["counters"]
    assert runtime["extraction.cache_misses"] == 1
    detected = report.detected_attacks()
    for attack, expectations in TABLE_I_NEW.items():
        assert (attack in detected) == expectations[implementation], attack
    for attack in TABLE_I_PRIOR_DETECTED:
        assert attack in detected, attack
    for attack in TABLE_I_PRIOR_DASH:
        assert attack not in detected, attack
    counts = report.counts()
    assert counts["properties"] == 62
    print(f"\n{implementation}: {counts['verified']} verified, "
          f"{counts['violated']} violated, {counts['attacks']} attacks, "
          f"FSM {report.fsm_summary}")


def _emit_trajectory(reports):
    """Write the benchmark trajectory point + the pipeline trace.

    ``BENCH_table1_detection.json`` carries the per-phase timings,
    canonical per-implementation stats, and the per-property wall-time
    trajectory (plus the slowest property's exploration effort — the
    number the MC regression guard watches) of the full
    three-implementation run.  The run is one batch: ``batch_seconds``
    is its wall time, written once, and each implementation's
    ``busy_seconds`` sums its own properties' verification time.
    ``trace.jsonl`` is the reassembled span trace CI uploads as an
    artifact and audits for phase completeness.
    """
    roots = obs.drain_spans()
    batch_roots = [r for r in roots if r.name == "pipeline.analyze"]
    stats_by_impl = {impl: report.stats
                     for impl, report in reports.items()
                     if report.stats is not None}
    any_stats = next(iter(stats_by_impl.values()), None)
    obs.write_trace("trace.jsonl", batch_roots or roots, any_stats)
    point = {
        "benchmark": "table1_detection",
        "implementations": sorted(reports),
        "jobs": any_stats.jobs if any_stats else 1,
        "phases": dict(any_stats.phases) if any_stats else {},
        # Every report of one analyze_many batch carries the batch's
        # wall time as its elapsed_seconds.
        "batch_seconds": round(
            max(report.elapsed_seconds for report in reports.values()), 6),
        "busy_seconds": {
            impl: round(sum(r.elapsed_seconds for r in report.results), 6)
            for impl, report in sorted(reports.items())},
        "canonical": {impl: stats.canonical_dict()
                      for impl, stats in sorted(stats_by_impl.items())},
        "per_property_seconds": {
            impl: {r.property.identifier: round(r.elapsed_seconds, 6)
                   for r in sorted(report.results,
                                   key=lambda r: r.property.identifier)}
            for impl, report in sorted(reports.items())},
        "slowest_property": _slowest_property(reports),
    }
    with open("BENCH_table1_detection.json", "w") as handle:
        json.dump(point, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _slowest_property(reports):
    """The (implementation, property) pair with the worst MC effort."""
    worst = None
    for impl, report in sorted(reports.items()):
        for result in report.results:
            row = (result.states_explored, impl,
                   result.property.identifier, result.elapsed_seconds)
            if worst is None or row > worst:
                worst = row
    states, impl, identifier, seconds = worst
    return {"implementation": impl, "property": identifier,
            "states_explored": states, "seconds": round(seconds, 6)}


def test_detection_matrix_summary(benchmark):
    """Produce the full three-implementation matrix in one run."""
    extraction_cache.clear()
    obs.reset()

    def analyze_all():
        return analyze_many(IMPLEMENTATIONS)

    reports = benchmark.pedantic(analyze_all, rounds=1, iterations=1)
    _emit_trajectory(reports)
    _print_matrix(reports)
    # headline numbers: 3 new protocol attacks, 6 implementation issues
    # across the two open stacks, 12 applicable prior attacks
    new_protocol = {a for a in TABLE_I_NEW
                    if all(TABLE_I_NEW[a].get(i) for i in IMPLEMENTATIONS)}
    assert new_protocol == {"P1", "P2", "P3"}
    open_stack_issues = {
        attack for attack in TABLE_I_NEW
        if attack.startswith("I")
        and (attack in reports["srsue"].detected_attacks()
             or attack in reports["oai"].detected_attacks())}
    assert len(open_stack_issues) == 6
    # MC regression guard: the on-the-fly product search keeps even the
    # worst property's exploration in the low thousands of model states
    # (the materialised reference engine needed 5-10x that).  A checker
    # change that pushes past this bound is a real perf regression, not
    # noise — states-explored is deterministic and width-invariant.
    slowest = _slowest_property(reports)
    print(f"slowest property: {slowest['property']} on "
          f"{slowest['implementation']} "
          f"({slowest['states_explored']} states, "
          f"{slowest['seconds']:.3f}s)")
    assert slowest["states_explored"] <= 5000, slowest


def test_engine_speedup(benchmark):
    """Parallel engine vs the serial path.

    Both sides start from a cleared extraction cache, so each runs the
    conformance suite once.  The serial configuration pins one worker;
    the engine configuration uses the default width (all cores).
    Verdicts must match byte-for-byte; the speedup assertion only fires
    on multi-core runners, where the process pool carries the win.
    """
    serial_config = AnalysisConfig("srsue", jobs=1)
    engine_config = AnalysisConfig("srsue")

    extraction_cache.clear()
    start = time.perf_counter()
    serial_report = ProChecker.from_config(serial_config).analyze()
    serial_seconds = time.perf_counter() - start

    extraction_cache.clear()
    start = time.perf_counter()
    engine_report = benchmark.pedantic(
        lambda: ProChecker.from_config(engine_config).analyze(),
        rounds=1, iterations=1)
    engine_seconds = time.perf_counter() - start

    assert engine_report.verdict_signature() \
        == serial_report.verdict_signature()
    speedup = serial_seconds / max(engine_seconds, 1e-9)
    cores = os.cpu_count() or 1
    print(f"\nserial {serial_seconds:.2f}s vs engine {engine_seconds:.2f}s "
          f"({engine_report.jobs} worker(s), {cores} cores): "
          f"{speedup:.2f}x")
    if cores >= 4:
        assert speedup >= 1.5, (
            f"expected >=1.5x on a {cores}-core runner, got {speedup:.2f}x")
