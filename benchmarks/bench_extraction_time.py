"""Section VI — extraction time as the conformance log grows.

The paper's largest (closed-source, 7087-case) log takes ~5 minutes to
analyse.  Our logs are smaller, so the reproducible claim is the *shape*:
extraction time stays linear in log size, demonstrated by scaling the
generated suite.
"""

import pytest

from repro.conformance import full_suite, generated_suite, run_conformance
from repro.extraction import ModelExtractor, table_for_implementation
from repro.lte.implementations import REGISTRY


@pytest.fixture(scope="module")
def scaled_logs():
    """Conformance logs at 1x, 3x and 6x the base suite size."""
    logs = {}
    for multiplier in (1, 3, 6):
        cases = generated_suite(multiplier)
        run = run_conformance("reference", cases)
        logs[multiplier] = run.log_text
    return logs


def test_extraction_scales_linearly(benchmark, scaled_logs):
    table = table_for_implementation(REGISTRY["reference"])

    def extract_largest():
        extractor = ModelExtractor(table)
        extractor.extract(scaled_logs[6])
        return extractor.stats

    stats = benchmark(extract_largest)
    print(f"\nlargest log: {stats.log_lines} records, {stats.blocks} "
          f"blocks -> {stats.transitions} transitions in "
          f"{stats.elapsed_seconds * 1000:.0f}ms")

    # shape check: time per log line stays flat across scales
    per_line = {}
    for multiplier, log in scaled_logs.items():
        extractor = ModelExtractor(table)
        extractor.extract(log)
        per_line[multiplier] = (extractor.stats.elapsed_seconds
                                / max(extractor.stats.log_lines, 1))
        print(f"  {multiplier}x: {extractor.stats.log_lines:>7} lines, "
              f"{extractor.stats.elapsed_seconds * 1000:7.1f}ms, "
              f"{per_line[multiplier] * 1e6:6.2f}us/line")
    assert per_line[6] < per_line[1] * 3.0   # no superlinear blow-up

    # the FSM converges: more repetitions of the same behaviour do not
    # add transitions
    small = ModelExtractor(table)
    small_fsm = small.extract(scaled_logs[1])
    large = ModelExtractor(table)
    large_fsm = large.extract(scaled_logs[6])
    assert set(large_fsm.transitions) == set(small_fsm.transitions)


def test_extraction_per_implementation(benchmark, cold_testbed):
    """Extraction on the paper-style per-implementation suites."""
    def extract_all():
        stats = {}
        for impl in ("reference", "srsue", "oai"):
            cold_testbed()
            run = run_conformance(impl, full_suite(impl))
            table = table_for_implementation(REGISTRY[impl])
            extractor = ModelExtractor(table)
            extractor.extract(run.log_text)
            stats[impl] = extractor.stats
        return stats

    stats = benchmark.pedantic(extract_all, rounds=1, iterations=1)
    for impl, stat in stats.items():
        print(f"\n{impl}: {stat.log_lines} records -> {stat.states} "
              f"states / {stat.transitions} transitions in "
              f"{stat.elapsed_seconds * 1000:.1f}ms")
        assert stat.elapsed_seconds < 60   # far under the 5-minute budget
