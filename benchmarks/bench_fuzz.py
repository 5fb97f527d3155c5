"""Fuzzing effectiveness: coverage trajectory and deviation discovery.

Runs pinned-seed campaigns against each implementation and records how
extracted-FSM transition coverage, the off-model frontier and the
unique-deviation count grow with the execution budget.  The headline
numbers land in ``BENCH_fuzz_coverage.json``:

- coverage is monotone in the budget and reaches a meaningful fraction
  of the extracted machine within a few hundred executions;
- srsUE and OAI campaigns each re-find seeded Table I deviations from
  the clean reference corpus (classification is post-hoc labelling —
  discovery never reads it);
- the reference self-campaign stays deviation-free at every budget
  (differential-oracle soundness);
- re-running a campaign is byte-identical (the determinism contract).
"""

import json
import time

from repro.fuzz import FuzzConfig, run_campaign

SEED = 20260808
BUDGET = 320
IMPLEMENTATIONS = ("reference", "srsue", "oai")


def _campaign_point(implementation):
    config = FuzzConfig(implementation=implementation, seed=SEED,
                        budget_execs=BUDGET)
    start = time.perf_counter()
    result = run_campaign(config)
    seconds = time.perf_counter() - start
    classifications = sorted(
        {d.classification for d in result.deviations if d.classification})
    return {
        "implementation": implementation,
        "campaign": result.campaign,
        "execs": result.execs,
        "seconds": round(seconds, 3),
        "execs_per_second": (round(result.execs / seconds, 1)
                             if seconds > 0 else None),
        "corpus_size": result.corpus_size,
        "coverage_transitions": result.coverage_transitions,
        "coverage_universe": result.coverage_universe,
        "coverage_frontier": result.coverage_frontier,
        "unique_deviations": len(result.deviations),
        "table1_classifications": classifications,
        "minimize_execs": result.minimize_execs,
        "trajectory": [dict(point) for point in result.trajectory],
    }


def test_fuzz_coverage(benchmark, cold_testbed):
    point = {"benchmark": "fuzz_coverage", "seed": SEED,
             "budget_execs": BUDGET, "campaigns": {}}

    def measure_all():
        for implementation in IMPLEMENTATIONS:
            cold_testbed()   # each campaign's time is its own
            point["campaigns"][implementation] = \
                _campaign_point(implementation)
        return point

    benchmark.pedantic(measure_all, rounds=1, iterations=1)

    campaigns = point["campaigns"]
    # Oracle soundness: the reference never deviates from itself.
    assert campaigns["reference"]["unique_deviations"] == 0
    # Re-discovery: both seeded-buggy targets yield classified Table I
    # deviations from the clean corpus.
    assert campaigns["srsue"]["table1_classifications"]
    assert campaigns["oai"]["table1_classifications"]
    for entry in campaigns.values():
        coverage = [p["coverage"] for p in entry["trajectory"]]
        assert coverage == sorted(coverage), (
            "coverage must be monotone", entry["implementation"])
        assert entry["coverage_transitions"] > 0

    with open("BENCH_fuzz_coverage.json", "w") as handle:
        json.dump(point, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\nfuzz coverage (seed %d, %d execs):" % (SEED, BUDGET))
    for implementation in IMPLEMENTATIONS:
        entry = campaigns[implementation]
        print(f"  {implementation}: "
              f"{entry['coverage_transitions']}"
              f"/{entry['coverage_universe']} transitions, "
              f"frontier {entry['coverage_frontier']}, "
              f"{entry['unique_deviations']} deviation(s) "
              f"{entry['table1_classifications']}")
