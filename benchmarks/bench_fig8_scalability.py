"""Fig. 8 — per-property verification time, ProChecker vs LTEInspector (RQ3).

For each of the 13 common properties, verifies it on (a) the richest
extracted model (the reference/closed-source stand-in, as in the paper)
and (b) the hand-built LTEInspector model, and prints both time series.
The paper's claim — "the time required by ProChecker for each property is
only a fraction higher than LTEInspector" — is asserted as: the per-suite
total on the extracted model stays within a small constant factor of the
baseline's, despite the extracted model being strictly richer.
"""

import time

import pytest

from repro.core.cegar import CegarContext, check_with_cegar
from repro.mc.buchi import clear_buchi_cache
from repro.mc.codegen import clear_code_cache
from repro.properties import (COMMON_PROPERTIES, EXTRACTED_VOCAB,
                              LTEINSPECTOR_VOCAB)


def _verify_suite(ue_model, vocabulary, mme_model):
    # Each suite pays for its own generated code and Büchi templates, so
    # neither side's time depends on which one runs first.
    clear_code_cache()
    clear_buchi_cache()
    timings = {}
    for prop in COMMON_PROPERTIES:
        formula = prop.formula_for(vocabulary)
        started = time.perf_counter()
        result = check_with_cegar(CegarContext(ue_model, mme_model),
                                  formula, prop.threat,
                                  name=prop.identifier)
        timings[prop.identifier] = (time.perf_counter() - started,
                                    result.states_explored)
    return timings


def test_fig8_execution_times(benchmark, extracted_models, baseline_ue,
                              mme_model):
    pro_model = extracted_models["reference"]

    def run_both():
        return (_verify_suite(pro_model, EXTRACTED_VOCAB, mme_model),
                _verify_suite(baseline_ue, LTEINSPECTOR_VOCAB, mme_model))

    pro_times, lte_times = benchmark.pedantic(run_both, rounds=1,
                                              iterations=1)

    print("\nFig. 8 reproduction — per-property verification time:")
    print(f"{'property':<10} {'ProChecker':>12} {'LTEInspector':>13} "
          f"{'Pro states':>11} {'LTE states':>11}")
    pro_total = lte_total = 0.0
    for identifier in pro_times:
        pro_seconds, pro_states = pro_times[identifier]
        lte_seconds, lte_states = lte_times[identifier]
        pro_total += pro_seconds
        lte_total += lte_seconds
        print(f"{identifier:<10} {pro_seconds * 1000:>10.1f}ms "
              f"{lte_seconds * 1000:>11.1f}ms {pro_states:>11} "
              f"{lte_states:>11}")
    ratio = pro_total / max(lte_total, 1e-9)
    print(f"{'TOTAL':<10} {pro_total * 1000:>10.1f}ms "
          f"{lte_total * 1000:>11.1f}ms   ratio={ratio:.2f}x")

    # The shape claim: the richer extracted model costs only a modest
    # constant factor over the baseline — not an order of magnitude.
    assert ratio < 10.0
    # and the extracted model is indeed the bigger one per property
    assert sum(s for _, s in pro_times.values()) \
        >= sum(s for _, s in lte_times.values())
