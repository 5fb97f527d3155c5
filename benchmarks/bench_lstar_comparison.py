"""Related-work comparison: black-box L* learning vs white-box extraction.

The paper argues (Section VIII) that active-automata learning "require[s]
a significantly high time and number of queries" and that "the extracted
FSM does not have a proper indication of states" compared to the
white-box extraction.  This benchmark runs both approaches on the same
implementation and quantifies both claims:

- **query cost**: L* needs hundreds of resets and thousands of input
  symbols *per hypothesis round*; ProChecker re-uses the one instrumented
  conformance run the vendor executes anyway;
- **semantic content**: the learned Mealy machine has opaque numbered
  states and message-level labels only; the extracted FSM carries the
  standards' state names and the data predicates (MAC validity, SQN and
  COUNT relations) the security properties quantify over.
"""

import pytest

from repro.baselines import learn_ue_model
from repro.conformance import full_suite, run_conformance
from repro.extraction import extract_model, table_for_implementation
from repro.fsm import guard_strictness
from repro.lte import constants as c
from repro.lte.implementations import REGISTRY


def test_lstar_learns_a_model(benchmark, cold_testbed):
    cold_testbed()
    machine, stats = benchmark.pedantic(
        lambda: learn_ue_model("reference", equivalence_depth=3),
        rounds=1, iterations=1)
    print(f"\nL* learned {len(machine.states)} states; cost: "
          f"{stats.resets} resets, {stats.symbols} input symbols, "
          f"{stats.membership_queries} membership queries, "
          f"{stats.equivalence_tests} equivalence tests")
    assert len(machine.states) >= 4
    # the hypothesis is deterministic and total
    for state in machine.states:
        for symbol in ("power_on", "auth_request_fresh"):
            assert (state, symbol) in machine.transitions


def test_query_cost_vs_conformance_reuse(benchmark, cold_testbed):
    """ProChecker's extraction piggybacks on the conformance run."""
    def both():
        cold_testbed()
        machine, stats = learn_ue_model("reference", equivalence_depth=3)
        cold_testbed()
        run = run_conformance("reference", full_suite("reference"))
        table = table_for_implementation(REGISTRY["reference"])
        fsm, extraction_stats = extract_model(run.log_text, table)
        return machine, stats, fsm, extraction_stats, run

    machine, stats, fsm, extraction_stats, run = benchmark.pedantic(
        both, rounds=1, iterations=1)
    conformance_cases = run.executed
    print(f"\nquery cost:")
    print(f"  L*:         {stats.resets} protocol sessions "
          f"(dedicated learning traffic)")
    print(f"  ProChecker: {conformance_cases} sessions — the conformance "
          f"suite the vendor runs anyway; extraction itself costs "
          f"{extraction_stats.elapsed_seconds * 1000:.0f}ms of log "
          f"analysis")
    assert stats.resets > 10 * conformance_cases


def test_semantic_content_comparison(benchmark, extracted_models,
                                     cold_testbed):
    cold_testbed()
    machine, _stats = benchmark.pedantic(
        lambda: learn_ue_model("reference", equivalence_depth=2),
        rounds=1, iterations=1)
    extracted = extracted_models["reference"]

    learned_state_names = {str(state) for state in machine.states}
    assert all(name.isdigit() for name in learned_state_names), \
        "L* states are opaque numbers"
    assert all(state.startswith("EMM_") for state in extracted.states), \
        "extracted states carry the standards' names"

    mean_predicates, peak = guard_strictness(extracted)
    print(f"\nsemantic content:")
    print(f"  L*:         states {sorted(machine.states)} (opaque), "
          f"labels are message types only")
    print(f"  ProChecker: states {sorted(extracted.states)[:3]}..., "
          f"{mean_predicates:.1f} data predicates per transition "
          f"(max {peak})")
    assert peak >= 5
    # the properties behind P1/I1 are inexpressible on the learned model:
    # no transition mentions SQN or COUNT relations
    assert not any("sqn" in output
                   for (_s, _a), (_t, output) in
                   machine.transitions.items())
    assert any("sqn_fresh=1" in t.conditions for t in extracted)
