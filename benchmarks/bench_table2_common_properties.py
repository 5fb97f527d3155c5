"""Table II — the 13 properties common with LTEInspector.

Verifies every common property on both the ProChecker-extracted model and
the LTEInspector baseline model (the same property text instantiated in
each model's vocabulary), confirming that both toolchains handle the
shared property set — the premise of the Fig. 8 timing comparison.
"""

import pytest

from repro.core.cegar import CegarContext, check_with_cegar
from repro.properties import (COMMON_PROPERTIES, EXTRACTED_VOCAB,
                              LTEINSPECTOR_VOCAB)


@pytest.mark.parametrize("prop", COMMON_PROPERTIES,
                         ids=lambda p: p.identifier)
def test_common_property_on_extracted_model(benchmark, prop,
                                            extracted_models, mme_model):
    """Each Table II property, CEGAR-verified on the extracted model."""
    context = CegarContext(extracted_models["reference"], mme_model)
    formula = prop.formula_for(EXTRACTED_VOCAB)

    result = benchmark.pedantic(
        lambda: check_with_cegar(context, formula, prop.threat,
                                 name=prop.identifier),
        rounds=1, iterations=1)
    # every common property terminates with a definite verdict
    assert result.verified or result.is_attack
    print(f"\n{prop.identifier}: "
          f"{'verified' if result.verified else 'attack'} "
          f"({result.states_explored} states, "
          f"{result.iterations} iterations) — {prop.description[:60]}")


def test_common_properties_on_baseline_model(benchmark, baseline_ue,
                                             mme_model):
    """The same 13 properties on the hand-built LTEInspector model."""
    def verify_all():
        outcomes = {}
        for prop in COMMON_PROPERTIES:
            formula = prop.formula_for(LTEINSPECTOR_VOCAB)
            outcomes[prop.identifier] = check_with_cegar(
                CegarContext(baseline_ue, mme_model), formula,
                prop.threat, name=prop.identifier)
        return outcomes

    outcomes = benchmark.pedantic(verify_all, rounds=1, iterations=1)
    assert len(outcomes) == 13
    decided = sum(1 for r in outcomes.values()
                  if r.verified or r.is_attack)
    assert decided == 13
    print("\nLTEInspector-model verdicts:")
    for identifier, result in outcomes.items():
        print(f"  {identifier}: "
              f"{'verified' if result.verified else 'attack'}")
