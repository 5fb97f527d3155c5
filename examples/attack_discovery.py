#!/usr/bin/env python3
"""Attack discovery walkthrough: the P1 service-disruption attack.

Shows the whole CEGAR pipeline on a single property — the paper's
"if the UE is in the registered initiated state, it will get
authenticated with an authentication sequence number (SQN) which is
greater than the previously accepted SQN":

1. extract the implementation model,
2. model check the threat-instrumented model,
3. have the protocol verifier confirm each adversarial step (the replay
   is feasible because the authentication_request verifies under the
   permanent key and is harvestable days in advance),
4. validate the counterexample end-to-end on the testbed (Fig. 4).
"""

from repro.baselines import lteinspector_mme
from repro.core import ProChecker
from repro.core.cegar import CegarContext, check_with_cegar
from repro.lte import constants as c
from repro.properties import property_by_id
from repro.testbed import run_attack

TRACE_COLUMNS = ("turn", "ue_state", "chan_dl", "chan_ul", "dl_sqn_rel",
                 "dl_mac_valid", "dl_replayed")


def main() -> None:
    implementation = "reference"
    prop = property_by_id("SEC-01")
    print(f"Property {prop.identifier}: {prop.description}\n")

    checker = ProChecker(implementation)
    ue_model = checker.extract()

    print("=== CEGAR loop: model checker + protocol verifier ===")
    result = check_with_cegar(
        CegarContext(ue_model, lteinspector_mme()),
        prop.formula_for(__import__(
            "repro.properties", fromlist=["EXTRACTED_VOCAB"]
        ).EXTRACTED_VOCAB),
        prop.threat, name=prop.identifier)

    print(f"iterations: {result.iterations}; "
          f"states explored: {result.states_explored}")
    if not result.is_attack:
        print("property verified — no attack")
        return

    print("\nCounterexample (the lasso the model checker found):")
    print(result.attack.format(TRACE_COLUMNS))

    print("\nProVerif-style feasibility verdicts per adversarial step:")
    for verdict in result.step_verdicts:
        if verdict.label.startswith("adv_pass"):
            continue
        print(f"  {verdict.label}: "
              f"{'FEASIBLE' if verdict.feasible else 'refuted'} "
              f"— {verdict.reason}")

    print("\n=== Testbed validation (Fig. 4 message sequence) ===")
    outcome = run_attack("P1", implementation)
    print(f"P1 on {implementation}: "
          f"{'SUCCEEDED' if outcome.succeeded else 'failed'}")
    print(f"evidence: {outcome.evidence}")
    print(f"victim responses: {outcome.details['responses']}")


if __name__ == "__main__":
    main()
