"""CEGAR loop tests: feasibility bridge, refinement, convergence."""

import pytest

from repro.baselines import lteinspector_mme
from repro.core.cegar import (CegarContext, CounterexampleValidator,
                              check_with_cegar, harvestable_messages,
                              message_term, threat_config_key)
from repro.cpv.deduction import Knowledge
from repro.cpv.terms import const
from repro.lte import constants as c
from repro.properties import ALL_PROPERTIES, property_by_id
from repro.properties.spec import EXTRACTED_VOCAB, KIND_LTL
from repro.threat import ThreatConfig


class TestThreatConfigKey:
    def test_key_is_order_insensitive(self):
        """Capability tuples are sets semantically: listing them in a
        different order must not split the model cache."""
        a = ThreatConfig(replay_dl=(c.ATTACH_ACCEPT, c.PAGING),
                         inject_dl=(c.IDENTITY_REQUEST, c.PAGING),
                         inject_ul=(c.ATTACH_REQUEST, c.DETACH_REQUEST))
        b = ThreatConfig(replay_dl=(c.PAGING, c.ATTACH_ACCEPT),
                         inject_dl=(c.PAGING, c.IDENTITY_REQUEST),
                         inject_ul=(c.DETACH_REQUEST, c.ATTACH_REQUEST))
        assert threat_config_key(a) == threat_config_key(b)

    def test_distinct_capabilities_distinct_keys(self):
        a = ThreatConfig(replay_dl=(c.PAGING,))
        b = ThreatConfig(inject_dl=(c.PAGING,))
        assert threat_config_key(a) != threat_config_key(b)

    def test_catalog_dedups_49_ltl_properties_to_21_configs(self):
        """The sharing ratio the engine's grouping (and the model cache)
        is built on: the 49 LTL properties describe only 21 distinct
        adversaries."""
        ltl = [p for p in ALL_PROPERTIES if p.kind == KIND_LTL]
        assert len(ltl) == 49
        keys = {threat_config_key(p.threat) for p in ltl}
        assert len(keys) == 21


class TestMessageTerms:
    def test_plain_term_constructible(self):
        term = message_term(c.PAGING)
        assert Knowledge().can_construct(term)

    def test_forged_mac_not_constructible(self):
        term = message_term(c.SECURITY_MODE_COMMAND, forged_mac=True)
        assert not Knowledge().can_construct(term)

    def test_auth_request_forgery_needs_permanent_key(self):
        term = message_term(c.AUTHENTICATION_REQUEST, forged_mac=True)
        assert not Knowledge().can_construct(term)


class TestHarvestable:
    def test_auth_request_harvestable(self, mme_model):
        """The P1 capture phase as a reachability query: an adversary
        attach_request makes the network mint an authentication_request."""
        harvested = harvestable_messages(mme_model)
        assert c.AUTHENTICATION_REQUEST in harvested

    def test_context_protected_messages_not_harvestable(self, mme_model):
        harvested = harvestable_messages(mme_model)
        assert c.ATTACH_ACCEPT not in harvested
        assert c.SECURITY_MODE_COMMAND not in harvested

    def test_reject_harvestable(self, mme_model):
        # auth_mac_failure (constructible) makes the MME emit a reject
        harvested = harvestable_messages(mme_model)
        assert c.ATTACH_REJECT in harvested


class TestValidatorJudgements:
    @pytest.fixture
    def validator(self, mme_model):
        return CounterexampleValidator(mme_model)

    def test_pass_and_drop_feasible(self, validator):
        verdict = validator._judge("adv_drop_dl", {}, set(), Knowledge())
        assert verdict.feasible

    def test_auth_replay_feasible_via_harvest(self, validator):
        verdict = validator._judge(
            "adv_replay_dl_authentication_request", {}, set(),
            Knowledge())
        assert verdict.feasible
        assert "capture" in verdict.reason

    def test_session_replay_needs_prior_send(self, validator):
        label = "adv_replay_dl_attach_accept"
        verdict = validator._judge(label, {}, set(), Knowledge())
        assert not verdict.feasible
        assert verdict.refinement.kind == "replay_needs_capture"
        verdict = validator._judge(label, {}, {c.ATTACH_ACCEPT},
                                   Knowledge())
        assert verdict.feasible

    def test_forged_mac_injection_infeasible(self, validator):
        verdict = validator._judge(
            "adv_inject_dl_security_mode_command",
            {"dl_mac_valid": 1, "dl_plain": 0}, set(), Knowledge())
        assert not verdict.feasible
        assert verdict.refinement.kind == "no_forge"

    def test_plain_injection_feasible(self, validator):
        verdict = validator._judge(
            "adv_inject_dl_paging",
            {"dl_mac_valid": 0, "dl_plain": 1}, set(), Knowledge())
        assert verdict.feasible

    def test_plain_header_injection_of_protected_feasible(self,
                                                          validator):
        """The I2 vector: a plaintext-header protected-type message is
        trivially constructible."""
        verdict = validator._judge(
            "adv_inject_dl_guti_reallocation_command",
            {"dl_mac_valid": 0, "dl_plain": 1}, set(), Knowledge())
        assert verdict.feasible

    def test_protected_uplink_injection_infeasible(self, validator):
        verdict = validator._judge("adv_inject_ul_attach_complete",
                                   {}, set(), Knowledge())
        assert not verdict.feasible
        assert verdict.refinement.kind == "no_inject_ul"

    def test_plain_uplink_injection_feasible(self, validator):
        verdict = validator._judge("adv_inject_ul_detach_request",
                                   {}, set(), Knowledge())
        assert verdict.feasible


class TestCegarLoop:
    def test_verified_after_forge_refinement(self, extracted_models,
                                             mme_model):
        """The canonical CEGAR run: the abstract model lets the adversary
        forge a security_mode_command MAC (spurious counterexample); the
        CPV refutes it; the refined model verifies."""
        result = check_with_cegar(
            CegarContext(extracted_models["reference"], mme_model),
            "G (ue_state = EMM_REGISTERED_INITIATED_AUTHENTICATED & "
            "chan_dl = security_mode_command & dl_injected = 1 & "
            "turn = ue -> X (chan_ul != security_mode_complete))",
            ThreatConfig(inject_dl=(c.SECURITY_MODE_COMMAND,)),
            name="no-forged-smc")
        assert result.verified
        assert result.iterations == 2
        assert any(r.kind == "no_forge" for r in result.refinements)

    def test_real_attack_reported_with_feasible_steps(
            self, extracted_models, mme_model):
        result = check_with_cegar(
            CegarContext(extracted_models["reference"], mme_model),
            "G (turn = ue & chan_dl = authentication_request & "
            "dl_mac_valid = 1 & dl_sqn_rel != fresh "
            "-> X (chan_ul != authentication_response))",
            ThreatConfig(replay_dl=(c.AUTHENTICATION_REQUEST,)),
            name="P1")
        assert result.is_attack
        assert all(v.feasible for v in result.step_verdicts)
        labels = result.attack.adversary_actions()
        assert any("replay" in label for label in labels)

    def test_verified_without_iteration_when_nothing_to_refute(
            self, extracted_models, mme_model):
        result = check_with_cegar(
            CegarContext(extracted_models["reference"], mme_model),
            "G (F (turn = ue))",
            ThreatConfig(),
            name="liveness")
        assert result.verified
        assert result.iterations == 1

    def test_iteration_budget_respected(self, extracted_models,
                                        mme_model):
        result = check_with_cegar(
            CegarContext(extracted_models["reference"], mme_model),
            "G (F (turn = ue))",
            ThreatConfig(), max_iterations=1)
        assert result.iterations == 1


class TestSharedContext:
    """A warm context (models and graphs built by earlier properties)
    must answer exactly as a fresh one does."""

    @pytest.fixture(scope="class")
    def warm(self, extracted_models, mme_model):
        context = CegarContext(extracted_models["reference"], mme_model)
        results = {}
        for prop in ALL_PROPERTIES:
            if prop.kind == KIND_LTL:
                results[prop.identifier] = check_with_cegar(
                    context, prop.formula_for(EXTRACTED_VOCAB),
                    prop.threat, name=prop.identifier)
        return results

    # SEC-01 is a real attack; SEC-23 is refined once, then violated.
    @pytest.mark.parametrize("identifier", ["SEC-01", "SEC-23"])
    def test_fresh_and_warm_contexts_agree(self, warm, identifier,
                                           extracted_models, mme_model):
        prop = property_by_id(identifier)
        fresh = check_with_cegar(
            CegarContext(extracted_models["reference"], mme_model),
            prop.formula_for(EXTRACTED_VOCAB), prop.threat,
            name=identifier)
        shared = warm[identifier]
        assert fresh.is_attack
        assert (fresh.verified, fresh.iterations, fresh.refinements) \
            == (shared.verified, shared.iterations, shared.refinements)
        assert fresh.attack.to_dict() == shared.attack.to_dict()
        if identifier == "SEC-23":
            assert fresh.refinements
