"""Verdict identity + the ModelChecker facade around the persistent cache.

The cache's store contract (round trip, quarantine, counters) is tested
once for both digest-sharded stores in ``tests/store/test_store.py``."""

import json

import pytest

from repro.mc import (CheckRequest, CheckResult, McVerdictCache, Model,
                      ModelChecker, Plus, Variable, parse_expr, parse_ltl,
                      verdict_digest)


def counter_model(name="counter"):
    model = Model(name, [Variable("c", tuple(range(4)))], {"c": 0})
    model.add_command("inc", parse_expr("c < 3", ["c"]),
                      {"c": Plus("c", 1, 3)})
    model.add_command("reset", parse_expr("c = 3", ["c"]), {"c": 0})
    return model


class TestModelFingerprint:
    def test_name_does_not_matter(self):
        assert (counter_model("a").fingerprint()
                == counter_model("b").fingerprint())

    def test_commands_do(self):
        plain = counter_model()
        mutated = counter_model()
        mutated.add_command("jump", parse_expr("c = 0", ["c"]), {"c": 2})
        assert plain.fingerprint() != mutated.fingerprint()


class TestVerdictDigest:
    def test_sensitive_to_every_component(self):
        base = verdict_digest("fp", "formula", "threat")
        assert verdict_digest("fp2", "formula", "threat") != base
        assert verdict_digest("fp", "formula2", "threat") != base
        assert verdict_digest("fp", "formula", "threat2") != base
        assert verdict_digest("fp", "formula", "threat") == base

    def test_components_do_not_bleed(self):
        # "ab"+"c" must not collide with "a"+"bc"
        assert (verdict_digest("ab", "c", "")
                != verdict_digest("a", "bc", ""))


class TestModelCheckerFacade:
    def test_cache_hit_skips_exploration(self, tmp_path):
        checker = ModelChecker(cache=McVerdictCache(tmp_path))
        model = counter_model()
        request = CheckRequest(formula="F (c = 3)", name="reach")
        cold = checker.check(model, request)
        warm = checker.check(model, request)
        assert not cold.from_cache
        assert warm.from_cache
        assert warm.holds == cold.holds
        assert warm.property_name == "reach"

    def test_threat_digest_partitions_the_cache(self, tmp_path):
        checker = ModelChecker(cache=McVerdictCache(tmp_path))
        model = counter_model()
        first = checker.check(model, CheckRequest(
            formula="F (c = 3)", threat_digest="t1"))
        other = checker.check(model, CheckRequest(
            formula="F (c = 3)", threat_digest="t2"))
        assert not first.from_cache
        assert not other.from_cache

    def test_model_edit_invalidates(self, tmp_path):
        checker = ModelChecker(cache=McVerdictCache(tmp_path))
        request = CheckRequest(formula="G (c < 3)")
        checker.check(counter_model(), request)
        mutated = counter_model()
        mutated.add_command("jump", parse_expr("c = 0", ["c"]), {"c": 3})
        assert not checker.check(mutated, request).from_cache

    def test_export_smv(self):
        text = ModelChecker().export_smv(counter_model(), CheckRequest(
            formula="G (c <= 3)", name="bound"))
        assert "MODULE main" in text
        assert "LTLSPEC" in text


class TestWireForms:
    def test_check_result_round_trip(self):
        result = ModelChecker().check_formula(
            counter_model(), parse_ltl("G (c < 3)", ["c"]), "p")
        payload = json.loads(json.dumps(result.to_dict()))
        assert "schema_version" in payload
        restored = CheckResult.from_dict(payload)
        assert restored.holds == result.holds
        assert restored.property_name == "p"
        assert restored.states_explored == result.states_explored
        assert (restored.counterexample.to_dict()
                == result.counterexample.to_dict())

    def test_future_major_rejected(self):
        from repro import schema
        result = ModelChecker().check_formula(
            counter_model(), parse_ltl("G (c <= 3)", ["c"]))
        payload = result.to_dict()
        payload["schema_version"] = "999.0"
        with pytest.raises(schema.SchemaVersionError):
            CheckResult.from_dict(payload)
