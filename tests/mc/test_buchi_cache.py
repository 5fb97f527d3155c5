"""Büchi template memoisation: alpha-equivalent formulas share one
compiled automaton; distinct shapes or arities do not collide."""

import pytest

from repro import obs
from repro.mc import (clear_buchi_cache, ltl_to_buchi, normalise_ltl,
                      normalised_key, parse_ltl)

VOCAB_A = ["c"]
VOCAB_B = ["x"]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_buchi_cache()
    yield
    clear_buchi_cache()


def template_traffic(scope):
    """Template-cache traffic seen by ``scope``.  Each test starts from
    an empty cache, so every miss since then added one entry."""
    counters = scope.snapshot()["counters"]
    misses = counters.get("mc.buchi_template_misses", 0)
    return {"entries": misses,
            "hits": counters.get("mc.buchi_template_hits", 0),
            "misses": misses}


class TestNormalisation:
    def test_alpha_renamed_formulas_share_a_shape(self):
        shape_a, atoms_a = normalise_ltl(parse_ltl("G (c = 0)", VOCAB_A))
        shape_b, atoms_b = normalise_ltl(parse_ltl("G (x = 0)", VOCAB_B))
        assert shape_a == shape_b
        assert len(atoms_a) == len(atoms_b) == 1

    def test_operator_canonical_forms_share_a_shape(self):
        # parse_ltl already rewrites sugar (->, F, G) into the NNF core,
        # so an implication and its disjunctive expansion normalise
        # identically.
        implied = parse_ltl("G (c = 0 -> X (c = 1))", VOCAB_A)
        expanded = parse_ltl("G (!(c = 0) | X (c = 1))", VOCAB_A)
        assert normalise_ltl(implied)[0] == normalise_ltl(expanded)[0]
        assert normalised_key(implied) == normalised_key(expanded)

    def test_distinct_atoms_distinct_key_same_shape(self):
        f1 = parse_ltl("G (c = 0)", VOCAB_A)
        f2 = parse_ltl("G (c = 1)", VOCAB_A)
        assert normalise_ltl(f1)[0] == normalise_ltl(f2)[0]
        assert normalised_key(f1) != normalised_key(f2)

    def test_repeated_atom_uses_one_slot(self):
        shape, atoms = normalise_ltl(
            parse_ltl("(c = 0) U (c = 0)", VOCAB_A))
        assert len(atoms) == 1


class TestTemplateCache:
    def test_alpha_renamed_pair_hits_one_entry(self):
        with obs.metrics_scope() as scope:
            ltl_to_buchi(parse_ltl("F (c = 2)", VOCAB_A))
            stats = template_traffic(scope)
            assert stats == {"entries": 1, "hits": 0, "misses": 1}
            ltl_to_buchi(parse_ltl("F (x = 2)", VOCAB_B))
        stats = template_traffic(scope)
        assert stats == {"entries": 1, "hits": 1, "misses": 1}

    def test_operator_canonicalised_pair_hits_one_entry(self):
        with obs.metrics_scope() as scope:
            ltl_to_buchi(parse_ltl("G (c = 0 -> X (c = 1))", VOCAB_A))
            ltl_to_buchi(parse_ltl("G (!(x = 0) | X (x = 1))", VOCAB_B))
        assert template_traffic(scope)["entries"] == 1
        assert template_traffic(scope)["hits"] == 1

    def test_instantiation_rebinds_atoms_not_structure(self):
        auto_a = ltl_to_buchi(parse_ltl("F (c = 2)", VOCAB_A))
        auto_b = ltl_to_buchi(parse_ltl("F (x = 2)", VOCAB_B))
        # identical automaton skeletons ...
        assert auto_a.states == auto_b.states
        assert auto_a.initial == auto_b.initial
        assert auto_a.accepting == auto_b.accepting
        assert auto_a.transitions == auto_b.transitions
        # ... over different concrete atoms
        strs_a = {str(lit) for lits in auto_a.labels.values()
                  for lit in lits}
        strs_b = {str(lit) for lits in auto_b.labels.values()
                  for lit in lits}
        assert any("c" in s for s in strs_a)
        assert any("x" in s for s in strs_b)

    def test_distinct_shapes_get_distinct_entries(self):
        with obs.metrics_scope() as scope:
            ltl_to_buchi(parse_ltl("F (c = 2)", VOCAB_A))
            ltl_to_buchi(parse_ltl("G F (c = 2)", VOCAB_A))
        assert template_traffic(scope)["entries"] == 2

    def test_clear_drops_every_template(self):
        ltl_to_buchi(parse_ltl("F (c = 2)", VOCAB_A))
        clear_buchi_cache()
        with obs.metrics_scope() as scope:
            ltl_to_buchi(parse_ltl("F (c = 2)", VOCAB_A))
        assert template_traffic(scope) == {"entries": 1, "hits": 0,
                                           "misses": 1}
