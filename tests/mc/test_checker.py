"""Model checker correctness: hand-built cases, random cross-validation
against the independent lasso-semantics oracle, and counterexample
validity (every reported counterexample must genuinely violate the
property per the reference semantics)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc import (Choice, Model, ModelChecker, Plus, Variable,
                      parse_expr, parse_ltl)
from repro.mc.checker import as_invariant, formula_to_expr

from .ltl_semantics import brute_force_violation, trace_violates


def check_invariant(model, invariant, name="invariant"):
    return ModelChecker().check_invariant(model, invariant, name)


def check_ltl(model, formula, name="property"):
    return ModelChecker().check_formula(model, formula, name)


def counter_model():
    """0 -> 1 -> 2 -> 3 -> reset to 0; deterministic."""
    model = Model("counter", [Variable("c", tuple(range(4)))], {"c": 0})
    model.add_command("inc", parse_expr("c < 3", ["c"]),
                      {"c": Plus("c", 1, 3)})
    model.add_command("reset", parse_expr("c = 3", ["c"]), {"c": 0})
    return model


def branching_model():
    """From 0 choose 1 or 2; both sink (stutter)."""
    model = Model("branch", [Variable("x", (0, 1, 2))], {"x": 0})
    model.add_command("pick", parse_expr("x = 0", ["x"]),
                      {"x": Choice(1, 2)})
    return model


class TestInvariants:
    def test_holding_invariant(self):
        model = counter_model()
        result = check_invariant(model, parse_expr("c <= 3", ["c"]))
        assert result.holds
        assert result.states_explored == 4

    def test_violated_invariant_gives_shortest_prefix(self):
        model = counter_model()
        result = check_invariant(model, parse_expr("c < 2", ["c"]))
        assert not result.holds
        trace = result.counterexample
        assert trace.states[-1]["c"] == 2
        assert len(trace) == 2          # two increments

    def test_initial_state_violation(self):
        model = counter_model()
        result = check_invariant(model, parse_expr("c > 0", ["c"]))
        assert not result.holds
        assert len(result.counterexample) == 0


class TestFormulaHelpers:
    def test_as_invariant_recognises_g_propositional(self):
        formula = parse_ltl("G (c <= 3)", ["c"])
        assert as_invariant(formula) is not None

    def test_as_invariant_rejects_temporal_body(self):
        formula = parse_ltl("G (c = 0 -> F c = 3)", ["c"])
        assert as_invariant(formula) is None

    def test_formula_to_expr_roundtrip(self):
        formula = parse_ltl("c = 1 | c = 2", ["c"])
        expr = formula_to_expr(formula)
        assert expr.evaluate({"c": 1})
        assert not expr.evaluate({"c": 0})


class TestLTLVerdicts:
    @pytest.mark.parametrize("text,holds", [
        ("G (c <= 3)", True),
        ("F (c = 3)", True),
        ("G F (c = 0)", True),
        ("G (c = 0 -> X (c = 1))", True),
        ("(c < 3) U (c = 3)", True),
        ("G (c < 3)", False),
        ("F G (c = 0)", False),
        ("G (c = 1 -> X (c = 0))", False),
    ])
    def test_counter_model(self, text, holds):
        model = counter_model()
        formula = parse_ltl(text, ["c"])
        result = check_ltl(model, formula, text)
        assert result.holds == holds
        if not holds:
            assert trace_violates(formula, result.counterexample)

    @pytest.mark.parametrize("text,holds", [
        ("F (x = 1 | x = 2)", True),
        ("F (x = 2)", False),          # the run choosing 1 avoids 2
        ("G (x = 0)", False),
        ("G (x != 0 -> X (x != 0))", True),   # sinks stutter
    ])
    def test_branching_model(self, text, holds):
        model = branching_model()
        formula = parse_ltl(text, ["x"])
        result = check_ltl(model, formula, text)
        assert result.holds == holds
        if not holds:
            assert trace_violates(formula, result.counterexample)

    def test_lasso_counterexample_shape(self):
        model = branching_model()
        result = check_ltl(model, parse_ltl("F (x = 2)", ["x"]))
        trace = result.counterexample
        assert trace.is_lasso
        # the loop must return to the anchor state
        anchor = trace.states[trace.loop_start]
        assert trace.states[-1] == anchor


# ---------------------------------------------------------------------------
# Random cross-validation
# ---------------------------------------------------------------------------
@st.composite
def random_models(draw):
    """Small nondeterministic models over one 0..2 variable and one flag."""
    model = Model(
        "random",
        [Variable("v", (0, 1, 2)), Variable("f", (0, 1))],
        {"v": 0, "f": 0},
    )
    command_count = draw(st.integers(min_value=1, max_value=4))
    for index in range(command_count):
        guard_value = draw(st.integers(0, 2))
        target = draw(st.integers(0, 2))
        flag = draw(st.integers(0, 1))
        alt = draw(st.integers(0, 2))
        updates = {"v": Choice(target, alt), "f": flag}
        model.add_command(f"cmd{index}",
                          parse_expr(f"v = {guard_value}", ["v"]),
                          updates)
    return model


_FORMULAS = [
    "G (v <= 2)",
    "F (v = 2)",
    "G (v = 0 -> F (v != 0))",
    "G F (f = 0)",
    "(v = 0) U (v != 0)",
    "G (f = 1 -> X (v = 0))",
    "F G (v = 0)",
]


class TestCrossValidation:
    @settings(max_examples=40, deadline=None)
    @given(random_models(), st.sampled_from(_FORMULAS))
    def test_checker_agrees_with_oracle(self, model, text):
        formula = parse_ltl(text, model.variable_names)
        result = check_ltl(model, formula, text)
        oracle_violation = brute_force_violation(model, formula,
                                                 max_length=8)
        if result.holds:
            # the oracle must not find any bounded violating lasso
            assert not oracle_violation
        else:
            # the reported counterexample must be genuinely violating
            assert trace_violates(formula, result.counterexample)

