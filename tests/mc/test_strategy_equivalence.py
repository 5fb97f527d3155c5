"""On-the-fly NDFS vs materialised-product SCC: verdict equivalence.

The two engines explore very different fractions of the product, but the
question they answer is the same; every verdict must agree, and every
counterexample either engine reports must violate the formula per the
independent lasso semantics in :mod:`tests.mc.ltl_semantics`.  The
materialised engine is the test-side reference in
:mod:`tests.mc.materialised`."""

from hypothesis import given, settings, strategies as st

from repro.mc import (Choice, Model, Variable, parse_expr, parse_ltl)
from repro.mc.checker import _check_formula

from .ltl_semantics import trace_violates
from .materialised import check_ltl_materialised


@st.composite
def random_models(draw):
    model = Model(
        "random",
        [Variable("v", (0, 1, 2)), Variable("f", (0, 1))],
        {"v": draw(st.integers(0, 2)), "f": 0},
    )
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        guard_value = draw(st.integers(0, 2))
        updates = {"v": Choice(draw(st.integers(0, 2)),
                               draw(st.integers(0, 2))),
                   "f": draw(st.integers(0, 1))}
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
    "G (v = 1 -> X (f = 1))",
    "(F (v = 2)) U (f = 1)",
]


class TestStrategyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(random_models(), st.sampled_from(_FORMULAS))
    def test_verdicts_agree(self, model, text):
        formula = parse_ltl(text, model.variable_names)
        fly = _check_formula(model, formula, text)
        mat = check_ltl_materialised(model, formula, text)
        assert fly.holds == mat.holds
        if not fly.holds:
            # counterexamples may differ, but both must be genuine
            assert trace_violates(formula, fly.counterexample)
            assert trace_violates(formula, mat.counterexample)

    @settings(max_examples=30, deadline=None)
    @given(random_models(), st.sampled_from(_FORMULAS))
    def test_on_the_fly_never_explores_more_product_states(
            self, model, text):
        formula = parse_ltl(text, model.variable_names)
        fly = _check_formula(model, formula, text)
        mat = check_ltl_materialised(model, formula, text)
        # the invariant fast path reports 0 product states either way
        assert fly.product_states <= mat.product_states
