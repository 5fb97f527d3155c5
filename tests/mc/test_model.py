"""Tests for the guarded-command model language."""

import pytest

from repro.mc.model import (Choice, Model, ModelError, Plus, Ref, Variable)
from repro.mc.expr import FALSE, TRUE, parse_expr

from . import interpreter


def initial_successors(model):
    """The generated successors of the initial state, as state dicts."""
    return [(label, model.unkey(key)) for label, key in
            model.successor_items(model.key(model.initial_state()))]


def make_model():
    return Model(
        "m",
        [Variable("a", (0, 1, 2)), Variable("b", ("x", "y"))],
        {"a": 0, "b": "x"},
    )


class TestConstruction:
    def test_empty_domain_rejected(self):
        with pytest.raises(ModelError):
            Variable("v", ())

    def test_init_outside_domain_rejected(self):
        with pytest.raises(ModelError):
            Model("m", [Variable("a", (0, 1))], {"a": 5})

    def test_missing_init_rejected(self):
        with pytest.raises(ModelError):
            Model("m", [Variable("a", (0, 1))], {})

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ModelError):
            Model("m", [Variable("a", (0,)), Variable("a", (1,))],
                  {"a": 0})

    def test_unknown_update_variable_rejected(self):
        model = make_model()
        with pytest.raises(ModelError):
            model.add_command("bad", TRUE, {"zz": 1})


class TestStateKeys:
    def test_key_roundtrip(self):
        model = make_model()
        state = {"a": 2, "b": "y"}
        assert model.unkey(model.key(state)) == state

    def test_variable_names_sorted(self):
        assert make_model().variable_names == ("a", "b")


class TestSuccessors:
    def test_plain_update(self):
        model = make_model()
        model.add_command("go", parse_expr("a = 0", ["a"]),
                          {"a": 1, "b": "y"})
        successors = initial_successors(model)
        assert successors == [("go", {"a": 1, "b": "y"})]

    def test_ref_copies_current_value(self):
        model = Model("m", [Variable("a", (0, 1)), Variable("c", (0, 1))],
                      {"a": 1, "c": 0})
        model.add_command("copy", TRUE, {"c": Ref("a")})
        (_, successor), = initial_successors(model)
        assert successor["c"] == 1

    def test_plus_saturates_at_ceiling(self):
        model = Model("m", [Variable("n", (0, 1, 2))], {"n": 2})
        model.add_command("inc", TRUE, {"n": Plus("n", 1, 2)})
        (_, successor), = initial_successors(model)
        assert successor["n"] == 2

    def test_plus_on_non_integer_rejected(self):
        model = make_model()
        model.add_command("bad", TRUE, {"b": Plus("b", 1)})
        with pytest.raises(ModelError):
            initial_successors(model)

    def test_choice_expands_all_options(self):
        model = make_model()
        model.add_command("pick", TRUE, {"a": Choice(1, 2)})
        values = sorted(successor["a"] for _, successor
                        in initial_successors(model))
        assert values == [1, 2]

    def test_two_choices_expand_product(self):
        model = make_model()
        model.add_command("pick", TRUE,
                          {"a": Choice(0, 1), "b": Choice("x", "y")})
        assert len(initial_successors(model)) == 4

    def test_choice_requires_options(self):
        with pytest.raises(ModelError):
            Choice()

    def test_deadlock_stutters(self):
        model = make_model()   # no commands
        (label, successor), = initial_successors(model)
        assert label == "stutter"
        assert successor == model.initial_state()

    def test_update_outside_domain_rejected(self):
        model = make_model()
        model.add_command("bad", TRUE, {"a": 9})
        with pytest.raises(ModelError):
            initial_successors(model)

    def test_literal_outside_domain_rejected_even_if_never_fired(self):
        # Literals are checked when the model is bound to generated
        # code, for every command; the interpreter only checks what fires.
        model = make_model()
        model.add_command("never", FALSE, {"a": Choice(1, 9)})
        assert list(interpreter.successors(
            model, model.initial_state())) == [("stutter", {"a": 0,
                                                            "b": "x"})]
        with pytest.raises(ModelError, match="outside domain of 'a'"):
            initial_successors(model)

    def test_ref_outside_domain_rejected_when_fired(self):
        model = Model("m", [Variable("a", (0, 5)), Variable("c", (0, 1))],
                      {"a": 5, "c": 0})
        model.add_command("copy", TRUE, {"c": Ref("a")})
        with pytest.raises(ModelError, match="outside domain of 'c'"):
            initial_successors(model)


class TestIntrospection:
    def test_state_count_bound(self):
        assert make_model().state_count_bound() == 6

    def test_validate_expression(self):
        model = make_model()
        model.validate_expression(parse_expr("a = 1", ["a"]))
        with pytest.raises(ModelError):
            model.validate_expression(parse_expr("zz = 1", ["zz"]))

    def test_enabled_commands(self):
        model = make_model()
        model.add_command("on0", parse_expr("a = 0", ["a"]), {"a": 1})
        model.add_command("on1", parse_expr("a = 1", ["a"]), {"a": 0})
        enabled = interpreter.enabled_commands(model,
                                               model.initial_state())
        assert [command.label for command in enabled] == ["on0"]
