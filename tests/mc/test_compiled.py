"""Generated model code against the reference interpreter.

The checker expands states through code generated per command
(:mod:`repro.mc.codegen`); :mod:`tests.mc.interpreter` reads the same
models directly.  Successor lists must be equal, in order, on every
state either could meet: all interned states of the Table I models and
all reachable states of hypothesis-generated models.  The remaining
tests pin what persisted caches and pool workers rely on: model
fingerprints, pickling and a fork-safe code cache.
"""

import hashlib
import os
import pickle
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import lteinspector_mme
from repro.core import analyze_many, extraction_cache
from repro.lte import constants as c
from repro.mc import (FALSE, TRUE, And, Choice, Compare, Model,
                      ModelChecker, ModelError, Not, Or, Plus, Ref,
                      Variable, codegen, parse_expr)
from repro.threat import Refinement, ThreatConfig, build_threat_model
from repro.threat.instrumentor import ThreatInstrumentor

from . import interpreter

IMPLEMENTATIONS = ("reference", "srsue", "oai")


def generated_or_error(model, key):
    try:
        return model.successor_items(key)
    except ModelError:
        return ModelError


def interpreted_or_error(model, key):
    try:
        return interpreter.successor_items(model, key)
    except ModelError:
        return ModelError


def assert_agree_on_reachable(model, limit=2000):
    """Interpreter BFS; generated successors must match on every state."""
    root = model.key(model.initial_state())
    seen = {root}
    frontier = [root]
    while frontier and len(seen) < limit:
        key = frontier.pop()
        expected = interpreted_or_error(model, key)
        assert generated_or_error(model, key) == expected, key
        if expected is ModelError:
            continue
        for _label, successor in expected:
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return len(seen)


# ---------------------------------------------------------------------------
# The Table I models
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def table1_models():
    """Every threat model a cold ``jobs=1`` Table I run builds."""
    built = []
    build = ThreatInstrumentor.build

    def recording_build(self, name="IMP"):
        model = build(self, name)
        built.append(model)
        return model

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ThreatInstrumentor, "build", recording_build)
        analyze_many(IMPLEMENTATIONS, jobs=1)
    return built


class TestTableIModels:
    def test_generated_successors_match_the_interpreter(
            self, table1_models):
        assert len(table1_models) == 69
        compared = 0
        for model in table1_models:
            graph = model.graph()
            for sid in range(len(graph)):
                key = graph.key_of(sid)
                assert (model.successor_items(key)
                        == interpreter.successor_items(model, key)), (
                    model.name, key)
                compared += 1
        assert compared == 45593

    def test_fingerprints_are_unchanged(self, table1_models):
        # The persistent MC verdict cache is keyed by these digests.
        digest = hashlib.sha256("".join(
            model.fingerprint() for model in table1_models).encode())
        assert digest.hexdigest() == (
            "483b7fb3e92a3602714738cfcd0d1f77"
            "a0fa0d8d5e40f985519aab34c7b4efa3")


class TestFingerprintPins:
    """Persisted ``--mc-cache`` entries stay warm only while these hold."""

    @pytest.fixture(scope="class")
    def reference_fsm(self):
        return extraction_cache.get("reference").fsm

    def test_base_threat_model(self, reference_fsm):
        model = build_threat_model(reference_fsm, lteinspector_mme(),
                                   ThreatConfig())
        assert model.fingerprint() == (
            "b186e710240f659cc21ecbf96103a2c1"
            "3c4eee0665af92827f8895a9fee88f2a")

    def test_refined_threat_model(self, reference_fsm):
        config = ThreatConfig(inject_dl=(c.DETACH_REQUEST,)).refined(
            Refinement("no_forge", c.DETACH_REQUEST))
        model = build_threat_model(reference_fsm, lteinspector_mme(),
                                   config)
        assert model.fingerprint() == (
            "66c6ea849937f2189a7607d20816c626"
            "1de8fa0d6289e2c3b17fbdf76a5ea6ea")


# ---------------------------------------------------------------------------
# Hypothesis-generated models
# ---------------------------------------------------------------------------
TURNS = ("a", "b", "c")
INTS = {"n": (0, 1, 2, 3), "m": (0, 1, 2)}
STRS = {"turn": TURNS, "s": ("x", "y")}
DOMAINS = {**INTS, **STRS}


@st.composite
def comparisons(draw):
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(INTS)))
        op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">="]))
        if draw(st.booleans()):
            other = draw(st.sampled_from(sorted(INTS)))
            return Compare(name, op, other, right_is_var=True)
        return Compare(name, op, draw(st.integers(0, 3)))
    name = draw(st.sampled_from(sorted(STRS)))
    op = draw(st.sampled_from(["=", "!="]))
    return Compare(name, op, draw(st.sampled_from(DOMAINS[name])))


guards = st.recursive(
    st.one_of(comparisons(), st.sampled_from([TRUE, FALSE])),
    lambda inner: st.one_of(
        inner.map(Not),
        st.lists(inner, min_size=1, max_size=3).map(lambda x: And(*x)),
        st.lists(inner, min_size=1, max_size=3).map(lambda x: Or(*x))),
    max_leaves=6)


@st.composite
def values_for(draw, name):
    """A literal in ``name``'s domain, a ``Ref`` or a ``Plus``."""
    kind = draw(st.sampled_from(["literal", "ref", "plus"]))
    if kind == "ref":
        return Ref(draw(st.sampled_from(sorted(DOMAINS))))
    if kind == "plus":
        # Plus may read a string variable: a ModelError when it fires.
        source = draw(st.sampled_from(["n", "m", "n", "m", "s"]))
        ceiling = draw(st.one_of(st.none(), st.integers(1, 3)))
        return Plus(source, draw(st.integers(1, 2)), ceiling)
    return draw(st.sampled_from(DOMAINS[name]))


@st.composite
def random_models(draw):
    dispatch = draw(st.booleans())
    init = {name: draw(st.sampled_from(domain))
            for name, domain in DOMAINS.items()}
    model = Model("random", [Variable(name, domain)
                             for name, domain in DOMAINS.items()], init)
    for index in range(draw(st.integers(0, 5))):
        guard = draw(guards)
        if dispatch and draw(st.integers(0, 3)):
            guard = And(Compare("turn", "=", draw(st.sampled_from(TURNS))),
                        guard)
        elif not dispatch:
            # A top-level disjunction has no ``var = literal`` conjunct.
            guard = Or(guard, FALSE)
        updates = {}
        names = draw(st.lists(st.sampled_from(sorted(DOMAINS)),
                              unique=True, max_size=3))
        for name in names:
            if draw(st.integers(0, 2)) == 0:
                updates[name] = Choice(*draw(st.lists(
                    values_for(name), min_size=1, max_size=3)))
            else:
                updates[name] = draw(values_for(name))
        model.add_command(f"cmd{index}", guard, updates)
    return model


class TestRandomModels:
    @settings(max_examples=150, deadline=None)
    @given(random_models())
    def test_generated_successors_match_the_interpreter(self, model):
        assert_agree_on_reachable(model)

    def test_dispatch_keeps_model_order(self):
        # cmd1 has no turn conjunct: it runs for every turn value, in its
        # own place between the turn-dispatched commands.
        model = Model("m", [Variable("turn", TURNS),
                            Variable("n", (0, 1, 2))],
                      {"turn": "a", "n": 0})
        model.add_command("cmd0", parse_expr("turn = a", ["turn", "n"]),
                          {"n": 1})
        model.add_command("cmd1", parse_expr("n < 2", ["turn", "n"]),
                          {"n": Plus("n", 1)})
        model.add_command("cmd2", parse_expr("turn = a & n = 0",
                                             ["turn", "n"]),
                          {"turn": Choice("b", "c")})
        model.add_command("cmd3", parse_expr("turn = b", ["turn", "n"]),
                          {"n": 0})
        assert model.variable_names == ("n", "turn")
        assert model.successor_items((0, "a")) == [
            ("cmd0", (1, "a")), ("cmd1", (1, "a")),
            ("cmd2", (0, "b")), ("cmd2", (0, "c"))]
        # No command tests turn = c: only cmd1 can fire, then deadlock.
        assert model.successor_items((1, "c")) == [("cmd1", (2, "c"))]
        assert model.successor_items((2, "c")) == [("stutter", (2, "c"))]
        assert_agree_on_reachable(model)

    def test_two_choices_nest_first_outermost(self):
        model = Model("m", [Variable("p", (0, 1)), Variable("q", (0, 1))],
                      {"p": 0, "q": 0})
        model.add_command("pick", TRUE, {"q": Choice(0, 1),
                                         "p": Choice(1, Ref("q"))})
        assert model.successor_items((0, 0)) == [
            ("pick", (1, 0)), ("pick", (0, 0)),
            ("pick", (1, 1)), ("pick", (0, 1))]
        assert_agree_on_reachable(model)

    def test_model_without_dispatch_variable(self):
        model = Model("m", [Variable("n", (0, 1, 2, 3))], {"n": 0})
        model.add_command("up", parse_expr("n < 3", ["n"]),
                          {"n": Plus("n", 2, 3)})
        model.add_command("down", parse_expr("n > 0 | n = 0", ["n"]),
                          {"n": Plus("n", 1)})
        assert model.successor_items((0,)) == [("up", (2,)),
                                               ("down", (1,))]
        with pytest.raises(ModelError):   # down: 3 + 1 leaves the domain
            model.successor_items((3,))
        assert assert_agree_on_reachable(model) == 4


# ---------------------------------------------------------------------------
# Pickling and the process-wide code cache
# ---------------------------------------------------------------------------
def _small_threat_model():
    return build_threat_model(extraction_cache.get("srsue").fsm,
                              lteinspector_mme(), ThreatConfig())


def verdict(result):
    trace = result.counterexample
    return (result.holds, trace and trace.to_dict(),
            result.states_explored, result.product_states)


class TestPickling:
    @pytest.mark.parametrize("formula", [
        "G (ue_state != EMM_REGISTERED)",
        "G (ue_state = EMM_REGISTERED -> F (ue_state != EMM_REGISTERED))",
    ])
    def test_checked_model_round_trips(self, formula):
        model = _small_threat_model()
        checker = ModelChecker()
        before = checker.check_formula(model, formula, "prop")
        copy = pickle.loads(pickle.dumps(model))
        after = checker.check_formula(copy, formula, "prop")
        assert verdict(after) == verdict(before)


class TestCodeCache:
    def test_bounded(self, monkeypatch):
        monkeypatch.setattr(codegen, "CODE_CACHE_LIMIT", 10)
        codegen.clear_code_cache()
        model = _small_threat_model()
        model.successor_items(model.key(model.initial_state()))
        assert 0 < len(codegen._cache) <= 10

    def test_shared_across_models(self):
        codegen.clear_code_cache()
        first, second = _small_threat_model(), _small_threat_model()
        key = first.key(first.initial_state())
        first.successor_items(key)
        size = len(codegen._cache)
        assert second.successor_items(key) == first.successor_items(key)
        assert len(codegen._cache) == size

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_does_not_inherit_a_held_lock(self):
        # A fork while another thread holds the cache lock must not
        # leave the child unable to compile.
        codegen.clear_code_cache()
        model = _small_threat_model()
        key = model.key(model.initial_state())
        with codegen._lock:
            pid = os.fork()
            if pid == 0:   # child: bind (and compile) from scratch
                status = 1
                try:
                    model.successor_items(key)
                    status = 0
                finally:
                    os._exit(status)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child deadlocked on the code cache lock")
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
