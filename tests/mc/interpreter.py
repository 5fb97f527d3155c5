"""Reference semantics of guarded-command models: a direct interpreter.

The checker runs models as generated code (:mod:`repro.mc.codegen`).
This module reads the same model language directly — guards through
:meth:`repro.mc.expr.Expr.evaluate`, updates one by one on state dicts —
and shares none of that code, so tests can compare the two
(``test_compiled.py``) and the reference engines
(``materialised.py``, ``ltl_semantics.py``) expand and label states
without trusting the code under test.

Successor order: commands in model order, each ``Choice`` expanded in
option order with the first ``Choice`` outermost, and
``("stutter", state)`` when no command produces a successor.
"""

from typing import Dict, Iterator, List, Mapping, Tuple, Union

from repro.mc.buchi import BuchiAutomaton
from repro.mc.expr import Value
from repro.mc.model import Choice, Command, Model, ModelError, Plus, Ref


def resolve(rhs: Union[Value, Ref, Plus],
            state: Mapping[str, Value]) -> Value:
    if isinstance(rhs, Ref):
        return state[rhs.variable]
    if isinstance(rhs, Plus):
        current = state[rhs.variable]
        if not isinstance(current, int) or isinstance(current, bool):
            raise ModelError(f"Plus on non-integer variable {rhs.variable!r}")
        value = current + rhs.amount
        if rhs.ceiling is not None:
            value = min(value, rhs.ceiling)
        return value
    return rhs


def enabled_commands(model: Model,
                     state: Mapping[str, Value]) -> List[Command]:
    return [command for command in model.commands
            if command.guard.evaluate(state)]


def apply(model: Model, state: Mapping[str, Value],
          command: Command) -> Iterator[Dict[str, Value]]:
    """Yield every successor the command can produce from ``state``."""
    choice_items = [(name, rhs) for name, rhs in command.updates.items()
                    if isinstance(rhs, Choice)]
    plain_items = [(name, rhs) for name, rhs in command.updates.items()
                   if not isinstance(rhs, Choice)]

    base = dict(state)
    for name, rhs in plain_items:
        value = resolve(rhs, state)
        model.variable(name).validate(value)
        base[name] = value
    if not choice_items:
        yield base
        return

    def expand(index: int, partial: Dict[str, Value]):
        if index == len(choice_items):
            yield dict(partial)
            return
        name, choice = choice_items[index]
        for option in choice.options:
            value = resolve(option, state)
            model.variable(name).validate(value)
            partial[name] = value
            yield from expand(index + 1, partial)

    yield from expand(0, base)


def successors(model: Model, state: Mapping[str, Value]
               ) -> Iterator[Tuple[str, Dict[str, Value]]]:
    """``(command label, successor state)`` pairs; deadlocks stutter."""
    produced = False
    for command in enabled_commands(model, state):
        for successor in apply(model, state, command):
            produced = True
            yield command.label, successor
    if not produced:
        yield "stutter", dict(state)


def successor_items(model: Model, key: Tuple[Value, ...]
                    ) -> List[Tuple[str, Tuple[Value, ...]]]:
    """The interpreter's counterpart of ``Model.successor_items``."""
    return [(label, model.key(successor))
            for label, successor in successors(model, model.unkey(key))]


def label_holds(automaton: BuchiAutomaton, buchi_state: int,
                state: Mapping[str, Value]) -> bool:
    """Does ``state`` satisfy the entry label of ``buchi_state``?"""
    return all(literal.evaluate(state)
               for literal in automaton.labels[buchi_state])
