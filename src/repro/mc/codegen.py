"""Generated Python code for model successors, Büchi labels and invariants.

The explicit-state checker asks two questions of every state it meets:
what do the model's commands produce from it, and which Büchi entry
labels does it satisfy.  Both are answered by Python functions generated
from the model's guards and updates, compiled once per process and run
directly on state *key tuples* (values in
:attr:`~repro.mc.model.Model.variable_names` order):

- :func:`bind_successors` builds a model's ``successor_items(key)``.
  Each distinct command — its variable order, label, guard and updates —
  becomes one generated function that tests the guard inline on the key
  and appends ``(label, successor key)`` pairs; every
  :class:`~repro.mc.model.Choice` is a nested loop, the first one
  outermost.  The model's function runs only the commands whose guard
  has a top-level ``var = literal`` conjunct matching the state's value
  of the *dispatch variable* (``turn`` in every threat model), together
  with the commands that have no such conjunct, in model command order;
  a state where nothing fires stutters.
- :func:`key_predicate` is an invariant as a ``key -> bool`` function.
- :func:`label_masks` maps a key to a bitmask whose bit ``q`` is set
  when Büchi state ``q``'s entry label holds there: one function per
  automaton and variable order.

Literal updates are checked against the model's domains when a model is
bound, not per successor; ``Ref`` and ``Plus`` values are checked each
time they are computed.

Compiled code lives in one process-wide cache, so every job thread of a
long-lived server reuses it.  It holds at most :data:`CODE_CACHE_LIMIT`
entries (oldest dropped first).  Its lock guards dictionary access only,
never ``compile()``, and a forked child starts with a fresh lock.
Nothing is compiled at import time.
"""

from __future__ import annotations

import os
import threading
from typing import (Callable, Dict, Hashable, Iterator, List, Mapping,
                    Tuple)

from .expr import And, Compare, Const, Expr, Not, Or, Value
from .ltl import Atom
from .model import Choice, Model, ModelError, Plus, Ref

Key = Tuple[Value, ...]
SuccessorItems = List[Tuple[str, Key]]

#: Most cache entries kept process-wide.  An entry maps a lookup key or
#: a generated source to its compiled function: a cold three-stack
#: Table I run fills 849 (540 keys, 309 distinct sources), and each
#: distinct chaos or consensus FSM adds more.
CODE_CACHE_LIMIT = 2048

_cache: Dict[Hashable, Callable] = {}
_lock = threading.Lock()


def _reset_lock_in_child() -> None:
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):   # POSIX only
    os.register_at_fork(after_in_child=_reset_lock_in_child)


def clear_code_cache() -> None:
    """Drop every compiled function (test isolation hook)."""
    with _lock:
        _cache.clear()


def _compiled(key: Hashable, source: Callable[[], str]) -> Callable:
    """The ``make`` function of ``source()``, compiled once per ``key``.

    Different keys that generate the same source (the same command under
    two variable orders with the same layout, say) share one compile.
    """
    with _lock:
        make = _cache.get(key)
    if make is None:
        text = source()
        with _lock:
            make = _cache.get(text)
        if make is None:
            namespace = {"_member": _member, "_plus": _plus,
                         "_literals_in_domain": _literals_in_domain}
            exec(compile(text, "<repro.mc.codegen>", "exec"), namespace)
            make = namespace["make"]
        with _lock:
            while len(_cache) > CODE_CACHE_LIMIT - 2:
                del _cache[next(iter(_cache))]
            make = _cache[key] = _cache.setdefault(text, make)
    return make


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
_PY_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">",
           ">=": ">="}


def _slots(model: Model) -> Dict[str, str]:
    return {name: f"k[{index}]"
            for index, name in enumerate(model.variable_names)}


def _slot(slots: Mapping[str, str], name: str) -> str:
    try:
        return slots[name]
    except KeyError:
        raise ModelError(f"unknown variable {name!r}") from None


def expr_source(expr: Expr, slots: Mapping[str, str]) -> str:
    """Python source of ``expr`` over the state key ``k``.

    ``slots`` maps each variable to its key element (``"k[3]"``).
    Nested conjunctions and disjunctions are flattened, and parentheses
    appear only where Python's precedence needs them.
    """
    if isinstance(expr, Compare):
        right = (_slot(slots, str(expr.right)) if expr.right_is_var
                 else repr(expr.right))
        return f"{_slot(slots, expr.left)} {_PY_OPS[expr.op]} {right}"
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Not):
        operand = expr_source(expr.operand, slots)
        if isinstance(expr.operand, (And, Or)):
            return f"not ({operand})"
        return f"not {operand}"
    if isinstance(expr, (And, Or)):
        kind = type(expr)
        parts = []
        for operand in _flattened(expr, kind):
            text = expr_source(operand, slots)
            parts.append(f"({text})" if isinstance(operand, Or)
                         and kind is And else text)
        joiner = " and " if kind is And else " or "
        return joiner.join(parts) or repr(kind is And)
    raise TypeError(f"cannot generate code for {type(expr).__name__}")


def _flattened(expr: Expr, kind: type) -> Iterator[Expr]:
    for operand in expr.operands:
        if type(operand) is kind:
            yield from _flattened(operand, kind)
        else:
            yield operand


def key_predicate(model: Model, expr: Expr) -> Callable[[Key], bool]:
    """``expr`` as a function of a state key of ``model``."""
    order = model.variable_names

    def source() -> str:
        return ("def make():\n"
                f"    return lambda k: {expr_source(expr, _slots(model))}\n")

    return _compiled(("predicate", order, expr), source)()


def label_masks(model: Model,
                labels: Mapping[int, Tuple[Atom, ...]]
                ) -> Callable[[Key], int]:
    """Key -> bitmask of the Büchi states whose entry label holds.

    Bit ``q`` is set when every literal of ``labels[q]`` holds; each
    distinct predicate is evaluated once per call.
    """
    order = model.variable_names
    items = tuple(sorted(labels.items()))

    def source() -> str:
        slots = _slots(model)
        names: Dict[Expr, str] = {}
        lines = ["def make():", "    def mask(k):"]
        terms = []
        for q, literals in items:
            parts = []
            for literal in literals:
                name = names.get(literal.expr)
                if name is None:
                    name = names[literal.expr] = f"e{len(names)}"
                    lines.append(f"        {name} = "
                                 f"{expr_source(literal.expr, slots)}")
                parts.append(f"not {name}" if literal.negated else name)
            condition = " and ".join(parts) or "True"
            terms.append(f"(({condition}) << {q})")
        lines.append(f"        return {' | '.join(terms) or '0'}")
        lines.append("    return mask")
        return "\n".join(lines) + "\n"

    return _compiled(("labels", order, items), source)()


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def _member(value: Value, members: frozenset, name: str) -> Value:
    if value not in members:
        raise ModelError(f"value {value!r} outside domain of {name!r}")
    return value


def _literals_in_domain(D: Tuple[frozenset, ...], U: Tuple,
                        positions: Tuple) -> None:
    """Check a command's literal updates against one model's domains.

    ``positions`` lists ``(update index, option index or -1, variable
    index, variable name)`` for every literal, ``Choice`` options
    included.
    """
    for update, option, index, name in positions:
        value = U[update] if option < 0 else U[update].options[option]
        _member(value, D[index], name)


def _plus(value: Value, amount: int, ceiling, name: str) -> Value:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"Plus on non-integer variable {name!r}")
    value += amount
    return value if ceiling is None else min(value, ceiling)


def _command_source(model: Model, label: str, guard: Expr,
                    updates: Tuple) -> str:
    """``make(D, U)`` returning ``fire(k, out)`` for one command.

    ``D`` holds the binding model's domains (frozensets in variable
    order) and ``U`` its update right-hand sides in update order.
    ``make`` checks every literal of ``U`` against ``D``, so the check
    runs for each model bound, and successors carry the model's own
    literal values; ``fire`` checks ``Ref`` and ``Plus`` values each time
    it computes them.
    """
    slots = _slots(model)
    position = {name: index
                for index, name in enumerate(model.variable_names)}
    values = list(slots.values())
    literals = []

    def resolved(rhs, update: int, option: int, target: str) -> str:
        index = position[target]
        if isinstance(rhs, Ref):
            value = _slot(slots, rhs.variable)
        elif isinstance(rhs, Plus):
            value = (f"_plus({_slot(slots, rhs.variable)}, {rhs.amount!r},"
                     f" {rhs.ceiling!r}, {rhs.variable!r})")
        else:
            literals.append((update, option, index, target))
            return f"u{update}" if option < 0 else f"o{update}[{option}]"
        return f"_member({value}, D[{index}], {target!r})"

    body = [f"        if {expr_source(guard, slots)}:"]
    indent = " " * 12
    for j, (name, rhs) in enumerate(updates):
        if isinstance(rhs, Choice):
            continue
        index = position[name]
        values[index] = resolved(rhs, j, -1, name)
        if isinstance(rhs, (Ref, Plus)):
            body.append(f"{indent}v{index} = {values[index]}")
            values[index] = f"v{index}"
    options = []
    for j, (name, rhs) in enumerate(updates):
        if not isinstance(rhs, Choice):
            continue
        index = position[name]
        options.append(f"    o{j} = u{j}.options")
        if any(isinstance(option, (Ref, Plus)) for option in rhs.options):
            loop = "(" + "".join(resolved(option, j, n, name) + ", "
                                 for n, option in enumerate(rhs.options))
            loop += ")"
        else:
            for n, option in enumerate(rhs.options):
                resolved(option, j, n, name)
            loop = f"o{j}"
        body.append(f"{indent}for c{index} in {loop}:")
        indent += "    "
        values[index] = f"c{index}"
    body.append(f"{indent}out.append(({label!r}, "
                f"({''.join(value + ', ' for value in values)})))")
    lines = ["def make(D, U):"]
    if updates:
        lines.append("    " + "".join(f"u{j}, " for j in range(len(updates)))
                     + "= U")
    lines += options
    lines.append(f"    _literals_in_domain(D, U, {tuple(literals)!r})")
    lines += ["    def fire(k, out):"] + body + ["    return fire"]
    return "\n".join(lines) + "\n"


def _dispatch_literals(model: Model):
    """The dispatch variable's index and each command's literal for it.

    The variable is the one most commands test with a top-level
    ``var = literal`` conjunct (ties go to the first in variable order);
    a command without such a conjunct gets ``None``.  Returns ``None``
    when no command has one.
    """
    tested: List[Dict[str, Value]] = []
    for command in model.commands:
        guard = command.guard
        conjuncts = guard.operands if isinstance(guard, And) else (guard,)
        literals: Dict[str, Value] = {}
        for conjunct in conjuncts:
            if (isinstance(conjunct, Compare) and conjunct.op == "="
                    and not conjunct.right_is_var):
                literals.setdefault(conjunct.left, conjunct.right)
        tested.append(literals)
    counts = {name: sum(name in literals for literals in tested)
              for name in model.variable_names}
    variable = max(model.variable_names, key=counts.__getitem__,
                   default=None)
    if variable is None or not counts[variable]:
        return None
    return (model.variable_names.index(variable),
            [literals.get(variable) for literals in tested])


def bind_successors(model: Model) -> Callable[[Key], SuccessorItems]:
    """The generated ``successor_items(key)`` of ``model``.

    Raises :class:`~repro.mc.model.ModelError` if a literal update is
    outside its variable's domain, whether or not its command can fire.
    """
    order = model.variable_names
    domains = tuple(frozenset(model.variable(name).domain)
                    for name in order)
    fires = []
    for command in model.commands:
        updates = tuple(command.updates.items())
        make = _compiled(
            ("command", order, command.label, command.guard, updates),
            lambda: _command_source(model, command.label, command.guard,
                                    updates))
        fires.append(make(domains, tuple(command.updates.values())))

    # Commands to run per value of the dispatch variable; ``rest`` (the
    # commands without a literal for it) runs for every other value.
    table: Dict[Value, Tuple[Callable, ...]] = {}
    dispatch = _dispatch_literals(model)
    if dispatch is None:
        index, rest = -1, tuple(fires)
    else:
        index, literals = dispatch
        rest = tuple(fire for fire, literal in zip(fires, literals)
                     if literal is None)
        for literal in literals:
            if literal is not None and literal not in table:
                table[literal] = tuple(
                    fire for fire, other in zip(fires, literals)
                    if other is None or other == literal)

    def successor_items(key: Key) -> SuccessorItems:
        out: SuccessorItems = []
        for fire in (table.get(key[index], rest) if table else rest):
            fire(key, out)
        if not out:
            out.append(("stutter", key))
        return out

    return successor_items
