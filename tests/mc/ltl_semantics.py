"""Reference LTL semantics on lasso words (test oracle).

Independent of the Büchi-based checker: evaluates a formula over an
ultimately-periodic word ``s_0 .. s_{l-1} (s_l .. s_k)^omega`` by fixpoint
computation on the cyclic position structure (least fixpoint for U,
greatest for R).  Used to (a) confirm that every counterexample the
checker produces genuinely violates the property, and (b) brute-force
small models for cross-validation.
"""

from itertools import product

from repro.mc.ltl import Atom, BinOp, BoolConst, Formula, UnOp

from .interpreter import successors


def eval_on_lasso(formula: Formula, states, loop_start: int) -> bool:
    """Does the lasso word satisfy ``formula`` (at position 0)?"""
    count = len(states)
    assert 0 <= loop_start < count

    def next_position(i: int) -> int:
        return i + 1 if i + 1 < count else loop_start

    cache = {}

    def vector(node: Formula):
        if node in cache:
            return cache[node]
        if isinstance(node, BoolConst):
            result = [node.value] * count
        elif isinstance(node, Atom):
            result = [node.evaluate(state) for state in states]
        elif isinstance(node, UnOp):      # X
            sub = vector(node.operand)
            result = [sub[next_position(i)] for i in range(count)]
        elif node.op == "and":
            left, right = vector(node.left), vector(node.right)
            result = [a and b for a, b in zip(left, right)]
        elif node.op == "or":
            left, right = vector(node.left), vector(node.right)
            result = [a or b for a, b in zip(left, right)]
        elif node.op == "U":
            left, right = vector(node.left), vector(node.right)
            result = [False] * count
            for _ in range(count + 1):   # lfp: b | (a & X v)
                updated = [right[i] or (left[i]
                                        and result[next_position(i)])
                           for i in range(count)]
                if updated == result:
                    break
                result = updated
        elif node.op == "R":
            left, right = vector(node.left), vector(node.right)
            result = [True] * count
            for _ in range(count + 1):   # gfp: b & (a | X v)
                updated = [right[i] and (left[i]
                                         or result[next_position(i)])
                           for i in range(count)]
                if updated == result:
                    break
                result = updated
        else:  # pragma: no cover
            raise AssertionError(f"unknown node {node!r}")
        cache[node] = result
        return result

    return vector(formula)[0]


def trace_violates(formula: Formula, trace) -> bool:
    """Does a checker counterexample genuinely violate the formula?

    Safety prefixes (no loop) are closed with a self-loop on the final
    state, which is sound for the G(propositional) fast path that
    produces them.
    """
    states = trace.states
    loop_start = trace.loop_start if trace.loop_start is not None \
        else len(states) - 1
    return not eval_on_lasso(formula, states, loop_start)


def brute_force_violation(model, formula: Formula,
                          max_length: int = 10) -> bool:
    """Exhaustively search bounded lassos for a violating path.

    Sound for small models: if a violation with prefix+period within
    ``max_length`` exists, it is found.
    """
    initial = model.initial_state()

    def search(path_keys, path_states):
        # try closing the lasso at any earlier position with equal state
        for position, key in enumerate(path_keys[:-1]):
            if key == path_keys[-1]:
                if not eval_on_lasso(formula, path_states[:-1], position):
                    return True
        if len(path_states) > max_length:
            return False
        current = path_states[-1]
        # The word a lasso spells depends only on the state sequence, so
        # successors reached by several commands/choices are explored once.
        seen_keys = set()
        for _label, successor in successors(model, current):
            key = model.key(successor)
            if key in seen_keys:
                continue
            seen_keys.add(key)
            if search(path_keys + [key], path_states + [successor]):
                return True
        return False

    return search([model.key(initial)], [initial])
