"""Tests for the GPVW LTL -> Büchi translation."""

from repro.mc.buchi import ltl_to_buchi
from repro.mc.ltl import F, G, U, X, atom, parse_ltl

from .interpreter import label_holds

VARS = ("p", "q")
P = atom("p = 1", VARS)
Q = atom("q = 1", VARS)

STATE_P = {"p": 1, "q": 0}
STATE_Q = {"p": 0, "q": 1}
STATE_NONE = {"p": 0, "q": 0}


def accepts(automaton, word, loop_start):
    """Does the automaton accept the lasso word?

    Exact check: build the product of the automaton with the lasso's
    position structure and look for a reachable cycle through an
    accepting product node.
    """
    def next_position(i):
        return i + 1 if i + 1 < len(word) else loop_start

    # product nodes (position, buchi state); edges follow both structures
    initial = {(0, q) for q in automaton.initial
               if label_holds(automaton, q, word[0])}
    edges = {}
    stack = list(initial)
    nodes = set(initial)
    while stack:
        position, q = stack.pop()
        succ_position = next_position(position)
        successors = []
        for succ_q in automaton.successors(q):
            if label_holds(automaton, succ_q, word[succ_position]):
                node = (succ_position, succ_q)
                successors.append(node)
                if node not in nodes:
                    nodes.add(node)
                    stack.append(node)
        edges[(position, q)] = successors

    # accepting node on a cycle reachable from initial?
    def on_cycle(start):
        seen = set()
        frontier = list(edges.get(start, []))
        while frontier:
            node = frontier.pop()
            if node == start:
                return True
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(edges.get(node, []))
        return False

    return any(on_cycle(node) for node in nodes
               if node[1] in automaton.accepting)


class TestTranslation:
    def test_g_p_accepts_constant_p(self):
        automaton = ltl_to_buchi(G(P))
        assert accepts(automaton, [STATE_P], 0)

    def test_g_p_rejects_word_with_not_p(self):
        automaton = ltl_to_buchi(G(P))
        assert not accepts(automaton, [STATE_P, STATE_NONE], 1)

    def test_f_q_accepts_eventual_q(self):
        automaton = ltl_to_buchi(F(Q))
        assert accepts(automaton, [STATE_NONE, STATE_Q], 1)

    def test_f_q_rejects_never_q(self):
        automaton = ltl_to_buchi(F(Q))
        assert not accepts(automaton, [STATE_NONE], 0)

    def test_until(self):
        automaton = ltl_to_buchi(U(P, Q))
        assert accepts(automaton, [STATE_P, STATE_P, STATE_Q], 2)
        assert not accepts(automaton, [STATE_P, STATE_NONE], 1)

    def test_next(self):
        automaton = ltl_to_buchi(X(Q))
        assert accepts(automaton, [STATE_NONE, STATE_Q], 1)
        assert not accepts(automaton, [STATE_Q, STATE_NONE], 1)

    def test_gf_infinitely_often(self):
        automaton = ltl_to_buchi(G(F(P)))
        assert accepts(automaton, [STATE_P, STATE_NONE], 0)   # alternating
        assert not accepts(automaton, [STATE_P, STATE_NONE], 1)  # P once

    def test_negated_formula_is_complementary_on_words(self):
        formula = parse_ltl("G (p = 1 -> F q = 1)", VARS)
        positive = ltl_to_buchi(formula)
        negative = ltl_to_buchi(formula.negate())
        words = [
            ([STATE_P, STATE_Q], 0),
            ([STATE_P, STATE_NONE], 1),
            ([STATE_NONE], 0),
            ([STATE_P, STATE_Q, STATE_NONE], 2),
        ]
        for word, loop in words:
            assert accepts(positive, word, loop) != accepts(
                negative, word, loop), (word, loop)

    def test_automaton_size_reported(self):
        automaton = ltl_to_buchi(G(F(P)))
        states, edges = automaton.size()
        assert states > 0
        assert edges > 0
