"""Explicit-state model checking engine (the NuXmv stand-in).

The supported entry point is the :class:`~repro.mc.api.ModelChecker`
facade; this module holds the engines behind it:

- :func:`_check_invariant` — BFS reachability for safety properties
  ``G p`` with propositional ``p``, over the model's interned
  :class:`~repro.mc.graph.StateGraph`; returns the shortest violating
  prefix.
- :class:`_OnTheFlySearch` — full LTL: translate the *negated* formula
  to a Büchi automaton (:mod:`repro.mc.buchi`, memoised per normalised
  formula) and run a nested depth-first search (Schwoon–Esparza
  colouring) over the product *constructed on the fly*.  Product nodes
  are dense ints (``state id * |Q| + q``), entry labels are evaluated
  through per-literal truth columns, and the search stops at the first
  accepting cycle — for violated properties only a fraction of the
  product is ever built.

The independent reference engine this search is equivalence-tested
against (materialised product, Tarjan SCC, BFS witness) lives with the
tests, in ``tests/mc/materialised.py``.

The extracted 4G LTE models are small enumerated-domain systems (that is
the paper's RQ3 point: semantic extraction keeps the model within COTS
model-checker bounds), so the explicit approach is complete and fast here.

Counter semantics (all deterministic, hence width-invariant across
``--jobs``): ``mc.states_explored`` counts distinct *model* states the
search visited, ``mc.product_states`` counts *visited* product nodes
(not materialised ones), ``mc.peak_frontier`` the high-water mark of the
search frontier (outer + nested DFS stack, or the BFS queue).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .. import obs
from .buchi import BuchiAutomaton, ltl_to_buchi
from .counterexample import CheckResult, Step, Trace
from .expr import And, Const, Expr, Not, Or
from .graph import StateGraph
from .ltl import Atom, BinOp, BoolConst, Formula, LTL_FALSE
from .model import Model


# ---------------------------------------------------------------------------
# Safety fast path
# ---------------------------------------------------------------------------
def _check_invariant(model: Model, invariant: Expr,
                     name: str = "invariant") -> CheckResult:
    """BFS for a reachable state violating ``invariant`` (i.e. check G p)."""
    model.validate_expression(invariant)
    with obs.span("mc.check", property=name, mode="invariant") as span:
        graph = model.graph()
        holds = invariant.compile()
        root = graph.initial
        parents: Dict[int, Optional[Tuple[int, str]]] = {root: None}
        queue = deque([root])
        peak_frontier = 1
        violating: Optional[int] = None
        if not holds(graph.state(root)):
            violating = root
        while queue and violating is None:
            sid = queue.popleft()
            for label, successor in graph.successors(sid):
                if successor in parents:
                    continue
                parents[successor] = (sid, label)
                if not holds(graph.state(successor)):
                    violating = successor
                    break
                queue.append(successor)
            if len(queue) > peak_frontier:
                peak_frontier = len(queue)

        obs.inc("mc.checks")
        obs.inc("mc.states_explored", len(parents))
        obs.inc("mc.peak_frontier", peak_frontier)
        trace = (None if violating is None
                 else _sid_path_to_trace(graph, parents, violating))
    obs.observe("mc.check_seconds", span.duration)
    return CheckResult(name, holds=trace is None, counterexample=trace,
                       states_explored=len(parents),
                       peak_frontier=peak_frontier,
                       elapsed_seconds=span.duration)


def _sid_path_to_trace(graph: StateGraph, parents, sid: int) -> Trace:
    chain: List[Tuple[int, str]] = []
    cursor = sid
    while parents[cursor] is not None:
        predecessor, label = parents[cursor]
        chain.append((cursor, label))
        cursor = predecessor
    chain.reverse()
    trace = Trace(initial_state=dict(graph.state(cursor)))
    for state_sid, label in chain:
        trace.steps.append(Step(label, graph.state(state_sid)))
    return trace


# ---------------------------------------------------------------------------
# Formula utilities
# ---------------------------------------------------------------------------
def formula_to_expr(formula: Formula) -> Optional[Expr]:
    """Convert a purely propositional formula to an :class:`Expr`.

    Returns ``None`` when the formula contains temporal operators.
    """
    if isinstance(formula, BoolConst):
        return Const(formula.value)
    if isinstance(formula, Atom):
        return Not(formula.expr) if formula.negated else formula.expr
    if isinstance(formula, BinOp) and formula.op in ("and", "or"):
        left = formula_to_expr(formula.left)
        right = formula_to_expr(formula.right)
        if left is None or right is None:
            return None
        return And(left, right) if formula.op == "and" else Or(left, right)
    return None


def as_invariant(formula: Formula) -> Optional[Expr]:
    """If ``formula`` is ``G p`` with propositional ``p``, return ``p``."""
    if (isinstance(formula, BinOp) and formula.op == "R"
            and formula.left == LTL_FALSE):
        return formula_to_expr(formula.right)
    return None


# ---------------------------------------------------------------------------
# On-the-fly LTL via nested DFS over the implicit Büchi product
# ---------------------------------------------------------------------------
class _OnTheFlySearch:
    """Nested DFS (cyan/blue/red colouring) for an accepting lasso.

    The product is never materialised: a product node is the integer
    ``sid * |Q| + q`` and its successors are enumerated on demand from
    the interned state graph and the automaton's transition table, in
    exactly the order the materialised builder used (model successors
    outer, Büchi successors inner) so witness shapes stay deterministic.

    The outer (blue) DFS detects cycles closing into the active path
    early (when either endpoint is accepting); the nested (red) DFS
    launched post-order from accepting nodes finds the remaining
    accepting cycles.  Red colouring is permanent, so the whole search
    is linear in the number of visited product edges.
    """

    def __init__(self, graph: StateGraph, automaton: BuchiAutomaton):
        self.graph = graph
        self.automaton = automaton
        states = automaton.states
        self.nq = (max(states) + 1) if states else 1
        self._label_ok = {q: graph.label_evaluator(automaton.labels[q])
                          for q in states}
        self._succ_q = {q: automaton.successors(q) for q in states}
        self._accepting = automaton.accepting
        self.cyan: Set[int] = set()
        self.blue: Set[int] = set()
        self.red: Set[int] = set()
        #: every product node ever coloured (the visited-node counter)
        self.seen: Set[int] = set()
        #: blue-stack depth of each cyan node (for lasso reconstruction)
        self._position: Dict[int, int] = {}
        self.peak_frontier = 0
        self.trace: Optional[Trace] = None

    # ------------------------------------------------------------------
    def run(self) -> Optional[Trace]:
        root_sid = self.graph.initial
        for q in sorted(self.automaton.initial):
            if not self._label_ok[q](root_sid):
                continue
            root = root_sid * self.nq + q
            if root in self.blue:
                continue
            if self._dfs_blue(root):
                return self.trace
        return None

    def _edges(self, node: int) -> Iterator[Tuple[int, str]]:
        sid, q = divmod(node, self.nq)
        nq = self.nq
        succ_q = self._succ_q.get(q, ())
        label_ok = self._label_ok
        for label, successor_sid in self.graph.successors(sid):
            for next_q in succ_q:
                if label_ok[next_q](successor_sid):
                    yield successor_sid * nq + next_q, label

    def _is_accepting(self, node: int) -> bool:
        return node % self.nq in self._accepting

    # ------------------------------------------------------------------
    def _dfs_blue(self, root: int) -> bool:
        stack: List[Tuple[int, Optional[str], Iterator]] = []
        self._push_blue(stack, root, None)
        while stack:
            node, _, edges = stack[-1]
            for successor, label in edges:
                if successor in self.cyan:
                    # A cycle through the active path; accepting if either
                    # endpoint is (early exit without a nested search).
                    if (self._is_accepting(node)
                            or self._is_accepting(successor)):
                        self._build_trace(stack, successor,
                                          [(label, successor)])
                        return True
                    continue
                if successor not in self.blue:
                    self._push_blue(stack, successor, label)
                    break
            else:
                if self._is_accepting(node) and self._dfs_red(node, stack):
                    return True
                stack.pop()
                self.cyan.discard(node)
                del self._position[node]
                self.blue.add(node)
        return False

    def _push_blue(self, stack, node: int, label: Optional[str]) -> None:
        self.cyan.add(node)
        self.seen.add(node)
        self._position[node] = len(stack)
        stack.append((node, label, self._edges(node)))
        if len(stack) > self.peak_frontier:
            self.peak_frontier = len(stack)

    # ------------------------------------------------------------------
    def _dfs_red(self, seed: int, blue_stack) -> bool:
        parents: Dict[int, Optional[Tuple[int, str]]] = {seed: None}
        self.red.add(seed)
        stack: List[Tuple[int, Iterator]] = [(seed, self._edges(seed))]
        while stack:
            node, edges = stack[-1]
            for successor, label in edges:
                if successor in self.cyan:
                    # Close the lasso: seed ->(red path)-> node -> successor,
                    # where successor is an ancestor on the blue stack.
                    closing: List[Tuple[str, int]] = []
                    cursor = node
                    while parents[cursor] is not None:
                        predecessor, step_label = parents[cursor]
                        closing.append((step_label, cursor))
                        cursor = predecessor
                    closing.reverse()
                    closing.append((label, successor))
                    self._build_trace(blue_stack, successor, closing)
                    return True
                if successor not in self.red:
                    self.red.add(successor)
                    self.seen.add(successor)
                    parents[successor] = (node, label)
                    stack.append((successor, self._edges(successor)))
                    frontier = len(blue_stack) + len(stack)
                    if frontier > self.peak_frontier:
                        self.peak_frontier = frontier
                    break
            else:
                stack.pop()
        return False

    # ------------------------------------------------------------------
    def _build_trace(self, blue_stack, anchor: int,
                     closing: List[Tuple[str, int]]) -> None:
        """Assemble the lasso: blue prefix to ``anchor``, blue segment to
        the stack top, then the ``closing`` chain back to ``anchor``.

        Matches the materialised checker's convention: the final state
        equals the loop anchor and ``loop_start`` is the anchor's first
        state index.
        """
        graph = self.graph
        nq = self.nq
        anchor_index = self._position[anchor]
        trace = Trace(
            initial_state=dict(graph.state(blue_stack[0][0] // nq)))
        for node, label, _ in blue_stack[1:anchor_index + 1]:
            trace.steps.append(Step(label, graph.state(node // nq)))
        trace.loop_start = len(trace.steps)
        for node, label, _ in blue_stack[anchor_index + 1:]:
            trace.steps.append(Step(label, graph.state(node // nq)))
        for label, node in closing:
            trace.steps.append(Step(label, graph.state(node // nq)))
        self.trace = trace


def _check_ltl_on_the_fly(model: Model, formula: Formula,
                          name: str = "property") -> CheckResult:
    """Check ``model |= formula`` via the on-the-fly product search."""
    with obs.span("mc.check", property=name, mode="ltl") as span:
        automaton = ltl_to_buchi(formula.negate())
        graph = model.graph()
        search = _OnTheFlySearch(graph, automaton)
        trace = search.run()

        model_states = {node // search.nq for node in search.seen}
        model_states.add(graph.initial)
        obs.inc("mc.checks")
        obs.inc("mc.states_explored", len(model_states))
        obs.inc("mc.product_states", len(search.seen))
        obs.inc("mc.buchi_states", len(automaton.states))
        obs.inc("mc.peak_frontier", search.peak_frontier)
        obs.gauge_max("mc.max_product_states", len(search.seen))

        result = CheckResult(
            name, holds=trace is None,
            counterexample=trace,
            states_explored=len(model_states),
            product_states=len(search.seen),
            buchi_states=len(automaton.states),
            peak_frontier=search.peak_frontier,
        )
    result.elapsed_seconds = span.duration
    obs.observe("mc.check_seconds", span.duration)
    return result


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------
def _check_formula(model: Model, formula: Formula,
                   name: str = "property") -> CheckResult:
    """Validate, then take the invariant fast path or the LTL search."""
    for expr in formula.atoms():
        model.validate_expression(expr)
    invariant = as_invariant(formula)
    if invariant is not None:
        return _check_invariant(model, invariant, name)
    return _check_ltl_on_the_fly(model, formula, name)
