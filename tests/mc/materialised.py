"""Reference LTL engine: materialise the product, Tarjan SCC, BFS witness.

The on-the-fly nested DFS in :mod:`repro.mc.checker` is the only engine
the pipeline runs; this one decides emptiness of the same product
language in a completely different way and exists so the fast path has
an independent implementation to be property-tested against
(``test_strategy_equivalence.py``).  Witness *shapes* may differ — both
must satisfy :func:`tests.mc.ltl_semantics.trace_violates`.
"""

from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.mc.buchi import BuchiAutomaton, ltl_to_buchi
from repro.mc.checker import _check_invariant, as_invariant
from repro.mc.counterexample import CheckResult, Step, Trace
from repro.mc.ltl import Formula
from repro.mc.model import Model


class CheckerError(Exception):
    """Raised when the product search reaches an impossible state."""


class _Product:
    """Reachable synchronous product of model and Büchi automaton."""

    def __init__(self, model: Model, automaton: BuchiAutomaton):
        self.model = model
        self.automaton = automaton
        self.nodes: Dict[Tuple[Tuple, int], int] = {}
        self.edges: Dict[int, List[Tuple[int, str]]] = {}
        self.initials: List[int] = []
        self.model_states_seen: Set[Tuple] = set()
        self._build()

    def _intern(self, model_key: Tuple, buchi_state: int) -> Tuple[int, bool]:
        key = (model_key, buchi_state)
        if key in self.nodes:
            return self.nodes[key], False
        node_id = len(self.nodes)
        self.nodes[key] = node_id
        self.edges[node_id] = []
        return node_id, True

    def _build(self) -> None:
        model = self.model
        automaton = self.automaton
        initial = model.initial_state()
        initial_key = model.key(initial)
        self.model_states_seen.add(initial_key)
        worklist: List[Tuple[Tuple, int]] = []
        for buchi_state in automaton.initial:
            if automaton.state_satisfies(buchi_state, initial):
                node_id, fresh = self._intern(initial_key, buchi_state)
                self.initials.append(node_id)
                if fresh:
                    worklist.append((initial_key, buchi_state))
        while worklist:
            model_key, buchi_state = worklist.pop()
            node_id = self.nodes[(model_key, buchi_state)]
            for label, successor_key in model.successor_items(model_key):
                self.model_states_seen.add(successor_key)
                successor_state = model.unkey(successor_key)
                for next_buchi in automaton.successors(buchi_state):
                    if not automaton.state_satisfies(next_buchi,
                                                     successor_state):
                        continue
                    succ_id, fresh = self._intern(successor_key, next_buchi)
                    self.edges[node_id].append((succ_id, label))
                    if fresh:
                        worklist.append((successor_key, next_buchi))

    def accepting_nodes(self) -> Set[int]:
        return {node_id for (key, node_id) in
                ((k, v) for k, v in self.nodes.items())
                if key[1] in self.automaton.accepting}


def _tarjan_sccs(edges: Dict[int, List[Tuple[int, str]]],
                 roots: Sequence[int]) -> List[List[int]]:
    """Iterative Tarjan SCC over the product graph."""
    index_counter = [0]
    indices: Dict[int, int] = {}
    lowlinks: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []

    for root in roots:
        if root in indices:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_index = work[-1]
            if child_index == 0:
                indices[node] = index_counter[0]
                lowlinks[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            successors = edges.get(node, [])
            while child_index < len(successors):
                successor = successors[child_index][0]
                child_index += 1
                if successor not in indices:
                    work[-1] = (node, child_index)
                    work.append((successor, 0))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return sccs


def _bfs_path(edges, sources: Sequence[int], targets: Set[int],
              restrict: Optional[Set[int]] = None,
              skip_trivial_start: bool = False):
    """Shortest path (list of (node, label)) from any source to any target."""
    parents: Dict[int, Optional[Tuple[int, str]]] = {}
    queue = deque()
    for source in sources:
        parents[source] = None
        queue.append(source)
        if source in targets and not skip_trivial_start:
            return _reconstruct(parents, source)
    while queue:
        node = queue.popleft()
        for successor, label in edges.get(node, []):
            if restrict is not None and successor not in restrict:
                continue
            if successor in parents:
                if successor in targets and skip_trivial_start:
                    # allow returning to a source through a real edge
                    chain = _reconstruct(parents, node)
                    chain.append((successor, label))
                    return chain
                continue
            parents[successor] = (node, label)
            if successor in targets:
                return _reconstruct(parents, successor)
            queue.append(successor)
    return None


def _reconstruct(parents, node):
    chain = []
    cursor = node
    while parents[cursor] is not None:
        predecessor, label = parents[cursor]
        chain.append((cursor, label))
        cursor = predecessor
    chain.append((cursor, None))
    chain.reverse()
    return chain


def check_ltl_materialised(model: Model, formula: Formula,
                           name: str = "property") -> CheckResult:
    """Check ``model |= formula`` on the fully materialised product."""
    for expr in formula.atoms():
        model.validate_expression(expr)

    invariant = as_invariant(formula)
    if invariant is not None:
        return _check_invariant(model, invariant, name)

    automaton = ltl_to_buchi(formula.negate())
    product = _Product(model, automaton)
    accepting = product.accepting_nodes()
    sccs = _tarjan_sccs(product.edges, product.initials)

    witness_scc: Optional[List[int]] = None
    for component in sccs:
        members = set(component)
        if not (members & accepting):
            continue
        if len(component) > 1:
            witness_scc = component
            break
        node = component[0]
        if any(successor == node for successor, _ in product.edges[node]):
            witness_scc = component
            break

    result = CheckResult(
        name, holds=witness_scc is None,
        states_explored=len(product.model_states_seen),
        product_states=len(product.nodes),
        buchi_states=len(automaton.states),
    )
    if witness_scc is not None:
        members = set(witness_scc)
        prefix = _bfs_path(product.edges, product.initials,
                           members & accepting)
        if prefix is None:
            raise CheckerError("internal error: accepting SCC unreachable")
        anchor = prefix[-1][0]
        cycle = _bfs_path(product.edges, [anchor], {anchor},
                          restrict=members, skip_trivial_start=True)
        if cycle is None:
            raise CheckerError("internal error: no cycle in accepting SCC")

        node_states = {}
        for (model_key, _buchi), node_id in product.nodes.items():
            node_states.setdefault(node_id, model.unkey(model_key))

        # The lasso's final state equals the loop anchor; loop_start
        # points at the anchor's state index.
        trace = Trace(initial_state=node_states[prefix[0][0]])
        for node, label in prefix[1:]:
            trace.steps.append(Step(label, node_states[node]))
        trace.loop_start = len(trace.steps)
        for node, label in cycle[1:]:
            trace.steps.append(Step(label, node_states[node]))
        result.counterexample = trace
    return result
