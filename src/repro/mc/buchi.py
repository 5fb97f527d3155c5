"""LTL to Büchi automaton translation (Gerth–Peled–Vardi–Wolper tableau).

The explicit-state checker verifies ``M |= phi`` by translating ``!phi`` to
a Büchi automaton, building the synchronous product with the model's state
graph, and searching for an accepting lasso (nested DFS).  This module
implements the classic GPVW on-the-fly tableau construction followed by
counter-based degeneralisation, so the checker only ever deals with a plain
(single acceptance set) Büchi automaton.

The construction operates on formulas in negation normal form, which the
constructors in :mod:`repro.mc.ltl` produce by design.

Automata are memoised per **normalised** formula: :func:`normalise_ltl`
alpha-renames atoms into dense indices (first-occurrence order) over the
canonical NNF operator core, so the 62 catalog properties — and the
many per-iteration negations the CEGAR loop requests — share one tableau
construction per formula *shape*.  Templates are built over placeholder
atoms and instantiated by binding the concrete atoms back in, which
costs a dictionary copy instead of a tableau expansion.  The cache is
process-wide (and inherited by forked pool workers), mirroring the
extraction-cache pattern; hits/misses are counted in the
:mod:`repro.obs` registry (``mc.buchi_template_*``).
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from .. import obs
from .expr import Compare, Expr
from .ltl import Atom, BinOp, BoolConst, Formula, UnOp


@dataclass
class _Node:
    """A tableau node in the GPVW construction."""

    name: int
    incoming: Set[int]
    new: Set[Formula]
    old: Set[Formula]
    next: Set[Formula]


_INIT = -1  # pseudo-initial predecessor marker


def _contradicts(formula: Formula, old: Set[Formula]) -> bool:
    if isinstance(formula, BoolConst):
        return not formula.value
    if isinstance(formula, Atom):
        return Atom(formula.expr, not formula.negated) in old
    return False


def _expand(node: _Node, nodes: List[_Node], counter) -> None:
    """Recursive tableau expansion (Gerth et al., Fig. 2)."""
    if not node.new:
        for existing in nodes:
            if existing.old == node.old and existing.next == node.next:
                existing.incoming |= node.incoming
                return
        nodes.append(node)
        successor = _Node(name=next(counter), incoming={node.name},
                          new=set(node.next), old=set(), next=set())
        _expand(successor, nodes, counter)
        return

    formula = node.new.pop()
    if isinstance(formula, (Atom, BoolConst)):
        if _contradicts(formula, node.old):
            return  # inconsistent node: discard
        if not (isinstance(formula, BoolConst) and formula.value):
            node.old.add(formula)
        _expand(node, nodes, counter)
        return

    if isinstance(formula, UnOp):  # X g
        node.old.add(formula)
        node.next.add(formula.operand)
        _expand(node, nodes, counter)
        return

    assert isinstance(formula, BinOp)
    if formula.op == "and":
        node.old.add(formula)
        for part in (formula.left, formula.right):
            if part not in node.old:
                node.new.add(part)
        _expand(node, nodes, counter)
        return

    # or / U / R all split the node in two.
    left_new: Set[Formula]
    left_next: Set[Formula] = set()
    right_new: Set[Formula]
    if formula.op == "or":
        left_new, right_new = {formula.left}, {formula.right}
    elif formula.op == "U":
        left_new, left_next = {formula.left}, {formula}
        right_new = {formula.right}
    else:  # R: g1 R g2  ==  g2 & (g1 | X(g1 R g2))
        left_new, left_next = {formula.right}, {formula}
        right_new = {formula.left, formula.right}

    base_old = node.old | {formula}
    first = _Node(name=next(counter), incoming=set(node.incoming),
                  new=node.new | (left_new - base_old),
                  old=set(base_old), next=node.next | left_next)
    second = _Node(name=next(counter), incoming=set(node.incoming),
                   new=node.new | (right_new - base_old),
                   old=set(base_old), next=set(node.next))
    _expand(first, nodes, counter)
    _expand(second, nodes, counter)


def _until_subformulas(formula: Formula) -> List[BinOp]:
    found: List[BinOp] = []
    seen: Set[Formula] = set()

    def walk(node: Formula):
        if node in seen:
            return
        seen.add(node)
        if isinstance(node, BinOp):
            if node.op == "U":
                found.append(node)
            walk(node.left)
            walk(node.right)
        elif isinstance(node, UnOp):
            walk(node.operand)

    walk(formula)
    return found


@dataclass
class BuchiAutomaton:
    """A (degeneralised) Büchi automaton over state predicates.

    ``labels[q]`` is the set of literals (positive/negated atoms) that the
    model state must satisfy when the automaton *enters* ``q``.
    """

    initial: FrozenSet[int]
    states: FrozenSet[int]
    transitions: Dict[int, Tuple[int, ...]]
    labels: Dict[int, Tuple[Atom, ...]]
    accepting: FrozenSet[int]

    def successors(self, buchi_state: int) -> Tuple[int, ...]:
        return self.transitions.get(buchi_state, ())

    def size(self) -> Tuple[int, int]:
        edge_count = sum(len(v) for v in self.transitions.values())
        return len(self.states), edge_count


def _degeneralize(
    node_ids: List[int],
    incoming: Dict[int, Set[int]],
    labels: Dict[int, Tuple[Atom, ...]],
    acceptance_sets: List[Set[int]],
    initial_nodes: Set[int],
) -> BuchiAutomaton:
    """Counter construction turning generalised acceptance into plain Büchi."""
    if not acceptance_sets:
        acceptance_sets = [set(node_ids)]
    set_count = len(acceptance_sets)

    def advance(counter_value: int, node: int) -> int:
        value = counter_value
        while value < set_count and node in acceptance_sets[value]:
            value += 1
        return value % (set_count + 1) if value > set_count else value

    # Product states are (node, counter); counter advances through the
    # acceptance sets and wraps after visiting one state from each.
    state_ids: Dict[Tuple[int, int], int] = {}
    transitions: Dict[int, List[int]] = {}
    product_labels: Dict[int, Tuple[Atom, ...]] = {}
    accepting: Set[int] = set()
    initial: Set[int] = set()

    def intern(node: int, counter_value: int) -> int:
        key = (node, counter_value)
        if key not in state_ids:
            state_ids[key] = len(state_ids)
            product_labels[state_ids[key]] = labels[node]
        return state_ids[key]

    # successors map from incoming map
    successors: Dict[int, Set[int]] = {n: set() for n in node_ids}
    for node, preds in incoming.items():
        for pred in preds:
            if pred == _INIT:
                continue
            successors.setdefault(pred, set()).add(node)

    worklist: List[Tuple[int, int]] = []
    for node in initial_nodes:
        entry_counter = advance(0, node)
        accepting_entry = entry_counter == set_count
        entry_counter = 0 if accepting_entry else entry_counter
        pid = intern(node, entry_counter)
        if accepting_entry:
            accepting.add(pid)
        initial.add(pid)
        worklist.append((node, entry_counter))

    visited: Set[Tuple[int, int]] = set(
        key for key in state_ids)
    while worklist:
        node, counter_value = worklist.pop()
        pid = state_ids[(node, counter_value)]
        for successor in successors.get(node, ()):  # tableau edges
            next_counter = advance(counter_value, successor)
            wrapped = next_counter == set_count
            next_counter = 0 if wrapped else next_counter
            sid = intern(successor, next_counter)
            if wrapped:
                accepting.add(sid)
            transitions.setdefault(pid, []).append(sid)
            if (successor, next_counter) not in visited:
                visited.add((successor, next_counter))
                worklist.append((successor, next_counter))

    return BuchiAutomaton(
        initial=frozenset(initial),
        states=frozenset(state_ids.values()),
        transitions={k: tuple(sorted(set(v))) for k, v in transitions.items()},
        labels=product_labels,
        accepting=frozenset(accepting),
    )


# ---------------------------------------------------------------------------
# Formula normalisation and the process-wide template cache
# ---------------------------------------------------------------------------
Shape = Tuple


def normalise_ltl(formula: Formula) -> Tuple[Shape, Tuple[Expr, ...]]:
    """Canonical ``(shape, atom table)`` decomposition of a formula.

    The *shape* is the formula's NNF operator tree with every atomic
    predicate alpha-renamed to its dense first-occurrence index (negation
    stays in the shape, since NNF literals carry it).  Two formulas have
    equal shapes iff they are alpha-equivalent over their atoms — which
    also covers operator sugar, because ``F/G/Implies`` already
    canonicalise to ``U/R/or`` at construction time.  The atom table
    lists the concrete predicates in index order, so
    ``instantiate(shape, atoms)`` round-trips.
    """
    atoms: Dict[Expr, int] = {}

    def walk(node: Formula) -> Shape:
        if isinstance(node, BoolConst):
            return ("const", node.value)
        if isinstance(node, Atom):
            index = atoms.setdefault(node.expr, len(atoms))
            return ("atom", index, node.negated)
        if isinstance(node, UnOp):
            return ("X", walk(node.operand))
        assert isinstance(node, BinOp)
        return (node.op, walk(node.left), walk(node.right))

    shape = walk(formula)
    return shape, tuple(atoms)


def normalised_key(formula: Formula) -> str:
    """Stable digest of a formula's full canonical identity.

    Combines the alpha-renamed shape with the concrete atom spellings,
    so alpha-*equivalent but semantically different* formulas get
    distinct keys — the right identity for persistent verdict caching
    and duplicate-formula lint checks, where only the shape-level
    :func:`normalise_ltl` sharing would be unsound.
    """
    shape, atoms = normalise_ltl(formula)
    digest = hashlib.sha256(repr(shape).encode())
    for expr in atoms:
        digest.update(b"\x00")
        digest.update(str(expr).encode())
    return digest.hexdigest()


def _formula_from_shape(shape: Shape,
                        atoms: Sequence[Expr]) -> Formula:
    kind = shape[0]
    if kind == "const":
        return BoolConst(shape[1])
    if kind == "atom":
        return Atom(atoms[shape[1]], shape[2])
    if kind == "X":
        return UnOp("X", _formula_from_shape(shape[1], atoms))
    return BinOp(kind, _formula_from_shape(shape[1], atoms),
                 _formula_from_shape(shape[2], atoms))


@dataclass(frozen=True)
class _BuchiTemplate:
    """An automaton abstracted over its atoms: labels are (index, negated).

    ``instantiate`` binds concrete atoms back in; the transition
    structure is shared between instantiations (it is never mutated),
    only the label dict is rebuilt.
    """

    initial: FrozenSet[int]
    states: FrozenSet[int]
    transitions: Dict[int, Tuple[int, ...]]
    labels: Dict[int, Tuple[Tuple[int, bool], ...]]
    accepting: FrozenSet[int]

    def instantiate(self, atoms: Sequence[Expr]) -> BuchiAutomaton:
        return BuchiAutomaton(
            initial=self.initial,
            states=self.states,
            transitions=self.transitions,
            labels={state: tuple(Atom(atoms[index], negated)
                                 for index, negated in literals)
                    for state, literals in self.labels.items()},
            accepting=self.accepting,
        )


_TEMPLATE_LOCK = threading.Lock()
_TEMPLATE_CACHE: Dict[Shape, _BuchiTemplate] = {}


def _build_template(shape: Shape, arity: int) -> _BuchiTemplate:
    # Build over fixed placeholder atoms rather than whichever concrete
    # formula arrived first: the tableau's set-iteration order depends on
    # atom hashes, so placeholders make the template — and therefore
    # every instantiation's exploration order — independent of which
    # alpha-equivalent formula populated the cache entry.
    placeholders = tuple(Compare(f"__a{index}", "=", 1)
                         for index in range(arity))
    automaton = _ltl_to_buchi_uncached(_formula_from_shape(shape,
                                                           placeholders))
    index_of = {expr: index for index, expr in enumerate(placeholders)}
    return _BuchiTemplate(
        initial=automaton.initial,
        states=automaton.states,
        transitions=automaton.transitions,
        labels={state: tuple((index_of[literal.expr], literal.negated)
                             for literal in literals)
                for state, literals in automaton.labels.items()},
        accepting=automaton.accepting,
    )


def clear_buchi_cache() -> None:
    """Drop all memoised templates (test isolation hook)."""
    with _TEMPLATE_LOCK:
        _TEMPLATE_CACHE.clear()


def ltl_to_buchi(formula: Formula) -> BuchiAutomaton:
    """Translate an NNF LTL formula into a plain Büchi automaton.

    Memoised per normalised formula shape (see :func:`normalise_ltl`):
    on a hit, the cached template is instantiated with this formula's
    atoms instead of re-running the tableau construction.
    """
    shape, atoms = normalise_ltl(formula)
    with _TEMPLATE_LOCK:
        template = _TEMPLATE_CACHE.get(shape)
    if template is None:
        template = _build_template(shape, len(atoms))
        with _TEMPLATE_LOCK:
            template = _TEMPLATE_CACHE.setdefault(shape, template)
        obs.count("mc.buchi_template_misses")
    else:
        obs.count("mc.buchi_template_hits")
    return template.instantiate(atoms)


def _ltl_to_buchi_uncached(formula: Formula) -> BuchiAutomaton:
    """The raw GPVW tableau + degeneralisation pipeline (uncached)."""
    counter = itertools.count()
    root = _Node(name=next(counter), incoming={_INIT},
                 new={formula}, old=set(), next=set())
    nodes: List[_Node] = []
    _expand(root, nodes, counter)

    node_ids = [node.name for node in nodes]
    incoming = {node.name: set(node.incoming) for node in nodes}
    labels = {
        node.name: tuple(f for f in node.old if isinstance(f, Atom))
        for node in nodes
    }
    initial_nodes = {node.name for node in nodes if _INIT in node.incoming}

    acceptance_sets = []
    for until in _until_subformulas(formula):
        acceptance_sets.append({
            node.name for node in nodes
            if until not in node.old or until.right in node.old
        })
    return _degeneralize(node_ids, incoming, labels, acceptance_sets,
                         initial_nodes)
