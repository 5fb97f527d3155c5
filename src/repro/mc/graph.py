"""Dense-integer interning of a model's reachable state graph.

The explicit-state checker used to pass hashable state *tuples* around
and re-evaluate Büchi entry labels against freshly materialised state
dicts on every product edge.  :class:`StateGraph` replaces both costs
with integer ids:

- every reachable state key is interned once into a dense ``int`` id,
  so product nodes become small ints (``sid * |Q| + q``) instead of
  ``(tuple, int)`` pairs;
- successor lists are expanded lazily through
  :meth:`~repro.mc.model.Model.successor_items` (which does not memoise)
  and cached here as ``(label, successor id)`` tuples — built at most
  once per model no matter how many properties or CEGAR iterations
  explore it;
- atomic predicates are evaluated at most once per ``(literal, state)``
  via per-literal truth columns (one growable list per literal, indexed
  by state id), which is what makes on-the-fly product exploration
  cheaper than the old per-edge re-evaluation.

A graph is owned by its :class:`~repro.mc.model.Model` (see
``Model.graph()``) so all checks against the same instrumented model
share one interning table, one successor expansion and one set of truth
columns.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .ltl import Atom

Key = Tuple


class StateGraph:
    """Lazily expanded, integer-interned view of a model's state graph."""

    __slots__ = ("model", "_keys", "_index", "_states", "_succ",
                 "_columns", "initial")

    def __init__(self, model):
        self.model = model
        self._keys: List[Key] = []
        self._index: Dict[Key, int] = {}
        self._states: List[Dict] = []
        #: per-state successor tuples, ``None`` until first expansion
        self._succ: List[Optional[Tuple[Tuple[str, int], ...]]] = []
        #: literal -> truth column (list indexed by state id, lazily filled)
        self._columns: Dict[Atom, List[Optional[bool]]] = {}
        self.initial = self.intern(model.key(model.initial_state()))

    # ------------------------------------------------------------------
    def intern(self, key: Key) -> int:
        """The dense id of ``key``, assigning a fresh one on first sight."""
        sid = self._index.get(key)
        if sid is None:
            sid = len(self._keys)
            self._index[key] = sid
            self._keys.append(key)
            self._states.append(self.model.unkey(key))
            self._succ.append(None)
        return sid

    def key_of(self, sid: int) -> Key:
        return self._keys[sid]

    def state(self, sid: int) -> Dict:
        """The state dict for ``sid`` (shared — callers must not mutate)."""
        return self._states[sid]

    def __len__(self) -> int:
        """States interned so far (== states touched by any exploration)."""
        return len(self._keys)

    # ------------------------------------------------------------------
    def successors(self, sid: int) -> Tuple[Tuple[str, int], ...]:
        """``(label, successor id)`` pairs, expanded on first request.

        Expansion order is exactly the model's ``successor_items`` order,
        so explorations over the graph visit states in the same order the
        tuple-based checker did — determinism of counters and traces is
        preserved.
        """
        cached = self._succ[sid]
        if cached is None:
            cached = tuple(
                (label, self.intern(successor_key))
                for label, successor_key in
                self.model.successor_items(self._keys[sid]))
            self._succ[sid] = cached
        return cached

    def expanded_count(self) -> int:
        """States whose successor sets have been computed."""
        return sum(1 for entry in self._succ if entry is not None)

    # ------------------------------------------------------------------
    def literal_evaluator(self, literal: Atom) -> Callable[[int], bool]:
        """A memoised ``sid -> bool`` evaluator for one literal.

        Each distinct literal gets one truth column shared by every
        check against this model, so an atom appearing in many of the 62
        properties (or in many Büchi states of one automaton) is
        evaluated at most once per reachable state.
        """
        column = self._columns.get(literal)
        if column is None:
            column = self._columns[literal] = []
        compiled = literal.compile()
        states = self._states

        def evaluate(sid: int) -> bool:
            if sid >= len(column):
                column.extend([None] * (sid + 1 - len(column)))
            value = column[sid]
            if value is None:
                value = column[sid] = compiled(states[sid])
            return value

        return evaluate

    def label_evaluator(self, literals: Tuple[Atom, ...]
                        ) -> Callable[[int], bool]:
        """Conjunction evaluator for a Büchi entry label (literal tuple)."""
        if not literals:
            return lambda sid: True
        evaluators = [self.literal_evaluator(literal)
                      for literal in literals]
        if len(evaluators) == 1:
            return evaluators[0]

        def evaluate(sid: int) -> bool:
            for check in evaluators:
                if not check(sid):
                    return False
            return True

        return evaluate
