"""Dense-integer interning of a model's reachable state graph.

:class:`StateGraph` gives every reachable state key (the tuple of
variable values in the model's variable order) a dense ``int`` id, so
the checker's product nodes are small ints (``sid * |Q| + q``) instead
of ``(tuple, int)`` pairs.  It stores the keys and nothing else per
state:

- successor lists are expanded lazily through the model's generated
  :meth:`~repro.mc.model.Model.successor_items` (which does not memoise)
  and cached here as ``(label, successor id)`` tuples — built at most
  once per model no matter how many properties or CEGAR iterations
  explore it;
- predicates run as generated code on the keys
  (:mod:`repro.mc.codegen`), so no state dict is built while searching;
  :meth:`state` makes one on demand, for counterexample traces.

A graph is owned by its :class:`~repro.mc.model.Model` (see
``Model.graph()``) so all checks against the same instrumented model
share one interning table and one successor expansion.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

Key = Tuple


class StateGraph:
    """Lazily expanded, integer-interned view of a model's state graph."""

    __slots__ = ("model", "_keys", "_index", "_succ", "initial")

    def __init__(self, model):
        self.model = model
        self._keys: List[Key] = []
        self._index: Dict[Key, int] = {}
        #: per-state successor tuples, ``None`` until first expansion
        self._succ: List[Optional[Tuple[Tuple[str, int], ...]]] = []
        self.initial = self.intern(model.key(model.init))

    # ------------------------------------------------------------------
    def intern(self, key: Key) -> int:
        """The dense id of ``key``, assigning a fresh one on first sight."""
        sid = self._index.get(key)
        if sid is None:
            sid = len(self._keys)
            self._index[key] = sid
            self._keys.append(key)
            self._succ.append(None)
        return sid

    def key_of(self, sid: int) -> Key:
        return self._keys[sid]

    def state(self, sid: int) -> Dict:
        """A fresh state dict for ``sid`` (for counterexample traces)."""
        return self.model.unkey(self._keys[sid])

    def __len__(self) -> int:
        """States interned so far (== states touched by any exploration)."""
        return len(self._keys)

    # ------------------------------------------------------------------
    def successors(self, sid: int) -> Tuple[Tuple[str, int], ...]:
        """``(label, successor id)`` pairs, expanded on first request.

        Expansion order is exactly the model's ``successor_items`` order,
        so explorations visit states in a fixed order and counters and
        traces are deterministic.
        """
        cached = self._succ[sid]
        if cached is None:
            intern = self.intern
            cached = self._succ[sid] = tuple(
                (label, intern(successor_key))
                for label, successor_key in
                self.model.successor_items(self._keys[sid]))
        return cached
