"""Static transition extraction: an AST walk over the NAS-layer source.

This is the Aizatulin-style complement to the pipeline's *dynamic*
Algorithm 1 extraction: instead of observing transitions from an
instrumented conformance run, it derives candidate ``(state, trigger)``
handler facts directly from the implementation source —

- which incoming messages have a handler at all (the static trigger
  alphabet);
- which protocol states each handler *reads* (``self.emm_state == X``)
  and *writes* (``self.emm_state = Y``), i.e. the candidate transition
  end-points;
- which responses each handler can send;
- which :class:`~repro.lte.ue.UePolicy` deviation flags a handler's
  behaviour depends on, resolved *transitively* through helper calls
  (``_gate_protected`` → ``_check_dl_count`` carries ``enforce_dl_count``
  up to every protected-message handler).

The cross-check rules (:mod:`repro.lint.xcheck`) compare these facts
against the dynamically extracted FSM: dynamic behaviour with no static
origin is an extraction bug, static handlers with no dynamic trace are
conformance-suite gaps, and dynamic deviations whose static origin is a
seeded policy branch are expected Table I behaviour.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..extraction.signatures import INTERNAL_TRIGGERS
from ..lte import constants as c
from ..lte import mme as mme_module
from ..lte import ue as ue_module
from ..lte.implementations import REGISTRY

#: ``_recv_<message>_impl`` — the UE handler naming convention.
_RECV_IMPL_PREFIX = "_recv_"
_RECV_IMPL_SUFFIX = "_impl"
#: MME handlers use the plain ``recv_<message>`` convention.
_MME_RECV_PREFIX = "recv_"

KIND_MESSAGE = "message"
KIND_INTERNAL = "internal"


@dataclass(frozen=True)
class StaticHandler:
    """Source-level facts about one trigger's handler."""

    module: str
    class_name: str
    method: str
    trigger: str
    kind: str
    line: int
    states_read: Tuple[str, ...] = ()
    states_written: Tuple[str, ...] = ()
    actions: Tuple[str, ...] = ()
    policy_flags: Tuple[str, ...] = ()
    #: whether the dispatch/signature tables know this handler; an
    #: unmapped handler is dead code the extractor can never observe
    mapped: bool = True
    #: True when some state write could not be resolved statically, so
    #: ``states_written`` is a lower bound rather than an exact set
    writes_open: bool = False

    @property
    def location(self) -> str:
        return f"{self.module}::{self.class_name}.{self.method}"


@dataclass
class StaticModel:
    """The static extraction result for one implementation class."""

    implementation: str
    class_name: str
    handlers: List[StaticHandler] = field(default_factory=list)
    #: policy flags this implementation seeds away from the compliant
    #: defaults (statically read from its ``*_policy()`` factory)
    deviant_flags: Tuple[str, ...] = ()

    def by_trigger(self) -> Dict[str, StaticHandler]:
        return {handler.trigger: handler for handler in self.handlers}

    @property
    def triggers(self) -> Set[str]:
        return {handler.trigger for handler in self.handlers}


class _MethodFacts(ast.NodeVisitor):
    """Per-method collector for state reads/writes, sends, policy reads."""

    def __init__(self) -> None:
        self.states_read: Set[str] = set()
        self.states_written: Set[str] = set()
        self.actions: Set[str] = set()
        self.policy_flags: Set[str] = set()
        self.calls: Set[str] = set()
        #: a state write whose value the AST walk could not resolve to a
        #: constant — downstream checks must treat the write set as open
        self.writes_unresolved = False

    # -- helpers --------------------------------------------------------
    @staticmethod
    def _is_self_attr(node: ast.AST, attribute: str) -> bool:
        return (isinstance(node, ast.Attribute)
                and node.attr == attribute
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    @staticmethod
    def _constant_values(node: ast.AST) -> List[str]:
        """Resolve a state/message expression to its string value(s).

        Handles ``c.EMM_REGISTERED`` (resolved against the constants
        module), plain string constants, and conditional expressions
        (both branches).
        """
        if isinstance(node, ast.Attribute) and isinstance(node.value,
                                                          ast.Name):
            resolved = getattr(c, node.attr, None)
            return [resolved] if isinstance(resolved, str) else []
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.IfExp):
            return (_MethodFacts._constant_values(node.body)
                    + _MethodFacts._constant_values(node.orelse))
        return []

    # -- visitors -------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        if any(self._is_self_attr(operand, "emm_state")
               for operand in operands):
            for operand in operands:
                self.states_read.update(self._constant_values(operand))
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if any(self._is_self_attr(target, "emm_state")
               for target in node.targets):
            values = self._constant_values(node.value)
            if values:
                self.states_written.update(values)
            else:
                self.writes_unresolved = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._is_self_attr(node.value, "policy"):
            self.policy_flags.add(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        function = node.func
        if (isinstance(function, ast.Attribute)
                and isinstance(function.value, ast.Name)
                and function.value.id == "self"):
            self.calls.add(function.attr)
            if function.attr in ("_send", "_send_impl") and node.args:
                self.actions.update(self._constant_values(node.args[0]))
        self.generic_visit(node)


def _class_node(module, class_name: str) -> ast.ClassDef:
    tree = ast.parse(inspect.getsource(module))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return node
    raise ValueError(f"class {class_name} not found in {module.__name__}")


def _method_facts(class_node: ast.ClassDef
                  ) -> Dict[str, Tuple[_MethodFacts, int]]:
    facts: Dict[str, Tuple[_MethodFacts, int]] = {}
    for node in class_node.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            collector = _MethodFacts()
            # Walk the whole body including nested defs (timer-expiry
            # callbacks write protocol state too).
            for statement in node.body:
                collector.visit(statement)
            facts[node.name] = (collector, node.lineno)
    return facts


def _transitive(facts: Dict[str, Tuple[_MethodFacts, int]],
                method: str) -> _MethodFacts:
    """Union a method's facts with everything reachable via self-calls."""
    merged = _MethodFacts()
    frontier = [method]
    seen: Set[str] = set()
    while frontier:
        name = frontier.pop()
        if name in seen or name not in facts:
            continue
        seen.add(name)
        collected = facts[name][0]
        merged.states_read |= collected.states_read
        merged.states_written |= collected.states_written
        merged.actions |= collected.actions
        merged.policy_flags |= collected.policy_flags
        merged.writes_unresolved |= collected.writes_unresolved
        frontier.extend(collected.calls - seen)
    return merged


def _recv_impl_table() -> Dict[str, str]:
    """``_recv_<x>_impl`` method name -> canonical message name.

    Inverts :data:`repro.lte.ue._RECV_IMPLS`, the table the synthesized
    dispatch wrappers are generated from — the method-name fragment is
    *not* always the message name (``_recv_tau_accept_impl`` handles
    ``tracking_area_update_accept``).
    """
    return {impl: message
            for message, impl in ue_module._RECV_IMPLS.items()}


def _trigger_for_method(name: str,
                        recv_table: Dict[str, str]
                        ) -> Optional[Tuple[str, str, bool]]:
    """(trigger, kind, mapped) for a UE method name, or ``None``."""
    if name in recv_table:
        return recv_table[name], KIND_MESSAGE, True
    if (name.startswith(_RECV_IMPL_PREFIX)
            and name.endswith(_RECV_IMPL_SUFFIX)):
        # A handler-shaped method the dispatch table does not know:
        # surface it (PCL024) under its name-derived message guess.
        message = name[len(_RECV_IMPL_PREFIX):-len(_RECV_IMPL_SUFFIX)]
        return message, KIND_MESSAGE, False
    if name in INTERNAL_TRIGGERS:
        return INTERNAL_TRIGGERS[name], KIND_INTERNAL, True
    return None


def _handlers_for_class(module, class_name: str) -> List[StaticHandler]:
    class_node = _class_node(module, class_name)
    facts = _method_facts(class_node)
    recv_table = _recv_impl_table()
    handlers: List[StaticHandler] = []
    for method, (_, line) in sorted(facts.items()):
        resolved = _trigger_for_method(method, recv_table)
        if resolved is None:
            continue
        trigger, kind, mapped = resolved
        merged = _transitive(facts, method)
        handlers.append(StaticHandler(
            module=module.__name__, class_name=class_name, method=method,
            trigger=trigger, kind=kind, line=line,
            states_read=tuple(sorted(merged.states_read)),
            states_written=tuple(sorted(merged.states_written)),
            actions=tuple(sorted(merged.actions)),
            policy_flags=tuple(sorted(merged.policy_flags)),
            mapped=mapped and trigger in c.DOWNLINK_MESSAGES
            if kind == KIND_MESSAGE else mapped,
            writes_open=merged.writes_unresolved,
        ))
    return handlers


def _policy_defaults() -> Dict[str, object]:
    """UePolicy's compliant defaults, read from the class AST."""
    class_node = _class_node(ue_module, "UePolicy")
    defaults: Dict[str, object] = {}
    for node in class_node.body:
        if (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and isinstance(node.value, ast.Constant)):
            defaults[node.target.id] = node.value.value
    return defaults


def _deviant_flags(module) -> Tuple[str, ...]:
    """Policy flags a UE module's ``UePolicy(...)`` calls set away from
    the compliant defaults (none for the base UE module itself)."""
    if module is None or module is ue_module:
        return ()
    try:
        tree = ast.parse(inspect.getsource(module))
    except (OSError, TypeError):
        return ()
    defaults = _policy_defaults()
    deviant: Set[str] = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "UePolicy"):
            continue
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            if not isinstance(keyword.value, ast.Constant):
                deviant.add(keyword.arg)
            elif defaults.get(keyword.arg) != keyword.value.value:
                deviant.add(keyword.arg)
    return tuple(sorted(deviant))


def static_ue_model(implementation: str) -> StaticModel:
    """Statically extract handler facts for one UE implementation.

    Handlers come from the shared :class:`~repro.lte.ue.UeNas` base
    (implementations synthesise their prefix-named wrappers over the
    same ``_recv_*_impl`` bodies); subclass overrides, if any, replace
    the base entry.
    """
    ue_class = REGISTRY[implementation]
    handlers = {h.trigger: h
                for h in _handlers_for_class(ue_module, "UeNas")}
    module = inspect.getmodule(ue_class)
    if module is not None and module is not ue_module:
        for handler in _handlers_for_class(module, ue_class.__name__):
            handlers[handler.trigger] = handler
    return StaticModel(
        implementation=implementation,
        class_name=ue_class.__name__,
        handlers=sorted(handlers.values(), key=lambda h: h.trigger),
        deviant_flags=_deviant_flags(module),
    )


def static_mme_handlers() -> List[StaticHandler]:
    """Statically enumerate the testbed MME's ``recv_*`` handlers."""
    class_node = _class_node(mme_module, "MmeNas")
    facts = _method_facts(class_node)
    handlers: List[StaticHandler] = []
    for method, (_, line) in sorted(facts.items()):
        if not method.startswith(_MME_RECV_PREFIX):
            continue
        merged = _transitive(facts, method)
        handlers.append(StaticHandler(
            module=mme_module.__name__, class_name="MmeNas",
            method=method, trigger=method[len(_MME_RECV_PREFIX):],
            kind=KIND_MESSAGE, line=line,
            states_read=tuple(sorted(merged.states_read)),
            states_written=tuple(sorted(merged.states_written)),
            actions=tuple(sorted(merged.actions)),
            writes_open=merged.writes_unresolved,
        ))
    return handlers
