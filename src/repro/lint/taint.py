"""Identity/key-material taint analysis (PCL04x): the dataflow leg.

The spec family checks what the properties *say*, the cross-check family
checks what the implementations *do* control-flow-wise; this module
checks where the privacy-relevant *data* goes.  It is an
interprocedural, AST-level taint engine over the NAS implementation
source (:mod:`repro.lte.ue`, :mod:`repro.lte.mme`, :mod:`repro.lte.hss`
and the ``implementations/*`` personas), in the spirit of
Aizatulin-style model extraction from implementation code:

- a **source catalog** labels the privacy-bearing values: the IMSI and
  permanent key on the :class:`~repro.lte.identifiers.Subscriber`, the
  pending/established K_ASME and NAS keys, SQN material from the USIM
  array and HSS vectors, and the current GUTI;
- a **sink catalog** covers plaintext NAS frame fields
  (``self._send(name, fields, protected=False)``), log/evidence strings
  (``self._note``, ``print``, the logging verbs) and the
  identity-retention pattern (a seeded policy branch that skips the
  mandated deletion of the security context and identifiers);
- a **sanitizer catalog** recognises the integrity/ciphering and
  key-derivation primitives (``f1_mac``/``f2_res``/``nas_mac``/
  ``nas_cipher``), hashing, :func:`repro.lte.identifiers.redact`, and
  GUTI allocation (``allocate`` consumes an IMSI, emits a temporary
  identity).

Per-method summaries are computed over assignments, calls,
message-field construction (dict literals plus incremental
``fields["k"] = v`` writes) and returns; self-call summaries are
instantiated at call sites with symbolic ``@arg:`` labels substituted,
so a dict built in ``power_on`` and transmitted from the nested T3410
retransmission closure still resolves to per-field flows.

Severity resolution per implementation mirrors the PCL02x contract:

- a flow guarded by a *seeded deviant* policy flag is expected Table I
  behaviour → PCL043 (info), naming the flag and the attack id;
- standards-sanctioned flows (IMSI in the initial ``attach_request``,
  the pre-context ``identity_response``, the paging fallback, SQN in
  the authentication exchange) are clean;
- anything else gates: PCL040/PCL041 (errors) and PCL042 (warning).

Finally, :func:`cross_examine` compares the static verdicts against the
paper's dynamic detection matrix
(:data:`repro.properties.expected.NEW_ATTACKS`) and the PCL022
extracted-FSM deviations: a statically visible leak the dynamic side
marks undetected — or a dynamically detected privacy deviation with no
static flow — surfaces as a PCL045 blind-spot warning.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, List, Mapping, Optional, Sequence,
                    Set, Tuple, Union)

from ..lte import hss as hss_module
from ..lte import identifiers as identifiers_module
from ..lte import mme as mme_module
from ..lte import ue as ue_module
from ..lte.implementations import REGISTRY
from .findings import Finding, LintError
from .staticfsm import _class_node, _deviant_flags, _MethodFacts

# ---------------------------------------------------------------------------
# Label vocabulary
# ---------------------------------------------------------------------------
LABEL_IMSI = "imsi"
LABEL_GUTI = "guti"
LABEL_PERMANENT_KEY = "permanent_key"
LABEL_KASME = "kasme"
LABEL_NAS_KEY = "nas_key"
LABEL_SQN = "sqn"

#: labels that are secret key material (never on wire or in logs)
KEY_LABELS = frozenset({LABEL_PERMANENT_KEY, LABEL_KASME, LABEL_NAS_KEY})
#: labels that identify the subscriber permanently
IDENTITY_LABELS = frozenset({LABEL_IMSI})

_ARG_PREFIX = "@arg:"

# ---------------------------------------------------------------------------
# Source catalog: dotted attribute paths on ``self`` → labels
# ---------------------------------------------------------------------------
SELF_ATTR_SOURCES: Dict[str, FrozenSet[str]] = {
    "subscriber.imsi": frozenset({LABEL_IMSI}),
    "subscriber.permanent_key": frozenset({LABEL_PERMANENT_KEY}),
    "pending_kasme": frozenset({LABEL_KASME}),
    "current_guti": frozenset({LABEL_GUTI}),
    "session_imsi": frozenset({LABEL_IMSI}),
    "security_ctx.kasme": frozenset({LABEL_KASME}),
    "security_ctx.k_nas_int": frozenset({LABEL_NAS_KEY}),
    "security_ctx.k_nas_enc": frozenset({LABEL_NAS_KEY}),
    "pending_vector.kasme": frozenset({LABEL_KASME}),
    "pending_vector.autn_sqn": frozenset({LABEL_SQN}),
    "usim.slots": frozenset({LABEL_SQN}),
}

#: method calls whose *result* carries labels, keyed by the called
#: attribute name; a per-key map describes attribute-sensitive results
#: (``vector.kasme`` is key material, ``vector.rand`` is public).
CALL_RESULT_SOURCES: Dict[str, "TaintVal"] = {}

#: function/method names whose result is clean regardless of arguments
#: (one-way derivations and protection primitives), or re-labelled.
SANITIZERS: Dict[str, FrozenSet[str]] = {
    "f1_mac": frozenset(),
    "f2_res": frozenset(),
    "nas_mac": frozenset(),
    "nas_cipher": frozenset(),
    "redact": frozenset(),
    "sha256": frozenset(),
    "hexdigest": frozenset(),
    "digest": frozenset(),
    "derive_kasme": frozenset({LABEL_KASME}),
    "derive_nas_keys": frozenset({LABEL_NAS_KEY}),
    "generate_auth_vector": frozenset(),   # per-key map below
    "allocate": frozenset({LABEL_GUTI}),
    "Guti": frozenset({LABEL_GUTI}),
    "Sqn": frozenset({LABEL_SQN}),
}

# ---------------------------------------------------------------------------
# Sink catalog
# ---------------------------------------------------------------------------
SINK_WIRE = "wire"
SINK_LOG = "log"
SINK_RETENTION = "retention"

#: self-method names that transmit a NAS message: (message_arg, fields_arg)
_WIRE_SINKS = {"_send": (0, 1), "_send_impl": (0, 1), "_transmit": (0, 1)}
#: self-method names that record to the event log: (kind_arg, detail_arg)
_LOG_SINKS = {"_note": (0, 1)}
#: bare-name / logging-verb calls that are log sinks (every positional
#: argument is inspected)
_LOG_CALL_NAMES = {"print"}
_LOG_VERBS = {"debug", "info", "warning", "warn", "error", "exception",
              "critical", "log"}

#: ``self.X`` attributes whose conditional non-deletion is the identity
#: retention pattern (I4: context and identifiers survive a reject)
RETENTION_ATTRS: Dict[str, FrozenSet[str]] = {
    "security_ctx": frozenset({LABEL_KASME, LABEL_NAS_KEY}),
    "pending_kasme": frozenset({LABEL_KASME}),
    "current_guti": frozenset({LABEL_GUTI}),
    "guti_assigned": frozenset(),
    "has_security_ctx": frozenset(),
}

# ---------------------------------------------------------------------------
# Sanctioned standards flows: (message, field) pairs where identity/SQN
# material on a plaintext frame is mandated behaviour (TS 24.301/33.102)
# ---------------------------------------------------------------------------
SANCTIONED_WIRE_FLOWS: FrozenSet[Tuple[str, str]] = frozenset({
    ("attach_request", "imsi"),        # initial attach without a GUTI
    ("attach_request", "guti"),
    ("identity_response", "imsi"),     # pre-context identification
    ("identity_response", "guti"),
    ("paging", "paging_id"),           # IMSI-paging fallback
    ("authentication_request", "sqn_seq"),
    ("authentication_request", "sqn_ind"),
    ("auth_sync_failure", "resync_seq"),
})

#: labels the sanctioned-contract table may excuse (never key material)
_SANCTIONABLE = frozenset({LABEL_IMSI, LABEL_GUTI, LABEL_SQN})

# ---------------------------------------------------------------------------
# Policy flag ↔ Table I attack mapping (the cross-examination contract)
# ---------------------------------------------------------------------------
FLAG_TO_ATTACK: Dict[str, str] = {
    "respond_identity_always": "I5",
    "accept_equal_sqn": "I3",
    "require_auth_after_reject": "I4",
    "enforce_dl_count": "I1",
    "replay_accept_last_only": "I1",
    "accept_plain_after_ctx": "I2",
}

#: flags whose deviation manifests as an identity/key *dataflow* — the
#: subset the taint pass can re-find.  I1/I2 are pure control-flow
#: (replay/plain-header acceptance) and belong to the PCL02x family.
TAINT_VISIBLE_FLAGS: FrozenSet[str] = frozenset({
    "respond_identity_always",
    "accept_equal_sqn",
    "require_auth_after_reject",
})


# ---------------------------------------------------------------------------
# Taint values
# ---------------------------------------------------------------------------
class TaintVal:
    """A label set for a value, optionally with per-key sub-labels.

    ``labels`` taints the whole value; ``keys`` refines dicts and
    attribute-sensitive objects (an ``AuthVector`` is clean as a whole,
    but its ``kasme`` attribute is key material).
    """

    __slots__ = ("labels", "keys")

    def __init__(self, labels: FrozenSet[str] = frozenset(),
                 keys: Optional[Mapping[str, FrozenSet[str]]] = None):
        self.labels = frozenset(labels)
        self.keys: Dict[str, FrozenSet[str]] = dict(keys or {})

    @classmethod
    def clean(cls) -> "TaintVal":
        return cls()

    def is_clean(self) -> bool:
        return not self.labels and not any(self.keys.values())

    def all_labels(self) -> FrozenSet[str]:
        merged = set(self.labels)
        for labels in self.keys.values():
            merged |= labels
        return frozenset(merged)

    def key(self, name: str) -> "TaintVal":
        """Taint of one key/attribute of this value."""
        if name in self.keys:
            return TaintVal(self.keys[name] | self.labels)
        return TaintVal(self.labels)

    def union(self, other: "TaintVal") -> "TaintVal":
        keys = dict(self.keys)
        for name, labels in other.keys.items():
            keys[name] = keys.get(name, frozenset()) | labels
        return TaintVal(self.labels | other.labels, keys)


CALL_RESULT_SOURCES["get_auth_vector"] = TaintVal(keys={
    "kasme": frozenset({LABEL_KASME}),
    "autn_sqn": frozenset({LABEL_SQN}),
})
CALL_RESULT_SOURCES["generate_auth_vector"] = \
    CALL_RESULT_SOURCES["get_auth_vector"]
CALL_RESULT_SOURCES["peek"] = TaintVal(keys={
    "resync_seq": frozenset({LABEL_SQN}),
})
CALL_RESULT_SOURCES["permanent_key"] = TaintVal(
    frozenset({LABEL_PERMANENT_KEY}))


# ---------------------------------------------------------------------------
# Flows
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TaintFlow:
    """One source→sink dataflow fact, fully concrete after instantiation."""

    sink: str                 # SINK_WIRE | SINK_LOG | SINK_RETENTION
    message: str              # NAS message / log kind / method anchor
    field: str                # frame field, "detail", or retained attrs
    labels: FrozenSet[str]
    protected: bool           # wire sinks: integrity-protected frame?
    module: str
    class_name: str
    method: str               # the root (entry-point) method
    line: int
    flags: FrozenSet[str]     # policy flags read along the call chain

    @property
    def location(self) -> str:
        return f"{self.module}::{self.class_name}.{self.method}"

    def describe(self) -> str:
        route = (f"{self.sink}[{self.message}.{self.field}]"
                 if self.sink != SINK_RETENTION
                 else f"retention[{self.field}]")
        shield = ("" if self.sink != SINK_WIRE
                  else " (protected)" if self.protected else " (plaintext)")
        return f"{'/'.join(sorted(self.labels))} -> {route}{shield}"


@dataclass
class TaintModel:
    """The taint-analysis result for one implementation class."""

    implementation: str
    class_name: str
    flows: List[TaintFlow] = field(default_factory=list)
    deviant_flags: Tuple[str, ...] = ()


# Summary-level (possibly symbolic) records -------------------------------
@dataclass(frozen=True)
class _SummaryFlow:
    sink: str
    # message: resolved string, or ("@arg", name) for a parameter
    message: Union[str, Tuple[str, str]]
    # field: concrete key, ("@argdict", name) for a whole dict parameter,
    # or "*" for an unresolvable fields expression
    field: Union[str, Tuple[str, str]]
    labels: FrozenSet[str]            # may contain "@arg:NAME"
    protected: Union[bool, Tuple[str, str]]
    line: int
    keyed: Tuple[Tuple[str, FrozenSet[str]], ...] = ()


@dataclass
class _MethodSummary:
    name: str
    line: int
    flows: List[_SummaryFlow] = field(default_factory=list)
    #: self-calls: (callee, per-param TaintVal binding)
    calls: List[Tuple[str, Dict[str, TaintVal]]] = field(
        default_factory=list)
    returns: TaintVal = field(default_factory=TaintVal)
    policy_flags: FrozenSet[str] = frozenset()


def _attr_path(node: ast.AST) -> Optional[List[str]]:
    """``self.a.b.c`` → ["a", "b", "c"]; None when not rooted at a Name."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class _MethodAnalyzer:
    """Single-method abstract interpreter producing a summary."""

    def __init__(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                 method_names: Set[str]):
        self.node = node
        self.method_names = method_names
        self.env: Dict[str, TaintVal] = {}
        self.summary = _MethodSummary(name=node.name, line=node.lineno)
        policy_flags: Set[str] = set()
        self._policy_flags = policy_flags
        self._param_defaults: Dict[str, ast.expr] = {}
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  if a.arg != "self"]
        for arg, default in zip(
                params[len(params) - len(args.defaults):]
                if args.defaults else [], args.defaults):
            self._param_defaults[arg] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._param_defaults[arg.arg] = default
        self.params = params + [a.arg for a in args.kwonlyargs]
        for name in self.params:
            self.env[name] = TaintVal(frozenset({_ARG_PREFIX + name}))

    # -- expression evaluation ------------------------------------------
    def eval(self, node: Optional[ast.expr]) -> TaintVal:
        if node is None:
            return TaintVal.clean()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, TaintVal.clean())
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Dict):
            keys: Dict[str, FrozenSet[str]] = {}
            whole: Set[str] = set()
            for key, value in zip(node.keys, node.values):
                labels = self.eval(value).all_labels()
                if (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    keys[key.value] = keys.get(key.value,
                                               frozenset()) | labels
                else:
                    whole |= labels
            return TaintVal(frozenset(whole), keys)
        if isinstance(node, ast.Subscript):
            base = self.eval(node.value)
            index = node.slice
            if (isinstance(index, ast.Constant)
                    and isinstance(index.value, str)):
                return base.key(index.value)
            return TaintVal(base.all_labels())
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            merged = TaintVal.clean()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    merged = merged.union(TaintVal(
                        self.eval(child).all_labels()))
            return merged
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.IfExp,
                             ast.Tuple, ast.List, ast.Set, ast.Starred,
                             ast.Await, ast.NamedExpr)):
            merged = TaintVal.clean()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    merged = merged.union(self.eval(child))
            return TaintVal(merged.all_labels())
        # Compare / Constant / comprehension / lambda: booleans and
        # literals carry no identity; comprehensions are out of scope.
        return TaintVal.clean()

    def _eval_attribute(self, node: ast.Attribute) -> TaintVal:
        path = _attr_path(node)
        if path and path[0] == "self":
            dotted = ".".join(path[1:])
            if dotted in SELF_ATTR_SOURCES:
                return TaintVal(SELF_ATTR_SOURCES[dotted])
            # a strict prefix of catalogued sources: expose them as keys
            prefix = dotted + "."
            keys = {source[len(prefix):]: labels
                    for source, labels in SELF_ATTR_SOURCES.items()
                    if source.startswith(prefix)
                    and "." not in source[len(prefix):]}
            if keys:
                return TaintVal(keys=keys)
            if path[1:2] == ["policy"] and len(path) == 3:
                self._policy_flags.add(path[2])
            return TaintVal.clean()
        return self.eval(node.value).key(node.attr)

    def _eval_call(self, node: ast.Call) -> TaintVal:
        name = _call_name(node)
        arg_taints = [self.eval(arg) for arg in node.args]
        arg_taints += [self.eval(kw.value) for kw in node.keywords]
        if name is not None and name in SANITIZERS:
            return TaintVal(SANITIZERS[name])
        if name is not None and name in CALL_RESULT_SOURCES:
            result = CALL_RESULT_SOURCES[name]
            return TaintVal(result.labels, result.keys)
        # self-method call: record for interprocedural instantiation
        if (name is not None
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and name in self.method_names):
            self.summary.calls.append(
                (name, self._bind_call_args(name, node)))
            return TaintVal.clean()
        # default: propagate the union of argument taints (str(), dict(),
        # max(), helper functions like _imsi_from_string)
        merged = TaintVal.clean()
        for taint in arg_taints:
            merged = merged.union(taint)
        return TaintVal(merged.all_labels())

    def _bind_call_args(self, callee: str,
                        node: ast.Call) -> Dict[str, TaintVal]:
        """Evaluate call arguments into a per-value binding.

        Parameter names are resolved later (against the callee summary);
        here positional args are recorded as ``@pos:N``.
        """
        binding: Dict[str, TaintVal] = {}
        for index, arg in enumerate(node.args):
            binding[f"@pos:{index}"] = self.eval(arg)
        for keyword in node.keywords:
            if keyword.arg is not None:
                binding[keyword.arg] = self.eval(keyword.value)
        return binding

    # -- statement interpretation ---------------------------------------
    def run(self) -> _MethodSummary:
        self._exec_body(self.node.body)
        self.summary.policy_flags = frozenset(self._policy_flags)
        return self.summary

    def _exec_body(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self._exec(statement)

    def _exec(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            value = self.eval(statement.value)
            for target in statement.targets:
                self._assign(target, value)
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                self._assign(statement.target, self.eval(statement.value))
        elif isinstance(statement, ast.AugAssign):
            addition = self.eval(statement.value)
            if isinstance(statement.target, ast.Name):
                current = self.env.get(statement.target.id,
                                       TaintVal.clean())
                self.env[statement.target.id] = current.union(addition)
        elif isinstance(statement, ast.Expr):
            if isinstance(statement.value, ast.Call):
                self._exec_call_stmt(statement.value)
            else:
                self.eval(statement.value)
        elif isinstance(statement, ast.Return):
            self.summary.returns = self.summary.returns.union(
                self.eval(statement.value))
        elif isinstance(statement, ast.If):
            self._exec_if(statement)
        elif isinstance(statement, (ast.For, ast.While)):
            if isinstance(statement, ast.For):
                iter_taint = TaintVal(self.eval(statement.iter)
                                      .all_labels())
                self._assign(statement.target, iter_taint)
            else:
                self.eval(statement.test)
            self._exec_body(statement.body)
            self._exec_body(statement.orelse)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            self._exec_body(statement.body)
        elif isinstance(statement, ast.Try):
            self._exec_body(statement.body)
            for handler in statement.handlers:
                self._exec_body(handler.body)
            self._exec_body(statement.orelse)
            self._exec_body(statement.finalbody)
        elif isinstance(statement, (ast.FunctionDef,
                                    ast.AsyncFunctionDef)):
            # Nested closures (timer-expiry callbacks) capture the
            # enclosing frame: interpret the body in the current env.
            self._exec_body(statement.body)

    def _assign(self, target: ast.expr, value: TaintVal) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Subscript):
            base = target.value
            index = target.slice
            if (isinstance(base, ast.Name)
                    and isinstance(index, ast.Constant)
                    and isinstance(index.value, str)):
                current = self.env.get(base.id, TaintVal.clean())
                keys = dict(current.keys)
                keys[index.value] = value.all_labels()
                self.env[base.id] = TaintVal(current.labels, keys)
        elif isinstance(target, (ast.Tuple, ast.List)):
            spread = TaintVal(value.all_labels())
            for element in target.elts:
                self._assign(element, spread)
        # self.X = ... : sources are catalogued declaratively; no update

    def _exec_if(self, statement: ast.If) -> None:
        self.eval(statement.test)
        self._check_retention(statement)
        self._exec_body(statement.body)
        self._exec_body(statement.orelse)

    def _check_retention(self, statement: ast.If) -> None:
        """``if self.policy.FLAG:`` guarding identifier deletion (I4)."""
        path = _attr_path(statement.test)
        if not (path and path[:2] == ["self", "policy"] and len(path) == 3):
            return
        flag = path[2]
        cleared: List[str] = []
        labels: Set[str] = set()
        for inner in statement.body:
            if not isinstance(inner, ast.Assign):
                continue
            for target in inner.targets:
                target_path = _attr_path(target)
                if (target_path and len(target_path) == 2
                        and target_path[0] == "self"
                        and target_path[1] in RETENTION_ATTRS
                        and isinstance(inner.value, ast.Constant)
                        and inner.value.value in (None, 0)):
                    cleared.append(target_path[1])
                    labels |= RETENTION_ATTRS[target_path[1]]
        if len(cleared) >= 2:
            self.summary.flows.append(_SummaryFlow(
                sink=SINK_RETENTION, message=self.node.name,
                field=",".join(sorted(set(cleared))),
                labels=frozenset(labels | {LABEL_IMSI}),
                protected=False, line=statement.lineno))
            self._policy_flags.add(flag)

    def _exec_call_stmt(self, node: ast.Call) -> None:
        name = _call_name(node)
        if (name is not None and name in _WIRE_SINKS
                and self._is_self_call(node)):
            self._record_wire(node, name)
            return
        if (name is not None and name in _LOG_SINKS
                and self._is_self_call(node)):
            kind_arg, detail_arg = _LOG_SINKS[name]
            kind = _MethodFacts._constant_values(
                node.args[kind_arg]) if len(node.args) > kind_arg else []
            detail = (self.eval(node.args[detail_arg])
                      if len(node.args) > detail_arg else TaintVal.clean())
            self._record_log(kind[0] if kind else "*", detail, node.lineno)
            return
        if (name in _LOG_CALL_NAMES
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr in _LOG_VERBS
                    and not self._is_self_call(node))):
            merged = TaintVal.clean()
            for arg in node.args:
                merged = merged.union(self.eval(arg))
            self._record_log(name or "*", merged, node.lineno)
            return
        self.eval(node)

    @staticmethod
    def _is_self_call(node: ast.Call) -> bool:
        return (isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self")

    def _record_log(self, kind: str, detail: TaintVal,
                    line: int) -> None:
        labels = detail.all_labels()
        if labels:
            self.summary.flows.append(_SummaryFlow(
                sink=SINK_LOG, message=kind, field="detail",
                labels=labels, protected=False, line=line))

    def _record_wire(self, node: ast.Call, sink_name: str) -> None:
        message_arg, fields_arg = _WIRE_SINKS[sink_name]
        message: Union[str, Tuple[str, str]] = "*"
        if len(node.args) > message_arg:
            message_node = node.args[message_arg]
            constants = _MethodFacts._constant_values(message_node)
            if constants:
                message = constants[0]
            elif isinstance(message_node, ast.Name):
                message = ("@arg", message_node.id)
        protected = self._resolve_protected(node)
        fields_node = (node.args[fields_arg]
                       if len(node.args) > fields_arg else None)
        if fields_node is None:
            return
        if isinstance(fields_node, ast.Name) \
                and fields_node.id in self.params:
            # a whole parameter dict flows to the frame: defer per-field
            # resolution to instantiation
            self.summary.flows.append(_SummaryFlow(
                sink=SINK_WIRE, message=message,
                field=("@argdict", fields_node.id),
                labels=frozenset(), protected=protected,
                line=node.lineno))
            return
        fields = self.eval(fields_node)
        for key in sorted(fields.keys):
            labels = fields.key(key).all_labels()
            if labels:
                self.summary.flows.append(_SummaryFlow(
                    sink=SINK_WIRE, message=message, field=key,
                    labels=labels, protected=protected,
                    line=node.lineno))
        if fields.labels:
            self.summary.flows.append(_SummaryFlow(
                sink=SINK_WIRE, message=message, field="*",
                labels=fields.labels, protected=protected,
                line=node.lineno))

    def _resolve_protected(self, node: ast.Call
                           ) -> Union[bool, Tuple[str, str]]:
        candidates: List[ast.expr] = []
        if len(node.args) > 2:
            candidates.append(node.args[2])
        for keyword in node.keywords:
            if keyword.arg in ("protected", "ciphered"):
                candidates.append(keyword.value)
        verdict: Union[bool, Tuple[str, str]] = False
        for candidate in candidates:
            if isinstance(candidate, ast.Constant):
                if bool(candidate.value):
                    return True
            elif (isinstance(candidate, ast.Name)
                  and candidate.id in self.params):
                verdict = ("@arg", candidate.id)
            elif isinstance(candidate, ast.UnaryOp):
                continue   # `protected=not preauth_plain`: conservative
        return verdict


# ---------------------------------------------------------------------------
# Class-level analysis: summaries + interprocedural instantiation
# ---------------------------------------------------------------------------
def _method_nodes(module, class_name: str
                  ) -> Dict[str, Union[ast.FunctionDef,
                                       ast.AsyncFunctionDef]]:
    class_node = _class_node(module, class_name)
    return {node.name: node for node in class_node.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


class _ClassTaint:
    """Summaries for one class, with interprocedural flow instantiation."""

    def __init__(self, module, class_name: str,
                 base_module=None, base_class: Optional[str] = None):
        self.module_name = module.__name__
        self.class_name = class_name
        nodes: Dict[str, Union[ast.FunctionDef, ast.AsyncFunctionDef]] = {}
        if base_module is not None and base_class is not None:
            nodes.update(_method_nodes(base_module, base_class))
        overrides = _method_nodes(module, class_name)
        nodes.update(overrides)
        self.nodes = nodes
        self.summaries: Dict[str, _MethodSummary] = {}
        self.params: Dict[str, List[str]] = {}
        method_names = set(nodes)
        for name, node in nodes.items():
            analyzer = _MethodAnalyzer(node, method_names)
            self.summaries[name] = analyzer.run()
            self.params[name] = analyzer.params
        self.called: Set[str] = set()
        for summary in self.summaries.values():
            for callee, _ in summary.calls:
                self.called.add(callee)

    # -- transitive policy flags (staticfsm-style closure) --------------
    def _transitive_flags(self, method: str) -> FrozenSet[str]:
        merged: Set[str] = set()
        frontier = [method]
        seen: Set[str] = set()
        while frontier:
            name = frontier.pop()
            if name in seen or name not in self.summaries:
                continue
            seen.add(name)
            summary = self.summaries[name]
            merged |= summary.policy_flags
            frontier.extend(callee for callee, _ in summary.calls)
        return frozenset(merged)

    def roots(self) -> List[str]:
        """Entry points: methods no other method statically calls.

        Handlers are dispatched through synthesised wrappers and public
        procedures are driven externally, so both surface here.
        """
        skip = set(_WIRE_SINKS) | {"__init__"}
        return sorted(name for name in self.summaries
                      if name not in self.called and name not in skip)

    def flows(self) -> List[TaintFlow]:
        collected: Dict[Tuple, TaintFlow] = {}
        for root in self.roots():
            flags = self._transitive_flags(root)
            binding = {param: TaintVal.clean()
                       for param in self.params.get(root, [])}
            for flow in self._instantiate(root, binding, ()):
                key = (flow.sink, flow.message, flow.field, flow.labels,
                       flow.protected, flow.line)
                previous = collected.get(key)
                merged_flags = flags | flow.flags
                if previous is not None:
                    merged_flags |= previous.flags
                collected[key] = TaintFlow(
                    sink=flow.sink, message=flow.message,
                    field=flow.field, labels=flow.labels,
                    protected=flow.protected, module=self.module_name,
                    class_name=self.class_name, method=root,
                    line=flow.line, flags=merged_flags)
        return sorted(collected.values(),
                      key=lambda f: (f.method, f.line, f.sink,
                                     f.message, f.field,
                                     tuple(sorted(f.labels))))

    def _instantiate(self, method: str, binding: Dict[str, TaintVal],
                     stack: Tuple[str, ...]) -> List[TaintFlow]:
        if method in stack or method not in self.summaries:
            return []
        summary = self.summaries[method]
        results: List[TaintFlow] = []
        for flow in summary.flows:
            results.extend(self._concretize(method, flow, binding))
        for callee, call_binding in summary.calls:
            callee_summary = self.summaries.get(callee)
            if callee_summary is None:
                continue
            resolved: Dict[str, TaintVal] = {}
            callee_params = self.params.get(callee, [])
            for key, value in call_binding.items():
                substituted = self._substitute(value, binding)
                if key.startswith("@pos:"):
                    index = int(key[len("@pos:"):])
                    if index < len(callee_params):
                        resolved[callee_params[index]] = substituted
                else:
                    resolved[key] = substituted
            for param in callee_params:
                if param not in resolved:
                    default = self._default_binding(callee, param)
                    resolved[param] = default
            results.extend(self._instantiate(
                callee, resolved, stack + (method,)))
        return results

    def _default_binding(self, method: str, param: str) -> TaintVal:
        node = self.nodes.get(method)
        if node is None:
            return TaintVal.clean()
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args
                  if a.arg != "self"]
        offset = len(params) - len(args.defaults)
        for index, name in enumerate(params):
            if name == param and index >= offset:
                default = args.defaults[index - offset]
                constants = _MethodFacts._constant_values(default)
                if constants:
                    return TaintVal(frozenset({"@const:" + constants[0]}))
                if isinstance(default, ast.Constant):
                    return TaintVal(
                        frozenset({"@const-bool:%d"
                                   % bool(default.value)}))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == param and default is not None:
                constants = _MethodFacts._constant_values(default)
                if constants:
                    return TaintVal(frozenset({"@const:" + constants[0]}))
        return TaintVal.clean()

    @staticmethod
    def _substitute(value: TaintVal,
                    binding: Dict[str, TaintVal]) -> TaintVal:
        concrete: Set[str] = set()
        keys: Dict[str, FrozenSet[str]] = dict(value.keys)
        for label in value.labels:
            if label.startswith(_ARG_PREFIX):
                bound = binding.get(label[len(_ARG_PREFIX):])
                if bound is not None:
                    concrete |= bound.labels
                    for name, sub in bound.keys.items():
                        keys[name] = keys.get(name, frozenset()) | sub
            else:
                concrete.add(label)
        return TaintVal(frozenset(concrete), keys)

    def _concretize(self, method: str, flow: _SummaryFlow,
                    binding: Dict[str, TaintVal]) -> List[TaintFlow]:
        message = flow.message
        if isinstance(message, tuple):
            bound = binding.get(message[1], TaintVal.clean())
            message = next(
                (label[len("@const:"):] for label in bound.labels
                 if label.startswith("@const:")), "*")
        protected = flow.protected
        if isinstance(protected, tuple):
            bound = binding.get(protected[1], TaintVal.clean())
            protected = "@const-bool:1" in bound.labels
        made: List[TaintFlow] = []

        def emit(field: str, labels: FrozenSet[str]) -> None:
            labels = frozenset(label for label in labels
                               if not label.startswith("@"))
            if labels:
                made.append(TaintFlow(
                    sink=flow.sink, message=str(message), field=field,
                    labels=labels, protected=bool(protected),
                    module=self.module_name, class_name=self.class_name,
                    method=method, line=flow.line, flags=frozenset()))

        if isinstance(flow.field, tuple):
            bound = binding.get(flow.field[1], TaintVal.clean())
            for key in sorted(bound.keys):
                emit(key, bound.key(key).all_labels())
            emit("*", bound.labels)
        else:
            labels = self._substitute(
                TaintVal(flow.labels), binding).all_labels()
            emit(flow.field, labels)
        return made


# ---------------------------------------------------------------------------
# Public analysis entry points
# ---------------------------------------------------------------------------
def taint_ue_model(implementation: str) -> TaintModel:
    """Taint flows for one registered UE implementation."""
    ue_class = REGISTRY[implementation]
    return taint_ue_class(ue_class, implementation=implementation)


def taint_ue_class(ue_class, implementation: Optional[str] = None,
                   deviant_flags: Optional[Sequence[str]] = None
                   ) -> TaintModel:
    """Taint flows for an arbitrary :class:`~repro.lte.ue.UeNas` subclass.

    Base-class handler bodies are merged with subclass-module overrides,
    exactly like the static FSM extraction; ``deviant_flags`` defaults
    to the flags the class's module sets away from the
    :class:`~repro.lte.ue.UePolicy` compliant defaults.
    """
    module = inspect.getmodule(ue_class)
    name = implementation or ue_class.__name__
    if deviant_flags is None:
        deviant_flags = _deviant_flags(module)
    if module is None or module is ue_module:
        analysis = _ClassTaint(ue_module, "UeNas")
    else:
        analysis = _ClassTaint(module, ue_class.__name__,
                               base_module=ue_module, base_class="UeNas")
    return TaintModel(
        implementation=name,
        class_name=ue_class.__name__,
        flows=analysis.flows(),
        deviant_flags=tuple(sorted(deviant_flags)),
    )


def taint_mme_flows() -> List[TaintFlow]:
    """Taint flows for the testbed MME (no policy layer → no PCL043)."""
    return _ClassTaint(mme_module, "MmeNas").flows()


def taint_hss_flows() -> List[TaintFlow]:
    """Taint flows for the HSS (subscriber database; no wire sinks)."""
    return _ClassTaint(hss_module, "Hss").flows()


# ---------------------------------------------------------------------------
# GUTI allocator contract (PCL044)
# ---------------------------------------------------------------------------
def allocator_findings(module=None) -> List[Finding]:
    """Check ``GutiAllocator.allocate``'s derivation preimage.

    The fixed contract: a preimage/key material may reference the IMSI
    only alongside allocator-secret salt (``self._secret``) — otherwise
    an observer who guesses the low-entropy counter can link M-TMSIs to
    subscribers offline.  ``module`` defaults to the real
    :mod:`repro.lte.identifiers`; tests pass broken variants.
    """
    if module is None:
        module = identifiers_module
    findings: List[Finding] = []
    class_node = _class_node(module, "GutiAllocator")
    location = f"{module.__name__}::GutiAllocator.allocate"
    for node in class_node.body:
        if not (isinstance(node, ast.FunctionDef)
                and node.name == "allocate"):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            name = _call_name(call)
            if name not in ("sha256", "sha1", "md5", "new", "blake2b"):
                continue
            text = ast.unparse(call)
            if "imsi" in text and "_secret" not in text:
                findings.append(Finding(
                    "PCL044", location,
                    "GUTI derivation hashes the raw IMSI without "
                    "allocator-secret salt; an observer who guesses the "
                    "allocation counter can link M-TMSIs to subscribers "
                    "offline", line=call.lineno))
    return findings


# ---------------------------------------------------------------------------
# Severity resolution per implementation
# ---------------------------------------------------------------------------
def resolve_findings(flows: Sequence[TaintFlow],
                     deviant_flags: Sequence[str],
                     implementation: str) -> List[Finding]:
    """Map raw flows to PCL040-PCL043 findings for one implementation."""
    findings: List[Finding] = []
    deviant = set(deviant_flags)
    for flow in flows:
        finding = _resolve_one(flow, deviant, implementation)
        if finding is not None:
            findings.append(finding)
    return findings


def _resolve_one(flow: TaintFlow, deviant: Set[str],
                 implementation: str) -> Optional[Finding]:
    labels = flow.labels
    if not labels:
        return None
    # The GUTI exists to be used on the wire and in logs: flows carrying
    # only the temporary identity are the privacy *mechanism* working.
    if labels <= {LABEL_GUTI}:
        return None
    involved = sorted(deviant & flow.flags & TAINT_VISIBLE_FLAGS)
    if involved:
        attacks = sorted({FLAG_TO_ATTACK[flag] for flag in involved})
        return Finding(
            "PCL043", f"{implementation}::{flow.location}",
            f"taint flow {flow.describe()} is reachable via seeded "
            f"policy flag(s) {', '.join(involved)} "
            f"(expected Table I {'/'.join(attacks)} behaviour)",
            line=flow.line,
            details={"flags": ",".join(involved),
                     "attacks": ",".join(attacks),
                     "sink": flow.sink})
    if flow.sink == SINK_RETENTION:
        # With the flag at its compliant default the deletion runs.
        return None
    key_labels = sorted(labels & KEY_LABELS)
    if key_labels:
        return Finding(
            "PCL041", f"{implementation}::{flow.location}",
            f"key material ({', '.join(key_labels)}) reaches "
            f"{flow.sink} sink {flow.message!r} field {flow.field!r} "
            f"unsanitized", line=flow.line,
            details={"labels": ",".join(key_labels), "sink": flow.sink})
    if flow.sink == SINK_LOG:
        if LABEL_IMSI in labels:
            return Finding(
                "PCL042", f"{implementation}::{flow.location}",
                f"permanent identity (imsi) reaches the event log "
                f"({flow.message!r}) unredacted; pass it through "
                f"identifiers.redact()", line=flow.line,
                details={"labels": ",".join(sorted(labels)),
                         "sink": flow.sink})
        return None
    if flow.sink == SINK_WIRE and not flow.protected:
        if (labels <= _SANCTIONABLE
                and (flow.message, flow.field) in SANCTIONED_WIRE_FLOWS):
            return None
        return Finding(
            "PCL040", f"{implementation}::{flow.location}",
            f"{'/'.join(sorted(labels))} reaches plaintext NAS field "
            f"{flow.field!r} of {flow.message!r} outside the "
            f"standards-sanctioned flows", line=flow.line,
            details={"labels": ",".join(sorted(labels)),
                     "message": flow.message, "field": flow.field})
    return None


# ---------------------------------------------------------------------------
# Static vs. dynamic cross-examination (PCL045)
# ---------------------------------------------------------------------------
def cross_examine(implementation: str,
                  taint_findings: Sequence[Finding],
                  deviant_flags: Sequence[str],
                  expected: Optional[Mapping[str, Mapping[str, bool]]]
                  = None,
                  xcheck_findings: Sequence[Finding] = ()
                  ) -> List[Finding]:
    """Compare static leak findings against the dynamic privacy matrix.

    Two blind-spot directions:

    - **instrumentation blind spot**: the taint pass re-finds a seeded
      deviation (PCL043 naming flag F), but the dynamic detection matrix
      marks F's Table I attack *undetected* on this implementation — the
      runtime harness would ship the leak;
    - **static blind spot**: the dynamic side detects a privacy attack
      (or the PCL022 FSM cross-check attributes a deviation to a
      taint-visible flag), but no static flow names that flag — the
      taint catalogs have a gap.
    """
    if expected is None:
        from ..properties.expected import NEW_ATTACKS
        expected = NEW_ATTACKS
    findings: List[Finding] = []
    statically_found: Set[str] = set()
    for finding in taint_findings:
        if finding.rule != "PCL043":
            continue
        statically_found.update(
            flag for flag in finding.details.get("flags", "").split(",")
            if flag)

    for flag in sorted(statically_found):
        attack = FLAG_TO_ATTACK.get(flag)
        if attack is None or attack not in expected:
            continue
        if not expected[attack].get(implementation, False):
            findings.append(Finding(
                "PCL045", f"{implementation}::{flag}",
                f"static taint finds an identity flow via seeded flag "
                f"{flag!r} ({attack}), but the dynamic detection matrix "
                f"marks {attack} undetected on {implementation!r} — "
                f"instrumentation blind spot",
                details={"flag": flag, "attack": attack,
                         "direction": "static-only"}))

    dynamic_flags: Set[str] = set(deviant_flags)
    for finding in xcheck_findings:
        if finding.rule == "PCL022":
            dynamic_flags.update(
                flag for flag
                in finding.details.get("flags", "").split(",") if flag)
    for flag in sorted(dynamic_flags & TAINT_VISIBLE_FLAGS):
        attack = FLAG_TO_ATTACK.get(flag)
        if attack is None or attack not in expected:
            continue
        if (expected[attack].get(implementation, False)
                and flag not in statically_found):
            findings.append(Finding(
                "PCL045", f"{implementation}::{flag}",
                f"dynamic analysis detects {attack} via seeded flag "
                f"{flag!r} on {implementation!r}, but the taint pass "
                f"found no corresponding identity flow — static "
                f"analysis blind spot",
                details={"flag": flag, "attack": attack,
                         "direction": "dynamic-only"}))
    return findings


# ---------------------------------------------------------------------------
# Family entry point
# ---------------------------------------------------------------------------
def lint_taint(implementations: Sequence[str],
               taint_modules: Sequence[str] = (),
               xcheck_findings: Sequence[Finding] = ()
               ) -> List[Finding]:
    """Run the full taint family: UE personas, MME/HSS, allocator, x-exam.

    ``taint_modules`` names external persona modules (importable paths);
    each must define exactly one :class:`~repro.lte.ue.UeNas` subclass.
    """
    findings: List[Finding] = []
    for implementation in implementations:
        if implementation not in REGISTRY:
            raise LintError(
                f"unknown implementation {implementation!r} for the "
                f"taint family")
        model = taint_ue_model(implementation)
        resolved = resolve_findings(model.flows, model.deviant_flags,
                                    implementation)
        findings.extend(resolved)
        findings.extend(cross_examine(
            implementation, resolved, model.deviant_flags,
            xcheck_findings=[f for f in xcheck_findings
                             if f.location.startswith(
                                 implementation + "::")]))
    for module_name in taint_modules:
        findings.extend(lint_external_module(module_name))
    mme_flows = taint_mme_flows() + taint_hss_flows()
    findings.extend(resolve_findings(mme_flows, (), "testbed"))
    findings.extend(allocator_findings())
    return findings


def lint_external_module(module_name: str) -> List[Finding]:
    """Audit an external UE persona module before it ever runs."""
    import importlib
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LintError(
            f"cannot import taint target module {module_name!r}: "
            f"{exc}") from exc
    classes = [obj for obj in vars(module).values()
               if isinstance(obj, type)
               and issubclass(obj, ue_module.UeNas)
               and obj is not ue_module.UeNas
               and obj.__module__ == module.__name__]
    if not classes:
        raise LintError(
            f"taint target module {module_name!r} defines no UeNas "
            f"subclass")
    findings: List[Finding] = []
    for ue_class in sorted(classes, key=lambda cls: cls.__name__):
        model = taint_ue_class(ue_class)
        resolved = resolve_findings(model.flows, model.deviant_flags,
                                    model.implementation)
        findings.extend(resolved)
        findings.extend(cross_examine(
            model.implementation, resolved, model.deviant_flags,
            expected={}))
    return findings
