"""The supported model-checking facade: one door into :mod:`repro.mc`.

Every check, invariant or LTL, and every SMV export goes through
:class:`ModelChecker`:

    from repro.mc import CheckRequest, ModelChecker

    checker = ModelChecker()
    result = checker.check(model, CheckRequest(
        formula="G (ue_state != UE_NULL)", name="SEC-xx"))

A checker owns the (optional) persistent
:class:`~repro.mc.cache.McVerdictCache`: when one is attached, every
check is first looked up under ``(model fingerprint, normalised formula,
threat digest)`` and a hit returns the stored verdict — counterexample
included — without touching the state space.  The engines in
:mod:`repro.mc.checker` stay private behind it.

The returned :class:`~repro.mc.counterexample.CheckResult` carries a
``schema_version``-stamped ``to_dict``/``from_dict`` wire form (the
verdict cache stores it); :class:`CheckRequest` is in-process only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .buchi import normalised_key
from .cache import McVerdictCache, verdict_digest
from .checker import _check_formula
from .counterexample import CheckResult
from .expr import Expr
from .ltl import Formula, parse_ltl
from .model import Model

__all__ = ["CheckRequest", "ModelChecker"]


@dataclass
class CheckRequest:
    """One model-checking question, in declarative form.

    ``formula`` may be LTL source text (parsed against the target
    model's vocabulary at check time) or an already-built
    :class:`~repro.mc.ltl.Formula`.  ``threat_digest`` is an opaque
    component of the persistent-cache key — the CEGAR loop passes the
    digest of the current (possibly refined) threat configuration so
    distinct refinement stages cache independently.
    """

    formula: Union[str, Formula]
    name: str = "property"
    threat_digest: str = ""

    def resolved(self, model: Model) -> Formula:
        """The formula, parsed against ``model``'s vocabulary if textual."""
        if isinstance(self.formula, Formula):
            return self.formula
        return parse_ltl(self.formula, model.variable_names)


class ModelChecker:
    """The one supported verification entry point.

    Thread-safe and cheap to construct; attach a
    :class:`~repro.mc.cache.McVerdictCache` to make verdicts persistent
    across runs (the CEGAR context does this when the analysis config
    sets ``mc_cache_dir``).
    """

    def __init__(self, cache: Optional[McVerdictCache] = None):
        self.cache = cache

    # ------------------------------------------------------------------
    def check(self, model: Model, request: CheckRequest) -> CheckResult:
        """Answer ``model |= request.formula``.

        With a cache attached, a stored verdict for the same ``(model
        content, normalised formula, threat digest)`` is returned
        without any exploration —
        ``result.from_cache`` marks it, and no ``mc.*`` span counters
        are touched, which is what lets a fully warm re-analysis assert
        ``mc.checks == 0``.
        """
        formula = request.resolved(model)
        digest: Optional[str] = None
        if self.cache is not None:
            digest = verdict_digest(model.fingerprint(),
                                    normalised_key(formula),
                                    request.threat_digest)
            cached = self.cache.get(digest)
            if cached is not None:
                cached.property_name = request.name
                return cached
        result = _check_formula(model, formula, request.name)
        if digest is not None:
            self.cache.put(digest, result, key={
                "model_fingerprint": model.fingerprint(),
                "formula": normalised_key(formula),
                "threat_digest": request.threat_digest,
            })
        return result

    def check_formula(self, model: Model,
                      formula: Union[str, Formula],
                      name: str = "property") -> CheckResult:
        """Convenience wrapper: check with default request settings."""
        return self.check(model, CheckRequest(formula=formula, name=name))

    def check_invariant(self, model: Model, invariant: Expr,
                        name: str = "invariant") -> CheckResult:
        """Check ``G invariant`` for a propositional ``invariant``."""
        from .checker import _check_invariant
        return _check_invariant(model, invariant, name)

    # ------------------------------------------------------------------
    def export_smv(self, model: Model, request: CheckRequest) -> str:
        """NuXmv-syntax export of ``model`` plus the request's property."""
        from .smv import to_smv
        return to_smv(model, [(request.name, request.resolved(model))])
